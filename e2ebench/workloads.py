"""The benchmark's workloads: seeded inputs, one op each, and the oracle.

Every workload drives one public entry point with default settings:

* ``analyze-cold``: ``AnalysisSession().analyze(tree, ["mpmcs"])`` over the
  tree ladder in a seeded shuffled order, a fresh session per op;
* ``sweep-drift``: one ``SweepExecutor(backend="maxsat").run`` per op over a
  seeded grid of probability scenarios on ``random_fault_tree(60, seed=3)``;
* ``sweep-structural``: the same executor shape on
  ``random_fault_tree(40, seed=7)`` over structural scenarios that never
  repeat within a run;
* ``monitor-tick``: one ``TreeMonitor.apply_update`` per op on
  ``random_fault_tree(60, seed=3)``, fed by ``SyntheticFeed``.

``BENCHMARK.json`` lists all but ``sweep-drift``; see README.md for why.
Inputs depend only on the seed.  Outputs are checked, outside the timed
window, against the exact BDD backend on the same tree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import AnalysisSession
from repro.api.cache import subtree_structure_hashes
from repro.exceptions import ReproError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.monitoring import SyntheticFeed, TreeMonitor
from repro.scenarios import (
    AddRedundancy,
    AddSpareChild,
    RemoveEvent,
    Scenario,
    SetProbability,
    SetVotingThreshold,
    SweepExecutor,
)
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES

#: ``random_fault_tree`` rungs of the ladder as (num_basic_events, seed).
RANDOM_LADDER: Tuple[Tuple[int, int], ...] = ((40, 7), (60, 3), (60, 13), (160, 7))

#: Probabilities are products of the same factors taken in another order by
#: each backend, so they agree to a few ulps, not bit for bit.
REL_TOL = 1e-12

#: Scenarios per ``sweep-drift`` op, and per ``sweep-structural`` op.
DRIFT_SCENARIOS = 40
STRUCTURAL_SCENARIOS = 10


def ladder_trees() -> List[FaultTree]:
    """The 10 library trees (Fig. 1 first) and the four random rungs."""
    trees = [factory() for factory in dict.fromkeys(NAMED_TREES.values())]
    trees += [random_fault_tree(num_basic_events=n, seed=s) for n, s in RANDOM_LADDER]
    return trees


def structure_key(tree: FaultTree) -> str:
    return subtree_structure_hashes(tree)[tree.top_event]


class Reference:
    """Exact MPMCS probability and P(top) from the ``bdd`` backend."""

    def __init__(self) -> None:
        self.session = AnalysisSession()

    def report(self, tree: FaultTree):
        report = self.session.analyze(tree, ["mpmcs", "top_event"], backend="bdd")
        self.session.clear_cache()
        return report

    def of(self, tree: FaultTree) -> Tuple[float, float]:
        report = self.report(tree)
        return report.mpmcs.probability, report.top_event.exact


def mismatch(what: str, got: Optional[float], want: float) -> Optional[str]:
    """A reason string when ``got`` differs from the reference ``want``."""
    if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        return f"{what} {got!r} != bdd {want!r}"
    return None


@dataclass
class State:
    """One fresh set-up of a workload: its trees, entry point and op stream."""

    seed: int
    trees: List[FaultTree]
    target: Any = None
    stream: Optional[Iterator[Any]] = None
    #: Cache hits and misses summed from per-op reports (``analyze-cold``).
    cache: List[int] = field(default_factory=lambda: [0, 0])


@dataclass
class Record:
    """What the oracle and the counts need from one op's output."""

    scenarios: int
    #: (MPMCS probability, P(top) or ``None``) per tree of
    #: :meth:`Workload.trees`, in the same order.
    values: List[Tuple[Optional[float], Optional[float]]]
    changed: int = 0


class Workload:
    """Interface of one workload; see the module docstring for each."""

    name = ""
    #: Fresh set-ups per timed run; ``setup_s`` is their median.
    setups = 5
    #: The timed loop stops only after a multiple of this many ops.
    cycle = 1
    #: Ops in the count window, whose counts repeat exactly for a seed.
    window = 1
    #: Ops per second of op time on the reference host (2 cores, Python
    #: 3.11, numpy 2.4); sizes a run's fixed work from ``--seconds``.
    rate = 1.0

    def ops_for(self, seconds: float) -> int:
        """Ops in a run of about ``seconds``: whole cycles, at least the window."""
        cycles = math.ceil(seconds * self.rate / self.cycle)
        return max(self.window, cycles * self.cycle)

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def run(self, state: State, op: Any) -> Any:
        raise NotImplementedError

    def record(self, state: State, op: Any, output: Any) -> Record:
        raise NotImplementedError

    def describe(self, op: Any) -> Any:
        """A hashable, timestamp-free fingerprint of an op input."""
        raise NotImplementedError

    def cache_counts(self, state: State) -> Tuple[int, int]:
        artifacts = state.target.session.artifacts
        return artifacts.hits, artifacts.misses

    def trees(self, state: State, inputs: Sequence[Any]) -> Iterator[List[FaultTree]]:
        """Per op input, the trees the op analysed, built independently."""
        raise NotImplementedError

    def check(
        self, state: State, inputs: Sequence[Any], records: Sequence[Optional[Record]]
    ) -> Tuple[List[Tuple[int, str]], int]:
        """Compare every value with the BDD backend on the same tree.

        ``records`` holds ``None`` for ops that raised.  Returns (op index,
        reason) per other failed op, and the number of distinct structures
        among the trees of the count window.
        """
        reference = Reference()
        known: Dict[int, Tuple[float, float]] = {}
        failures = []
        structures = set()
        for index, (record, trees) in enumerate(zip(records, self.trees(state, inputs))):
            if index < self.window:
                structures.update(structure_key(tree) for tree in trees)
            if record is None:
                continue
            for tree, (mpmcs, ptop) in zip(trees, record.values):
                want = known.get(id(tree))
                if want is None:
                    want = reference.of(tree)
                    if any(tree is fixed for fixed in state.trees):
                        known[id(tree)] = want
                reason = mismatch(f"{tree.name}: MPMCS probability", mpmcs, want[0])
                if reason is None and ptop is not None:
                    reason = mismatch(f"{tree.name}: P(top)", ptop, want[1])
                if reason is not None:
                    failures.append((index, reason))
                    break
        return failures, len(structures)


class AnalyzeCold(Workload):
    name = "analyze-cold"
    setups = 5
    cycle = 14
    window = 14
    rate = 38.0

    def setup(self, seed: int) -> State:
        trees = ladder_trees()
        assert len(trees) == self.cycle
        for tree in trees:
            AnalysisSession().analyze(tree, ["mpmcs"])
        return State(seed=seed, trees=trees, stream=self._order(seed, trees))

    @staticmethod
    def _order(seed: int, trees: List[FaultTree]) -> Iterator[FaultTree]:
        rng = random.Random(f"{seed}:order")
        order = list(range(len(trees)))
        while True:
            rng.shuffle(order)
            for index in order:
                yield trees[index]

    def run(self, state: State, tree: FaultTree):
        return AnalysisSession().analyze(tree, ["mpmcs"])

    def record(self, state: State, tree: FaultTree, report) -> Record:
        state.cache[0] += report.profile.get("cache_hits", 0)
        state.cache[1] += report.profile.get("cache_misses", 0)
        return Record(scenarios=1, values=[(report.mpmcs.probability, None)])

    def trees(self, state: State, inputs: Sequence[FaultTree]) -> Iterator[List[FaultTree]]:
        for tree in inputs:
            yield [tree]

    def describe(self, tree: FaultTree) -> Any:
        return tree.name

    def cache_counts(self, state: State) -> Tuple[int, int]:
        return state.cache[0], state.cache[1]


class _Sweep(Workload):
    """``SweepExecutor(backend="maxsat").run`` once per op on a fixed tree."""

    tree_shape: Tuple[int, int] = (0, 0)
    window = 5

    def build(self, seed: int, tree: FaultTree) -> Iterator[List[Scenario]]:
        raise NotImplementedError

    def setup(self, seed: int) -> State:
        n, s = self.tree_shape
        tree = random_fault_tree(num_basic_events=n, seed=s)
        state = State(seed=seed, trees=[tree], target=SweepExecutor(backend="maxsat"))
        state.stream = self.build(seed, tree)
        # Warm-up: the cold cut-set composition, BDD compile and warm MaxSAT
        # session, paid by the first sweep a service would run.
        state.target.run(tree, next(state.stream))
        return state

    def run(self, state: State, scenarios: List[Scenario]):
        return state.target.run(state.trees[0], scenarios)

    def record(self, state: State, scenarios: List[Scenario], report) -> Record:
        values = [(report.base_mpmcs_probability, report.base_top_event)]
        values += [(outcome.mpmcs_probability, outcome.top_event) for outcome in report.outcomes]
        changed = sum(1 for outcome in report.outcomes if outcome.mpmcs_changed)
        return Record(scenarios=len(scenarios), values=values, changed=changed)

    def trees(self, state: State, inputs: Sequence[List[Scenario]]) -> Iterator[List[FaultTree]]:
        base = state.trees[0]
        for scenarios in inputs:
            yield [base] + [scenario.apply(base) for scenario in scenarios]

    def describe(self, scenarios: List[Scenario]) -> Any:
        return tuple(scenario.describe() for scenario in scenarios)


def _clamp(value: float) -> float:
    return min(0.99, max(1e-6, value))


class SweepDrift(_Sweep):
    name = "sweep-drift"
    tree_shape = (60, 3)
    rate = 3.0

    def build(self, seed: int, tree: FaultTree) -> Iterator[List[Scenario]]:
        members = Reference().report(tree).mpmcs.events
        warmup = random.Random(f"{seed}:warmup")
        yield self.grid(warmup, tree, members)
        rng = random.Random(f"{seed}:ops")
        while True:
            yield self.grid(rng, tree, members)

    @staticmethod
    def grid(rng: random.Random, tree: FaultTree, members: Sequence[str]) -> List[Scenario]:
        """Scenarios that move 2-4 events at once; half also lower a member
        of the base MPMCS 10-1000x, which pushes the MPMCS across flip
        boundaries."""
        events = sorted(tree.event_names)
        probabilities = tree.probabilities()
        scenarios = []
        for index in range(DRIFT_SCENARIOS):
            values: Dict[str, float] = {}
            for event in rng.sample(events, rng.randint(2, 4)):
                values[event] = _clamp(probabilities[event] * math.exp(rng.gauss(0.0, 1.0)))
            if rng.random() < 0.5:
                event = rng.choice(list(members))
                values[event] = _clamp(
                    probabilities[event] * math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
                )
            patches = [SetProbability(event, value) for event, value in sorted(values.items())]
            scenarios.append(Scenario(f"drift-{index}", patches))
        return scenarios


class SweepStructural(_Sweep):
    name = "sweep-structural"
    tree_shape = (40, 7)
    rate = 3.8

    @staticmethod
    def patches(tree: FaultTree) -> List[Any]:
        """Every single structural edit of ``tree`` that applies cleanly."""
        candidates: List[Any] = []
        for event in sorted(tree.event_names):
            candidates += [RemoveEvent(event), AddRedundancy(event, 1), AddRedundancy(event, 2)]
        for gate in sorted(tree.gates.values(), key=lambda g: g.name):
            if gate.gate_type is not GateType.OR:
                candidates.append(AddSpareChild(gate.name, 0.05))
            if gate.gate_type is GateType.VOTING:
                candidates += [
                    SetVotingThreshold(gate.name, k)
                    for k in range(1, len(gate.children) + 1)
                    if k != gate.k
                ]
        return [patch for patch in candidates if _applies(tree, [patch])]

    def build(self, seed: int, tree: FaultTree) -> Iterator[List[Scenario]]:
        """Pairs of edits drawn without repeats; pairs that do not apply
        (an edit of an event the other removed) are skipped."""
        pool = self.patches(tree)
        rng = random.Random(f"{seed}:ops")
        seen = set()
        while True:
            scenarios: List[Scenario] = []
            while len(scenarios) < STRUCTURAL_SCENARIOS:
                pair = tuple(sorted(rng.sample(range(len(pool)), 2)))
                if pair in seen:
                    continue
                seen.add(pair)
                patches = [pool[pair[0]], pool[pair[1]]]
                if _applies(tree, patches):
                    scenarios.append(Scenario(f"edit-{len(seen)}", patches))
            yield scenarios


def _applies(tree: FaultTree, patches: Sequence[Any]) -> bool:
    try:
        Scenario("probe", patches).apply(tree)
    except ReproError:
        return False
    return True


class MonitorTick(Workload):
    name = "monitor-tick"
    window = 200
    rate = 100.0

    def setup(self, seed: int) -> State:
        tree = random_fault_tree(num_basic_events=60, seed=3)
        monitor = TreeMonitor(tree, backend="maxsat")
        monitor.ensure_base()
        feed = SyntheticFeed(tree, updates=10**9, seed=seed, events_per_update=2)
        return State(seed=seed, trees=[tree], target=monitor, stream=iter(feed))

    def run(self, state: State, update):
        return state.target.apply_update(update)

    def record(self, state: State, update, delta) -> Record:
        return Record(
            scenarios=1,
            values=[(delta.mpmcs_probability, delta.ptop)],
            changed=int(delta.mpmcs_changed),
        )

    def trees(self, state: State, inputs: Sequence[Any]) -> Iterator[List[FaultTree]]:
        # Replay the updates on the benchmark's side, independently of the
        # monitor's own staging.
        base = state.trees[0]
        current = dict(base.probabilities())
        for update in inputs:
            current.update(update.values)
            tree = base.copy()
            for event, value in current.items():
                tree.set_probability(event, value)
            yield [tree]

    def describe(self, update) -> Any:
        return (update.seq, update.values)

    def cache_counts(self, state: State) -> Tuple[int, int]:
        artifacts = state.target.executor.session.artifacts
        return artifacts.hits, artifacts.misses


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (AnalyzeCold(), SweepDrift(), SweepStructural(), MonitorTick())
}
