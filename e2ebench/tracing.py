"""Layer timing for the traced run: wrappers installed from outside ``src/``.

Each wrapper is a span around one call into a layer's public function.  A
span's *self time* is its duration minus the spans it directly contains on
the same thread, so on the op thread the self times of all layers plus the
benchmark's own op span add up to the op wall time exactly.  Each thread has
its own span stack: the thread portfolio runs its engines on worker
threads, so their SAT calls are recorded apart (``sat.engine_thread_s``)
while the portfolio span on the op thread is what blocks the op.

Wrappers are installed where each call site looks the name up: class
attributes for methods, the importing module's global for functions bound by
``from ... import``, and a ``dataclasses.replace``d suite for the frozen
``KernelSuite``.  Until :attr:`LayerRecorder.recording` is switched on they
pass straight through, so the traced run's set-up is not recorded; on the
op thread, calls outside the benchmark's op span are not recorded either.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: The span the benchmark opens around every op; its self time is the op
#: time no layer span covers.
OP_LAYER = "bench.op"


class LayerRecorder:
    """Per-layer self time and call counts, one span stack per thread."""

    def __init__(self) -> None:
        self.recording = False
        self.op_thread = threading.get_ident()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.thread_s: Dict[str, float] = defaultdict(float)
        self.thread_calls: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` wrapped in a span named ``layer``."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.recording:
                return function(*args, **kwargs)
            stack = recorder._stack()
            if not stack and layer != OP_LAYER and threading.get_ident() == recorder.op_thread:
                # Outside any op, e.g. drawing the next input: not op time.
                return function(*args, **kwargs)
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                recorder._add(layer, elapsed - children)

        return traced

    def _add(self, layer: str, self_time: float) -> None:
        if threading.get_ident() == self.op_thread:
            self.self_s[layer] += self_time
            self.calls[layer] += 1
        else:
            with self._lock:
                self.thread_s[layer] += self_time
                self.thread_calls[layer] += 1

    def replace(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name`` (module global or class attribute) until
        :meth:`uninstall`."""
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def patch(self, owner: object, name: str, layer: str) -> None:
        """Replace ``owner.name`` by a span named ``layer`` around it."""
        self.replace(owner, name, self.wrap(layer, getattr(owner, name)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of the counters, for windows that end before the run does."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "thread_s": dict(self.thread_s),
                "thread_calls": dict(self.thread_calls),
            }


def install(recorder: LayerRecorder) -> None:
    """Wrap the layers' public entry points.  Call before building sessions."""
    from repro import kernels
    import repro.api.backends as backends
    import repro.core.encoder as encoder
    import repro.scenarios.incremental as incremental
    import repro.scenarios.sweep as sweep
    from repro.api.session import AnalysisSession
    from repro.bdd.manager import BDDManager
    from repro.maxsat.incremental import IncrementalMaxSATSession
    from repro.maxsat.portfolio import PortfolioSolver
    from repro.monitoring.monitor import TreeMonitor
    from repro.sat.cdcl import CDCLSolver
    from repro.scenarios.scenario import Scenario

    recorder.patch(AnalysisSession, "__init__", "api.session")
    recorder.patch(AnalysisSession, "analyze", "api.analyze")
    recorder.patch(sweep.SweepExecutor, "run", "scenarios.run")
    recorder.patch(sweep, "seed_session_cut_sets", "scenarios.seed")
    recorder.patch(Scenario, "apply", "scenarios.apply")
    recorder.patch(incremental, "incremental_cut_sets", "analysis.compose")
    recorder.patch(TreeMonitor, "apply_update", "monitoring.apply")
    recorder.patch(PortfolioSolver, "solve_with_report", "maxsat.portfolio")
    recorder.patch(IncrementalMaxSATSession, "solve_tree", "maxsat.solve_tree")
    recorder.patch(IncrementalMaxSATSession, "solve_batch", "maxsat.solve_batch")
    recorder.patch(CDCLSolver, "solve", "sat.solve")
    recorder.patch(BDDManager, "from_fault_tree", "bdd.compile")
    recorder.patch(sweep, "probability_of_bdd", "bdd.eval")
    recorder.patch(backends, "encode_mpmcs", "core.encode")
    recorder.patch(encoder, "assemble_structure_cnf", "core.encode")

    select = kernels.select
    suites: Dict[str, object] = {}

    def traced_select(tier=None):
        suite = select(tier)
        if suite.name not in suites:
            suites[suite.name] = dataclasses.replace(
                suite,
                eval_bdd_batch=recorder.wrap("kernels.eval", suite.eval_bdd_batch),
                score_candidates=recorder.wrap("kernels.score", suite.score_candidates),
                greedy_lower_bound=recorder.wrap("kernels.score", suite.greedy_lower_bound),
            )
        return suites[suite.name]

    recorder.replace(kernels, "select", traced_select)
