"""End-to-end benchmark of the MPMCS pipeline and its sweep and monitor paths.

Run from the repository root::

    python3 e2ebench/run.py --workload monitor-tick --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
mode and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#`` and record the host, the
workload-property counts and any failed op with its reason.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 1009

#: A run does a fixed amount of work, sized to take ``--seconds`` of op time
#: on the reference host; it stops early after this many times that.
SLOW_HOST_FACTOR = 2.0

#: Iterations of the calibration loop, a fixed piece of pure-Python work.
CALIBRATION_LOOPS = 20_000
#: The calibration loop's time on the reference host.  Every reported time
#: is scaled by this over the calibration time measured around it, so a host
#: that runs the interpreter slower for minutes on end does not read as a
#: slower program.  The raw times are printed on the ``#`` line.
REFERENCE_CALIBRATION_S = 1.5e-3
#: Op time between two calibrations in the timed loop.
CALIBRATE_EVERY_S = 0.25


@dataclass
class Pass:
    """The ops of one closed-loop pass over a fresh set-up."""

    latencies: List[float] = field(default_factory=list)
    inputs: List[Any] = field(default_factory=list)
    #: ``None`` where the op raised; its reason is in ``errors``.
    records: List[Any] = field(default_factory=list)
    errors: Dict[int, str] = field(default_factory=dict)
    #: ``on_window`` result, taken right after the count window's last op.
    window: Any = None
    #: (ops done, calibration time) per calibration taken between ops; see
    #: :func:`calibrate`.
    calibrations: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @functools.cached_property
    def scaled(self) -> List[float]:
        """Each op's latency at the reference host's speed, scaled by the
        median of the three calibrations around it.  Read after the pass."""
        done = [ops for ops, _ in self.calibrations]
        times = [seconds for _, seconds in self.calibrations]
        scaled = []
        for index, latency in enumerate(self.latencies):
            last = bisect.bisect_right(done, index) - 1
            local = statistics.median(times[max(last - 1, 0) : last + 2])
            scaled.append(latency * REFERENCE_CALIBRATION_S / local)
        return scaled

    @property
    def scale(self) -> float:
        """The pass's overall factor from raw to scaled op time."""
        return sum(self.scaled) / sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time, at the reference host's speed."""
        return self.ops / sum(self.scaled)


def calibrate() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs just now.

    Taken between ops, never inside one.  The host this benchmark was built
    on runs such a loop at two speeds about 1.6x apart, switching every few
    seconds and drifting between its fast and slow mix over minutes.
    """
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value * value % 7
    return time.perf_counter() - started


def closed_loop(
    workload,
    state,
    ops: int,
    *,
    call: Optional[Callable] = None,
    on_window: Optional[Callable[[], Any]] = None,
    max_seconds: float = float("inf"),
) -> Pass:
    """Run ``ops`` ops back to back from one client.

    Only the entry-point call is timed: drawing the next input and keeping
    what the oracle needs happen between ops.  A host or program too slow
    to finish within ``max_seconds`` of op time stops early, at a multiple
    of the workload's cycle and after the count window.
    """
    call = call or workload.run
    result = Pass()
    op_time = 0.0
    since_calibration = 0.0
    gc.collect()
    result.calibrations.append((0, calibrate()))
    while result.ops < ops:
        op = next(state.stream)
        started = time.perf_counter()
        try:
            output = call(state, op)
        except Exception as exc:  # noqa: BLE001 - an op failure is a result
            output = None
            result.errors[result.ops] = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        result.latencies.append(latency)
        op_time += latency
        since_calibration += latency
        if since_calibration >= CALIBRATE_EVERY_S:
            result.calibrations.append((result.ops, calibrate()))
            since_calibration = 0.0
        result.inputs.append(op)
        result.records.append(None if output is None else workload.record(state, op, output))
        if result.ops == workload.window and on_window is not None:
            result.window = on_window()
        if (
            op_time >= max_seconds
            and result.ops >= workload.window
            and result.ops % workload.cycle == 0
        ):
            break
    return result


def check(workload, state, run: Pass) -> Tuple[Dict[int, str], int]:
    """Failed ops with their reasons, and distinct structures in the window."""
    failures = dict(run.errors)
    mismatches, structures = workload.check(state, run.inputs, run.records)
    failures.update(mismatches)
    return failures, structures


def properties(workload, run: Pass, structures: int) -> Dict[str, Tuple[float, str]]:
    """Workload-property counts over the count window; exact for a seed."""
    records = [record for record in run.records[: workload.window] if record is not None]
    scenarios = sum(record.scenarios for record in records)
    hits, misses = run.window["cache"]
    changed = sum(record.changed for record in records)
    return {
        "workload.scenarios_per_op": (scenarios / workload.window, "scenarios/op"),
        "workload.mpmcs_changed_share": (changed / scenarios if scenarios else 0.0, "share"),
        "workload.distinct_structures": (structures, "count"),
        "api.cache_hits": (hits, "count"),
        "api.cache_misses": (misses, "count"),
        "api.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "share"),
    }


def cache_window(workload, state) -> Callable[[], Dict[str, Any]]:
    """An ``on_window`` callback giving the cache counts since its creation."""
    hits0, misses0 = workload.cache_counts(state)

    def snapshot() -> Dict[str, Any]:
        hits, misses = workload.cache_counts(state)
        return {"cache": (hits - hits0, misses - misses0)}

    return snapshot


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, and its value.

    Below 21 ops no percentile above the median qualifies; the median is
    returned then.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return 100.0 * (index + 1) / n, ordered[index]


def host_info(kernel_tier: str) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_tier": kernel_tier,
        "commit": commit(),
    }


def commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def note(**fields: Any) -> None:
    print("# " + json.dumps(fields, sort_keys=True, default=str), flush=True)


def report_failures(failures: Dict[int, str]) -> None:
    for index in sorted(failures)[:20]:
        note(failed_op=index, reason=failures[index])
    if len(failures) > 20:
        note(failed_ops_not_shown=len(failures) - 20)


def fresh_setup(workload, seed: int, raw: List[float], scaled: List[float]):
    """One fresh set-up of ``workload``.  Its time is appended to ``raw``,
    and to ``scaled`` at the reference host's speed, by the mean of the
    calibrations taken right before and right after it."""
    gc.collect()
    before = calibrate()
    started = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - started
    after = calibrate()
    raw.append(elapsed)
    scaled.append(elapsed * REFERENCE_CALIBRATION_S / ((before + after) / 2))
    return state


def timed(workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Half the set-ups, the timed loop on the last, then the other half.

    Spreading the set-ups over the run lets their median see the host as the
    loop saw it, not as it was during a few seconds before the loop.
    """
    raw_setups: List[float] = []
    setups: List[float] = []
    for _ in range((workload.setups + 1) // 2):
        state = None
        state = fresh_setup(workload, seed, raw_setups, setups)
    run = closed_loop(
        workload,
        state,
        workload.ops_for(seconds),
        on_window=cache_window(workload, state),
        max_seconds=SLOW_HOST_FACTOR * seconds,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    started = time.perf_counter()
    failures, structures = check(workload, state, run)
    check_s = time.perf_counter() - started
    state = None
    while len(setups) < workload.setups:
        fresh_setup(workload, seed, raw_setups, setups)
    percentile, tail_s = tail(run.scaled)
    note(
        scale=run.scale,
        calibrations=len(run.calibrations),
        calibration_ms_median=1e3 * statistics.median(t for _, t in run.calibrations),
        raw_setup_samples_s=raw_setups,
        raw_op_ms_p50=statistics.median(run.latencies) * 1e3,
        raw_op_s_total=sum(run.latencies),
        check_s=check_s,
        ops=run.ops,
        op_ms_tail_percentile=percentile,
        op_ms_tail_ops_beyond=run.ops - round(percentile * run.ops / 100),
        counts={name: value for name, (value, _) in properties(workload, run, structures).items()},
    )
    report_failures(failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run.ops_per_s, "ops/s"),
        "op_ms_p50": (statistics.median(run.scaled) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "ok_share": ((run.ops - len(failures)) / run.ops, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(run.ops, len(failures), metrics)


#: Per-op self time of each layer on the op thread, by metric name.
TIME_METRICS: Dict[str, str] = {
    "api.session_s": "api.session",
    "api.analyze_self_s": "api.analyze",
    "scenarios.run_self_s": "scenarios.run",
    "scenarios.seed_s": "scenarios.seed",
    "scenarios.apply_s": "scenarios.apply",
    "analysis.compose_s": "analysis.compose",
    "monitoring.apply_self_s": "monitoring.apply",
    "maxsat.portfolio_s": "maxsat.portfolio",
    "maxsat.solve_tree_s": "maxsat.solve_tree",
    "maxsat.solve_batch_s": "maxsat.solve_batch",
    "sat.solve_s": "sat.solve",
    "kernels.eval_s": "kernels.eval",
    "kernels.score_s": "kernels.score",
    "bdd.compile_s": "bdd.compile",
    "bdd.eval_s": "bdd.eval",
    "core.encode_s": "core.encode",
}

#: Calls into a layer over the count window, by metric name.
CALL_METRICS: Dict[str, str] = {
    "analysis.compose_calls": "analysis.compose",
    "maxsat.portfolio_calls": "maxsat.portfolio",
    "maxsat.solve_tree_calls": "maxsat.solve_tree",
    "sat.calls": "sat.solve",
    "bdd.compile_calls": "bdd.compile",
}

RERANK_TIERS = ("pooled", "certified", "bnb", "fallback")


def counter_total(snapshot: Dict[str, Any], name: str) -> float:
    return sum(snapshot["counters"].get(name, {}).values())


def traced_pass(workload, seed: int, ops: int, max_seconds: float = float("inf")):
    """A fresh set-up run with the layer wrappers and the metrics registry on.

    Returns the pass and its state, and the recorder, whose totals cover the
    whole pass.  ``Pass.window`` holds the recorder's, the registry's and the
    cache's counts at the end of the count window, taken from zero at the
    first op.
    """
    import tracing
    from repro.observability.metrics import enable_metrics

    recorder = tracing.LayerRecorder()
    tracing.install(recorder)
    try:
        registry = enable_metrics()
        state = workload.setup(seed)
        cache = cache_window(workload, state)
        counters0 = registry.snapshot()

        def on_window() -> Dict[str, Any]:
            window = cache()
            window["layers"] = recorder.snapshot()
            counters = registry.snapshot()
            window["rerank"] = {
                tier: counter_total(counters, f"repro_maxsat_rerank_{tier}_total")
                - counter_total(counters0, f"repro_maxsat_rerank_{tier}_total")
                for tier in RERANK_TIERS
            }
            return window

        recorder.recording = True
        run = closed_loop(
            workload,
            state,
            ops,
            call=recorder.wrap(tracing.OP_LAYER, workload.run),
            on_window=on_window,
            max_seconds=max_seconds,
        )
    finally:
        recorder.recording = False
        recorder.uninstall()
    return run, state, recorder


#: Counts that depend on thread timing, so do not repeat exactly for a seed.
TIMING_DEPENDENT_COUNTS = ("sat.engine_thread_calls",)


def window_counts(workload, run: Pass, structures: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer and workload counts over the traced pass's count window."""
    calls = run.window["layers"]["calls"]
    scenarios = sum(
        record.scenarios for record in run.records[: workload.window] if record is not None
    )
    metrics: Dict[str, Tuple[float, str]] = {
        name: (calls.get(layer, 0), "count") for name, layer in CALL_METRICS.items()
    }
    metrics["sat.engine_thread_calls"] = (
        run.window["layers"]["thread_calls"].get("sat.solve", 0),
        "count",
    )
    metrics["maxsat.solve_tree_per_scenario"] = (
        calls.get("maxsat.solve_tree", 0) / scenarios,
        "1/scenario",
    )
    metrics["sat.calls_per_scenario"] = (calls.get("sat.solve", 0) / scenarios, "1/scenario")
    for tier, count in run.window["rerank"].items():
        metrics[f"maxsat.rerank_{tier}"] = (count, "count")
    metrics.update(properties(workload, run, structures))
    return metrics


def traced(workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced pass, then a traced pass over a second fresh set-up."""
    from tracing import OP_LAYER

    ops = workload.ops_for(seconds / 2)
    cap = SLOW_HOST_FACTOR * seconds / 2
    state = workload.setup(seed)
    plain = closed_loop(workload, state, ops, max_seconds=cap)
    plain_failures, _ = check(workload, state, plain)
    state = None
    gc.collect()

    run, state, recorder = traced_pass(workload, seed, ops, cap)
    failures, structures = check(workload, state, run)

    op_wall = sum(run.latencies)
    per_op = run.scale / run.ops
    metrics: Dict[str, Tuple[float, str]] = {
        name: (recorder.self_s.get(layer, 0.0) * per_op, "s/op")
        for name, layer in TIME_METRICS.items()
    }
    metrics["sat.engine_thread_s"] = (recorder.thread_s.get("sat.solve", 0.0) * per_op, "s/op")
    metrics["trace.op_s"] = (op_wall * per_op, "s/op")
    metrics["trace.unattributed_share"] = (recorder.self_s.get(OP_LAYER, 0.0) / op_wall, "share")
    metrics["trace.overhead_share"] = (1.0 - run.ops_per_s / plain.ops_per_s, "share")
    counts = window_counts(workload, run, structures)
    metrics.update(counts)

    layer_s = {
        layer: seconds
        for layer, seconds in recorder.self_s.items()
        if layer != OP_LAYER
    }
    largest = max(layer_s, key=layer_s.get)
    note(
        scale=run.scale,
        untraced_scale=plain.scale,
        ops=run.ops,
        untraced_ops=plain.ops,
        attributed_share=sum(layer_s.values()) / op_wall,
        largest_layer=largest,
        largest_layer_share=layer_s[largest] / op_wall,
        window_ops=workload.window,
        counts={name: value for name, (value, _) in counts.items()},
    )
    all_failures = {("untraced", i): r for i, r in plain_failures.items()}
    all_failures.update({("traced", i): r for i, r in failures.items()})
    report_failures(all_failures)
    return result(plain.ops + run.ops, len(all_failures), metrics)


def result(attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import kernels
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    note(
        workload=workload.name,
        seed=args.seed,
        held_out_seed=HELD_OUT_SEED,
        seconds=args.seconds,
        trace=args.trace,
        host=host_info(kernels.select().name),
    )
    run = traced if args.trace else timed
    print(json.dumps(run(workload, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
