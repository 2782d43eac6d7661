"""Two runs with the same seed draw the same op inputs and the same counts.

Run with ``python -m pytest e2ebench`` from the repository root.  Each
workload is set up twice and run for its count window with the layer
wrappers on, so a later claim on a count can rest on it.
"""

import pytest

from run import TIMING_DEPENDENT_COUNTS, check, traced_pass, window_counts
from workloads import WORKLOADS


def _window(workload, seed):
    run, state, _ = traced_pass(workload, seed, workload.window)
    assert run.ops == workload.window
    failures, structures = check(workload, state, run)
    assert failures == {}
    counts = {
        name: value
        for name, (value, _) in window_counts(workload, run, structures).items()
        if name not in TIMING_DEPENDENT_COUNTS
    }
    return [workload.describe(op) for op in run.inputs], counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(name):
    workload = WORKLOADS[name]
    inputs, counts = _window(workload, seed=5)
    assert _window(workload, seed=5) == (inputs, counts)
    assert counts["workload.scenarios_per_op"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    workload = WORKLOADS[name]
    stream = lambda seed: workload.setup(seed).stream  # noqa: E731
    first, second = stream(5), stream(6)
    draws = [(workload.describe(next(first)), workload.describe(next(second))) for _ in range(3)]
    assert any(a != b for a, b in draws)
