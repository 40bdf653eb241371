"""The benchmark's traced call contract, checked against the current code.

A traced benchmark run fails when a span count differs from what its oracle
expects (``Workload.expected_calls``). This runs two operations of each
in-process workload under the benchmark's own tracer, so a change that breaks
the contract fails here first. ``bench/`` is read, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SEED = 21


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``run`` and ``workloads`` modules, imported from ``bench/``.

    ``bench/`` is on ``sys.path`` and its modules are in ``sys.modules`` only
    while this module's tests run, so their bare names (``run``, ``oracle``,
    ...) shadow nothing elsewhere in the session.
    """
    before = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        yield importlib.import_module("run"), importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH_DIR)):
            del sys.modules[name]


@pytest.mark.parametrize("name", ["volume-mc", "sweep-dense"])
def test_traced_counts_match_the_oracle(bench, tmp_path, name):
    run, workloads = bench
    cls = {"volume-mc": workloads.VolumeMC, "sweep-dense": workloads.SweepDense}[name]
    workload = cls(SEED, tmp_path / cls.name)
    workload.setup()
    ops = workload.ops[1:3]
    outcomes, problems, layers = run.traced_pass(workload, ops)
    assert [notes for notes in problems if notes] == []
    expected = workload.expected_calls(ops, outcomes)
    got = {span: layers.get(span, {}).get("calls", 0) for span in expected}
    assert got == expected
