"""The benchmark's traced call contract, checked against the current code.

A traced benchmark run fails when a span count differs from what its oracle
expects (``Workload.expected_calls``). This runs two operations of each
workload under the benchmark's own tracer (for ``cli-mix``, two CLI commands
in traced child processes), so a change that breaks the contract fails here
first. ``bench/`` is read, never changed.
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


# operations traced per workload: two in-process ones each, and for cli-mix
# one ``sweep`` and one ``volume --region separable`` command, each in a
# fresh traced process (cli-mix op i runs CLI_KINDS[i % 9])
TRACED_OPS = {"volume-mc": (1, 2), "sweep-dense": (1, 2), "cli-mix": (3, 17)}


@pytest.mark.parametrize("name", ["volume-mc", "sweep-dense", "cli-mix"])
def test_traced_counts_match_the_oracle(bench, tmp_path, name):
    run, workloads = bench
    cls = {"volume-mc": workloads.VolumeMC, "sweep-dense": workloads.SweepDense,
           "cli-mix": workloads.CliMix}[name]
    workload = cls(SEED, tmp_path / cls.name)
    workload.setup()
    ops = [workload.ops[i] for i in TRACED_OPS[name]]
    if name == "cli-mix":
        assert [(op.kind, op.inputs.get("predicate")) for op in ops] == [
            ("sweep", None), ("volume", "separable")]
    outcomes, problems, layers = run.traced_pass(workload, ops)
    assert [notes for notes in problems if notes] == []
    expected = workload.expected_calls(ops, outcomes)
    got = {span: layers.get(span, {}).get("calls", 0) for span in expected}
    assert got == expected
