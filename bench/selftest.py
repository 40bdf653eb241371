"""Self-test of the benchmark's tracing; exits 0 when every check passes.

    python3 bench/selftest.py

* A ``theta_sweep`` over G grid points records exactly G plus the
  bisection-step count of ``separability_margin`` spans (G when the margin
  never changes sign).
* Two traced passes over the same seeded operations record identical call
  counts, for every workload (the CLI one through its child bootstrap).
* Leaving the tracer restores every function it wrapped.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from run import traced_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BISECT_TOL, WORKLOADS  # noqa: E402


def check_sweep_counts() -> list[str]:
    from ginfo import bipartite
    grid = np.linspace(0.01, 0.99, 57)
    failures = []
    for eta, crossing in ((0.0, True), (0.5, False)):
        with Tracer() as tracer:
            result = bipartite.theta_sweep(bipartite.PairConfig(m=0.25, n=0.25, eta=eta), grid)
        got = tracer.stats["bipartite.separability_margin"][0]
        idx = oracle.first_crossing(grid, oracle.pair_margins(0.25, 0.25, eta, grid))
        steps = 0 if idx is None else oracle.bisection_steps(grid[idx], grid[idx + 1], BISECT_TOL)
        if (result.crossing_theta is not None) != crossing or (idx is not None) != crossing:
            failures.append(f"eta={eta}: crossing expected={crossing}")
        if got != grid.size + steps:
            failures.append(f"eta={eta}: {got} margin spans, expected {grid.size} + {steps}")
    return failures


def check_repeatable_counts(workdir: Path) -> list[str]:
    failures = []
    for name, cls in WORKLOADS.items():
        workload = cls(7, workdir / name)
        workload.setup()
        ops = workload.ops[4:6]          # in the CLI mix: distance inline and from files
        counts = []
        for _ in range(2):
            _, problems, layers = traced_pass(workload, ops)
            failures += [f"{name}: {p}" for notes in problems for p in notes]
            counts.append({key: row["calls"] for key, row in layers.items()})
        if counts[0] != counts[1] or not counts[0]:
            failures.append(f"{name}: call counts differ between two traced passes")
    return failures


def check_uninstall() -> list[str]:
    from ginfo import bipartite, fisher, states, symplectic
    before = (bipartite.symplectic_spectrum, fisher.rsup_check, states.rsup_check,
              symplectic.CovarianceMatrix.__init__)
    with Tracer():
        wrapped = fisher.rsup_check is not before[1]
    after = (bipartite.symplectic_spectrum, fisher.rsup_check, states.rsup_check,
             symplectic.CovarianceMatrix.__init__)
    if not wrapped or any(a is not b for a, b in zip(before, after)):
        return ["the tracer did not wrap imported names, or did not restore them"]
    return []


def main() -> int:
    workdir = ROOT / ".bench_work" / "selftest"
    try:
        failures = check_sweep_counts() + check_repeatable_counts(workdir) + check_uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print("FAIL", failure)
    print("benchmark self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
