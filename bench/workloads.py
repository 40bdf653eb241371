"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked. Inputs come from
the workload seed alone; ginfo receives only the generated inputs.

Why these three (each exercises the mechanism of one planned optimisation and
bypasses the others):

* ``cli-mix`` -- fresh ``ginfo`` processes, one after another, cycling through
  figure1/2/3, sweep, distance (inline and from matrix files), metric,
  oscillator and volume at its 1000-sample minimum. Interpreter start-up and
  the numpy/scipy imports do most of the work here and the kernels little, so
  this is where an import diet shows. The benchmark writes the matrix files
  with ``matrixio.save_cvm`` right before the CLI reads them back.
* ``sweep-dense`` -- in-process ``bipartite.theta_sweep`` on grids of 200 to
  600 points (400 on average). Half the pair configurations change sign and
  trigger bisection (small eta), half do not (large eta). The 8x8 spectrum,
  ``bopp_shift`` and ``pair_cvm`` do nearly all the work, with no import and
  no 4x4 work: the target of a stack-aware Hermitian spectrum. The grid size
  varies so that call times spread: with equal calls, the machine's slow
  bursts split the times into two narrow clusters and the median flips
  between them from run to run.
* ``volume-mc`` -- in-process ``fisher.regularized_volume`` at 1000 samples
  over the quantum, separable and entangled predicates on seeded boxes. The
  scalar 4x4 per-sample path (``rsup_check``, ``ppt_separable``,
  ``regularizer_value``) does all the work: the target of vectorized two-mode
  invariants. Acceptance runs from ~5% (entangled) to ~80% (quantum), so the
  share of samples that reach the PPT step varies. A batched kernel that
  helps ``sweep-dense`` but costs more per scalar call shows up here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

GRID_POINTS = (200, 600)     # sweep-dense grid sizes, inclusive
BISECT_TOL = 1e-6            # theta_sweep's default
VOLUME_SAMPLES = 1000        # the CLI's and the library's minimum
PREDICATES = ("quantum", "separable", "entangled")
CLI_ENTRY = "import sys; from ginfo.cli import main; sys.exit(main())"   # as the ginfo script


def child_env() -> dict:
    """Environment of every child: the checkout's sources, the serial sweep."""
    env = {k: v for k, v in os.environ.items() if k != "GINFO_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def _num(x) -> str:
    return f"{float(x):.17g}"


@dataclass
class Outcome:
    seconds: float       # wall time of the operation alone
    work: int            # grid points, samples or commands
    output: object       # what the check needs
    rss_kb: int = 0      # peak RSS of a child process, when there is one


def pair_family(rng, crossing: bool) -> tuple[float, float, float]:
    """(m, n, eta): small eta crosses the separability threshold, large eta does not."""
    if crossing:
        radius, eta = rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.05)
    else:
        radius, eta = rng.uniform(0.05, 0.3), rng.uniform(0.6, 1.0)
    angle = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    return radius * math.cos(angle), radius * math.sin(angle), eta


def volume_box(rng) -> tuple[tuple[float, float], ...]:
    a_lo, b_lo = rng.uniform(0.5, 0.7, 2)
    a_hi, b_hi = a_lo + rng.uniform(0.8, 1.2), b_lo + rng.uniform(0.8, 1.2)
    c, d = rng.uniform(0.4, 0.6, 2)
    return ((a_lo, a_hi), (b_lo, b_hi), (-c, c), (-d, d))


class Workload:
    name = ""
    module = ""          # what a fresh interpreter imports for this workload
    pool_size = 256
    trace_ops = 12       # fixed operation count of a traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []

    def setup(self):
        """Import ginfo, generate the input pool, run one warm-up operation."""
        rng = np.random.default_rng(self.seed)
        self.ops = [self.make_op(rng, i) for i in range(self.pool_size)]
        warm = self.run(self.ops[0])
        problems = self.check(self.ops[0], warm)
        if problems:
            raise RuntimeError(f"warm-up operation failed: {problems}")

    def make_op(self, rng, index: int):
        raise NotImplementedError

    def run(self, op, traced_stats: str | None = None) -> Outcome:
        raise NotImplementedError

    def check(self, op, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def expected_calls(self, ops, outcomes) -> dict:
        """Span counts a traced pass over ``ops`` must record exactly."""
        raise NotImplementedError

    def ratios(self, ops, outcomes, layers) -> dict:
        """Margin evaluations per grid point and accepted share of samples."""
        raise NotImplementedError


class SweepDense(Workload):
    name = "sweep-dense"
    module = "ginfo.bipartite"
    pool_size = 512

    def setup(self):
        from ginfo import bipartite
        self.bipartite = bipartite
        super().setup()

    def make_op(self, rng, index):
        m, n, eta = pair_family(rng, crossing=index % 2 == 0)
        grid = np.linspace(0.01, 0.99, int(rng.integers(GRID_POINTS[0], GRID_POINTS[1] + 1)))
        return self.bipartite.PairConfig(m=m, n=n, eta=eta), grid

    def run(self, op, traced_stats=None):
        cfg, grid = op
        start = time.perf_counter()
        result = self.bipartite.theta_sweep(cfg, grid)
        return Outcome(time.perf_counter() - start, len(grid), result)

    def check(self, op, outcome):
        cfg, grid = op
        rows = outcome.output.rows
        if [r.theta for r in rows] != list(grid):
            return ["sweep rows do not follow the grid"]
        return oracle.check_sweep(cfg.m, cfg.n, cfg.eta, grid, [r.margin for r in rows],
                                  outcome.output.crossing_theta, BISECT_TOL)

    def expected_calls(self, ops, outcomes):
        margins = sum(oracle.sweep_margin_calls(c.m, c.n, c.eta, grid, BISECT_TOL)
                      for c, grid in ops)
        return {"bipartite.theta_sweep": len(ops),
                "bipartite.separability_margin": margins,
                "bipartite.deformed_pt_spectrum": margins,
                "symplectic.symplectic_spectrum.dim8": margins}

    def ratios(self, ops, outcomes, layers):
        points = sum(o.work for o in outcomes)
        evals = layers.get("bipartite.separability_margin", {}).get("calls", 0)
        return {"bipartite.margin_evals_per_point": evals / points,
                "fisher.accept_ratio": 0.0}


class VolumeMC(Workload):
    name = "volume-mc"
    module = "ginfo.fisher"

    def setup(self):
        from ginfo import fisher
        self.fisher = fisher
        self.reg = fisher.RegularizerConfig()
        super().setup()

    def make_op(self, rng, index):
        region = self.fisher.Region(box=volume_box(rng),
                                    predicate=PREDICATES[index % len(PREDICATES)])
        return region, int(rng.integers(2 ** 31))

    def run(self, op, traced_stats=None):
        region, seed = op
        start = time.perf_counter()
        est = self.fisher.regularized_volume(region, self.reg, samples=VOLUME_SAMPLES, seed=seed)
        return Outcome(time.perf_counter() - start, VOLUME_SAMPLES, est)

    def _oracle(self, op):
        region, seed = op
        return oracle.volume(region.box, region.predicate, self.reg.kappa,
                             self.reg.power, VOLUME_SAMPLES, seed)

    def check(self, op, outcome):
        est = outcome.output
        problems = oracle.check_volume(self._oracle(op), est.volume, est.std_error,
                                       est.accepted)
        if est.samples != VOLUME_SAMPLES or est.zero_measure != (est.accepted == 0):
            problems.append("sample count or zero-measure flag is wrong")
        return problems

    def expected_calls(self, ops, outcomes):
        refs = [self._oracle(op) for op in ops]
        accepted = sum(r["accepted"] for r in refs)
        return {"fisher.regularized_volume": len(ops),
                "fisher.regularizer_value": accepted,
                "fisher.fisher_det_two_mode": accepted,
                "states.ppt_separable": sum(r["ppt_calls"] for r in refs)}

    def ratios(self, ops, outcomes, layers):
        accepted = sum(o.output.accepted for o in outcomes)
        return {"bipartite.margin_evals_per_point": 0.0,
                "fisher.accept_ratio": accepted / sum(o.work for o in outcomes)}


# ---------------------------------------------------------------------------
# CLI mix

CLI_KINDS = ("figure1", "figure2", "figure3", "sweep", "distance", "distance-files",
             "metric", "oscillator", "volume")
FIGURE_CORRELATIONS = {"figure1": 0.125, "figure2": 0.25, "figure3": 0.0625}


def _is_sweep(op) -> bool:
    return op.kind in FIGURE_CORRELATIONS or op.kind == "sweep"


def _valid_canonical(rng) -> list[float]:
    """Canonical (a, b, c, d) that is a physical state with room to spare."""
    while True:
        params = [*rng.uniform(0.7, 1.6, 2), *rng.uniform(-0.4, 0.4, 2)]
        sigma = oracle.canonical(params)
        if (np.linalg.eigvalsh(sigma).min() > 0.05
                and oracle.min_invariant(sigma)[0] > 1.02):
            return params


@dataclass
class CliOp:
    kind: str
    args: list
    inputs: dict


class CliMix(Workload):
    name = "cli-mix"
    module = "ginfo.cli"
    pool_size = 90
    trace_ops = len(CLI_KINDS)

    def setup(self):
        from ginfo import matrixio, symplectic
        self.matrixio, self.symplectic = matrixio, symplectic
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup()

    def make_op(self, rng, index):
        kind = CLI_KINDS[index % len(CLI_KINDS)]
        fmt = str(rng.choice(["csv", "json"]))
        if kind in FIGURE_CORRELATIONS:
            grid = int(rng.choice([99, 149, 199]))
            mn = FIGURE_CORRELATIONS[kind]
            return CliOp(kind, ["--command", kind, "--grid", str(grid), "--format", fmt],
                         {"m": mn, "n": mn, "eta": 0.0, "grid": grid, "format": fmt})
        if kind == "sweep":
            m, n, eta = pair_family(rng, crossing=index % 2 == 0)
            grid = int(rng.integers(50, 201))
            return CliOp(kind, ["--command", "sweep", "--m", _num(m), "--n", _num(n),
                                "--eta", _num(eta), "--grid", str(grid), "--format", fmt],
                         {"m": m, "n": n, "eta": eta, "grid": grid, "format": fmt})
        if kind == "distance":
            p1, p2 = _valid_canonical(rng), _valid_canonical(rng)
            args = ["--command", "distance"]
            for suffix, params in (("", p1), ("0", p2)):
                for name, value in zip("abcd", params):
                    args += [f"--{name}{suffix}", _num(value)]
            if rng.random() < 0.5:
                args += ["--check-invariance", "--seed", str(int(rng.integers(2 ** 31)))]
            return CliOp(kind, args, {"sigma1": oracle.canonical(p1)[0],
                                      "sigma2": oracle.canonical(p2)[0]})
        if kind == "distance-files":
            paths = [self.workdir / f"op{index}_sigma{k}.cvm" for k in (1, 2)]
            mats = [oracle.canonical(_valid_canonical(rng))[0] for _ in paths]
            return CliOp(kind, ["--command", "distance", "--sigma1", str(paths[0]),
                                "--sigma2", str(paths[1])],
                         {"sigma1": mats[0], "sigma2": mats[1], "paths": paths})
        if kind == "metric":
            while True:
                a, b = rng.uniform(0.6, 1.6, 2)
                c, d = rng.uniform(-0.5, 0.5, 2)
                if a * b - max(c * c, d * d) > 0.1:
                    break
            return CliOp(kind, ["--command", "metric", "--a", _num(a), "--b", _num(b),
                                "--c", _num(c), "--d", _num(d)], {"params": [a, b, c, d]})
        if kind == "oscillator":
            values = [*rng.uniform(0.5, 2.0, 2), *rng.uniform(0.5, 2.5, 2),
                      *rng.uniform(0.05, 0.8, 2)]
            flags = ["--m1", "--m2", "--w1", "--w2", "--theta", "--eta"]
            args = ["--command", "oscillator"]
            for flag, value in zip(flags, values):
                args += [flag, _num(value)]
            return CliOp(kind, args, {})
        box = volume_box(rng)
        predicate = PREDICATES[(index // len(CLI_KINDS)) % len(PREDICATES)]
        seed = int(rng.integers(2 ** 31))
        edges = ",".join(_num(x) for pair in box for x in pair)
        return CliOp(kind, ["--command", "volume", "--region", predicate, "--samples",
                            str(VOLUME_SAMPLES), "--box", edges, "--seed", str(seed)],
                     {"box": box, "predicate": predicate, "seed": seed})

    def run(self, op, traced_stats=None):
        if op.kind == "distance-files":
            for path, matrix in zip(op.inputs["paths"], (op.inputs["sigma1"], op.inputs["sigma2"])):
                cvm = self.symplectic.CovarianceMatrix(
                    matrix, ordering=self.symplectic.Ordering.MODE_INTERLEAVED)
                self.matrixio.save_cvm(path, cvm)
        if traced_stats is None:
            command = [sys.executable, "-c", CLI_ENTRY, *op.args]
        else:
            command = [sys.executable, str(BENCH_DIR / "tracer.py"), traced_stats, *op.args]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=child_env(), cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = {"code": proc.returncode, "stdout": out_path.read_text(),
                  "stderr": err_path.read_text()}
        return Outcome(seconds, 1, output, rss_kb=usage.ru_maxrss)

    def check(self, op, outcome):
        out = outcome.output
        if out["code"] != 0:
            return [f"{op.kind} exited {out['code']}: {out['stderr'].strip()[-200:]}"]
        try:
            return self._check_output(op, out["stdout"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{op.kind} output unreadable: {exc!r}"]

    def _check_output(self, op, text):
        inputs = op.inputs
        if _is_sweep(op):
            thetas, margins, crossing = _parse_sweep(text, inputs["format"])
            grid = np.linspace(0.01, 0.99, inputs["grid"])
            if not np.array_equal(thetas, grid):
                return ["sweep rows do not follow the grid"]
            return oracle.check_sweep(inputs["m"], inputs["n"], inputs["eta"], grid,
                                      margins, crossing, BISECT_TOL)
        results = json.loads(text)["results"]
        if op.kind.startswith("distance"):
            dist, lam = oracle.distance(inputs["sigma1"], inputs["sigma2"])
            problems = []
            if not (oracle.close(results["distance_half"], dist)
                    and oracle.close(results["distance_dim_scaled"], 2.0 * dist)
                    and oracle.close(results["generalized_eigenvalues"], lam)):
                problems.append("distance or generalized eigenvalues differ from the oracle")
            if results.get("invariance_delta", 0.0) > 1e-9:
                problems.append(f"invariance delta {results['invariance_delta']}")
            return problems
        if op.kind == "metric":
            g = oracle.fisher_metric([inputs["params"]])[0]
            det = float(np.linalg.det(g))
            if not (oracle.close(results["metric"], g)
                    and oracle.close(results["det_closed_form"], det)
                    and results["numeric_route_max_deviation"] <= 1e-6):
                return ["metric differs from the oracle"]
            return []
        if op.kind == "oscillator":
            cov = np.array(results["covariance"])
            invariants = oracle.symplectic_invariants(cov, oracle.FORM4)
            pt_margin = oracle.min_invariant(oracle.partial_transpose(cov)) - 1.0
            problems = []
            if not np.allclose(invariants, 1.0, atol=1e-8, rtol=0):
                problems.append(f"ground state is not pure: invariants {invariants}")
            if not (abs(results["min_invariant"] - invariants[0]) <= oracle.MARGIN_TOL
                    and abs(results["ppt_margin"] - pt_margin) <= oracle.MARGIN_TOL):
                problems.append("oscillator invariants differ from the oracle")
            if results["separable"] != (pt_margin >= -oracle.MARGIN_TOL):
                problems.append("separability verdict disagrees with the PPT margin")
            return problems
        expected = oracle.volume(inputs["box"], inputs["predicate"], 1.0, 4,
                                 VOLUME_SAMPLES, inputs["seed"])
        problems = oracle.check_volume(expected, results["volume"], results["std_error"],
                                       results["accepted"])
        if results["samples"] != VOLUME_SAMPLES:
            problems.append("sample count is wrong")
        return problems

    def expected_calls(self, ops, outcomes):
        sweeps = [op for op in ops if _is_sweep(op)]
        margins = sum(oracle.sweep_margin_calls(
            op.inputs["m"], op.inputs["n"], op.inputs["eta"],
            np.linspace(0.01, 0.99, op.inputs["grid"]), BISECT_TOL) for op in sweeps)
        files = sum(op.kind == "distance-files" for op in ops)
        accepted = sum(json.loads(o.output["stdout"])["results"]["accepted"]
                       for op, o in zip(ops, outcomes) if op.kind == "volume")
        return {"cli.main": len(ops),
                "bipartite.theta_sweep": len(sweeps),
                "bipartite.separability_margin": margins,
                "matrixio.save_cvm": 2 * files,
                "matrixio.load_cvm": 2 * files,
                "fisher.regularized_volume": sum(op.kind == "volume" for op in ops),
                "fisher.regularizer_value": accepted}

    def ratios(self, ops, outcomes, layers):
        points = sum(op.inputs["grid"] for op in ops if _is_sweep(op))
        volumes = [json.loads(o.output["stdout"])["results"]
                   for op, o in zip(ops, outcomes) if op.kind == "volume"]
        evals = layers.get("bipartite.separability_margin", {}).get("calls", 0)
        return {"bipartite.margin_evals_per_point": evals / points if points else 0.0,
                "fisher.accept_ratio": (sum(v["accepted"] for v in volumes)
                                        / sum(v["samples"] for v in volumes)) if volumes else 0.0}


def _parse_sweep(text: str, fmt: str):
    if fmt == "json":
        results = json.loads(text)["results"]
        rows = results["rows"]
        return (np.array([r["theta"] for r in rows]), [r["margin"] for r in rows],
                results["crossing_theta"])
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    crossings = {r["crossing_theta"] for r in rows}
    if len(crossings) != 1:
        raise ValueError("crossing_theta column is not constant")
    crossing = crossings.pop()
    return (np.array([float(r["theta"]) for r in rows]), [float(r["margin"]) for r in rows],
            float(crossing) if crossing else None)


WORKLOADS = {w.name: w for w in (CliMix, SweepDense, VolumeMC)}
