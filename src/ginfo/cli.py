"""Command-line surface.

One process runs one command, echoes its fully resolved configuration into
the output header, and writes the result once at the end, as CSV (sweeps) or
JSON (reports). A flag the command does not read is a usage error. Exit
codes: 0 success, 1 usage, 2 I/O, 3 validation, 4 numeric domain failure
(an overflow or a non-finite result among them).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

# the command modules are imported by the commands that use them, so that a
# process compiles and loads only what its one command needs
from .errors import (
    DegenerateSpectrumError,
    NormalizationError,
    NumericDomainError,
    SingularMatrixError,
)
from .symplectic import (
    CovarianceMatrix,
    _validated,
    build_symplectic_form,
    generalized_eigenvalues,
    rsup_check,
)

# the flags each command reads, and so accepts: the inputs its report echoes, and --out
_SWEEP_FLAGS = frozenset({"eta", "grid", "format", "seed", "out"})
COMMAND_FLAGS = {
    **dict.fromkeys(("figure1", "figure2", "figure3"), _SWEEP_FLAGS),
    "sweep": _SWEEP_FLAGS | {"m", "n"},
    "distance": frozenset({"a", "b", "c", "d", "a0", "b0", "c0", "d0", "sigma1", "sigma2",
                           "check_invariance", "seed", "out"}),
    "metric": frozenset({"a", "b", "c", "d", "seed", "out"}),
    "oscillator": frozenset({"m1", "m2", "w1", "w2", "theta", "eta", "hbar", "seed", "out"}),
    "volume": frozenset({"region", "samples", "seed", "kappa", "power", "box", "out"}),
    "selftest": frozenset({"seed", "out"}),
}
COMMANDS = tuple(COMMAND_FLAGS)
_FLAGS = frozenset().union(*COMMAND_FLAGS.values())
_UNSET = object()

FIGURE_CORRELATIONS = {"figure1": 0.125, "figure2": 0.25, "figure3": 0.0625}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class InputValidationError(Exception):
    """Invalid input state or file; maps to exit code 3."""


def _is_numbers(text: str) -> bool:
    """Whether every comma-separated field of ``text`` parses as a float."""
    try:
        for field in text.split(","):
            float(field)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a flag and a negative number after it: ``--c -1e-05`` -> ``--c=-1e-05``.

    argparse reads only tokens like ``-123`` and ``-1.5`` as negative numbers
    and takes every other token that starts with ``-`` (``-1e-05``,
    ``-2.5E+3``, a ``--box`` list ``-0.5,1.5,...``) for an option. No ginfo
    option looks like a number, so a token of comma-separated numbers is
    always the value of the flag before it.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_numbers(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(_attach_negative_values(argv), namespace)

    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """Parse a float, rejecting nan and +-inf before they reach LAPACK."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="ginfo", description=__doc__, add_help=True)
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--m", type=_finite_float, help="first correlation amplitude (sweep)")
    parser.add_argument("--n", type=_finite_float, help="second correlation amplitude (sweep)")
    parser.add_argument("--theta", type=_finite_float, default=0.0, help="oscillator deformation")
    parser.add_argument("--eta", type=_finite_float, default=0.0)
    parser.add_argument("--grid", type=int, default=99, help="sweep grid size (>= 10)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--hbar", type=_finite_float, default=1.0)
    # oscillator inputs
    parser.add_argument("--m1", type=_finite_float, default=1.0)
    parser.add_argument("--m2", type=_finite_float, default=1.0)
    parser.add_argument("--w1", type=_finite_float, default=1.0)
    parser.add_argument("--w2", type=_finite_float, default=2.0)
    # canonical two-mode sources
    parser.add_argument("--a", type=_finite_float)
    parser.add_argument("--b", type=_finite_float)
    parser.add_argument("--c", type=_finite_float, default=0.0)
    parser.add_argument("--d", type=_finite_float, default=0.0)
    parser.add_argument("--a0", type=_finite_float)
    parser.add_argument("--b0", type=_finite_float)
    parser.add_argument("--c0", type=_finite_float, default=0.0)
    parser.add_argument("--d0", type=_finite_float, default=0.0)
    parser.add_argument("--sigma1", default=None, help="covariance matrix file")
    parser.add_argument("--sigma2", default=None, help="covariance matrix file")
    parser.add_argument("--check-invariance", action="store_true",
                        help="also report the congruence-invariance delta for a seeded random transform")
    # volume inputs
    parser.add_argument("--region", choices=("quantum", "separable", "entangled"),
                        default="quantum")
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--kappa", type=_finite_float, default=1.0)
    parser.add_argument("--power", type=int, default=4)
    parser.add_argument("--box", default="0.5,1.5,0.5,1.5,-0.5,0.5,-0.5,0.5",
                        help="a_lo,a_hi,b_lo,b_hi,c_lo,c_hi,d_lo,d_hi")
    return parser


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _csv(config: dict, header: list[str], rows: list[list[str]]) -> str:
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_report(command: str, config: dict, results: dict) -> str:
    try:   # allow_nan=False stops a nan or inf among the results
        return json.dumps({"command": command, "config": config, "results": results},
                          sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError as exc:
        raise NumericDomainError(f"non-finite result: {exc}") from None


def _sweep_output(command: str, config: dict, sweep, fmt: str, out_path):
    crossing = "" if sweep.crossing_theta is None else _fmt(sweep.crossing_theta)
    if fmt == "json":
        results = {"rows": [{"theta": r.theta, "min_invariant": r.min_invariant,
                             "margin": r.margin} for r in sweep.rows],
                   "crossing_theta": sweep.crossing_theta}
        _emit(_json_report(command, config, results), out_path)
    else:
        rows = [[_fmt(r.theta), _fmt(r.min_invariant), _fmt(r.margin), crossing]
                for r in sweep.rows]
        _emit(_csv(config, ["theta", "min_invariant", "margin", "crossing_theta"], rows),
              out_path)


def _run_sweep(command: str, args) -> int:
    from . import bipartite

    if command in FIGURE_CORRELATIONS:
        m = n = FIGURE_CORRELATIONS[command]
    else:
        if args.m is None or args.n is None:
            raise UsageError("sweep requires --m and --n")
        m, n = args.m, args.n
    if args.grid < 10:
        raise UsageError("--grid must be at least 10")
    fmt = args.format or "csv"
    config = {"command": command, "m": m, "n": n, "eta": args.eta,
              "grid": args.grid, "format": fmt, "seed": args.seed}
    cfg = bipartite.PairConfig(m=m, n=n, eta=args.eta)
    grid = np.linspace(0.01, 0.99, args.grid)
    sweep = bipartite.theta_sweep(cfg, grid)
    _sweep_output(command, config, sweep, fmt, args.out)
    return EXIT_OK


def _load_state(args, which: str) -> tuple[CovarianceMatrix, dict]:
    """Read state ``which`` ("1" or "2") and the config entries of its source.

    The entries are the matrix file path, or the four inline canonical
    parameters as resolved (defaults filled in).
    """
    from . import matrixio, states

    try:
        path = getattr(args, f"sigma{which}")
        if path is not None:
            source = {f"sigma{which}": path}
            cvm = matrixio.load_cvm(path)
        else:
            suffix = "" if which == "1" else "0"
            a = getattr(args, "a" + suffix)
            b = getattr(args, "b" + suffix)
            if a is None or b is None:
                raise UsageError(
                    f"state {which}: pass --sigma{which} FILE or inline "
                    f"--a{suffix}/--b{suffix}[/--c{suffix}/--d{suffix}]")
            source = {name + suffix: getattr(args, name + suffix) for name in "abcd"}
            cvm = states.canonical_two_mode_cvm(states.CanonicalTwoModeParams(
                a, b, source["c" + suffix], source["d" + suffix]))
        if cvm.ordering is not None:
            check = rsup_check(cvm, build_symplectic_form(cvm.n_modes, cvm.ordering))
            if not check.valid:
                raise InputValidationError(
                    f"state {which} violates the uncertainty bound: "
                    f"min invariant {check.min_invariant:.12g} < 1")
    except ValueError as exc:
        raise InputValidationError(f"state {which} rejected: {exc}") from exc
    return cvm, source


def _run_distance(args) -> int:
    from . import fisher
    from .randmat import random_invertible

    s1, source1 = _load_state(args, "1")
    s2, source2 = _load_state(args, "2")
    lam = generalized_eigenvalues(s1, s2)
    results = {
        "distance_half": fisher.fr_distance(s1, s2),
        "distance_dim_scaled": fisher.fr_distance(s1, s2, dim_scaled=True),
        "generalized_eigenvalues": list(lam),
    }
    if args.check_invariance:
        rng = np.random.default_rng(args.seed)
        t = random_invertible(s1.matrix.shape[0], rng)
        moved = abs(fisher.fr_distance(t @ s1.matrix @ t.T, t @ s2.matrix @ t.T)
                    - results["distance_half"])
        results["invariance_delta"] = moved
    config = {"command": "distance", "seed": args.seed,
              "check_invariance": args.check_invariance, **source1, **source2}
    _emit(_json_report("distance", config, results), args.out)
    return EXIT_OK


def _run_metric(args) -> int:
    from . import fisher, states

    if args.a is None or args.b is None:
        raise UsageError("metric requires --a and --b (and optional --c/--d)")
    p = states.CanonicalTwoModeParams(args.a, args.b, args.c, args.d)
    closed = fisher.fisher_metric_two_mode(p)
    numeric = fisher.fisher_metric_numeric(
        lambda t: states.canonical_two_mode_matrix(states.CanonicalTwoModeParams(*t)),
        (p.a, p.b, p.c, p.d))
    results = {
        "metric": [list(row) for row in closed.matrix],
        "parameter_names": list(closed.parameter_names),
        "det_closed_form": fisher.fisher_det_two_mode(p),
        "det_numeric": float(np.linalg.det(closed.matrix)),
        "numeric_route_max_deviation": float(np.abs(closed.matrix - numeric.matrix).max()),
        "pure_state_ratio": fisher.pure_state_det_ratio(p),
    }
    config = {"command": "metric", "a": p.a, "b": p.b, "c": p.c, "d": p.d,
              "seed": args.seed}
    _emit(_json_report("metric", config, results), args.out)
    return EXIT_OK


def _run_oscillator(args) -> int:
    from . import oscillator, states

    p = oscillator.OscillatorParams(mass1=args.m1, mass2=args.m2,
                                    freq1=args.w1, freq2=args.w2,
                                    theta=args.theta, eta=args.eta, hbar=args.hbar)
    _, eq = oscillator.equivalent_hamiltonian(p)
    exponent = oscillator.ground_state(p)
    cvm = oscillator.ground_state_cvm(exponent, p.hbar)
    # the thresholds hold for the state in units of hbar, a positive multiple
    # of the validated state
    units = _validated(cvm.matrix / p.hbar, cvm.ordering)
    form = build_symplectic_form(2)
    report = oscillator.separability_condition(p)
    ppt = states.ppt_separable(units, form)
    results = {
        "equivalent": {"mass1": eq.mass1, "mass2": eq.mass2,
                       "stiffness1": eq.stiffness1, "stiffness2": eq.stiffness2,
                       "coupling1": eq.coupling1, "coupling2": eq.coupling2,
                       "freq1": eq.freq1, "freq2": eq.freq2},
        "exponent": {"m11": exponent.m11, "m22": exponent.m22,
                     "cross_imag": exponent.cross_imag},
        "covariance": [list(row) for row in cvm.matrix],
        "min_invariant": rsup_check(units, form).min_invariant,
        "separable": report.separable,
        "constraint_gap": report.lhs_rhs_gap,
        "ppt_margin": ppt.margin,
        "hbar_effective": p.hbar_effective,
    }
    try:
        spec = oscillator.mode_spectrum(eq)
        results["mode_freqs"] = [spec.freq1, spec.freq2]
    except DegenerateSpectrumError:
        results["mode_freqs"] = None   # degenerate isotropic undeformed case
    config = {"command": "oscillator", "m1": args.m1, "m2": args.m2,
              "w1": args.w1, "w2": args.w2, "theta": args.theta,
              "eta": args.eta, "hbar": args.hbar, "seed": args.seed}
    _emit(_json_report("oscillator", config, results), args.out)
    return EXIT_OK


def _run_volume(args) -> int:
    from . import fisher

    try:
        edges = [_finite_float(x) for x in args.box.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"malformed --box: {exc}") from exc
    if len(edges) != 8:
        raise UsageError("--box needs 8 comma-separated numbers")
    box = tuple((edges[2 * i], edges[2 * i + 1]) for i in range(4))
    region = fisher.Region(box=box, predicate=args.region)
    reg = fisher.RegularizerConfig(kappa=args.kappa, power=args.power)
    est = fisher.regularized_volume(region, reg, samples=args.samples, seed=args.seed)
    results = {"volume": est.volume, "std_error": est.std_error,
               "samples": est.samples, "accepted": est.accepted,
               "zero_measure": est.zero_measure}
    config = {"command": "volume", "region": args.region, "samples": args.samples,
              "seed": args.seed, "kappa": args.kappa, "power": args.power,
              "box": args.box}
    _emit(_json_report("volume", config, results), args.out)
    return EXIT_OK


def _run_selftest(args) -> int:
    from . import selftest

    report = selftest.run_all(seed=args.seed)
    lines = [f"selftest seed={report.seed}"]
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name}  [n={res.cases}]  {res.detail}")
    lines.append("selftest " + ("PASSED" if report.passed else "FAILED"))
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        results = {
            "passed": report.passed,
            "properties": [{"name": r.name, "passed": r.passed,
                            "cases": r.cases, "detail": r.detail}
                           for r in report.results],
        }
        config = {"command": "selftest", "seed": args.seed}
        _emit(_json_report("selftest", config, results), args.out)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _parse(parser: _Parser, argv) -> tuple[argparse.Namespace, set[str]]:
    """Parse ``argv``; also return the flags given on the command line, whatever their values."""
    args = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(_FLAGS, _UNSET)))
    given = {dest for dest in _FLAGS if getattr(args, dest) is not _UNSET}
    for dest in _FLAGS - given:
        setattr(args, dest, parser.get_default(dest))
    return args, given


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, given = _parse(parser, argv)
        command = args.command
        unread = sorted("--" + dest.replace("_", "-") for dest in given - COMMAND_FLAGS[command])
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        if command in ("figure1", "figure2", "figure3", "sweep"):
            return _run_sweep(command, args)
        return {"distance": _run_distance, "metric": _run_metric, "oscillator": _run_oscillator,
                "volume": _run_volume, "selftest": _run_selftest}[command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InputValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericDomainError, SingularMatrixError, DegenerateSpectrumError,
            NormalizationError, OverflowError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
