"""Command-line surface.

One process runs one command, named by ``--command``; ``--command X --help``
lists the flags X reads, and any other flag is a usage error. The command
echoes its fully resolved configuration into the output header and writes the
result once at the end, as CSV (sweeps) or JSON (reports). Exit codes: 0
success, 1 usage, 2 I/O, 3 validation, 4 numeric domain failure (an overflow,
an invalid operation, a non-finite result or an array too large to allocate
among them); each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

# the command modules are imported by the commands that use them, so that a
# process compiles and loads only what its one command needs
from .errors import NumericDomainError
from .symplectic import (
    CovarianceMatrix,
    _validated,
    generalized_eigenvalues,
    permute_ordering,
    rsup_check,
)

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


def _seed(text: str) -> int:
    """Parse a seed, which numpy's generators take only as a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _check_size(*shape: int) -> None:
    """MemoryError for a float array of ``shape`` past numpy's size limit, like one
    numpy cannot allocate; numpy itself raises a ValueError for it."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate an array with shape {shape} and data type "
                          f"float64: past numpy's size limit")


# the argparse settings of every flag, by destination; a command's parser takes
# those its entry in COMMANDS names. The inline state parameters stay None
# unless given, so that distance can tell a given one from a default.
_FLAG_SETTINGS = {
    "m": dict(type=_finite_float, help="first correlation amplitude"),
    "n": dict(type=_finite_float, help="second correlation amplitude"),
    "eta": dict(type=_finite_float, default=0.0, help="momentum deformation"),
    "grid": dict(type=int, default=99, help="sweep grid size (>= 10)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "seed": dict(type=_seed, default=20240901),
    "out": dict(help="output path (default stdout)"),
    "m1": dict(type=_finite_float, default=1.0),
    "m2": dict(type=_finite_float, default=1.0),
    "w1": dict(type=_finite_float, default=1.0),
    "w2": dict(type=_finite_float, default=2.0),
    "theta": dict(type=_finite_float, default=0.0, help="position deformation"),
    "hbar": dict(type=_finite_float, default=1.0),
    **{name: dict(type=_finite_float, help="canonical two-mode parameter (distance: state 1)")
       for name in ("a", "b", "c", "d")},
    **{name: dict(type=_finite_float, help="canonical two-mode parameter of state 2")
       for name in ("a0", "b0", "c0", "d0")},
    "sigma1": dict(help="covariance matrix file of state 1"),
    "sigma2": dict(help="covariance matrix file of state 2"),
    "check_invariance": dict(action="store_true", help="also report the congruence-"
                             "invariance delta for a seeded random transform"),
    "region": dict(choices=("quantum", "separable", "entangled"), default="quantum"),
    "samples": dict(type=int, default=20000),
    "kappa": dict(type=_finite_float, default=1.0),
    "power": dict(type=int, default=4),
    "box": dict(default="0.5,1.5,0.5,1.5,-0.5,0.5,-0.5,0.5",
                help="a_lo,a_hi,b_lo,b_hi,c_lo,c_hi,d_lo,d_hi"),
}


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _echo(args) -> dict:
    """The configuration a report echoes: every parsed flag except ``--out``."""
    return {key: value for key, value in vars(args).items() if key != "out"}


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_report(config: dict, results: dict) -> str:
    try:   # allow_nan=False stops a nan or inf among the results
        return json.dumps({"command": config["command"], "config": config, "results": results},
                          sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError as exc:
        raise NumericDomainError(f"non-finite result: {exc}") from None


def _run_sweep(args) -> int:
    from . import bipartite

    if args.m is None or args.n is None:
        raise UsageError("sweep requires --m and --n")
    if args.grid < 10:
        raise UsageError("--grid must be at least 10")
    cfg = bipartite.PairConfig(m=args.m, n=args.n, eta=args.eta)
    _check_size(args.grid)
    sweep = bipartite.theta_sweep(cfg, np.linspace(0.01, 0.99, args.grid))
    config = _echo(args)
    if args.format == "json":
        results = {"rows": [{"theta": r.theta, "min_invariant": r.min_invariant,
                             "margin": r.margin} for r in sweep.rows],
                   "crossing_theta": sweep.crossing_theta}
        _emit(_json_report(config, results), args.out)
        return EXIT_OK
    crossing = "" if sweep.crossing_theta is None else f"{sweep.crossing_theta:.17g}"
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append("theta,min_invariant,margin,crossing_theta")
    lines.extend(f"{r.theta:.17g},{r.min_invariant:.17g},{r.margin:.17g},{crossing}"
                 for r in sweep.rows)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _state_source(args, which: str) -> dict:
    """The config entries of state ``which`` ("1" or "2"): its one source, the
    matrix file path or the four inline canonical parameters as resolved."""
    suffix = "" if which == "1" else "0"
    inline = {name + suffix: getattr(args, name + suffix) for name in "abcd"}
    path = getattr(args, f"sigma{which}")
    if path is not None:
        given = [f"--{name}" for name, value in inline.items() if value is not None]
        if given:
            raise UsageError(f"state {which} has two sources: --sigma{which} and "
                             f"{', '.join(given)}")
        return {f"sigma{which}": path}
    if inline["a" + suffix] is None or inline["b" + suffix] is None:
        raise UsageError(f"state {which}: pass --sigma{which} FILE or inline "
                         f"--a{suffix}/--b{suffix}[/--c{suffix}/--d{suffix}]")
    return {name: 0.0 if value is None else value for name, value in inline.items()}


def _load_state(which: str, source: dict) -> CovarianceMatrix:
    """Read state ``which`` from its source and check the uncertainty bound."""
    from . import matrixio, states

    try:
        path = source.get(f"sigma{which}")
        if path is not None:
            cvm = matrixio.load_cvm(path)
        else:
            cvm = states.canonical_two_mode_cvm(states.CanonicalTwoModeParams(*source.values()))
        check = rsup_check(cvm)
        if not check.valid:
            raise InputValidationError(
                f"state {which} violates the uncertainty bound: "
                f"min invariant {check.min_invariant:.12g} < 1")
    except ValueError as exc:
        raise InputValidationError(f"state {which} rejected: {exc}") from exc
    return cvm


def _run_distance(args) -> int:
    from . import fisher
    from .randmat import random_invertible

    if args.seed is not None and not args.check_invariance:
        raise UsageError("distance does not read --seed without --check-invariance")
    source1, source2 = _state_source(args, "1"), _state_source(args, "2")
    s1, s2 = _load_state("1", source1), _load_state("2", source2)
    if s2.n_modes == s1.n_modes:   # two sizes go on to the size check
        s2 = _validated(permute_ordering(s2.matrix, s2.ordering, s1.ordering), s1.ordering)
    try:   # a state that passes check_spd can still have no Cholesky factor
        lam = generalized_eigenvalues(s1, s2)
    except NumericDomainError as exc:
        raise InputValidationError(str(exc)) from exc
    results = {
        "distance_half": fisher.fr_distance(s1, s2),
        "distance_dim_scaled": fisher.fr_distance(s1, s2, dim_scaled=True),
        "generalized_eigenvalues": list(lam),
    }
    # each state echoes the one source it was read from
    config = {"command": "distance", "check_invariance": args.check_invariance,
              **source1, **source2}
    if args.check_invariance:
        config["seed"] = _FLAG_SETTINGS["seed"]["default"] if args.seed is None else args.seed
        rng = np.random.default_rng(config["seed"])
        t = random_invertible(s1.matrix.shape[0], rng)
        # T S T^T is symmetric only to rounding relative to its entries, which
        # can exceed the absolute SYMMETRY_TOL on large states
        congruent = [0.5 * (m + m.T) for m in (t @ s1.matrix @ t.T, t @ s2.matrix @ t.T)]
        moved = abs(fisher.fr_distance(*congruent) - results["distance_half"])
        results["invariance_delta"] = moved
    _emit(_json_report(config, results), args.out)
    return EXIT_OK


def _run_metric(args) -> int:
    from . import fisher, states

    if args.a is None or args.b is None:
        raise UsageError("metric requires --a and --b (and optional --c/--d)")
    try:   # a positive-definite state; it need not be within the uncertainty bound
        p = states.CanonicalTwoModeParams(args.a, args.b, args.c, args.d)
        states.canonical_two_mode_cvm(p)
        closed = fisher.fisher_metric_two_mode(p)
    except ValueError as exc:
        raise InputValidationError(f"state rejected: {exc}") from exc
    numeric = fisher.fisher_metric_numeric(p)
    results = {
        "metric": [list(row) for row in closed.matrix],
        "parameter_names": list(closed.parameter_names),
        "det_closed_form": fisher.fisher_det_two_mode(p),
        "det_numeric": float(np.linalg.det(numeric.matrix)),
        "numeric_route_max_deviation": float(np.abs(closed.matrix - numeric.matrix).max()),
        "pure_state_ratio": fisher.pure_state_det_ratio(p),
    }
    _emit(_json_report(_echo(args), results), args.out)
    return EXIT_OK


def _run_oscillator(args) -> int:
    from . import oscillator, states

    p = oscillator.OscillatorParams(mass1=args.m1, mass2=args.m2,
                                    freq1=args.w1, freq2=args.w2,
                                    theta=args.theta, eta=args.eta, hbar=args.hbar)
    state = oscillator.ground_state(p)
    eq, exponent, cvm, modes = state.equivalent, state.exponent, state.covariance, state.modes
    # the thresholds hold for the state in units of hbar, a positive multiple
    # of the validated state
    units = _validated(cvm.matrix / p.hbar, cvm.ordering)
    report = oscillator.separability_condition(p)
    results = {
        "equivalent": vars(eq),
        "exponent": vars(exponent),
        "covariance": [list(row) for row in cvm.matrix],
        "min_invariant": rsup_check(units).min_invariant,
        "separable": report.separable,
        "constraint_gap": report.constraint_gap,
        "ppt_margin": states.ppt_separable(units).margin,
        "hbar_effective": p.hbar_effective,
        "mode_freqs": [modes.freq1, modes.freq2],
    }
    _emit(_json_report(_echo(args), results), args.out)
    return EXIT_OK


def _run_volume(args) -> int:
    from . import fisher

    if args.samples < fisher.MIN_VOLUME_SAMPLES:
        raise UsageError(f"--samples must be at least {fisher.MIN_VOLUME_SAMPLES}")
    try:
        edges = [_finite_float(x) for x in args.box.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"malformed --box: {exc}") from exc
    if len(edges) != 8:
        raise UsageError("--box needs 8 comma-separated numbers")
    box = tuple((edges[2 * i], edges[2 * i + 1]) for i in range(4))
    region = fisher.Region(box=box, predicate=args.region)
    reg = fisher.RegularizerConfig(kappa=args.kappa, power=args.power)
    _check_size(args.samples, 4)   # the (samples, 4) draws come first
    est = fisher.regularized_volume(region, reg, samples=args.samples, seed=args.seed)
    results = {"volume": est.volume, "std_error": est.std_error,
               "samples": est.samples, "accepted": est.accepted,
               "zero_measure": est.zero_measure}
    _emit(_json_report(_echo(args), results), args.out)
    return EXIT_OK


def _run_selftest(args) -> int:
    from . import selftest

    report = selftest.run_all(seed=args.seed)
    passed = all(r.passed for r in report)
    lines = [f"selftest seed={args.seed}"]
    for res in report:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name}  [n={res.cases}]  {res.detail}")
    lines.append("selftest " + ("PASSED" if passed else "FAILED"))
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        results = {
            "passed": passed,
            "properties": [{"name": r.name, "passed": r.passed,
                            "cases": r.cases, "detail": r.detail}
                           for r in report],
        }
        _emit(_json_report(_echo(args), results), args.out)
    return EXIT_OK if passed else EXIT_VALIDATION


class Command(NamedTuple):
    """A command: its runner, the flags it reads, and the parser defaults it
    sets on top of those flags' settings (``figure1`` fixes ``m`` and ``n``)."""

    run: Callable[[argparse.Namespace], int]
    flags: tuple[str, ...]
    defaults: dict = {}


_SWEEP_FLAGS = ("eta", "grid", "format", "out")
COMMANDS = {
    **{name: Command(_run_sweep, _SWEEP_FLAGS, {"m": mn, "n": mn})
       for name, mn in FIGURE_CORRELATIONS.items()},
    "sweep": Command(_run_sweep, ("m", "n", *_SWEEP_FLAGS)),
    "distance": Command(_run_distance, ("a", "b", "c", "d", "a0", "b0", "c0", "d0",
                                        "sigma1", "sigma2", "check_invariance", "seed", "out"),
                        {"seed": None}),   # read only with --check-invariance
    "metric": Command(_run_metric, ("a", "b", "c", "d", "out"), {"c": 0.0, "d": 0.0}),
    "oscillator": Command(_run_oscillator, ("m1", "m2", "w1", "w2", "theta", "eta", "hbar", "out")),
    "volume": Command(_run_volume, ("region", "samples", "seed", "kappa", "power", "box", "out")),
    "selftest": Command(_run_selftest, ("seed", "out")),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of ``command``: ``--command`` and the flags the command reads."""
    parser = _Parser(prog="ginfo", description=__doc__, allow_abbrev=False)
    parser.add_argument("--command", required=True, choices=COMMANDS,
                        help="the command to run; --command X --help lists the flags X reads")
    if command is not None:
        for flag in COMMANDS[command].flags:
            parser.add_argument("--" + flag.replace("_", "-"), **_FLAG_SETTINGS[flag])
        parser.set_defaults(**COMMANDS[command].defaults)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the command it names."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--command", choices=COMMANDS)
    command = pre.parse_known_args(argv)[0].command
    parser = build_parser(command)
    args, unread = parser.parse_known_args(argv)
    flags = sorted({token.split("=", 1)[0] for token in unread if token.startswith("--")})
    if flags:
        raise UsageError(f"{command} does not read {', '.join(flags)}")
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[args.command].run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InputValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericDomainError, ArithmeticError, MemoryError) as exc:
        # a float overflow carries (errno, text); print the text
        message = exc.args[-1] if isinstance(exc, OverflowError) else exc
        print(f"numeric domain error: {message}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
