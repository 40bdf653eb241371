"""Rewrite the 60-digit canonical square-root references of ``tests/helpers.py``.

Builds the canonical two-mode matrix ``[[a I, C], [C, b I]]``, ``C = diag(c, d)``
in the interleaved basis (x1, p1, x2, p2), from the docstring of
``ginfo.states`` in mpmath at 80 significant digits; it imports nothing from
``ginfo``. For each point below it writes:

- the SPD square root ``V diag(sqrt w) V^T`` from mpmath's symmetric
  eigensolver, which must square back to the matrix to 1e-70, or the script
  stops;
- where a target state is given, the generalized eigenvalues of the pair,
  the eigenvalues of ``R^-1 S0 R^-1``, ascending, and the distance
  ``sqrt(sum_j log^2 lam_j / 2)``.

The points are a strongly anisotropic state, ``a/b = 1e6``, where a sector
formula with the denominator ``a - b + lam1 - lam2`` cancels, and a sector
without correlation. mpmath 1.3 is needed here only; the tests read the
literals. Run it by hand after a change of points, then review the diff:

    python tests/reference/canonical_sqrt.py
"""

import re
from pathlib import Path

import mpmath as mp

mp.mp.dps = 80
HELPERS = Path(__file__).resolve().parents[1] / "helpers.py"

# ((a, b, c, d), target (a0, b0, c0, d0) or None)
POINTS = [
    ((1e6, 1.0, 0.3, 0.2), (1.2, 0.9, 0.1, -0.1)),
    ((2.0, 1.0, 0.0, 0.3), None),
]


def _matrix(a, b, c, d):
    m = mp.zeros(4, 4)
    m[0, 0] = m[1, 1] = a
    m[2, 2] = m[3, 3] = b
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = d
    return m


def _max_abs(m):
    return max(abs(m[i, k]) for i in range(m.rows) for k in range(m.cols))


def reference(params, target):
    """Square root, and the eigenvalues and distance to ``target`` if one is given."""
    sigma = _matrix(*(mp.mpf(v) for v in params))
    values, vectors = mp.eigsy(sigma)
    root = vectors * mp.diag([mp.sqrt(v) for v in values]) * vectors.T
    if _max_abs(root * root - sigma) > mp.mpf("1e-70") * _max_abs(sigma):
        raise SystemExit(f"square root at {params} does not square back")
    if target is None:
        return root, None, None
    inv_root = mp.inverse(root)
    pencil = inv_root * _matrix(*(mp.mpf(v) for v in target)) * inv_root
    lam = sorted(mp.eigsy((pencil + pencil.T) / 2)[0])
    return root, lam, mp.sqrt(sum(mp.log(v) ** 2 for v in lam) / 2)


def _digits(x) -> str:
    text = mp.nstr(x, 60, min_fixed=0, max_fixed=0)
    return "0.0" if abs(x) < mp.mpf("1e-60") else text


def literal() -> str:
    """The ``CANONICAL_SQRT_REFERENCES`` block, one number per line after the inputs."""
    lines = ["CANONICAL_SQRT_REFERENCES = ["]
    for params, target in POINTS:
        root, lam, distance = reference(params, target)
        lines.append(f"    (({', '.join(repr(v) for v in params)}),")
        rows = ["(" + ",\n       ".join(_digits(root[i, k]) for k in range(4)) + ")"
                for i in range(4)]
        lines.append("     (" + ",\n      ".join(rows) + "),")
        if target is None:
            lines.append("     None),")
            continue
        lines.append(f"     (({', '.join(repr(v) for v in target)}),")
        lines.append("      (" + ",\n       ".join(_digits(v) for v in lam) + "),")
        lines.append(f"      {_digits(distance)})),")
    lines.append("]")
    return "\n".join(lines)


def main() -> None:
    text = HELPERS.read_text()
    block = re.compile(r"^CANONICAL_SQRT_REFERENCES = \[\n.*?^\]$", re.M | re.S)
    if len(block.findall(text)) != 1:
        raise SystemExit(f"{HELPERS} must hold one CANONICAL_SQRT_REFERENCES = [ ... ] block")
    HELPERS.write_text(block.sub(lambda _: literal(), text))


if __name__ == "__main__":
    main()
