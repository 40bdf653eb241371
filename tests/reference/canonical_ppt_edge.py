"""Rewrite the 40-digit PPT-edge references of ``tests/helpers.py``.

Builds the canonical two-mode matrix ``[[a I, C], [C, b I]]``, ``C = diag(c, d)``
in the interleaved basis (x1, p1, x2, p2), from the docstring of
``ginfo.states`` in mpmath at 80 significant digits; it imports nothing from
``ginfo``. The mirror reflection of mode 2 flips p2, so the reflected state
is the same matrix with ``d -> -d``.

Each point below gives ``a``, ``b``, ``c`` and a target offset ``delta``. The
script solves for the ``d`` (of the given sign) at which the reflected
state's smaller symplectic invariant is ``1 + delta``, rounds it to a double,
and writes the exact invariant ``nu~_-`` of the rounded state. The invariant
is ``2 |Im lambda|`` for the smallest eigenvalue pair of ``Omega^T Sigma~``
from mpmath's general eigensolver, which must agree with the closed form
``sqrt(8 det / (Delta~ + sqrt(Delta~^2 - 4 det)))`` to 1e-60, or the script
stops; so must the state be positive definite and meet the uncertainty bound
(its own smaller invariant at least 1).

The points cover ``|nu~_- - 1|`` from 1e-3 down to 1e-12 on both sides of 1,
``c d < 0`` and ``c d > 0`` (which only near the vacuum comes close to the
edge), both signs of ``c``, and ``a != b``. mpmath 1.3 is needed here only;
the tests read the literals. Run it by hand after a change of points, then
review the diff:

    python tests/reference/canonical_ppt_edge.py
"""

import re
from pathlib import Path

import mpmath as mp

mp.mp.dps = 80
HELPERS = Path(__file__).resolve().parents[1] / "helpers.py"

# (a, b, c, sign of d, delta): the reflected state's nu~_- is 1 + delta
POINTS = [
    (1.0, 1.0, 0.4, -1, 1e-3),          # symmetric, c d < 0
    (1.2, 0.8, 0.5, -1, -1e-3),         # a != b, entangled
    (0.9, 1.3, -0.45, 1, 1e-5),         # c < 0 < d
    (2.0, 0.7, 0.6, -1, -1e-6),
    (0.50000001, 0.50000001, 1e-9, 1, 1e-8),  # c d > 0, next to the vacuum
    (1.5, 1.1, -0.6, 1, -3e-10),        # just past the verdict's slack
    (0.75, 0.75, 0.35, -1, 1e-11),      # symmetric
    (1.7, 0.6, 0.45, -1, -1e-12),
]


def _matrix(a, b, c, d):
    m = mp.zeros(4, 4)
    m[0, 0] = m[1, 1] = a
    m[2, 2] = m[3, 3] = b
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = d
    return m


def _closed_form(a, b, c, d):
    """Smaller invariant of the canonical state (a, b, c, d), as written, at 80 digits."""
    delta = a * a + b * b + 2 * c * d
    det = (a * b - c * c) * (a * b - d * d)
    return mp.sqrt(8 * det / (delta + mp.sqrt(delta * delta - 4 * det)))


def _spectral(a, b, c, d):
    """Smaller invariant from the eigenvalues of ``Omega^T Sigma``, which are +-i nu_k / 2."""
    omega = mp.zeros(4, 4)
    for k in (0, 2):
        omega[k, k + 1], omega[k + 1, k] = 1, -1
    values = mp.eig(omega.T * _matrix(a, b, c, d), left=False, right=False)
    return 2 * min(abs(mp.im(v)) for v in values)


def reference(a, b, c, sign, delta):
    """``(d, nu~_-)`` with ``d`` a double near the root of ``nu~_-(d) = 1 + delta``."""
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    target = 1 + mp.mpf(delta)
    cap = mp.sqrt(a * b) * (1 - mp.mpf("1e-30"))       # |d| < sqrt(ab) keeps the p sector SPD
    ends = [mp.mpf(0), sign * cap]
    values = [_closed_form(a, b, c, -d) - target for d in ends]
    if values[0] * values[1] >= 0:
        raise SystemExit(f"no edge for d in {ends} at {(a, b, c, delta)}")
    for _ in range(300):                                # bisection to below 1e-80
        mid = (ends[0] + ends[1]) / 2
        value = _closed_form(a, b, c, -mid) - target
        side = 0 if (value < 0) == (values[0] < 0) else 1
        ends[side], values[side] = mid, value
    d = mp.mpf(float(ends[0]))
    sigma = _matrix(a, b, c, d)
    if min(mp.eigsy(sigma)[0]) <= 0 or _spectral(a, b, c, d) < 1:
        raise SystemExit(f"{(a, b, c, d)} is no state")
    nu = _spectral(a, b, c, -d)
    if abs(nu - _closed_form(a, b, c, -d)) > mp.mpf("1e-60"):
        raise SystemExit(f"eigensolver and closed form disagree at {(a, b, c, d)}")
    return float(d), nu


def literal() -> str:
    """The ``CANONICAL_PPT_EDGE_REFERENCES`` block, one state per entry."""
    lines = ["CANONICAL_PPT_EDGE_REFERENCES = ["]
    for a, b, c, sign, delta in POINTS:
        d, nu = reference(a, b, c, sign, delta)
        lines.append(f"    (({a!r}, {b!r}, {c!r}, {d!r}),")
        lines.append(f"     {mp.nstr(nu, 40, min_fixed=0, max_fixed=0)}),")
    lines.append("]")
    return "\n".join(lines)


def main() -> None:
    text = HELPERS.read_text()
    block = re.compile(r"^CANONICAL_PPT_EDGE_REFERENCES = \[\n.*?^\]$", re.M | re.S)
    if len(block.findall(text)) != 1:
        raise SystemExit(f"{HELPERS} must hold one CANONICAL_PPT_EDGE_REFERENCES = [ ... ] block")
    HELPERS.write_text(block.sub(lambda _: literal(), text))


if __name__ == "__main__":
    main()
