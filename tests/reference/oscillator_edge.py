"""Rewrite the 60-digit oscillator references of ``tests/helpers.py``.

Builds the standard-frame Hamiltonian ``H = Ups^T H_nc Ups`` of each point
below entry by entry in mpmath at 80 significant digits, from the formulas
in the docstrings of ``ginfo.oscillator`` (``darboux_matrix`` and
``nc_hamiltonian_matrix``); it imports nothing from ``ginfo``. For each point
it writes:

- the two mode frequencies, the square roots of the roots of
  ``z^2 - S z + det H`` with ``S = -tr((J H)^2) / 2``;
- the ground-state covariance ``(hbar/2) H^-1/2 |H^1/2 i J H^1/2| H^-1/2``
  (Williamson's polar form), which must be pure, ``(Sigma J)^2 = -(hbar/2)^2``,
  and stationary, ``J H Sigma = Sigma H J``, to 1e-50, or the script stops.

The points are the deformed oscillator next to its singular edge
``theta*eta -> 4 hbar^2``, next to its commutative limit, at a light,
strongly deformed point whose standard-frame frequencies nearly coincide,
and at two points whose normal modes nearly coincide. mpmath 1.3 is
needed here only; the tests read the literals. Run it by hand after a
change of points, then review the diff:

    python tests/reference/oscillator_edge.py
"""

import re
from pathlib import Path

import mpmath as mp

mp.mp.dps = 80
HELPERS = Path(__file__).resolve().parents[1] / "helpers.py"

# (mass1, mass2, freq1, freq2, theta, eta, hbar)
POINTS = [
    # theta*eta/4hbar^2 = 0.99862: the low mode is 4.9e-7 of the high one
    (2.104276890260227, 0.8019963937869912, 1.4808950665076819, 1.0694591716533708,
     1.161823653470202, 0.8595244107076057, 0.5),
    # theta*eta/4hbar^2 = 0.99846, a random draw
    (2.2088406975214014, 1.34787205135168, 1.675331762680344, 2.6383318290489277,
     0.982888372668467, 1.0158376496034558, 0.5),
    # couplings 5e-9 of the frequencies
    (1.0, 1.0, 1.0, 2.0, 1e-8, 1e-8, 1.0),
    # light masses and eta = 329 theta: the low mode is 4.7e-11 of the high one
    (0.045, 0.035, 1.56, 1.25, 0.22, 72.4, 2.0),
    # couplings 5e-13 of the frequencies
    (1.0, 1.0, 1.0, 2.0, 1e-12, 1e-12, 1.0),
    # isotropic with eta = 1e-12: the modes split by 1e-10, relative
    (1.0, 1.0, 0.01, 0.01, 0.0, 1e-12, 1.0),
    # undeformed, with frequencies 1e-7 apart, relative
    (1.0, 1.0, 0.001, 0.0010000001, 0.0, 0.0, 1.0),
]


def _form():
    j = mp.zeros(4, 4)
    j[0, 1] = j[2, 3] = 1
    j[1, 0] = j[3, 2] = -1
    return j


def _hamiltonian(m1, m2, w1, w2, theta, eta, hbar):
    """``Ups^T H_nc Ups`` in the interleaved basis (x1, p1, x2, p2)."""
    b = mp.matrix([[0, theta], [-eta, 0]]) / (2 * hbar)   # diag(theta, eta) J2 / 2 hbar
    ups = mp.eye(4)
    for i in range(2):
        for k in range(2):
            ups[i, 2 + k] = -b[i, k]
            ups[2 + i, k] = b[i, k]
    h_nc = mp.diag([m1 * w1 ** 2, 1 / m1, m2 * w2 ** 2, 1 / m2])
    return ups.T * h_nc * ups


def _max_abs(m):
    return max(abs(m[i, k]) for i in range(m.rows) for k in range(m.cols))


def reference(point):
    """Mode frequencies (ascending) and ground-state covariance of one point."""
    m1, m2, w1, w2, theta, eta, hbar = (mp.mpf(v) for v in point)
    h = _hamiltonian(m1, m2, w1, w2, theta, eta, hbar)
    j = _form()
    jh = j * h
    trace = -sum((jh * jh)[i, i] for i in range(4)) / 2
    root = mp.sqrt(trace ** 2 - 4 * mp.det(h))
    modes = (mp.sqrt((trace - root) / 2), mp.sqrt((trace + root) / 2))
    values, vectors = mp.eigsy(h)
    sqrt_h = vectors * mp.diag([mp.sqrt(v) for v in values]) * vectors.T
    inv_sqrt_h = vectors * mp.diag([1 / mp.sqrt(v) for v in values]) * vectors.T
    lam, u = mp.eighe(sqrt_h * (mp.mpc(0, 1) * j) * sqrt_h)
    absolute = u * mp.diag([abs(v) for v in lam]) * u.transpose_conj()
    sigma = hbar / 2 * inv_sqrt_h * absolute * inv_sqrt_h
    sigma = mp.matrix([[mp.re(sigma[i, k]) for k in range(4)] for i in range(4)])
    scale = _max_abs(sigma)
    purity = _max_abs(sigma * j * sigma * j + (hbar / 2) ** 2 * mp.eye(4))
    stationary = _max_abs(jh * sigma - sigma * h * j)
    if max(purity / scale ** 2, stationary / (scale * _max_abs(jh))) > mp.mpf("1e-50"):
        raise SystemExit(f"reference at {point} is not a pure stationary state")
    return modes, sigma


def _digits(x) -> str:
    text = mp.nstr(x, 60, min_fixed=0, max_fixed=0)
    return "0.0" if abs(x) < mp.mpf("1e-60") else text


def literal() -> str:
    """The ``OSCILLATOR_REFERENCES`` block, one number per line after the inputs."""
    lines = ["OSCILLATOR_REFERENCES = ["]
    for point in POINTS:
        modes, sigma = reference(point)
        inputs = [repr(v) for v in point]
        lines.append(f"    (({', '.join(inputs[:4])},\n      {', '.join(inputs[4:])}),")
        lines.append("     (" + ",\n      ".join(_digits(m) for m in modes) + "),")
        rows = ["(" + ",\n       ".join(_digits(sigma[i, k]) for k in range(4)) + ")"
                for i in range(4)]
        lines.append("     (" + ",\n      ".join(rows) + ")),")
    lines.append("]")
    return "\n".join(lines)


def main() -> None:
    text = HELPERS.read_text()
    block = re.compile(r"^OSCILLATOR_REFERENCES = \[\n.*?^\]$", re.M | re.S)
    if len(block.findall(text)) != 1:
        raise SystemExit(f"{HELPERS} must hold one OSCILLATOR_REFERENCES = [ ... ] block")
    HELPERS.write_text(block.sub(lambda _: literal(), text))


if __name__ == "__main__":
    main()
