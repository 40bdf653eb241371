"""Rewrite the 50-digit graded generalized-eigenvalue references of ``tests/helpers.py``.

Each pair is ``Sigma_i = D_i (B_i B_i^T + I) D_i`` with ``B_i`` a matrix of
small integers and ``D_i = diag(2^k_i)``: float64 holds every entry exactly,
so the tests rebuild the same matrices bit for bit. The integers and the
exponents are drawn from Python's ``random`` with a fixed seed, and the
exponents spread over ``+-kmax``, which grades the rows and columns by up to
``2^(2 kmax)``. The script imports nothing from ``ginfo``.

For each pair it writes the roots of ``det(Sigma2 - lam Sigma1) = 0``,
ascending: the eigenvalues of ``L1^-1 Sigma2 L1^-T`` with ``Sigma1 = L1 L1^T``,
from mpmath's Cholesky factor and symmetric eigensolver at 100 significant
digits, printed to 50. A second whitening, by the inverse square root of
``Sigma1``, must give the same eigenvalues to 1e-60 relative, or the script
stops. mpmath 1.3 is needed here only; the tests read the literals. Run it by
hand after a change of pairs, then review the diff:

    python tests/reference/geneig_graded.py
"""

import random
import re
from pathlib import Path

import mpmath as mp

mp.mp.dps = 100
HELPERS = Path(__file__).resolve().parents[1] / "helpers.py"
SEED = 30
# (dimension, kmax), one pair each
PAIRS = [(4, 4), (4, 8), (4, 12), (8, 4), (8, 8), (8, 12)]


def _draw(rng, dim, kmax):
    """Integer rows of ``B`` and exponents ``k`` of one graded state."""
    rows = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim))
    return rows, tuple(rng.randint(-kmax, kmax) for _ in range(dim))


def _matrix(rows, exponents):
    b = mp.matrix([list(r) for r in rows])
    a = b * b.T + mp.eye(len(rows))
    return mp.matrix([[a[i, k] * mp.ldexp(1, exponents[i] + exponents[k])
                       for k in range(len(rows))] for i in range(len(rows))])


def _symmetric_eigenvalues(m):
    return sorted(mp.eigsy((m + m.T) / 2)[0])


def reference(state1, state2):
    """Ascending generalized eigenvalues of the pair, checked by two whitenings."""
    sigma1, sigma2 = _matrix(*state1), _matrix(*state2)
    inv_chol = mp.inverse(mp.cholesky(sigma1))
    lam = _symmetric_eigenvalues(inv_chol * sigma2 * inv_chol.T)
    values, vectors = mp.eigsy(sigma1)
    inv_root = vectors * mp.diag([1 / mp.sqrt(v) for v in values]) * vectors.T
    other = _symmetric_eigenvalues(inv_root * sigma2 * inv_root)
    if max(abs(x / y - 1) for x, y in zip(lam, other)) > mp.mpf("1e-60"):
        raise SystemExit(f"the two whitenings of {state1}, {state2} disagree")
    return lam


def _rows(rows) -> str:
    return "(" + ",\n      ".join(repr(r) for r in rows) + ")"


def literal() -> str:
    """The ``GENEIG_GRADED_REFERENCES`` block, one eigenvalue per line after the inputs."""
    rng = random.Random(SEED)
    lines = ["GENEIG_GRADED_REFERENCES = ["]
    for dim, kmax in PAIRS:
        state1, state2 = _draw(rng, dim, kmax), _draw(rng, dim, kmax)
        lam = reference(state1, state2)
        lines.append(f"    # {dim}x{dim}, exponents within +-{kmax}")
        lines.append(f"    ({_rows(state1[0])},\n     {state1[1]!r},")
        lines.append(f"     {_rows(state2[0])},\n     {state2[1]!r},")
        lines.append("     (" + ",\n      ".join(mp.nstr(v, 50, min_fixed=0, max_fixed=0)
                                             for v in lam) + ")),")
    lines.append("]")
    return "\n".join(lines)


def main() -> None:
    text = HELPERS.read_text()
    block = re.compile(r"^GENEIG_GRADED_REFERENCES = \[\n.*?^\]$", re.M | re.S)
    if len(block.findall(text)) != 1:
        raise SystemExit(f"{HELPERS} must hold one GENEIG_GRADED_REFERENCES = [ ... ] block")
    HELPERS.write_text(block.sub(lambda _: literal(), text))


if __name__ == "__main__":
    main()
