"""Plain-text covariance-matrix files.

Format: one comment header naming the ordering and mode count, then one row
of 17-significant-digit decimals per matrix row. The decimal round trip is
bit exact. The ordering is one of :class:`~ginfo.symplectic.Ordering`, so
every state read from a file has a form to check its uncertainty bound
against.
"""

from __future__ import annotations

import numpy as np

from .symplectic import CovarianceMatrix, Ordering

_HEADER_TAG = "# cvm"


def dump_cvm(cvm: CovarianceMatrix) -> str:
    lines = [f"{_HEADER_TAG} modes={cvm.n_modes} ordering={cvm.ordering.value}"]
    for row in cvm.matrix:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def save_cvm(path, cvm: CovarianceMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_cvm(cvm))


def parse_cvm(text: str) -> CovarianceMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_HEADER_TAG):
        raise ValueError("matrix file must start with a '# cvm' header line")
    tokens = lines[0][len(_HEADER_TAG):].split()
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"matrix header token {tok!r} is not a key=value field")
    fields = dict(tok.split("=", 1) for tok in tokens)
    try:
        modes = fields["modes"]
        ordering = Ordering(fields["ordering"])
    except KeyError as exc:
        raise ValueError(f"matrix header is missing the {exc.args[0]!r} field") from exc
    if not (modes.isdecimal() and int(modes) > 0):
        raise ValueError(f"matrix header field modes={modes!r} is not a positive integer")
    dim = 2 * int(modes)
    rows = [ln.split() for ln in lines[1:]]
    if len(rows) != dim:
        raise ValueError(f"matrix body does not match modes={modes}: {len(rows)} rows, not {dim}")
    for i, row in enumerate(rows, 1):
        if len(row) != dim:
            raise ValueError(f"matrix row {i} does not match modes={modes}: {len(row)} entries")
    matrix = np.array([[float(x) for x in row] for row in rows])
    return CovarianceMatrix(matrix, ordering=ordering)


def load_cvm(path) -> CovarianceMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_cvm(fh.read())
