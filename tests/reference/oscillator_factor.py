"""Re-derive the factored separability constraint of ``ginfo.oscillator``.

The ground state of the deformed oscillator is separable exactly when the
two sides of its closed-form frequency constraint agree. With ``M = m1 m2``
the sides are

    lhs = (4 hbar^2/M + w1^2 theta^2) (eta/M + w2^2 theta)^2 (eta^2/M + 4 hbar^2 w1^2)
    rhs = the same with w1 and w2 exchanged,

and this script checks in sympy that their difference is the product

    (w1 - w2)(w1 + w2)(eta - M theta w1 w2)(eta + M theta w1 w2)(4 hbar^2 - theta eta)^2 / M^3

that ``separability_condition`` evaluates as ``constraint_gap``. It imports
nothing from ``ginfo``; sympy is needed here only. Run it by hand after a
change of the constraint:

    python tests/reference/oscillator_factor.py
"""

import sympy as sp

m1, m2, w1, w2, theta, eta, hbar = sp.symbols("m1 m2 w1 w2 theta eta hbar", positive=True)
M = m1 * m2


def side(wa, wb):
    return (4 * hbar ** 2 / M + wa ** 2 * theta ** 2) * (eta / M + wb ** 2 * theta) ** 2 \
        * (eta ** 2 / M + 4 * hbar ** 2 * wa ** 2)


difference = side(w1, w2) - side(w2, w1)
claimed = (w1 - w2) * (w1 + w2) * (eta - M * theta * w1 * w2) * (eta + M * theta * w1 * w2) \
    * (4 * hbar ** 2 - theta * eta) ** 2 / M ** 3

if sp.expand(difference - claimed) != 0:
    raise SystemExit("lhs - rhs differs from the claimed product")
print("lhs - rhs =", sp.factor(difference))
print("matches the product evaluated by separability_condition")
