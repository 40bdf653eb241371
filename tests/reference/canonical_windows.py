"""Re-derive the sign test behind the canonical windows of ``ginfo.states``.

A canonical two-mode state (a, b, c, d) has ``Delta = a^2 + b^2 + 2cd`` and
``det S = (ab - c^2)(ab - d^2)``, and its squared symplectic invariants
``nu_-^2, nu_+^2`` are the roots of ``x^2 - Delta x + det S``. Both invariants
meet the uncertainty bound 1/2 exactly where

    (4 nu_-^2 - 1)(4 nu_+^2 - 1) = 16 det S - 4 Delta + 1 >= 0

on the branch ``Delta >= 1/2``. This script checks in sympy that

1. the product of the two factors is that polynomial;
2. the window edges ``(-c +- root)/denom`` in d, which the windows solved for
   before they took the sign test, are the polynomial's two roots in d, so
   the sign test moves no edge of either window;
3. the polynomial and the branch equal the forms that ``_uncertainty_window``
   evaluates, with ``x, y = ab - c^2 - 1/4, ab - d^2 - 1/4``,
   ``e = (a - b)^2 + (c + d)^2`` and ``ab - 1/4 = uv + (u + v)/2`` for
   ``u, v = a - 1/2, b - 1/2``:

       16 det S - 4 Delta + 1 = 16 (x y - e/4),    Delta - 1/2 = x + y + e,

   and that both scale as stated when every entry is multiplied by ``t`` and
   the 1/2 becomes ``h = t/2``.

It imports nothing from ``ginfo``; sympy is needed here only. Run it after a
change of the windows:

    python tests/reference/canonical_windows.py
"""

import sympy as sp

a, b, t = sp.symbols("a b t", positive=True)
c, d, root = sp.symbols("c d root", real=True)
delta = a ** 2 + b ** 2 + 2 * c * d
det_s = (a * b - c ** 2) * (a * b - d ** 2)
polynomial = 16 * det_s - 4 * delta + 1
failures = []

# 1. the uncertainty product in the invariants
discriminant = sp.sqrt(delta ** 2 - 4 * det_s)
nu_minus_sq, nu_plus_sq = (delta - discriminant) / 2, (delta + discriminant) / 2
if sp.expand((4 * nu_minus_sq - 1) * (4 * nu_plus_sq - 1) - polynomial) != 0:
    failures.append("(4 nu_-^2 - 1)(4 nu_+^2 - 1) differs from 16 det S - 4 Delta + 1")

# 2. the solved edges are the roots in d
scale = 4 * a * b
denom = scale - 4 * c ** 2
gap = (sp.sqrt(scale) + 1 / sp.sqrt(scale)) ** 2 \
    - (sp.sqrt(a / b) + sp.sqrt(b / a)) ** 2
radicand = c ** 2 + scale / 4 * denom * (gap - 4 * c ** 2)
for sign in (1, -1):
    edge = (-c + sign * root) / denom
    numerator = sp.numer(sp.together(polynomial.subs(d, edge)))
    if sp.simplify(sp.rem(sp.expand(numerator), root ** 2 - radicand, root)) != 0:
        failures.append(f"the edge (-c {'+-'[sign < 0]} root)/denom is not a root in d")

# 3. the evaluated forms, at the state's scale and scaled by t
for s, half in ((1, sp.Rational(1, 2)), (t, t / 2)):
    sa, sb, sc, sd = s * a, s * b, s * c, s * d
    u, v = sa - half, sb - half
    excess = u * v + (u + v) * half
    x, y = excess - sc ** 2, excess - sd ** 2
    e = (sa - sb) ** 2 + (sc + sd) ** 2
    if sp.expand(16 * (x * y - e * half ** 2) - s ** 4 * polynomial) != 0:
        failures.append(f"x y - e h^2 at scale {s} is not the polynomial / 16")
    if sp.expand(x + y + e - s ** 2 * (delta - sp.Rational(1, 2))) != 0:
        failures.append(f"x + y + e at scale {s} is not the branch Delta - 1/2")

if failures:
    raise SystemExit("\n".join(failures))
print("16 det S - 4 Delta + 1 =", sp.factor(polynomial))
print("matches the uncertainty product, the solved edges and the forms of _uncertainty_window")
