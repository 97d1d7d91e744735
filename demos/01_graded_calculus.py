"""Tour of the bigraded chart calculus.

Elements are sums of c(y, x) * dy_J (x) d/dx_I terms.  The script builds a
few, multiplies them, moves them through the isomorphism with ordinary
forms, and shows the three graded operators and the bracket at work.
"""

import sympy as sp

from syzlab import (
    BigradedElement,
    Chart,
    bracket,
    d_x,
    d_x_prime,
    d_y,
    exp_nilpotent,
    phi3,
    to_form,
)

chart = Chart(2, ((-1, 1), (-1, 1)))
y1, y2 = chart.ys
x1, x2 = chart.xs

print("== products and signs ==")
a = BigradedElement.term(chart, 1, dys=(1,), dxs=(1,))
b = BigradedElement.term(chart, 1, dys=(2,), dxs=(2,))
print("a  =", a)
print("b  =", b)
print("ab =", a * b)
print("ab - ba is zero:", (a * b - b * a).is_zero())
u = BigradedElement.term(chart, 1, dxs=(1,))
v = BigradedElement.term(chart, 1, dxs=(2,))
print("pure polyvectors anticommute:", (u * v + v * u).is_zero())

print("\n== the form isomorphism ==")
print("unit element maps to the fibre volume form:", to_form(BigradedElement.unit(chart)))
e = BigradedElement.term(chart, 1, dys=(2,), dxs=(2,))
print("dy2 (x) d/dx2 maps to", to_form(e), " (contraction sign at work)")

print("\n== differentials ==")
el = BigradedElement.term(chart, sp.sin(2 * sp.pi * x1), dys=(1,), dxs=(1, 2))
print("element:", el)
print("fibre differential:", d_x(el))
lhs = to_form(d_x(el) + d_y(el))
rhs = to_form(el).exterior_derivative()
print("matches the exterior derivative of its form image:", (lhs - rhs).is_zero())

print("\n== bracket and operator orders ==")
p = BigradedElement.term(chart, sp.sin(2 * sp.pi * x2), dys=(1,), dxs=(1,))
q = BigradedElement.term(chart, 1, dys=(2,), dxs=(2,))
print("[p, q] =", bracket(p, q))
print("third-order defect of the fibre operator vanishes:",
      phi3(d_x_prime, p, q, p).is_zero())

print("\n== nilpotent exponential ==")
beta = BigradedElement.from_matrix(chart, [[y2, 0], [0, sp.Rational(1, 3)]])
print("exp(beta) as a form:", to_form(exp_nilpotent(beta)))
