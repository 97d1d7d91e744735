"""Structure equations of semi-flat candidates.

A beta-matrix encodes a connection (real part) and an inverse fibre metric
(imaginary part).  Closedness of the associated volume form decomposes into
an integrability residual plus a divergence condition, whose real and
imaginary parts are the four named structure residuals.
"""

import sympy as sp

from syzlab import (
    BetaStructure,
    Chart,
    action_coordinates,
    closedness_residuals,
    flatness_probe,
    reglue_check,
    structure_equations,
    translate_by_section,
)

I = sp.I
chart = Chart(2, ((-1, 1), (-1, 1)))
y1, y2 = chart.ys


def show(name, rep):
    print(f"-- {name}")
    for key, check in sorted(rep.checks.items()):
        print(f"   {key:<24} {check.value:10.3e}  {'ok' if check.passed else 'FAIL'}")


print("== a flat square torus ==")
flat = BetaStructure(chart, [[I, 0], [0, I]])
show("closedness", closedness_residuals(flat))
show("structure equations", structure_equations(flat))

print("\n== a non-integrable diagonal ==")
bumpy = BetaStructure(chart, [[I * (1 + y2 ** 2), 0], [0, I]])
rep = closedness_residuals(bumpy)
show("closedness", rep)
print("   verdict equivalence held:", rep.notes["equivalence_consistent"])

print("\n== a curved connection ==")
curved = BetaStructure(chart, [[y2 + I, 0], [0, I]])
show("structure equations", structure_equations(curved))

print("\n== fibrewise translation by a gradient section ==")
F = y1 ** 2 / 2 + y1 * y2 / 3
sigma = [sp.diff(F, y1), sp.diff(F, y2)]
moved = translate_by_section(flat, sigma)
print("   translated matrix:", moved.pairs)
print("   still closed:", closedness_residuals(moved).verdict("full_closedness"))

print("\n== action coordinates and regluing ==")
box = Chart(2, ((1, 2), (1, 2)))
u = action_coordinates([[box.ys[1], box.ys[0]], [0, 1]], box)
print("   potentials:", u)
ok, transition = reglue_check(sigma, chart)
print("   gradient cocycle valid:", ok, "| shift:", transition["shift"])
print("   non-closed cocycle valid:", reglue_check([y2, 0], chart)[0])

print("\n== flatness probe ==")
probe = flatness_probe(flat)
print("   hypotheses hold:", probe.notes["hypotheses_hold"],
      "| fibre-constant conclusion:", probe.notes["conclusion_holds"])
