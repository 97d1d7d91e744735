"""Base metrics, periods, potential-generated structures, and dualisation.

The base metric pairs fibre harmonic forms; its volume-normalised version
drives the dual fibration.  Convex potentials give the integrable examples,
and twisting by a symmetric tensor is the same as translating by the
gradient section.  The coupling integral over twist directions reduces to a
constant-determinant closed form for these families.
"""

import sympy as sp

from syzlab import (
    BetaStructure,
    Chart,
    CycleSpec,
    HitchinPotential,
    SymTensorField,
    YukawaFamily,
    dual_structure_check,
    duality_identities,
    hitchin,
    mclean_metrics,
    period_one_form,
    symmetric_class,
    wedge_with_minus_omega,
    yukawa,
)

I = sp.I
chart = Chart(2, ((-1, 1), (-1, 1)))
y1, y2 = chart.ys

print("== base metrics from fibre integrals ==")
bs = BetaStructure(chart, [[2 * I, 0], [0, 3 * I]])
mm = mclean_metrics(bs)
print("   h   =", mm["h"].entries)
print("   h_n =", mm["h_n"].entries)
print("   fibre volume =", mm["vol"], "| route agreement:",
      f"{mm['report']['metric_route_agreement'].value:.2e}")

print("\n== period covectors of fibre cycles ==")
flat = BetaStructure(chart, [[I, 0], [0, I]])
for coeffs in ((1, 0), (0, 1)):
    _, psi, dpsi = period_one_form(flat, CycleSpec(1, coeffs), base=[[0.0], [0.0]])
    print(f"   cycle {coeffs} -> covector {psi[0]} | d(psi) = {dpsi:.1e}")
rep = duality_identities(flat, CycleSpec(1, (1, 0)), {1: sp.Integer(1)})
print("   pairing residuals:",
      {k: f"{v.value:.1e}" for k, v in rep.checks.items()})

print("\n== symmetric representatives ==")
alpha = SymTensorField(chart, [[0, y1], [0, 0]])
print("   antisymmetric defect:", alpha.antisymmetric_defect(),
      "| two-form image:", wedge_with_minus_omega(alpha))
print("   symmetrised:", symmetric_class(alpha).entries)

print("\n== potential-generated structures ==")
phi = (y1 ** 2 + y2 ** 2) / 2 + sp.Rational(1, 3) * y1 * y2
good, info = hitchin(HitchinPotential(chart, phi))
print("   det Hessian residual:", info["determinant_residual"],
      "| closed:", info["closedness"].verdict("full_closedness"))
phi_bad = (y1 ** 2 + y2 ** 2) / 2 + y1 ** 3 / 10
_, info_bad = hitchin(HitchinPotential(chart, phi_bad))
print("   cubic perturbation residual:",
      f"{info_bad['closedness']['full_closedness'].value:.3e}",
      "| criterion consistent:", info_bad["criterion_consistent"])

print("\n== dualisation and volume reciprocity ==")
rep = dual_structure_check(bs)
print("   metric match:", f"{rep['dual_metric_match'].value:.1e}",
      "| vol * dual-vol - 1:", f"{rep['volume_reciprocity'].value:.1e}")

print("\n== coupling integral over twist directions ==")
fam = YukawaFamily(flat, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
value, oracle = yukawa(fam)
print("   quadrature:", value, "| closed form:", oracle)
