"""The lattice-level mirror map on three hyperbolic planes.

All arithmetic is exact.  The mirror holomorphic class is null, meets the
fibre once, and is orthogonal to the mirror Kaehler class; fibre volumes of
the two sides multiply to one; and running the map twice followed by the
fibrewise negation recovers every input class on the nose.  Coordinates
are rationals: ints, Fractions, floats or strings such as "1/2".
"""

from syzlab import (
    GramLattice,
    K3MirrorInput,
    double_mirror_check,
    mirror_classes,
    validate_and_align,
)

U3 = GramLattice.from_name("U3")
inp = K3MirrorInput(
    U3,
    E=(1, 0, 0, 0, 0, 0),
    sigma0=(-1, 1, 0, 0, 0, 0),
    omega=(0, 0, 1, 1, 0, 0),
    B=(0, 0, "1/2", "-1/2", 0, 0),
    re_omega=(1, 1, 0, 0, 0, 0),
    im_omega=(0, 0, 0, 0, 1, 1),
)

print("== mirror classes ==")
mc = mirror_classes(validate_and_align(inp))
print("   holomorphic (re):", mc.omega_n_mirror_re)
print("   holomorphic (im):", mc.omega_n_mirror_im)
print("   kaehler:", mc.omega_mirror)
print("   volumes:", mc.vol, "and", mc.vol_mirror)
for name, ok in mc.identities.items():
    print(f"   {name:<38} {'ok' if ok else 'FAIL'}")

print("\n== double mirror with fibrewise negation ==")
report = double_mirror_check(inp)
for key in ("omega_recovered", "re_omega_recovered", "im_omega_recovered",
            "twist_recovered", "negation_involutive"):
    print(f"   {key:<22} {'ok' if report[key] else 'FAIL'}")
