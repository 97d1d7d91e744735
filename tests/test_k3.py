import functools
import random
from fractions import Fraction

import pytest
import sympy as sp

import syzlab.k3 as k3
from syzlab.k3 import (
    GramLattice,
    K3MirrorInput,
    K3ValidationError,
    basis_vector,
    double_mirror_check,
    fibrewise_negation,
    hyperkahler_rotate,
    k3_lattice,
    mirror_classes,
    split_components,
    sublattice_quotient,
    transverse_twist_class,
    validate,
    validate_and_align,
)
from syzlab.scenarios import run_scenario_doc

U3 = GramLattice.from_name("U3")
E = (1, 0, 0, 0, 0, 0)
S0 = (-1, 1, 0, 0, 0, 0)


def full_input(omega=(0, 0, 1, 1, 0, 0), B=(0,) * 6,
               re=(1, 1, 0, 0, 0, 0), im=(0, 0, 0, 0, 1, 1)):
    return K3MirrorInput(U3, E=E, sigma0=S0, omega=omega, B=B,
                         re_omega=re, im_omega=im)


def random_valid_input(rng):
    """Random exact input over three hyperbolic planes.

    Start from the canonical orthogonal triple, apply rational-rotation
    mixes that preserve the normalisation, scale, and add a random twist
    class orthogonal to the fibre and section.
    """
    re = [sp.Integer(v) for v in (1, 1, 0, 0, 0, 0)]
    im = [sp.Integer(v) for v in (0, 0, 0, 0, 1, 1)]
    w = [sp.Integer(v) for v in (0, 0, 1, 1, 0, 0)]
    # a rational rotation in the (im, omega) plane keeps re.E untouched
    pairs = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]
    a, b, c = pairs[rng.randrange(3)]
    ca, sa = sp.Rational(a, c), sp.Rational(b, c)
    im, w = ([ca * u + sa * v for u, v in zip(im, w)],
             [-sa * u + ca * v for u, v in zip(im, w)])
    # overall scaling keeps all squares equal
    scale = sp.Rational(rng.randint(1, 5), rng.randint(1, 3))
    re = [scale * v for v in re]
    im = [scale * v for v in im]
    w = [scale * v for v in w]
    # sometimes rotate (re, im) so the input needs genuine alignment
    if rng.random() < 0.5:
        a, b, c = pairs[rng.randrange(3)]
        ca, sa = sp.Rational(a, c), sp.Rational(b, c)
        re, im = ([ca * u - sa * v for u, v in zip(re, im)],
                  [sa * u + ca * v for u, v in zip(re, im)])
    B = [0, 0] + [sp.Rational(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(4)]
    return K3MirrorInput(U3, E=E, sigma0=S0, omega=tuple(w), B=tuple(B),
                         re_omega=tuple(re), im_omega=tuple(im))


class TestValidation:
    def test_valid_input_passes(self):
        inp = full_input()
        assert validate(inp) == []
        assert validate_and_align(inp) is inp  # already aligned

    def test_named_violations(self):
        with pytest.raises(K3ValidationError, match="section self-intersection"):
            K3MirrorInput(U3, E=E, sigma0=(0, 1, 0, 0, 0, 0),
                          omega=(0, 0, 1, 1, 0, 0))
        with pytest.raises(K3ValidationError, match="primitive"):
            K3MirrorInput(U3, E=(2, 0, 0, 0, 0, 0), sigma0=S0,
                          omega=(0, 0, 1, 1, 0, 0))
        with pytest.raises(K3ValidationError, match="positive"):
            K3MirrorInput(U3, E=E, sigma0=S0, omega=(0, 0, 1, -1, 0, 0))

    def test_alignment_quarter_turn(self):
        swapped = full_input(re=(0, 0, 0, 0, 1, 1), im=(1, 1, 0, 0, 0, 0))
        aligned = validate_and_align(swapped)
        assert aligned.re_omega == (1, 1, 0, 0, 0, 0)
        assert aligned.im_omega == (0, 0, 0, 0, -1, -1)

    def test_alignment_idempotent(self):
        inp = full_input()
        assert validate_and_align(inp) is inp

    def test_alignment_null_pairing_rejected(self):
        # E-perp/E has only two positive directions in U3 and in K3, so a
        # valid input with Re.E = Im.E = 0 needs three: U + <2> + <2> + <2>
        gram = ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 2, 0, 0),
                (0, 0, 0, 2, 0), (0, 0, 0, 0, 2))
        degenerate = K3MirrorInput(GramLattice(gram), E=(1, 0, 0, 0, 0),
                                   sigma0=(-1, 1, 0, 0, 0), omega=(0, 0, 1, 0, 0),
                                   re_omega=(0, 0, 0, 1, 0), im_omega=(0, 0, 0, 0, 1))
        # both Re.E and Im.E vanish: no phase can fix the volume
        with pytest.raises(K3ValidationError, match="null against the holomorphic"):
            validate_and_align(degenerate)

    def test_exact_pythagorean_alignment(self):
        re0 = [sp.Integer(v) for v in (1, 1, 0, 0, 0, 0)]
        im0 = [sp.Integer(v) for v in (0, 0, 0, 0, 1, 1)]
        c, s = sp.Rational(3, 5), sp.Rational(4, 5)
        re = tuple(c * a - s * b for a, b in zip(re0, im0))
        im = tuple(s * a + c * b for a, b in zip(re0, im0))
        aligned = validate_and_align(full_input(re=re, im=im))
        assert aligned.re_omega == tuple(re0)
        assert aligned.im_omega == tuple(im0)


class TestHyperkahler:
    def test_rotation_checks(self):
        omega_k, holo_k, checks = hyperkahler_rotate(full_input())
        assert checks["rotated_holomorphic_null"]
        assert checks["rotated_kaehler_positive"]
        assert checks["rotated_kaehler_fibre_volume"] == 1

    def test_unaligned_rejected(self):
        swapped = full_input(re=(0, 0, 0, 0, 1, 1), im=(1, 1, 0, 0, 0, 0))
        with pytest.raises(K3ValidationError):
            hyperkahler_rotate(swapped)


class TestSublatticeQuotient:
    def test_two_planes(self):
        lat = GramLattice.from_name("U2")
        q, basis = sublattice_quotient(lat, (1, 0, 0, 0))
        assert q.rank == 2
        assert q.gram == ((0, 1), (1, 0))

    def test_k3_preset(self):
        lat = k3_lattice()
        assert lat.rank == 22 and lat.is_unimodular()
        q, _ = sublattice_quotient(lat, basis_vector(22, 0))
        assert q.rank == 20
        assert q.is_unimodular()

    def test_rejects_imprimitive(self):
        with pytest.raises(K3ValidationError):
            sublattice_quotient(GramLattice.from_name("U2"), (2, 0, 0, 0))

    def test_rejects_non_isotropic(self):
        with pytest.raises(K3ValidationError):
            sublattice_quotient(GramLattice.from_name("U2"), (1, 1, 0, 0))


class TestGramLattice:
    def test_presets_are_built_once(self):
        assert GramLattice.from_name("K3") is k3_lattice()
        assert GramLattice.from_name("U3") is U3
        with pytest.raises(K3ValidationError, match="unknown lattice preset"):
            GramLattice.from_name("E8")

    def test_user_gram_is_checked(self):
        with pytest.raises(K3ValidationError, match="symmetric"):
            GramLattice(((0, 1), (2, 0)))
        lat = GramLattice(((2, 1), (1, 0)))
        assert lat.dot((1, 0), (0, 1)) == 1
        # coordinates are read as K3MirrorInput reads them: a string is a rational or an error
        assert lat.dot(("1/2", 1), (0.5, 1)) == Fraction(3, 2)
        with pytest.raises(K3ValidationError, match="not a rational number"):
            lat.dot(("sqrt(4)", 1), (1, 0))


class TestMirrorClasses:
    def test_reduced_toy(self):
        """Two hyperbolic planes, no holomorphic data, unit volume."""
        lat = GramLattice.from_name("U2")
        inp = K3MirrorInput(lat, E=(1, 0, 0, 0), sigma0=(-1, 1, 0, 0),
                            omega=(0, 0, 1, 1))
        mc = mirror_classes(inp)
        assert mc.omega_n_mirror_re == (1, 1, 0, 0)
        assert mc.omega_n_mirror_im == (0, 0, -1, -1)
        assert all(mc.identities.values())
        assert mc.vol == 1 and mc.vol_mirror == 1

    def test_full_identities(self):
        mc = mirror_classes(full_input())
        assert all(mc.identities.values())
        assert sp.expand(mc.vol * mc.vol_mirror - 1) == 0

    def test_volume_scaling_of_mirror_kaehler(self):
        """Scaling omega scales the mirror kaehler square by t^2 / vol^2."""
        t = sp.Integer(3)
        base = full_input()
        scaled = full_input(omega=tuple(t * sp.Integer(v)
                                        for v in (0, 0, 1, 1, 0, 0)),
                            re=tuple(t * sp.Integer(v) for v in (1, 1, 0, 0, 0, 0)),
                            im=tuple(t * sp.Integer(v) for v in (0, 0, 0, 0, 1, 1)))
        mc0, mc1 = mirror_classes(base), mirror_classes(scaled)
        d = U3.dot
        sq0 = d(mc0.omega_mirror, mc0.omega_mirror)
        sq1 = d(mc1.omega_mirror, mc1.omega_mirror)
        # vol scales by t as well, so the mirror square is scale free here
        assert sp.expand(sq1 - sq0) == 0
        # the mirror volume stays reciprocal regardless of the scaling
        assert sp.expand(mc1.vol * mc1.vol_mirror - 1) == 0

    def test_fibre_pairing_is_one(self):
        mc = mirror_classes(full_input(B=(0, 0, 1, -1, 0, 0)))
        d = U3.dot
        assert sp.expand(d(mc.omega_n_mirror_re, E) - 1) == 0
        assert sp.expand(d(mc.omega_n_mirror_im, E)) == 0

    def test_randomised_exact_identities(self):
        rng = random.Random(101)
        for _ in range(30):
            inp = validate_and_align(random_valid_input(rng))
            mc = mirror_classes(inp)
            assert all(mc.identities.values())
            assert sp.expand(mc.vol * mc.vol_mirror - 1) == 0

    def test_symbolic_scaling_of_kaehler_square(self):
        """The mirror kaehler square is omega^2 / vol^2 under a positive
        scale t of the whole normalised triple; vol is t itself."""
        d = U3.dot
        for t in (Fraction(1, 3), 2, Fraction(7, 5)):
            scale = lambda v: tuple(t * x for x in v)
            inp = K3MirrorInput(U3, E=E, sigma0=S0,
                                omega=scale((0, 0, 1, 1, 0, 0)),
                                B=(0,) * 6,
                                re_omega=scale((1, 1, 0, 0, 0, 0)),
                                im_omega=scale((0, 0, 0, 0, 1, 1)))
            mc = mirror_classes(inp)
            assert mc.vol == t
            omega_sq = d(inp.omega, inp.omega)
            assert d(mc.omega_mirror, mc.omega_mirror) == omega_sq / mc.vol ** 2
            assert mc.vol * mc.vol_mirror == 1


def _nonzero(strings):
    return {i: x for i, x in enumerate(strings) if x != "0"}


class TestRationalArithmetic:
    """Rational data stays in Fraction, and an alignment's surd is k3's own
    root.  The pinned strings are the output of the earlier implementation
    that computed in sympy."""

    def rank22_input(self):
        pad = lambda v: tuple(v) + (0,) * (22 - len(v))
        B = [0, 0, "1/2", 0, -3, 0, 0, 0, "3/2"] + [0] * 8 + [-1, 0, 0, 0, "-5/2"]
        return K3MirrorInput(k3_lattice(), E=pad([1]), sigma0=pad([-1, 1]),
                             omega=pad([0, 0, "25/39", "25/39", "-20/13", "-20/13"]),
                             B=tuple(B), re_omega=pad(["5/3", "5/3"]),
                             im_omega=pad([0, 0, "20/13", "20/13", "25/39", "25/39"]))

    def test_rank22_payload_is_fraction_valued(self):
        mc = mirror_classes(validate_and_align(self.rank22_input()))
        vectors = (mc.omega_mirror, mc.omega_n_mirror_re, mc.omega_n_mirror_im,
                   mc.re_omega_mirror, mc.im_omega_mirror)
        assert all(type(x) is Fraction for v in vectors for x in v)
        assert type(mc.vol) is Fraction and type(mc.vol_mirror) is Fraction
        out = mc.as_dict()
        assert all(len(out[key]) == 22 for key in ("omega_mirror", "re_omega_mirror"))
        assert _nonzero(out["omega_mirror"]) == {
            0: "-9/13", 2: "12/13", 3: "12/13", 4: "5/13", 5: "5/13"}
        assert _nonzero(out["omega_n_mirror_re"]) == {
            0: "221/18", 1: "1", 2: "-1/2", 4: "3", 8: "-3/2", 17: "1", 21: "5/2"}
        assert _nonzero(out["omega_n_mirror_im"]) == {
            0: "-385/78", 2: "-25/39", 3: "-25/39", 4: "20/13", 5: "20/13"}
        assert _nonzero(out["re_omega_mirror"]) == {
            0: "221/30", 1: "3/5", 2: "-3/10", 4: "9/5", 8: "-9/10", 17: "3/5", 21: "3/2"}
        assert _nonzero(out["im_omega_mirror"]) == {
            0: "-77/26", 2: "-5/13", 3: "-5/13", 4: "12/13", 5: "12/13"}
        assert (out["vol"], out["vol_mirror"]) == ("5/3", "3/5")
        assert all(out["identities"].values())
        assert double_mirror_check(self.rank22_input())["all_passed"]

    def test_float_coordinates_read_as_decimals(self):
        inp = full_input(omega=(0, 0, 0.5, 0.5, 0, 0), B=(0, 0, 0.1, -0.1, 0, 0),
                         re=(0.5, 0.5, 0, 0, 0, 0), im=(0, 0, 0, 0, 0.5, 0.5))
        assert inp.B[2] == Fraction(1, 10) and type(inp.B[2]) is Fraction
        out = mirror_classes(validate_and_align(inp)).as_dict()
        assert out["omega_n_mirror_re"] == ["13/50", "1", "-1/10", "1/10", "0", "0"]
        assert out["re_omega_mirror"] == ["13/25", "2", "-1/5", "1/5", "0", "0"]
        assert (out["vol"], out["vol_mirror"]) == ("1/2", "2")

    def test_quadratic_surd_alignment(self):
        """Re.E = Im.E = 1 needs the rotation by 1/sqrt(2): h = sqrt(2).  The
        input is rational (demos/scenarios/k3_surd.json); the strings are
        those the earlier implementation printed from sympy."""
        inp = full_input(omega=(0, 0, 1, 2, 0, 0), B=(0, 0, 1, -1, 0, 0),
                         re=(1, 1, 0, 0, -1, -1), im=(1, 1, 0, 0, 1, 1))
        aligned = validate_and_align(inp)
        assert [str(x) for x in aligned.re_omega] == [
            "sqrt(2)", "sqrt(2)", "0", "0", "0", "0"]
        assert [str(x) for x in aligned.im_omega] == [
            "0", "0", "0", "0", "sqrt(2)", "sqrt(2)"]
        out = mirror_classes(aligned).as_dict()
        assert out["vol"] == "sqrt(2)" and out["vol_mirror"] == "sqrt(2)/2"
        assert out["re_omega_mirror"] == [
            "3*sqrt(2)/2", "sqrt(2)/2", "-sqrt(2)/2", "sqrt(2)/2", "0", "0"]
        assert out["im_omega_mirror"] == [
            "-sqrt(2)/2", "0", "-sqrt(2)/2", "-sqrt(2)", "0", "0"]
        assert out["omega_n_mirror_re"] == ["3", "1", "-1", "1", "0", "0"]
        assert out["omega_n_mirror_im"] == ["-1", "0", "-1", "-2", "0", "0"]
        assert out["omega_mirror"] == ["0", "0", "0", "0", "1", "1"]
        assert all(out["identities"].values())
        # a root over a root is rational and comes back as a Fraction
        assert all(type(x) is Fraction for x in mirror_classes(aligned).omega_mirror)
        report = double_mirror_check(inp)
        assert all(report[key] for key in (
            "omega_recovered", "re_omega_recovered", "im_omega_recovered",
            "twist_recovered", "negation_involutive", "all_passed"))

    @pytest.mark.parametrize("text, value", [
        ("-3/4", Fraction(-3, 4)), ("0", 0), ("+3", 3), ("1.5", Fraction(3, 2)),
        (" 2/3 ", Fraction(2, 3)), ("\u0663/4", Fraction(3, 4)), ("3/0", None),
        ("\u00b2", None), ("pi", None), ("3/-4", None), ("-", None), ("", None)])
    def test_coordinate_strings_read_as_fractions_do(self, text, value):
        """[-]digits[/digits] is read by integer arithmetic, any other
        spelling by Fraction(text): the same value, or the same error."""
        if value is None:
            with pytest.raises(K3ValidationError) as exc:
                full_input(B=(0, 0, text, 0, 0, 0))
            assert str(exc.value) == f"coordinate {text!r} is not a rational number"
        else:
            x = full_input(B=(0, 0, text, 0, 0, 0)).B[2]
            assert x == value and type(x) is Fraction

    def test_symbolic_coordinates_are_refused(self):
        """Coordinates are rational; a symbol or a surd is not read."""
        t = sp.Symbol("t", positive=True)
        for bad in (t, sp.sqrt(2), 3 * sp.sqrt(2) / 2):
            with pytest.raises(K3ValidationError, match="not a rational number"):
                full_input(omega=(0, 0, bad, bad, 0, 0))
            with pytest.raises(K3ValidationError, match="not a rational number"):
                full_input(B=(0, 0, bad, -bad, 0, 0))
        # sympy's rationals are numbers.Rational and read as Fractions
        inp = full_input(B=(0, 0, sp.Rational(1, 2), sp.Rational(-1, 2), 0, 0))
        assert inp.B[2] == Fraction(1, 2) and type(inp.B[2]) is Fraction


class TestOneFormPerClass:
    """A rank-22 double mirror works on _Vecs from end to end: no class is
    read back from its coordinates, and each vector's Gram image is built
    once, by the first pairing that needs it (65 pairings, 14 images)."""

    def test_double_mirror_pairs_kept_vectors(self, monkeypatch):
        inp = TestRationalArithmetic().rank22_input()
        raw_dot, raw_of = GramLattice.dot, k3._Vec.of.__func__
        pairings, imaged, parsed = [], {}, []

        def dot(self, u, v):
            fresh = [x for x in (u, v) if type(x) is k3._Vec and x.image is None]
            pairings.append(1)
            out = raw_dot(self, u, v)
            imaged.update((id(x), x) for x in fresh if x.image is not None)
            return out

        def of(cls, coords, rank=None):
            if type(coords) is not cls:
                parsed.append(coords)
            return raw_of(cls, coords, rank)

        monkeypatch.setattr(GramLattice, "dot", dot)
        monkeypatch.setattr(k3._Vec, "of", classmethod(of))
        assert double_mirror_check(inp)["all_passed"]
        assert (len(pairings), len(imaged), parsed) == (65, 14, [])


class TestIntegerData:
    """Integer classes and Gram entries are read exactly: an integral float
    is an int, any other non-integer is an error naming its entry."""

    def test_fibre_and_section_classes(self):
        with pytest.raises(K3ValidationError, match=r"E\[0\] = 3/2 is not an integer"):
            K3MirrorInput(U3, E=(1.5, 0, 0, 0, 0, 0), sigma0=S0, omega=(0, 0, 1, 1, 0, 0))
        with pytest.raises(K3ValidationError, match=r"sigma0\[1\] = 11/10 is not an integer"):
            K3MirrorInput(U3, E=E, sigma0=(-1, 1.1, 0, 0, 0, 0), omega=(0, 0, 1, 1, 0, 0))
        inp = K3MirrorInput(U3, E=(1.0, 0, 0, 0, 0, 0), sigma0=(-1.0, 1, 0, 0, 0, 0),
                            omega=(0, 0, 1, 1, 0, 0))
        assert inp.E == E and inp.sigma0 == S0
        assert all(type(x) is int for x in inp.E + inp.sigma0)

    def test_gram_entries(self):
        with pytest.raises(K3ValidationError, match=r"gram\[0\]\[0\] = 27/10 is not an integer"):
            GramLattice(((2.7, 1), (1, 0)))
        lat = GramLattice(((2.0, 1), (1, 0)))
        assert lat.gram == ((2, 1), (1, 0)) and type(lat.gram[0][0]) is int

    def test_algebraic_classes(self):
        from syzlab.k3 import kahler_obstructions

        with pytest.raises(K3ValidationError, match=r"algebraic class 0\[2\] = 3/2"):
            kahler_obstructions(full_input(), [(0, 0, 1.5, -1, 0, 0)])
        assert kahler_obstructions(full_input(), [(0, 0, 1.0, -1.0, 0, 0)]) == [
            (0, 0, 1, -1, 0, 0)]

    def test_quotient_fibre_class(self):
        with pytest.raises(K3ValidationError, match=r"E\[0\] = 1/2 is not an integer"):
            sublattice_quotient(GramLattice.from_name("U2"), (0.5, 0, 0, 0))
        q, _ = sublattice_quotient(GramLattice.from_name("U2"), (1.0, 0, 0, 0))
        assert q.gram == ((0, 1), (1, 0))


class TestTwistLift:
    def test_lift_reduced_on_construction(self):
        """A twist class pairing nontrivially with the section is shifted by
        a fibre-class multiple to the orthogonal representative."""
        raw_B = (1, 0, 1, -1, 0, 0)  # orthogonal to the fibre, not the section
        d = U3.dot
        assert d(raw_B, E) == 0 and d(raw_B, S0) != 0
        inp = full_input(B=raw_B)
        assert inp.B == (0, 0, 1, -1, 0, 0)
        assert d(inp.B, S0) == 0 and d(inp.B, E) == 0

    def test_reduced_lift_gives_valid_input(self):
        inp = full_input(B=(2, 0, 1, -1, 0, 0))
        assert validate(inp) == []
        assert validate_and_align(inp) is inp  # already aligned
        assert double_mirror_check(inp)["all_passed"]


class TestKahlerObstructions:
    def test_minus_two_class_flagged(self):
        from syzlab.k3 import kahler_obstructions

        inp = full_input()
        bad = kahler_obstructions(inp, [(0, 0, 1, -1, 0, 0), (0, 0, 1, 1, 0, 0)])
        assert bad == [(0, 0, 1, -1, 0, 0)]

    def test_no_obstruction(self):
        from syzlab.k3 import kahler_obstructions

        assert kahler_obstructions(full_input(), [(1, 0, 0, 0, 0, 0)]) == []


class TestDoubleMirror:
    def test_negation_is_involutive(self):
        inp = full_input()
        v = (2, 3, sp.Rational(1, 2), -1, 0, 5)
        once = fibrewise_negation(inp, E, S0, v)
        twice = fibrewise_negation(inp, E, S0, once)
        assert all(sp.expand(a - b) == 0 for a, b in zip(twice, v))

    def test_component_split(self):
        inp = full_input()
        alpha, beta, w = split_components(inp, E, S0, (0, 5, 1, 2, 0, 0))
        d = U3.dot
        assert d(w, E) == 0 and d(w, S0) == 0
        rebuilt = tuple(sp.expand(alpha * e + beta * s + ww)
                        for e, s, ww in zip(E, S0, w))
        assert rebuilt == (0, 5, 1, 2, 0, 0)

    def test_untwisted_recovery(self):
        report = double_mirror_check(full_input())
        assert report["all_passed"]

    def test_twisted_recovery(self):
        report = double_mirror_check(full_input(B=(0, 0, 1, -1, 0, 0)))
        assert report["all_passed"]

    def test_randomised_recovery(self):
        rng = random.Random(77)
        for _ in range(10):
            report = double_mirror_check(random_valid_input(rng))
            assert report["all_passed"]

    def test_reduced_input_rejected(self):
        lat = GramLattice.from_name("U2")
        inp = K3MirrorInput(lat, E=(1, 0, 0, 0), sigma0=(-1, 1, 0, 0),
                            omega=(0, 0, 1, 1))
        with pytest.raises(K3ValidationError):
            double_mirror_check(inp)


class TestCanonicalFormIdentities:
    def test_complex_canonical_coordinates(self):
        """The canonical complex 2-form in twisted coordinates reproduces the
        rotated symplectic and holomorphic-imaginary forms, and the chart
        relabeling (x1,x2,y1,y2) -> (x2,x1,y1,-y2) carries the standard
        symplectic form onto the imaginary part."""
        from syzlab.algebra import FormElement, standard_symplectic_form, wedge_one_forms
        from syzlab.charts import Chart

        chart = Chart(2, ((-1, 1), (-1, 1)))
        I = sp.I
        # dw ^ dz with w = x1 + i x2, z = y1 - i y2
        dw = {("x", 1): sp.Integer(1), ("x", 2): I}
        dz = {("y", 1): sp.Integer(1), ("y", 2): -I}
        omega_c = wedge_one_forms(chart, [dw, dz])
        re, im = omega_c.real_imag()
        # imaginary part: dy2 ^ dx1 + dx2 ^ dy1
        assert im.coefficient(dys=(2,), dxs=(1,)) == 1
        assert im.coefficient(dys=(1,), dxs=(2,)) == -1
        # real part: dx1 ^ dy1 + dx2 ^ dy2
        assert re.coefficient(dys=(1,), dxs=(1,)) == -1
        assert re.coefficient(dys=(2,), dxs=(2,)) == -1

        # relabeling of the standard symplectic form matches the imaginary part
        relabeled = FormElement(chart)
        for (jset, kset), coeff in standard_symplectic_form(chart).terms.items():
            sign = 1
            new_j = tuple(sorted(jset))
            if 2 in jset:
                sign = -sign  # y2 -> -y2
            new_k = tuple(sorted({1: 2, 2: 1}[k] for k in kset))
            relabeled.add_term(new_j, new_k, sign * coeff)
        assert (relabeled - im).is_zero()


# ---------------------------------------------------------------------------
# independent oracle: the module docstring's formulas in sympy.Matrix
# ---------------------------------------------------------------------------

@functools.cache
def _oracle_gram(rank):
    """Three hyperbolic planes, then (rank 22) two E8(-1) blocks, Bourbaki
    labels with node 2 on node 4, written out here rather than imported."""
    U = sp.Matrix([[0, 1], [1, 0]])
    if rank == 6:
        return sp.diag(U, U, U)
    e8 = sp.zeros(8, 8)
    for a, b in [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]:
        e8[a - 1, b - 1] = e8[b - 1, a - 1] = 1
    e8 = e8 - 2 * sp.eye(8)
    return sp.diag(U, U, U, e8, e8)


def _oracle(G, E, s0, omega, B, re, im):
    """Mirror classes straight from the docstring, with sympy matrices."""
    GE, Gs0 = G * E, G * s0
    pair = lambda u, Gv: sp.expand((u.T * Gv)[0, 0])
    B = B - pair(B, Gs0) * E                     # the lift with B.sigma0 = 0
    a, b = pair(re, GE), pair(im, GE)
    if b != 0 or a <= 0:                         # rotate so Im.E = 0 < Re.E
        h = sp.sqrt(a ** 2 + b ** 2)
        re, im = (a * re + b * im) / h, (a * im - b * re) / h
    vol = pair(re, GE)
    # Omega_n_mirror = sigma0 - Z + c E with Z = B + i omega; all but c are real
    GB, Gw = G * B, G * omega
    Z2 = pair(B, GB) - pair(omega, Gw) + 2 * sp.I * pair(B, Gw)
    c_re, c_im = sp.expand(1 - Z2 / 2 + sp.I * pair(omega, Gs0)).as_real_imag()
    on_re, on_im = s0 - B + c_re * E, -omega + c_im * E
    im_n = im / vol
    return {
        "omega_mirror": im_n + pair(im_n, GB - Gs0) * E,
        "omega_n_mirror_re": on_re,
        "omega_n_mirror_im": on_im,
        "re_omega_mirror": on_re / vol,
        "im_omega_mirror": on_im / vol,
        "vol": vol,
        "vol_mirror": pair(on_re / vol, GE),
    }


def _oracle_input(rng, rank, decimal):
    """A random valid input over E = e0, sigma0 = e1 - e0, as sympy columns.

    An aligned triple Re = a(e0+e1) + c(e2-e3), Im = y(e4+e5),
    omega = u(e2+e3) + v(e4-e5) with a^2 - c^2 = y^2 = u^2 - v^2 is moved
    by reflections in transverse vectors (isometries fixing E and sigma0),
    scaled, and given a random phase; the twist class gets a random lift
    B.sigma0 = B[0].  With ``decimal`` every coordinate is a finite decimal.
    """
    G = _oracle_gram(rank)
    col = lambda *xs: sp.Matrix(list(xs) + [0] * (rank - len(xs)))
    k, m, n = rng.choice([(5, 3, 4), (5, 4, 3), (13, 5, 12), (25, 7, 24)])
    c, v = rng.choice((m, -m, 0)), rng.choice((m, -m))
    a = k if c else n
    re, im, omega = col(a, a, c, -c), col(0, 0, 0, 0, n, n), col(0, 0, k, k, v, -v)
    for _ in range(rng.randint(0, 2)):
        r = col(0, 0, *[rng.randint(-1, 1) for _ in range(rank - 2)])
        rr = (r.T * G * r)[0, 0]
        if rr != 0 and (not decimal or rr in (2, -2, 4, -4, 8, -8)):
            re, im, omega = [x - 2 * (x.T * G * r)[0, 0] / rr * r for x in (re, im, omega)]
    s = sp.Rational(rng.choice((1, 3, 5)), rng.choice((2, 4, 5)) if decimal else rng.randint(1, 7))
    re, im, omega = s * re, s * im, s * omega
    if rng.random() < 0.6:
        cs, sn = rng.choice([(3, 4), (4, 3), (-3, 4), (0, 1), (-1, 0)])
        h = sp.sqrt(cs * cs + sn * sn)
        re, im = (cs * re - sn * im) / h, (sn * re + cs * im) / h
    den = 2 if decimal else rng.randint(1, 3)
    B = col(rng.choice((0, 0, 1, -2)), 0,
            *[sp.Rational(rng.randint(-3, 3), den) for _ in range(rank - 2)])
    return re, im, omega, B


@pytest.mark.parametrize("rank", [6, 22])
def test_mirror_classes_match_independent_oracle(rank):
    """100 seeded inputs per lattice: every MirrorClasses vector, vol and
    vol_mirror equal the oracle's exactly, and the double mirror recovers
    the input.  Inputs cover aligned ones, Pythagorean re-phasing, twist
    lifts with B.sigma0 != 0, and float coordinates."""
    rng = random.Random(f"k3-oracle:{rank}")
    lattice = k3_lattice() if rank == 22 else U3
    G = _oracle_gram(rank)
    assert tuple(map(tuple, G.tolist())) == lattice.gram
    E, s0 = basis_vector(rank, 0), (-1, 1) + (0,) * (rank - 2)
    E_col, s0_col = sp.Matrix(E), sp.Matrix(s0)
    covered = {"aligned": 0, "rotated": 0, "lift": 0, "float": 0}
    for case in range(100):
        decimal = case % 4 == 0
        classes = _oracle_input(rng, rank, decimal)
        if decimal:
            assert all(Fraction(repr(float(x))) == Fraction(str(x)) for c in classes for x in c)
            given = [[float(x) for x in c] for c in classes]
            classes = [sp.Matrix([sp.Rational(repr(x)) for x in c]) for c in given]
        else:
            given = [[str(x) for x in c] for c in classes]
        re, im, omega, B = classes
        pair = lambda u, v: (u.T * G * v)[0, 0]
        aligned = pair(im, E_col) == 0 and pair(re, E_col) > 0
        covered["aligned" if aligned else "rotated"] += 1
        covered["lift"] += pair(B, s0_col) != 0
        covered["float"] += decimal

        inp = K3MirrorInput(lattice, E=E, sigma0=s0, omega=given[2], B=given[3],
                            re_omega=given[0], im_omega=given[1])
        mc = mirror_classes(validate_and_align(inp))
        expected = _oracle(G, E_col, s0_col, omega, B, re, im)
        for key, want in expected.items():
            got = getattr(mc, key)
            if key.startswith("vol"):
                want, got = [want], [got]
            assert all(type(x) is Fraction for x in got), key
            assert list(got) == [Fraction(int(x.p), int(x.q)) for x in want], (case, key)
        assert all(mc.identities.values())
        report = double_mirror_check(inp)
        assert all(report[key] for key in (
            "omega_recovered", "re_omega_recovered", "im_omega_recovered",
            "twist_recovered", "negation_involutive", "all_passed")), case
    assert min(covered.values()) >= 15, covered


def _oracle_surd_input(rng, rank):
    """A random valid input whose phase alignment mostly needs a surd.

    The aligned pair Re = a(e0+e1), Im = a(e4+e5) is turned by the
    unnormalised rotation (p -q; q p), which multiplies both squares by
    p^2 + q^2, and omega = u e2 + w e3 with uw = a^2 (p^2 + q^2) keeps the
    three squares equal.  So Re.E = pa, Im.E = qa and h = |a| sqrt(p^2 + q^2),
    irrational unless (p, q) is (3, 4) or (0, 1).  Reflections, scale and
    twist class are drawn as in _oracle_input.
    """
    G = _oracle_gram(rank)
    col = lambda *xs: sp.Matrix(list(xs) + [0] * (rank - len(xs)))
    p, q = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (-2, 3), (3, -1), (1, -2),
                       (2, 3), (3, 4), (0, 1)])
    a = rng.choice((1, 2, -1))
    m = a * a * (p * p + q * q)
    u = rng.choice((1, -1)) * rng.choice([k for k in range(1, m + 1) if m % k == 0])
    re0, im0 = col(a, a), col(0, 0, 0, 0, a, a)
    re, im, omega = p * re0 - q * im0, q * re0 + p * im0, col(0, 0, u, m // u)
    for _ in range(rng.randint(0, 2)):
        r = col(0, 0, *[rng.randint(-1, 1) for _ in range(rank - 2)])
        rr = (r.T * G * r)[0, 0]
        if rr != 0:
            re, im, omega = [x - 2 * (x.T * G * r)[0, 0] / rr * r for x in (re, im, omega)]
    s = sp.Rational(rng.choice((1, 3, 5)), rng.randint(1, 7))
    den = rng.randint(1, 3)
    B = col(rng.choice((0, 0, 1, -2)), 0,
            *[sp.Rational(rng.randint(-3, 3), den) for _ in range(rank - 2)])
    return s * re, s * im, s * omega, B


@pytest.mark.parametrize("rank", [6, 22])
def test_mirror_classes_match_oracle_at_irrational_phases(rank):
    """60 seeded inputs per lattice, most with an irrational h: every
    MirrorClasses coordinate, vol and vol_mirror prints as the oracle's
    sympy value, and every identity and double-mirror verdict passes."""
    rng = random.Random(f"k3-surd-oracle:{rank}")
    lattice = k3_lattice() if rank == 22 else U3
    G = _oracle_gram(rank)
    E, s0 = basis_vector(rank, 0), (-1, 1) + (0,) * (rank - 2)
    E_col, s0_col = sp.Matrix(E), sp.Matrix(s0)
    irrational = 0
    for case in range(60):
        re, im, omega, B = _oracle_surd_input(rng, rank)
        given = [[str(x) for x in c] for c in (re, im, omega, B)]
        inp = K3MirrorInput(lattice, E=E, sigma0=s0, omega=given[2], B=given[3],
                            re_omega=given[0], im_omega=given[1])
        mc = mirror_classes(validate_and_align(inp))
        expected = _oracle(G, E_col, s0_col, omega, B, re, im)
        irrational += not expected["vol"].is_Rational
        for key, want in expected.items():
            got = getattr(mc, key)
            if key.startswith("vol"):
                want, got = [want], [got]
            assert [str(x) for x in got] == [sp.sstr(x) for x in want], (case, key)
        assert all(mc.identities.values()), case
        report = double_mirror_check(inp)
        assert all(report["second_identities"].values()), case
        assert all(report[key] for key in (
            "omega_recovered", "re_omega_recovered", "im_omega_recovered",
            "twist_recovered", "negation_involutive", "all_passed")), case
    assert irrational >= 40, irrational


# ---------------------------------------------------------------------------
# every identity.* and double_mirror.* verdict can fail
# ---------------------------------------------------------------------------

# vol = 2, a nonzero twist class, and a ReOmega without transverse part, so
# the mirror's own twist class is 0
DEFECT_PAYLOAD = {
    "lattice": "U3", "E": [1, 0, 0, 0, 0, 0], "sigma0": [-1, 1, 0, 0, 0, 0],
    "omega": [0, 0, 2, 2, 0, 0], "B": [0, 0, "1/2", "-1/2", 0, 0],
    "re_omega": [2, 2, 0, 0, 0, 0], "im_omega": [0, 0, 0, 0, 2, 2]}


def _id(*names):
    return {f"identity.{n}" for n in names}


def _dm(*names):
    return {f"double_mirror.{n}" for n in names}


# (planted function, change(result, *args), only on call n, double mirror,
#  the checks that must fail); the changes use k3's own vector operations
DEFECTS = {
    "none": (None, None, None, True, set()),
    "lambda_off_by_one": (
        "_mirror_holomorphic", lambda out, d, E, *_: (k3._axpy(1, E, out[0]), out[1]),
        None, False, _id("mirror_holomorphic_null")),
    "omega_n_mirror_doubled": (
        "_mirror_holomorphic", lambda out, *_: tuple(k3._scale(2, v) for v in out),
        None, False, _id("mirror_holomorphic_fibre_pairing_one", "volume_reciprocity")),
    "re_mirror_divided_by_vol_twice": (
        "_scale", lambda out, alpha, x: (k3._axpy(alpha - 1, out, out) if U3.dot(x, E) == 1
                                         else out),
        None, False, _id("volume_reciprocity")),
    "kaehler_mirror_gains_section": (
        "_mirror_kaehler", lambda out, d, E, s0, *_: k3._axpy(1, s0, out),
        None, False, _id("mirror_kaehler_fibre_orthogonal", "mirror_kaehler_vs_holomorphic",
                         "mirror_kaehler_square")),
    "kappa_off_by_one": (
        "_mirror_kaehler", lambda out, d, E, *_: k3._axpy(1, E, out),
        None, False, _id("mirror_kaehler_vs_holomorphic")),
    "kaehler_mirror_doubled": (
        "_mirror_kaehler", lambda out, *_: k3._scale(2, out),
        None, False, _id("mirror_kaehler_square")),
    "second_kappa_off_by_one": (
        "_mirror_kaehler", lambda out, d, E, *_: k3._axpy(1, E, out),
        2, True, _dm("omega_recovered")),
    "alpha_misses_two_beta": (
        "_components", lambda out, d, E, s0, v: (
            out[0] - 2 * out[1], out[1], k3._axpy(2 * out[1], E, out[2])),
        None, True, _dm("re_omega_recovered", "twist_recovered")),
    "second_mu_off_by_one": (
        "_mirror_holomorphic", lambda out, d, E, *_: (out[0], k3._axpy(1, E, out[1])),
        2, True, _dm("im_omega_recovered")),
    "twist_readout_drops_sign": (
        "_twist", lambda out, inp: k3._scale(-1, out),
        None, True, _dm("twist_recovered")),
    "negation_scales_transverse_by_minus_two": (
        "_negate", lambda out, d, E, s0, v: k3._axpy(-1, k3._components(d, E, s0, v)[2], out),
        None, True, _dm("omega_recovered", "im_omega_recovered", "negation_involutive")),
    # the identity is an involution: negation_involutive alone cannot see it
    "negation_fixes_transverse": (
        "_negate", lambda out, d, E, s0, v: v,
        None, True, _dm("omega_recovered", "im_omega_recovered")),
}


def _plant(monkeypatch, name, change, only_call):
    raw, calls = getattr(k3, name), []

    def planted(*args):
        calls.append(1)
        out = raw(*args)
        return change(out, *args) if only_call in (None, len(calls)) else out

    monkeypatch.setattr(k3, name, planted)


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_fails_exactly_its_checks(monkeypatch, defect):
    name, change, only_call, double, expected = DEFECTS[defect]
    if name:
        _plant(monkeypatch, name, change, only_call)
    report = run_scenario_doc({"version": "1", "kind": "k3", "payload": {
        **DEFECT_PAYLOAD, "double_mirror": double}})
    names = {c["name"] for c in report.checks}
    assert len(names) == (11 if double else 6)
    assert {c["name"] for c in report.checks if not c["passed"]} == expected


def test_every_k3_verdict_has_a_planted_defect():
    report = run_scenario_doc({"version": "1", "kind": "k3", "payload": {
        **DEFECT_PAYLOAD, "double_mirror": True}})
    failing = set().union(*(d[-1] for d in DEFECTS.values()))
    assert failing == {c["name"] for c in report.checks}
