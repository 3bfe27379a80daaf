import ast
import hashlib
import json
import operator
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    reference_common_zeros_plane,
    reference_content_normalize,
    reference_eval,
    reference_poly_divide,
    reference_poly_gcd,
    reference_rational_roots,
    reference_shift,
    reference_substitute,
    reference_substitute_two,
    reference_x_coeffs_at,
)

from planecubic.cremona import _CHARTS, _S, _ST, _T  # the blowup charts and their monomials
from planecubic.exact import (
    AffinePoly,
    DimensionMismatch,
    ExactError,
    HomPoly,
    PositiveDimensionalError,
    common_zeros_plane,
    content_normalize,
    evaluate,
    is_irreducible,
    mult_at,
    normalize_point,
    poly_divide,
    poly_gcd,
    rational_roots,
    reduce_on_cubic,
    substitute,
    substitute_all,
    variables,
    _coprime_on_line,
    _x_coeffs_at,
)

x, y, z = variables(3)
BIG_PRIME = 2**61 - 1  # a big odd input


def degree_ten_composite():
    """phi_2G o phi_G on y^2 = x^3 - 2, G = (3, 5), and the curve."""
    from planecubic.cremona import compose
    from planecubic.elliptic import CurvePoint, WeierstrassCurve, add, translation_map

    curve = WeierstrassCurve(0, -2)
    G = CurvePoint.affine(3, 5)
    f = compose(translation_map(curve, add(curve, G, G)), translation_map(curve, G))
    return f, curve


def rand_rat(rng, span=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, degree, nvars=3, terms=4):
    out = HomPoly.zero(nvars)
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        out = out + HomPoly(nvars, {tuple(exp): rand_rat(rng)})
    if out.is_zero:
        return HomPoly(nvars, {(degree,) + (0,) * (nvars - 1): 1})
    return out


class TestRationalField:
    def test_axioms_on_random_samples(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (rand_rat(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == 0
            if a != 0:
                assert a * (1 / a) == 1

    def test_canonical_form_unique(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(-3, -6).denominator == 2
        assert Fraction(6, -4) == Fraction(-3, 2)


class TestHomPoly:
    def test_homogeneity_enforced(self):
        with pytest.raises(ExactError):
            HomPoly(3, {(1, 0, 0): 1, (2, 0, 0): 1})

    def test_zero_polynomial_flagged(self):
        p = HomPoly.zero(3)
        assert p.is_zero and p.degree is None
        assert (x - x).is_zero

    def test_canonical_printing(self):
        p = y * z + x * x - 2 * (z * z)
        assert repr(p) == "x^2 + y*z - 2*z^2"

    def test_arithmetic_degree_mismatch(self):
        with pytest.raises(ExactError):
            x + x * y

    def test_one_type_with_affine(self):
        terms = {(2, 0): 1, (0, 1): -3, (1, 1): Fraction(2, 5)}
        hom, aff = HomPoly(2, {(2, 0): 1, (1, 1): 4}), AffinePoly(2, terms)
        assert hom == AffinePoly(2, hom.terms) and hash(hom) == hash(AffinePoly(2, hom.terms))
        assert repr(aff) == "u0^2 + 2/5*u0*u1 - 3*u1"
        assert aff.degree == 2
        assert aff.partial(1) == AffinePoly(2, {(1, 0): Fraction(2, 5), (0, 0): -3})

    @pytest.mark.parametrize(
        "terms",
        [
            {(1.5, 0, 1.5): 1},  # int() made it x*z
            {(True, 1, 1): 1},  # int() made it x*y*z
            {("1", 1, 1): 2, (1, 1, 1): 3},  # int() merged the keys into 5*x*y*z
            {(1.5, 0, 1.5): 0},  # a zero coefficient does not excuse the key
        ],
    )
    def test_exponents_must_be_ints(self, terms):
        with pytest.raises(ExactError, match="bad exponent vector"):
            HomPoly(3, terms)

    def test_nvars_must_be_an_int(self):
        with pytest.raises(ExactError, match="nvars must be a positive integer"):
            AffinePoly(True, {(2,): 1})  # isinstance() read it as 1 variable

    @pytest.mark.parametrize(
        "coef",
        [
            True,  # Fraction() made HomPoly(3, {(1, 1, 1): True}) x*y*z
            False,  # a zero does not excuse the type
            1.5,  # Fraction() read a float as its binary value
            0.1,  # constant(3, 0.1) was 3602879701896397/36028797018963968
            "1/2",  # Fraction() parsed the string
            None,
        ],
    )
    def test_coefficients_must_be_ints_or_fractions(self, coef):
        match = "coefficients must be ints or Fractions"
        for build in (
            lambda: HomPoly(3, {(1, 1, 1): coef}),
            lambda: AffinePoly.constant(2, coef),
            lambda: x * coef,  # x * True was x
            lambda: coef * x,
        ):
            with pytest.raises(ExactError, match=match):
                build()

    @pytest.mark.parametrize("i", [True, 3, -1, 1.0])
    def test_variable_index_must_be_in_range(self, i):
        with pytest.raises(ExactError, match="no variable"):
            HomPoly.variable(3, i)


class TestEval:
    def test_z_factor_kills(self):
        a = Fraction(2)
        p = z * (x - a * z) ** 3
        assert evaluate(p, (1, 1, 0)) == 0

    def test_sum_of_squares(self):
        assert evaluate(x**2 + y**2 + z**2, (1, 0, 0)) == 1

    def test_translation_component_vanishes_at_base_point(self):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        f = translation_map(WeierstrassCurve(0, 1), CurvePoint.affine(2, 3))
        assert evaluate(f.components[0], (2, 3, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ExactError):
            evaluate(x, (1, 0, 0, 0))
        with pytest.raises(ExactError):
            evaluate(x, (0, 0, 0))


class TestMultAt:
    def test_translation_system_at_center(self):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        f = translation_map(WeierstrassCurve(0, 1), CurvePoint.affine(2, 3))
        mults = [mult_at(c, (2, 3, 1)) for c in f.components]
        assert min(mults) == 3
        assert min(mult_at(c, (0, 1, 0)) for c in f.components) == 1

    def test_nonsingular_cubic_point(self):
        cubic = y**2 * z - x**3 - z**3
        assert mult_at(cubic, (2, 3, 1)) == 1

    def test_quartic_double_point(self):
        from planecubic.threefold import desk_instance

        assert mult_at(desk_instance().D, (1, 0, 0, 0)) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ExactError):
            mult_at(HomPoly.zero(3), (1, 0, 0))

    def test_additive_on_products(self):
        rng = random.Random(7)
        pt = (2, 3, 1)
        for _ in range(10):
            p = rand_poly(rng, 3)
            q = rand_poly(rng, 2)
            p = p - evaluate(p, pt) * z**3  # force vanishing at pt
            q = q - evaluate(q, pt) * z**2
            if p.is_zero or q.is_zero:
                continue
            assert mult_at(p * q, pt) == mult_at(p, pt) + mult_at(q, pt)


class TestSubstitute:
    def test_identity(self):
        assert substitute(x, [x, y, z]) == x

    def test_standard_quadratic(self):
        assert substitute(x * y * z, [y * z, x * z, x * y]) == (x * y * z) ** 2

    def test_cubic_pullback_divisible(self):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        c = WeierstrassCurve(0, 1)
        f = translation_map(c, CurvePoint.affine(2, 3))
        pull = substitute(c.equation, f.components)
        quo, ok = poly_divide(pull, c.equation)
        assert ok and quo.degree == 9

    def test_distributes(self):
        rng = random.Random(3)
        for _ in range(6):
            p = rand_poly(rng, 2)
            q = rand_poly(rng, 2)
            maps = [rand_poly(rng, 2, terms=3) for _ in range(3)]
            assert substitute(p + q, maps) == substitute(p, maps) + substitute(q, maps)
            assert substitute(p * q, maps) == substitute(p, maps) * substitute(q, maps)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ExactError):
            substitute(x, [x, y, z * z])


class TestContentNormalize:
    def test_strips_common_factor(self):
        assert content_normalize([x * x, x * y, x * z]) == [x, y, z]

    def test_coprime_unchanged_up_to_scaling(self):
        comps = [y * z, x * z, x * y]
        assert content_normalize(comps) == comps

    def test_idempotent_and_primitive(self):
        rng = random.Random(5)
        for _ in range(5):
            comps = [rand_poly(rng, 2) * Fraction(3, 7) for _ in range(3)]
            once = content_normalize(comps)
            assert content_normalize(once) == once
            assert poly_gcd(once).degree == 0

    def test_involution_composition_normalizes_to_identity(self):
        from planecubic.threefold import build_involution, desk_instance

        phi = build_involution(desk_instance())
        comps = [substitute(c, phi.components) for c in phi.components]
        normalized = content_normalize(comps)
        assert normalized == [HomPoly.variable(4, i) for i in range(4)]

    def test_all_zero_rejected(self):
        with pytest.raises(ExactError):
            content_normalize([HomPoly.zero(3)])

    def test_mixed_variable_counts_rejected(self):
        # x y in 3 variables beside x0 x1^2 in 4: the gcd is no form in either
        x0, x1 = variables(4)[:2]
        with pytest.raises(DimensionMismatch):
            poly_gcd([x * y, x0 * x1 * x1])
        with pytest.raises(DimensionMismatch):
            content_normalize([x * y, x0 * x1 * x1])

    def test_compose_divides_nothing(self, monkeypatch):
        # compose16's shape: phi_2G o phi_G is 16 -> 10, phi_-G o phi_G 16 -> 1;
        # the content gcd's cofactors are the quotients
        from planecubic import exact
        from planecubic.cremona import compose
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, multiple, translation_map

        curve, G = WeierstrassCurve(0, -2), CurvePoint.affine(3, 5)
        phi = {k: translation_map(curve, multiple(curve, k, G)) for k in (-1, 1, 2)}
        expected = [compose(phi[k], phi[1]) for k in (2, -1)]

        def refuse(f, g):
            raise AssertionError("content_normalize divided")

        monkeypatch.setattr(exact, "poly_divide", refuse)
        got = [compose(phi[k], phi[1]) for k in (2, -1)]
        assert got == expected
        assert [f.degree for f in got] == [10, 1]


class TestCommonZeros:
    def test_standard_quadratic_points(self):
        pts = common_zeros_plane([y * z, x * z, x * y])
        assert pts == sorted(
            [
                normalize_point((1, 0, 0)),
                normalize_point((0, 1, 0)),
                normalize_point((0, 0, 1)),
            ]
        )

    def test_translation_map_base_points(self):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        f = translation_map(WeierstrassCurve(0, 1), CurvePoint.affine(2, 3))
        pts = common_zeros_plane(list(f.components))
        assert set(pts) == {normalize_point((2, 3, 1)), normalize_point((0, 1, 0))}

    def test_two_lines(self):
        assert common_zeros_plane([x, y]) == [normalize_point((0, 0, 1))]

    def test_component_reported(self):
        with pytest.raises(PositiveDimensionalError) as exc:
            common_zeros_plane([x * y, x * z])
        assert exc.value.component == x

    def test_proportional_rejected(self):
        with pytest.raises(ExactError):
            common_zeros_plane([x, 2 * x])

    def test_only_rational_zeros_found(self):
        # x^2 = 2 y^2 has no rational solutions; documented Q-only behavior
        pts = common_zeros_plane([x * x - 2 * (y * y), z])
        assert pts == []

    def test_pairwise_shared_factors(self):
        # every pairwise resultant in x vanishes, so y-candidates come from a
        # combination of two equations
        pts = common_zeros_plane([x * (x - y), (x - y) * (x + y - z), (x + y - z) * x])
        half = Fraction(1, 2)
        assert pts == [(0, 0, 1), (0, 1, 1), (half, half, 1)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [x * (x - y), (x - y) * (x + y - z), (x + y - z) * x],
            lambda: [y * z, x * z, x * y],
            lambda: list(degree_ten_composite()[0].components),
        ],
        ids=["shared-factors", "standard-quadratic", "degree-ten-composite"],
    )
    def test_rational_coefficients_same_points(self, make):
        # the resultants run on integer multiples; scaling changes nothing
        polys = make()
        scaled = [p * s for p, s in zip(polys, (Fraction(1, 3), Fraction(7, 2), 1))]
        assert common_zeros_plane(scaled) == common_zeros_plane(polys)

    def test_degree_ten_composite_proper_base_points(self):
        f, _ = degree_ten_composite()
        assert common_zeros_plane(list(f.components)) == [(0, 1, 0), (3, 5, 1)]


W = (0, -2)  # y^2 = x^3 - 2, the curve of degree_ten_composite
C_W = y * y * z - x**3 + 2 * z**3


class TestCommonZerosOnCubic:
    """weierstrass=(p, q): the zeros on y^2 z = x^3 + p x z^2 + q z^3, by norms."""

    @pytest.mark.parametrize("k", [k for k in range(-6, 7) if k])
    def test_translation_maps_match_full_search(self, k):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, multiple, translation_map

        curve = WeierstrassCurve(*W)
        f = translation_map(curve, multiple(curve, k, CurvePoint.affine(3, 5)))
        polys = list(f.components)
        assert common_zeros_plane(polys, W) == common_zeros_plane(polys)

    def test_degree_ten_composite_matches_full_search(self):
        f, curve = degree_ten_composite()
        polys = list(f.components)
        on_cubic = common_zeros_plane(polys, (curve.p, curve.q))
        assert on_cubic == common_zeros_plane(polys) == [(0, 1, 0), (3, 5, 1)]

    def test_two_torsion_and_o(self):
        # y^2 = x^3 - x: (1, 0), (-1, 0) have y0 = 0; z = 0 leaves only O
        polys = [y * z, (x - z) * (x + z)]
        expected = [(-1, 0, 1), (0, 1, 0), (1, 0, 1)]
        assert common_zeros_plane(polys, (-1, 0)) == common_zeros_plane(polys) == expected

    def test_o_only(self):
        assert common_zeros_plane([x, z], W) == common_zeros_plane([x, z]) == [(0, 1, 0)]

    @pytest.mark.parametrize(
        "polys",
        [[x - 2 * z, y * y - 6 * z * z], [x - z, y * y + z * z]],
        ids=["w-non-square", "w-negative"],
    )
    def test_rational_x_without_rational_y(self, polys):
        # x0 = 2 gives w = 6 and x0 = 1 gives w = -1: both points of the
        # cubic over x0 are irrational
        assert common_zeros_plane(polys, W) == common_zeros_plane(polys) == []

    @pytest.mark.parametrize("position", [0, 2])
    def test_component_vanishing_on_cubic(self, position):
        # its norm is zero, so it imposes no condition on the cubic
        polys = [(x - 3 * z) * y, y * (y - 5 * z)]
        polys.insert(position, C_W)
        expected = [(3, 5, 1)]
        assert common_zeros_plane(polys, W) == common_zeros_plane(polys) == expected

    def test_candidates_from_the_gcd_of_all_norms(self):
        # y^2 = x^3 + 1: the first norm also vanishes at x = -1, the second
        # only at x = 2 (and at no other rational x)
        from planecubic.exact import _cubic_candidates

        polys = [(x - 2 * z) * (x + z), y - 3 * z]
        assert _cubic_candidates(polys, 0, 1) == {(0, 1, 0), (2, 3, 1), (2, -3, 1)}
        assert common_zeros_plane(polys, (0, 1)) == [(2, 3, 1)]

    def test_negative_y(self):
        polys = [x - 3 * z, y + 5 * z]
        assert common_zeros_plane(polys, W) == [(3, -5, 1)]

    def test_points_off_the_cubic_not_reported(self):
        # the standard quadratic involution: only (0:1:0) lies on y^2 = x^3 - 2
        polys = [y * z, x * z, x * y]
        assert common_zeros_plane(polys, W) == [(0, 1, 0)]
        assert len(common_zeros_plane(polys)) == 3

    def test_component_reported(self):
        with pytest.raises(PositiveDimensionalError):
            common_zeros_plane([x * C_W, y * C_W], W)

    def test_rational_curve_coefficients(self):
        # y^2 = x^3 - x/4 + 1/4 through (1/2, 1/2)
        polys = [2 * x - z, 2 * y - z]
        assert common_zeros_plane(polys, (Fraction(-1, 4), Fraction(1, 4))) == [
            (Fraction(1, 2), Fraction(1, 2), 1)
        ]

    def test_norms_pinned(self):
        # the norms of every component in the cases above, as computed before
        # the y^2 -> w loop was shared with reduce_on_cubic
        from planecubic.cremona import compose
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, add, multiple, translation_map
        from planecubic.exact import _delta_w, _norm_on_cubic

        curve = WeierstrassCurve(*W)
        G = CurvePoint.affine(3, 5)
        cases = [
            (translation_map(curve, multiple(curve, k, G)).components, W)
            for k in range(-6, 7) if k
        ]
        composite = compose(translation_map(curve, add(curve, G, G)), translation_map(curve, G))
        cases += [
            (composite.components, W),
            ([y * z, (x - z) * (x + z)], (-1, 0)),
            ([x, z], W),
            ([x - 2 * z, y * y - 6 * z * z], W),
            ([x - z, y * y + z * z], W),
            ([(x - 3 * z) * y, y * (y - 5 * z), C_W], W),
            ([(x - 2 * z) * (x + z), y - 3 * z], (0, 1)),
            ([x - 3 * z, y + 5 * z], W),
            ([y * z, x * z, x * y], W),
            ([2 * x - z, 2 * y - z], (Fraction(-1, 4), Fraction(1, 4))),
        ]
        norms = [
            [_norm_on_cubic(f, _delta_w(Fraction(p), Fraction(q))) for f in polys]
            for polys, (p, q) in cases
        ]
        assert norms[-1] == [[4, -16, 16, 0, 0, 0], [0, 4, 0, -16, 0, 0]]
        digest = hashlib.sha256(json.dumps(norms).encode()).hexdigest()
        assert digest == "4898861d8cbab118646636640bf74202bd9eee36e0c37dc5fda1a7c24a200e34"


small_rats = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_rats = small_rats.filter(bool)


def line(a, b, c):
    return a * x + b * y + c * z


def chord(P, Q):
    """The line through two projective points."""
    (x1, y1, z1), (x2, y2, z2) = P, Q
    return line(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)


lines = st.builds(line, small_rats, small_rats, small_rats).filter(lambda f: not f.is_zero)
# lines through (1:0:0), and through a point (t:1:0) of z = 0
lines_at_infinity = st.one_of(
    st.builds(line, st.just(0), small_rats, nonzero_rats),
    st.builds(line, st.just(1), small_rats.map(operator.neg), small_rats),
)


@st.composite
def plane_forms(draw, factors=lines, most=3):
    """A product of one to `most` linear forms, perturbed by up to two
    monomials of its degree (which keeps some products' rational zeros)."""
    f = reduce(operator.mul, draw(st.lists(factors, min_size=1, max_size=most)))
    d = f.degree
    monomials = [x**a * y**b * z ** (d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    for m in draw(st.lists(st.sampled_from(monomials), max_size=2)):
        f = f + m * draw(nonzero_rats)
    return f


def zeros_outcome(search, polys, *weierstrass):
    """The sorted zeros, or the error: its type and its component (or message)."""
    try:
        return search(polys, *weierstrass)
    except ExactError as e:
        return type(e).__name__, getattr(e, "component", str(e))


# curves (p, q) with some of their rational points, O first
CURVES = [
    ((0, 1), [(0, 1, 0), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (2, 3, 1), (2, -3, 1)]),
    ((0, -2), [(0, 1, 0), (3, 5, 1), (3, -5, 1),
               (Fraction(129, 100), Fraction(-383, 1000), 1)]),
    ((Fraction(-1, 4), Fraction(1, 4)),
     [(0, 1, 0), (Fraction(1, 2), Fraction(1, 2), 1), (0, Fraction(-1, 2), 1), (1, 1, 1)]),
    ((-1, 0), [(0, 1, 0), (-1, 0, 1), (0, 0, 1), (1, 0, 1)]),
]


class TestCommonZerosAgainstQQRoute:
    """common_zeros_plane, its candidates found in ZZ rings and by
    rational_roots, against the QQ-ring route it replaced: the same sorted
    zeros, or the same error (and the same common component)."""

    SETTINGS = settings(max_examples=20, deadline=None, database=None)

    @SETTINGS
    @given(st.lists(plane_forms(), min_size=2, max_size=3))
    def test_rational_coefficients(self, polys):
        assert zeros_outcome(common_zeros_plane, polys) == zeros_outcome(
            reference_common_zeros_plane, polys
        )

    @SETTINGS
    @given(plane_forms(), st.lists(plane_forms(), min_size=2, max_size=3))
    def test_shared_factor(self, h, cofactors):
        polys = [h * f for f in cofactors]
        got = zeros_outcome(common_zeros_plane, polys)
        assert got == zeros_outcome(reference_common_zeros_plane, polys)
        if got[0] == "PositiveDimensionalError":
            assert poly_divide(h * reduce(operator.mul, cofactors), got[1])[1]

    @SETTINGS
    @given(*[plane_forms(most=2)] * 3)
    def test_pairwise_shared_factors(self, a, b, c):
        polys = [a * b, b * c, c * a]
        assert zeros_outcome(common_zeros_plane, polys) == zeros_outcome(
            reference_common_zeros_plane, polys
        )

    @SETTINGS
    @given(st.lists(plane_forms(st.one_of(lines_at_infinity, lines)), min_size=2, max_size=3))
    def test_zeros_on_the_line_at_infinity(self, polys):
        assert zeros_outcome(common_zeros_plane, polys) == zeros_outcome(
            reference_common_zeros_plane, polys
        )

    def test_one_zero_zero_found(self):
        # y = 0 meets z x = 0 at (1:0:0) and (0:0:1); x = y meets y (y + 2 z) = 0
        polys = [y * (x - y), z * (x + y) + y * y]
        expected = [(-2, -2, 1), (0, 0, 1), (1, 0, 0)]
        assert common_zeros_plane(polys) == reference_common_zeros_plane(polys) == expected

    @SETTINGS
    @given(st.data(), st.sampled_from(CURVES))
    def test_on_cubic_route(self, data, case):
        (p, q), points = case
        chords = st.builds(chord, st.sampled_from(points), st.sampled_from(points)).filter(
            lambda f: not f.is_zero
        )
        polys = data.draw(st.lists(plane_forms(st.one_of(chords, lines)), min_size=2, max_size=3))
        cubic = y * y * z - x**3 - p * (x * z * z) - q * z**3
        if data.draw(st.booleans()):
            polys.append(cubic * data.draw(lines))  # a norm of zero: no condition
        got = zeros_outcome(common_zeros_plane, polys, (p, q))
        assert got == zeros_outcome(reference_common_zeros_plane, polys, (p, q))
        plane = zeros_outcome(reference_common_zeros_plane, polys)
        if isinstance(got, list) and isinstance(plane, list):
            assert got == [pt for pt in plane if evaluate(cubic, pt) == 0]


class TestSympyBridge:
    def test_zero_and_non_monic_roots(self):
        assert rational_roots([0, 0, -2, 3]) == [0, Fraction(2, 3)]

    def test_repeated_root_once(self):
        assert rational_roots([4, -4, 1]) == [2]

    def test_no_rational_roots(self):
        assert rational_roots([2, 0, 1]) == []
        assert rational_roots([5]) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ExactError):
            rational_roots([0, 0])
        with pytest.raises(ExactError):
            rational_roots([1, -1], [0, 0])
        with pytest.raises(ExactError):
            rational_roots()

    def test_common_roots_of_two_lists(self):
        # (t - 1)(t - 2)(3t + 1) and (t - 2)(3t + 1)(t + 5)
        assert rational_roots([2, 3, -8, 3], [-10, -27, 10, 3]) == [Fraction(-1, 3), 2]

    def test_common_roots_of_three_lists(self):
        # t^2 (t - 2)(2t - 1), (t - 2) t (t^2 + 1), t (2t - 1)(t - 2)^2
        lists = [[0, 0, 2, -5, 2], [0, -2, 1, -2, 1], [0, -4, 12, -9, 2]]
        assert rational_roots(*lists) == [0, 2]
        assert rational_roots(*lists[::2]) == [0, Fraction(1, 2), 2]

    def test_no_common_root(self):
        assert rational_roots([-1, 1], [-2, 1]) == []  # t - 1, t - 2
        assert rational_roots([0, 1], [2, 0, 1], [0, 0, 1]) == []

    def test_one_list_is_the_single_polynomial_search(self):
        for coeffs in ([0, 0, -2, 3], [4, -4, 1], [Fraction(1, 2), Fraction(-3, 4)], [7]):
            assert rational_roots(coeffs) == rational_roots(coeffs, coeffs)
        assert rational_roots([Fraction(1, 2), Fraction(-3, 4)]) == [Fraction(2, 3)]

    def test_irreducibility(self):
        from planecubic.threefold import desk_instance, restrict_to_line

        quartic = restrict_to_line(desk_instance().D, (1, 1, 1, 1), (1, 2, 3, 4))
        assert len(quartic) == 5 and quartic[4] != 0
        assert is_irreducible(quartic)
        assert not is_irreducible([2, 0, 3, 0, 1])  # (t^2 + 1)(t^2 + 2)

    @pytest.mark.parametrize(
        "coeffs, roots, irreducible",
        [
            ([2, 4], [Fraction(-1, 2)], True),  # 2 (2t + 1)
            ([6, 0, 2], [], True),  # 2 (t^2 + 3)
            ([-6, 6], [1], True),  # 6 (t - 1)
            ([0, 0, -4, 6], [0, Fraction(2, 3)], False),  # 2 t^2 (3t - 2)
            ([4, 0, 6, 0, 2], [], False),  # 2 (t^2 + 1)(t^2 + 2)
            ([Fraction(1, 2), Fraction(-3, 4)], [Fraction(2, 3)], True),
            ([Fraction(2, 3), 0, Fraction(-8, 3)], [Fraction(-1, 2), Fraction(1, 2)], False),
            ([Fraction(3, 5), 0, Fraction(9, 5)], [], True),  # (3/5)(1 + 3 t^2)
        ],
    )
    def test_content_is_no_factor(self, coeffs, roots, irreducible):
        # over Z the content splits off; it is neither a root nor a factor
        for scale in (1, 6, Fraction(-10, 7)):
            scaled = [c * scale for c in coeffs]
            assert rational_roots(scaled) == roots
            assert rational_roots(scaled, [c * 2 for c in coeffs]) == roots
            assert is_irreducible(scaled) is irreducible

    def test_gcd_keeps_repeated_factors(self):
        assert poly_gcd([z**2 * (x + y), z**3 * (x + y) * (x - y)]).degree == 3

    def test_gcd_is_integer_primitive(self):
        third = Fraction(1, 3)
        assert poly_gcd([(x * 2 + y) * x * third, (x * 2 + y) * y * 4]) == 2 * x + y
        assert poly_gcd([-6 * x * x * z, 9 * x * x * y]) == x * x


@pytest.mark.parametrize(
    "module, allowed",
    [("sympy", {"exact.py"}), ("random", set())],
    ids=["sympy", "random"],
)
def test_import_confined(module, allowed):
    """sympy is reached only through exact.py; nothing draws random numbers."""
    src = Path(__file__).resolve().parents[1] / "src" / "planecubic"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == module or n.startswith(module + ".") for n in names):
                importers.add(path.name)
    assert importers == allowed


def test_terms_view_confined():
    """The Fraction view `terms` is read in src/ only by AffinePoly itself:
    every other reader, the JSON encoder included, works on num / den, so the
    representation stays behind one class."""
    src = Path(__file__).resolve().parents[1] / "src" / "planecubic"
    readers = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "AffinePoly"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "terms" and id(node) not in inside:
                readers.add(path.name)
    assert readers == set()


def test_sympy_names_confined():
    """src/ takes from sympy only the ring ZZ[u0, ...] in lex order: no
    second domain can come back unnoticed."""
    src = Path(__file__).resolve().parents[1] / "src" / "planecubic"
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympy"):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("sympy") for a in node.names), path.name
    assert names == {"ZZ", "lex", "PolyRing"}


class TestDivision:
    def test_exact_division(self):
        quo, ok = poly_divide((x + y) * (x - y), x + y)
        assert ok and quo == x - y

    def test_non_divisible(self):
        _, ok = poly_divide(x * x + y * y, x + y)
        assert not ok

    def test_affine_shift_roundtrip(self):
        p = AffinePoly(2, {(2, 0): 1, (0, 1): -3, (1, 1): 2})
        q = p.shift((5, -2)).shift((-5, 2))
        assert q == p
        assert p.shift((5, -2)) == reference_shift(p, (5, -2))


def rand_affine(rng, nvars, degree, terms=12):
    """Random AffinePoly of total degree `degree` with rational coefficients,
    including the pure power u_i^degree of every variable."""
    out = {}
    for i in range(nvars):
        out[tuple(degree if j == i else 0 for j in range(nvars))] = rand_rat(rng)
    for k in range(terms):
        total = rng.randint(0, degree)
        exp = [0] * nvars
        for _ in range(total):
            exp[rng.randrange(nvars)] += 1
        out[tuple(exp)] = rand_rat(rng)
    return AffinePoly(nvars, out)


SHIFT_POINTS = [
    (0, Fraction(27, 10)),
    (Fraction(-7, 3), 0),
    (5, -2),
    (0, 0),
]


class TestChartKernels:
    """The chart kernels against the term-by-term references in _oracles."""

    @pytest.mark.parametrize("degree", [1, 2, 7, 13, 20])
    @pytest.mark.parametrize("point", SHIFT_POINTS)
    def test_shift_two_variables(self, degree, point):
        p = rand_affine(random.Random(degree), 2, degree)
        assert p.shift(point) == reference_shift(p, point)

    @pytest.mark.parametrize("degree", [1, 4, 9, 20])
    @pytest.mark.parametrize("point", [pt + (Fraction(-1, 2),) for pt in SHIFT_POINTS])
    def test_shift_three_variables(self, degree, point):
        p = rand_affine(random.Random(100 + degree), 3, degree, terms=8)
        assert p.shift(point) == reference_shift(p, point)

    @pytest.mark.parametrize("point", SHIFT_POINTS)
    def test_shift_zero_and_constant(self, point):
        zero = AffinePoly(2, {})
        const = AffinePoly(2, {(0, 0): Fraction(-4, 9)})
        assert zero.shift(point) == zero
        assert const.shift(point) == const

    @pytest.mark.parametrize(
        "u, v",
        list(_CHARTS)
        + [
            # not a renaming of keys: a rational coefficient, a 3-variable
            # target, and a map that is not injective
            (AffinePoly(2, {(2, 1): Fraction(-3, 2)}), AffinePoly(2, {(0, 3): 5})),
            (AffinePoly(3, {(1, 0, 2): 1}), AffinePoly(3, {(0, 1, 1): 1})),
            (_S, _S),
        ],
    )
    @pytest.mark.parametrize("degree", [0, 3, 10, 20])
    def test_substitute_two(self, u, v, degree):
        p = rand_affine(random.Random(200 + degree), 2, degree)
        if (u, v) in _CHARTS:
            assert p.substitute_two(u, v) == reference_substitute_two(p, u, v)
        else:
            with pytest.raises(ExactError):
                p.substitute_two(u, v)

    def test_substitute_two_zero(self):
        zero = AffinePoly(2, {})
        assert zero.substitute_two(_S, _ST) == zero

    @pytest.mark.parametrize(
        "u", [AffinePoly(2, {(1, 0): 1, (0, 1): 1}), AffinePoly(2, {})]
    )
    def test_substitute_two_rejects_non_monomial(self, u):
        p = AffinePoly(2, {(1, 1): 1, (0, 2): 3})
        with pytest.raises(ExactError):
            p.substitute_two(u, _T)
        with pytest.raises(ExactError):
            p.substitute_two(_S, u)


class TestIntegerKernels:
    """substitute and poly_gcd against the rational references in _oracles."""

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 3), (4, 4), (3, 5)])
    def test_substitute_random(self, nvars, degrees):
        dp, dm = degrees
        rng = random.Random(10 * nvars + dp + dm)
        p = rand_poly(rng, dp, nvars, terms=6)
        maps = [rand_poly(rng, dm, nvars, terms=5) for _ in range(nvars)]
        assert substitute(p, maps) == reference_substitute(p, maps)

    def test_substitute_integer_maps(self):
        p = rand_poly(random.Random(7), 3) * Fraction(5, 6)
        maps = [x * x + 3 * (y * z), 2 * (y * y) - x * z, z * z + x * y]
        assert substitute(p, maps) == reference_substitute(p, maps)

    @pytest.mark.parametrize("nvars", [3, 4])
    def test_substitute_zero_and_constant(self, nvars):
        rng = random.Random(nvars)
        maps = [rand_poly(rng, 3, nvars) for _ in range(nvars)]
        zero = HomPoly.zero(nvars)
        const = HomPoly.constant(nvars, Fraction(-4, 9))
        assert substitute(zero, maps) == zero
        assert substitute(const, maps) == const == reference_substitute(const, maps)

    def test_substitute_degree_zero_maps(self):
        p = x * x * Fraction(1, 2) - 3 * (y * z) + z * z
        maps = [HomPoly.constant(3, c) for c in (Fraction(2, 3), -5, 7)]
        assert substitute(p, maps) == reference_substitute(p, maps)
        assert substitute(p, maps) == HomPoly.constant(3, Fraction(2, 9) + 105 + 49)

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("zeros", [(0,), (1, 2)])
    def test_substitute_zero_maps(self, nvars, zeros):
        rng = random.Random(50 + nvars + len(zeros))
        p = rand_poly(rng, 3, nvars, terms=8)
        maps = [rand_poly(rng, 2, nvars) for _ in range(nvars)]
        for i in zeros:
            maps[i] = HomPoly.zero(nvars)
        assert substitute(p, maps) == reference_substitute(p, maps)

    def test_substitute_all_zero_maps_rejected(self):
        with pytest.raises(ExactError):
            substitute(x * y + z * z, [HomPoly.zero(3)] * 3)
        with pytest.raises(ExactError):
            substitute(HomPoly.zero(3), [HomPoly.zero(2)] * 3)

    def test_substitute_cancels_to_zero(self):
        m = x * x * Fraction(3, 7) + y * z
        assert substitute(x - y, [m, m, z * z]).is_zero
        assert substitute(x * y - y * x, [m, x * y, z * z]).is_zero

    def test_substitute_top_exponent(self):
        # x^3 under degree-10 maps reaches x^30: packed digit base - 1
        rng = random.Random(11)
        maps = [x**10 * Fraction(2, 3) + rand_poly(rng, 10), rand_poly(rng, 10), z**10 - y**10]
        p = x**3 + y**3 * Fraction(-1, 5) + z**3
        out = substitute(p, maps)
        assert out == reference_substitute(p, maps)
        assert out.coefficient((30, 0, 0)) == Fraction(8, 27)
        assert out.coefficient((0, 0, 30)) == 1

    def test_substitute_cubic_into_degree_ten_composite(self):
        f, curve = degree_ten_composite()
        pull = substitute(curve.equation, f.components)
        assert pull == reference_substitute(curve.equation, f.components)
        quo, ok = poly_divide(pull, curve.equation)
        assert ok and quo.degree == 27

    # substitute's rows: x0 rides inside each integer as digits in base 2^s,
    # s the least multiple of 8 with 2^(s-1) above ||q||_1 M^deg p

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_substitute_coefficient_at_the_bound(self, slot, sign):
        # c^4 = 65535^4 has 64 bits and equals the bound ||q||_1 M^4: a digit
        # 64 bits wide, one bit short, or the bound one power short misreads it
        c = 65535
        maps = [x * x, y * y, z * z]
        maps[slot] = maps[slot] * (sign * c)
        p = HomPoly.variable(3, slot) ** 4 * sign
        out = substitute(p, maps)
        assert out == reference_substitute(p, maps)
        exp = tuple(8 if i == slot else 0 for i in range(3))
        assert out.num == {exp: sign * c**4} and (c**4).bit_length() == 64

    def test_substitute_zero_map_in_the_riding_slot(self):
        rng = random.Random(31)
        p = rand_poly(rng, 3, terms=8) + x**3 + x * y * z
        maps = [HomPoly.zero(3), rand_poly(rng, 2), rand_poly(rng, 2)]
        assert substitute(p, maps) == reference_substitute(p, maps)
        assert substitute(x**3, maps).is_zero

    def test_substitute_one_variable(self):
        (u,) = variables(1)
        for p, maps in [
            (u**3 * Fraction(3, 2), [u * u * Fraction(-5, 7)]),
            (u**4 * -65535, [u * 65535]),
            (HomPoly.constant(1, Fraction(2, 9)), [u * 3]),
        ]:
            assert substitute(p, maps) == reference_substitute(p, maps)
        assert substitute(u**2 * 3, [u * -2]).num == {(2,): 12}

    @pytest.mark.parametrize("dm", [1, 2, 3])
    def test_substitute_binary_forms(self, dm):
        # the shape of restrict_to_line: binary forms, one row each, and zeros
        rng = random.Random(40 + dm)
        s, t = variables(2)
        p = rand_poly(rng, 4, nvars=4, terms=10)
        line = [rand_poly(rng, dm, nvars=2) for _ in range(4)]
        assert substitute(p, line) == reference_substitute(p, line)
        line = [HomPoly.zero(2), s ** dm * 3, t ** dm * -2, HomPoly.zero(2)]
        assert substitute(p, line) == reference_substitute(p, line)

    def test_substitute_rows_of_one_digit(self):
        # monomial maps: every row of every power holds one digit, at x0^0
        # or above it
        rng = random.Random(23)
        p = rand_poly(rng, 4, terms=12) + x**4 - y**4 * 3 + z**4
        maps = [x * x * -7, y * y * Fraction(5, 3), z * z]
        out = substitute(p, maps)
        assert out == reference_substitute(p, maps)
        assert out.coefficient((8, 0, 0)) == p.coefficient((4, 0, 0)) * 7**4

    def test_substitute_involution_squared_cancels(self):
        # threefold-check's f o f: sparse quartic-threefold forms whose
        # products cancel down to H x_i
        x0, x1, x2, x3 = variables(4)
        A = (x2 * x2 - x1 * x3) * 18
        B = (x1 * x1 * x2 * 48 - x1 * x1 * x3 * 188 + x1 * x2 * x3 * 36
             + x1 * x3 * x3 * 269 + x2 * x3 * x3 * 63 - x3**3 * 18)
        f = [-(A * x0) - B, A * x1, A * x2, A * x3]
        g = substitute_all(f, f)
        assert g == [reference_substitute(fi, f) for fi in f]
        H, ok = poly_divide(g[0], x0)
        assert ok and not H.is_zero
        assert all(gi == H * xi for gi, xi in zip(g, (x0, x1, x2, x3)))

    def test_substitute_rational_maps_and_rational_p(self):
        rng = random.Random(17)
        p = rand_poly(rng, 4, terms=10) * Fraction(-7, 12)
        maps = [rand_poly(rng, 3, terms=6) * Fraction(5, 11), rand_poly(rng, 3, terms=6),
                rand_poly(rng, 3, terms=6) * Fraction(-1, 9)]
        out = substitute(p, maps)
        assert out == reference_substitute(p, maps)
        assert out.den > 1 and any(c < 0 for c in out.num.values())

    @pytest.mark.parametrize(
        "polys, expected",
        [
            ([z * z * x, z * x * y], x * z),
            ([z**3, z * z * x * Fraction(2, 3)], z * z),
            ([z**2, x * y], HomPoly.constant(3, 1)),
            ([5 * z**4], z**4),
            ([y * z - 3 * (x * z)], 3 * (x * z) - y * z),
            ([(y - 2 * x) * x, (y - 2 * x) * z * Fraction(3, 5)], 2 * x - y),
            ([-(y * y) * (z - x), (x - z) * z * 7], x - z),
        ],
    )
    def test_poly_gcd_cases(self, polys, expected):
        assert poly_gcd(polys) == expected == reference_poly_gcd(polys)

    @pytest.mark.parametrize("seed", range(4))
    def test_poly_gcd_random(self, seed):
        rng = random.Random(300 + seed)
        common = rand_poly(rng, 2) * rand_poly(rng, 1)
        polys = [common * rand_poly(rng, 2) * z ** rng.randint(0, 2) for _ in range(3)]
        assert poly_gcd(polys) == reference_poly_gcd(polys)

    @pytest.mark.parametrize("seed", range(3))
    def test_poly_gcd_four_variables(self, seed):
        rng = random.Random(400 + seed)
        x3 = HomPoly.variable(4, 3)
        common = rand_poly(rng, 2, nvars=4) * x3
        polys = [common * rand_poly(rng, 1 + k, nvars=4) for k in range(3)]
        got = poly_gcd(polys)
        assert got == reference_poly_gcd(polys)
        assert got.degree >= 3

    # poly_divide, AffinePoly.eval and content_normalize against the Fraction
    # references

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("degrees", [(0, 1), (1, 1), (2, 3), (4, 2), (3, 6)])
    def test_poly_divide_exact_quotients(self, nvars, degrees):
        rng = random.Random(500 + 10 * nvars + sum(degrees))
        p = rand_poly(rng, degrees[0], nvars, terms=6)
        q = rand_poly(rng, degrees[1], nvars, terms=5)
        assert poly_divide(p * q, q) == reference_poly_divide(p * q, q) == (p, True)

    def test_poly_divide_non_unit_content_and_lead(self):
        g = 6 * x - 9 * y  # content 3, leading coefficient 6 (2 in 2x - 3y)
        h = x * x * Fraction(1, 2) - 5 * (y * z) + z * z * Fraction(7, 3)
        for f in (g * h, (2 * x - 3 * y) * h, (x * Fraction(2, 5) - y * Fraction(3, 5)) * h):
            quo, ok = poly_divide(f, g)
            assert ok and quo * g == f
            assert (quo, ok) == reference_poly_divide(f, g)

    @pytest.mark.parametrize(
        "f, g",
        [
            (y * y + y * z, x + y),  # lead y^2 is not a multiple of x
            (x * x + y * y, x + y),  # x^2 divides, then the remainder 2 y^2 does not
            (5 * (y * z) + x * y * Fraction(2, 3), 2 * x + 7 * z),  # F = 2xy + 15yz, then 8yz
            (x, y * y),  # a divisor of higher degree
            (x * z * Fraction(1, 2), 2 * y**3 + z**3),
        ],
        ids=["first-lead", "later-lead", "rational-lead", "higher-degree", "higher-degree-lc"],
    )
    def test_poly_divide_exponent_shortfall(self, f, g):
        assert poly_divide(f, g) == reference_poly_divide(f, g) == (HomPoly.zero(3), False)

    @pytest.mark.parametrize(
        "f, g",
        [
            (3 * x + y, 2 * x + y),  # Fraction quotient 3/2 leaves -y/2: no shortfall yet
            (2 * (x * y) + y * z, 6 * x + 2 * z),  # G = 3x + z, lead 2 x y
            ((x * 2 + y) * (x + y) + x * y, 2 * x + y),  # integral first step, then 3
            (x * x * Fraction(5, 3) - y * y, x * Fraction(2, 3) + y),  # F = 5x^2 - 3y^2, G = 2x + 3y
        ],
        ids=["linear", "content", "second-step", "rational"],
    )
    def test_poly_divide_lead_not_divisible(self, f, g):
        assert poly_divide(f, g) == reference_poly_divide(f, g) == (HomPoly.zero(3), False)

    def test_poly_divide_rejects_non_homogeneous(self):
        u, v = AffinePoly.variable(2, 0), AffinePoly.variable(2, 1)
        g = u - v**3
        with pytest.raises(ExactError):
            poly_divide(g * (u + v), g)
        with pytest.raises(ExactError):
            poly_divide(AffinePoly(2, {(3, 0): 1, (1, 2): 1}), g)

    def test_poly_divide_degree_ten_pullback(self):
        f, curve = degree_ten_composite()
        pull = substitute(curve.equation, f.components)
        assert poly_divide(pull, curve.equation) == reference_poly_divide(pull, curve.equation)
        assert poly_divide(pull + z**30, curve.equation) == (HomPoly.zero(3), False)

    EVAL_POINTS = [
        (Fraction(3, 4), Fraction(-5, 6), 2),
        (0, Fraction(7, 2), Fraction(-1, 3)),
        (Fraction(2, 9), 0, 0),
        (0, 0, 0),
        (-4, 11, 1),
    ]

    @pytest.mark.parametrize("point", EVAL_POINTS)
    def test_eval_forms(self, point):
        rng = random.Random(600)
        for degree in (0, 1, 4, 9):
            p = rand_poly(rng, degree, terms=8)
            assert p.eval(point) == reference_eval(p, point)

    @pytest.mark.parametrize("point", EVAL_POINTS)
    def test_eval_non_homogeneous(self, point):
        for degree in (1, 3, 8):
            p = rand_affine(random.Random(700 + degree), 3, degree)
            assert p.eval(point) == reference_eval(p, point)
            q = rand_affine(random.Random(710 + degree), 2, degree)
            assert q.eval(point[:2]) == reference_eval(q, point[:2])

    @pytest.mark.parametrize("point", [(0, 0), (Fraction(5, 3), 0), (0, -2)])
    def test_eval_zero_and_constant(self, point):
        assert AffinePoly(2, {}).eval(point) == 0 == reference_eval(AffinePoly(2, {}), point)
        const = AffinePoly(2, {(0, 0): Fraction(-4, 9)})
        assert const.eval(point) == Fraction(-4, 9)
        assert isinstance(HomPoly.zero(3).eval((1, 2, 3)), Fraction)

    @pytest.mark.parametrize(
        "maps",
        [
            [-3 * x + y, x * Fraction(1, 2), z],  # negative lex-leading coefficient
            [HomPoly.zero(3), y * Fraction(-2, 3) + z, x * Fraction(4, 9)],  # zero first
            [HomPoly.zero(3), HomPoly.zero(3), z * Fraction(-6, 5)],
            [HomPoly.zero(3), 6 * x * x - 4 * y * z, HomPoly.zero(3)],
            [-(x * z) * Fraction(2, 7), HomPoly.zero(3), y * z * Fraction(4, 21)],  # gcd z
            [(x - 2 * y) * (x * x - y * z), (x - 2 * y) * (z * z) * -4, (x - 2 * y) * x * y],
            [y, HomPoly.zero(3), x],  # a zero between coprime forms
            [x * Fraction(3, 2), x * x * -6],  # mixed degrees: [1, x] up to scaling
        ],
        ids=[
            "negative-lead", "zero-first", "one-nonzero", "one-quadric", "gcd-and-zero",
            "linear-gcd", "zero-middle", "mixed-degrees",
        ],
    )
    def test_content_normalize_cases(self, maps, monkeypatch):
        from planecubic import exact

        # no case needs sympy: _heu_gcd takes a lone form's primitive part, and
        # gcd-and-zero's common z comes off before the chart z = 1
        monkeypatch.setattr(exact, "_ring", None)
        got = content_normalize(maps)
        assert got == reference_content_normalize(maps)
        assert all(c.denominator == 1 for m in got for c in m.terms.values())
        assert [type(m) for m in got] == [type(m) for m in maps]

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_content_normalize_random(self, nvars, seed):
        rng = random.Random(800 + 10 * nvars + seed)
        common = rand_poly(rng, seed, nvars) * rand_rat(rng)
        maps = [common * rand_poly(rng, 2, nvars) for _ in range(nvars)]
        assert content_normalize(maps) == reference_content_normalize(maps)


fractional = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 9)).filter(
    lambda r: r.denominator > 1
)


@st.composite
def same_degree_forms(draw):
    """One to three nonzero plane forms of one degree d <= 6."""
    d = draw(st.integers(0, 6))
    exps = st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda e: sum(e) <= d)
    coef = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    terms = st.dictionaries(exps, coef, min_size=1, max_size=6)
    return [
        HomPoly(3, {(i, j, d - i - j): c for (i, j), c in draw(terms).items()})
        for _ in range(draw(st.integers(1, 3)))
    ]


class TestReduceOnCubic:
    """reduce_on_cubic(fs, p, q)[i] = c z^(D - d) f_i mod C, with D = d + d // 2
    and one c = delta^(d // 2) den for every i."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(same_degree_forms(), fractional, fractional)
    def test_congruent_modulo_the_cubic(self, fs, p, q):
        from math import lcm

        cubic = y * y * z - x**3 - p * (x * z * z) - q * z**3
        d = fs[0].degree
        top = d + d // 2
        den = lcm(*(c.denominator for f in fs for c in f.terms.values()))
        c = lcm(p.denominator, q.denominator) ** (d // 2) * den
        reduced = reduce_on_cubic(fs, p, q)
        assert len(reduced) == len(fs)
        for f, r in zip(fs, reduced):
            assert r.is_zero or (r.degree == top and all(e[1] <= 1 for e in r.terms))
            assert all(v.denominator == 1 for v in r.terms.values())
            _, ok = poly_divide(z ** (top - d) * f * c - r, cubic)
            assert ok

    def test_small_cases(self):
        # C divides the first form; y^3 z = y (x^3 - 2 z^3) on y^2 = x^3 - 2
        r = reduce_on_cubic([C_W, y**3 * Fraction(1, 2)], *W)
        assert r == [HomPoly.zero(3), x**3 * y - 2 * y * z**3]  # c = 2
        # y^2 z = x^3 - x z^2 / 4 + z^3 / 4, cleared by c = 4
        r = reduce_on_cubic([y * y, x * z], Fraction(-1, 4), Fraction(1, 4))
        assert r == [4 * x**3 - x * z * z + z**3, 4 * x * z * z]

    @pytest.mark.parametrize("forms", [[x, y * y], [x, HomPoly.zero(3)], [HomPoly.zero(3)]])
    def test_rejects_mixed_degrees_and_zero_forms(self, forms):
        with pytest.raises(ExactError):
            reduce_on_cubic(forms, *W)


def planted_factors(nvars):
    """Common factors for the coprimality certificate to face, by name."""
    v = variables(nvars)
    first, second, last = v[0], v[1], v[-1]
    return {
        "none": None,
        "the line": v[1] * 4 - v[2] * 3,  # 4y - 3z: vanishes on line 0 in 3 and 4 variables
        "last": last,
        "last^2": last * last,
        "second": second,
        "through (1:0:..:0)": first * second + last * last * Fraction(3, 2),
        "x0 coefficient p": first * BIG_PRIME + second,
        "generic": first * 3 - second * Fraction(1, 2) + last,
    }


@st.composite
def gcd_inputs(draw):
    """One to three forms in 3 or 4 variables of mixed degrees 0..3 with
    rational coefficients, each times one planted factor (or none)."""
    nvars = draw(st.sampled_from([3, 4]))
    factor = planted_factors(nvars)[draw(st.sampled_from(sorted(planted_factors(nvars))))]
    coef = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            picks = draw(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d))
            terms[tuple(picks.count(i) for i in range(nvars))] = draw(coef)
        f = HomPoly(nvars, terms)
        polys.append(f if factor is None else f * factor)
    return polys


class TestCoprimeCertificate:
    """poly_gcd tries the exact certificate _coprime_on_line before sympy; it
    must agree with the sympy-only reference either way, and the certificate
    may hold only where the gcd is 1."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(gcd_inputs())
    def test_matches_sympy_reference(self, polys):
        expected = reference_poly_gcd(polys)
        assert poly_gcd(polys) == expected
        if len(polys) > 1 and _coprime_on_line(polys):
            assert expected.degree == 0

    @pytest.mark.parametrize("name", sorted(planted_factors(3)))
    def test_planted_factor_is_found(self, name):
        h = planted_factors(3)[name]
        polys = [x * x + y * z, x * y - 2 * z * z, x**3 + y**3 + z**3]
        if h is not None:
            polys = [f * h for f in polys]
        assert not _coprime_on_line(polys) if h is not None else _coprime_on_line(polys)
        assert poly_gcd(polys) == reference_poly_gcd(polys)

    def test_holds_on_translation_maps_and_the_composite(self):
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        curve = WeierstrassCurve(0, -2)
        f = translation_map(curve, CurvePoint.affine(3, 5))
        assert _coprime_on_line(f.components)
        assert _coprime_on_line(degree_ten_composite()[0].components)
        # a base point on line 0, (s : 3 : 4), is a common root of the
        # restrictions: P = (0, 3/4) is (0 : 3 : 4)
        curve = WeierstrassCurve(0, Fraction(9, 16))
        on_line = translation_map(curve, CurvePoint.affine(0, Fraction(3, 4)))
        assert not _coprime_on_line(on_line.components)
        assert poly_gcd(on_line.components) == HomPoly.constant(3, 1)

    def test_big_top_coefficient_certifies_on_line_0(self):
        # coprime, with a 61-bit x coefficient: line 0, (s : 3 : 4), takes it
        # (restrictions p s + 3 and 4 s + 9), and 2^s grows past the root bound
        polys = [x * BIG_PRIME + y, x * z + y * y]
        assert _coprime_on_line(polys)
        assert poly_gcd(polys) == HomPoly.constant(3, 1)
        assert _coprime_on_line(polys + [x * x + z * z])

    def test_restrictions_sharing_a_root_mod_a_prime(self, monkeypatch):
        # on line 0 the restrictions are s and 3 s + 3 p: they share the root
        # 0 modulo p = 2^61 - 1 only, and the integer test sees no factor
        from planecubic import exact

        monkeypatch.setattr(exact, "_ring", None)
        polys = [x, x * 3 + y * BIG_PRIME]
        assert _coprime_on_line(polys)
        assert poly_gcd(polys) == HomPoly.constant(3, 1)

    def test_no_pure_power_falls_back_to_sympy(self):
        # no form has an x^2, y^2 or z^2 term, and every form vanishes at
        # (1:1:1): no line is tried
        polys = [x * (y - z), y * (z - x)]
        assert not _coprime_on_line(polys)
        assert poly_gcd(polys) == HomPoly.constant(3, 1)

    def test_no_pure_power_takes_the_diagonal_line(self, monkeypatch):
        # sigma's forms keep no pure power but are 1 at (1:1:1): on the line
        # x_k = k + 2 + s they restrict to (3+s)(4+s), (2+s)(4+s), (2+s)(3+s)
        from planecubic import exact

        monkeypatch.setattr(exact, "_ring", None)
        polys = [y * z, x * z, x * y]
        assert _coprime_on_line(polys)
        assert poly_gcd(polys) == HomPoly.constant(3, 1)
        assert _coprime_on_line([x * (y - z), y * (z + x)])
        # a common factor that is nonzero at (1:1:1) keeps its degree there
        assert not _coprime_on_line([f * (x + y + z) for f in polys])

    def test_holds_on_the_threefold_involution(self):
        from planecubic.threefold import build_involution, desk_instance

        # (1:0:0:0) and (0:1:0:0) are base points of the involution, and no
        # component keeps its x0^3 or x1^3 coefficient: line 2 certifies
        comps = build_involution(desk_instance()).components
        assert _coprime_on_line(comps)
        assert poly_gcd(comps) == HomPoly.constant(4, 1)

    def test_single_and_constant_inputs(self):
        assert poly_gcd([x * BIG_PRIME + y]) == x * BIG_PRIME + y
        assert poly_gcd([HomPoly.constant(3, 5), x * y]) == HomPoly.constant(3, 1)
        assert _coprime_on_line([HomPoly.constant(4, Fraction(2, 3)), HomPoly.variable(4, 1)])

    @pytest.mark.parametrize("seed", range(3))
    def test_divisible_third_input(self, seed):
        # the running gcd of the first two divides the third
        rng = random.Random(900 + seed)
        common = rand_poly(rng, 2) * (y - z)
        polys = [common * x, common * rand_poly(rng, 1), common * rand_poly(rng, 2) * z]
        assert poly_gcd(polys) == reference_poly_gcd(polys)
        assert poly_gcd(polys).degree >= 3


def _times_roots(coeffs, roots):
    """Ascending coefficients of sum(coeffs[k] t^k) * prod (t - r)."""
    coeffs = [Fraction(c) for c in coeffs]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [a - r * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return coeffs


@st.composite
def root_searches(draw):
    """One to three coefficient lists for rational_roots, each a constant, a
    linear list, a quadratic with a square or a non-square discriminant, a
    random list of degree <= 5, or p t + c for the big prime p; each times
    planted shared roots (some with denominator p) and scaled by a
    Fraction."""
    small = st.integers(-6, 6)
    rat = st.builds(Fraction, small, st.integers(1, 4))
    nonzero = rat.filter(bool)
    over_prime = st.builds(Fraction, small.filter(bool), st.just(BIG_PRIME))
    shared = draw(st.lists(st.one_of(rat, over_prime), max_size=2))
    lists = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["constant", "linear", "square", "nonsquare", "random", "lead p"]
        kind = draw(st.sampled_from(kinds))
        if kind == "constant":
            base = [draw(nonzero)]
        elif kind == "linear":
            base = [draw(rat), draw(nonzero)]
        elif kind == "square":
            base = _times_roots([draw(nonzero)], [draw(rat), draw(rat)])
        elif kind == "nonsquare":  # lead ((t - a)^2 - k), k no rational square
            a, k = draw(rat), draw(st.sampled_from([2, 3, -1, 5, Fraction(1, 2)]))
            base = [c * draw(nonzero) for c in (a * a - k, -2 * a, 1)]
        elif kind == "random":
            base = draw(st.lists(small, min_size=1, max_size=6).filter(any))
        else:  # (p t + c) times a small list
            base = [draw(small.filter(bool)), BIG_PRIME]
        scale = draw(nonzero)
        lists.append([c * scale for c in _times_roots(base, shared)])
    return lists


class TestRationalRootsAgainstSympy:
    """rational_roots decides small degrees by formula and takes the lists'
    gcd with _heu_gcd before it reaches sympy; the sympy-only route is the
    reference."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(root_searches())
    def test_matches_reference(self, lists):
        assert rational_roots(*lists) == reference_rational_roots(*lists)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=6).filter(lambda c: c[-1]),
                    min_size=2, max_size=3))
    def test_lists_of_degree_three_and_more(self, lists):
        # mostly coprime: _heu_gcd finds the gcd 1
        assert rational_roots(*lists) == reference_rational_roots(*lists)

    def test_small_degree_cases(self):
        for lists in ([[5]], [[3, -2]], [[-2, 0, 1]], [[-4, 0, 9]], [[1, 2, 1]],
                      [[-4, 0, 9], [-2, 3]], [[-4, 0, 9], [2, 3, 0, 0]]):
            assert rational_roots(*lists) == reference_rational_roots(*lists)
        assert rational_roots([-4, 0, 9], [2, 3]) == [Fraction(-2, 3)]

    def test_root_with_denominator_prime(self):
        # every list keeps the root 1 / p, so p divides each leading coefficient
        r = Fraction(1, BIG_PRIME)
        lists = [_times_roots([BIG_PRIME], [1, 2, 3, r]), _times_roots([BIG_PRIME], [5, 7, 11, r])]
        assert rational_roots(*lists) == [r] == reference_rational_roots(*lists)


@st.composite
def heu_gcd_inputs(draw):
    """Two or three forms in 3 or 4 variables sharing a planted factor: a
    form of degree 0..2 times a power of x_last, each input times its own
    cofactor of degree 0..3, so of unequal degrees; the coefficients have
    one digit or 100.  100-digit inputs keep to lower degrees."""
    nvars = draw(st.sampled_from([3, 4]))
    big = draw(st.booleans())
    size = st.integers(10**99, 10**100) if big else st.integers(1, 9)
    coef = st.tuples(size, st.booleans()).map(lambda c: -c[0] if c[1] else c[0])
    top = 1 if big else 2

    def form(d):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            picks = draw(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d))
            terms[tuple(picks.count(i) for i in range(nvars))] = draw(coef)
        return HomPoly(nvars, terms)

    last = HomPoly.variable(nvars, nvars - 1)
    common = form(draw(st.integers(0, top))) * last ** draw(st.integers(0, top))
    return [common * form(draw(st.integers(0, top + 1))) for _ in range(draw(st.integers(2, 3)))]


def heu_answers(monkeypatch):
    """Every answer _heu_gcd gives (None where it declines), with the size
    limit lifted so that 100-digit inputs reach it."""
    from planecubic import exact

    answers = []
    real = exact._heu_gcd

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(exact, "_heu_gcd", spy)
    monkeypatch.setattr(exact, "_HEU_GCD_BITS", 10**6)
    return answers


def fallback_only(monkeypatch):
    """The certificate _coprime_on_line fails and _heu_gcd declines, so each
    gcd and root search that is not settled by formula takes the sympy
    route; returns the ring calls."""
    from planecubic import exact

    rings = []
    real = exact._ring

    def spy(nvars):
        rings.append(nvars)
        return real(nvars)

    monkeypatch.setattr(exact, "_coprime_on_line", lambda polys: False)
    monkeypatch.setattr(exact, "_heu_gcd", lambda *args: None)
    monkeypatch.setattr(exact, "_ring", spy)
    return rings


@st.composite
def repeated_root_searches(draw):
    """One to three lists sharing planted roots of multiplicity up to 3 (a
    triple root is what composite10's blow-ups meet), each with roots of
    its own; a root n/m makes m divide the leading coefficient once the
    list is scaled to integers."""
    root = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    shared = []
    for r in draw(st.lists(root, min_size=1, max_size=2)):
        shared += [r] * draw(st.integers(1, 3))
    lists = []
    for _ in range(draw(st.integers(1, 3))):
        own = [draw(root)] * draw(st.integers(0, 2))
        base = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any))
        lists.append(_times_roots(base, shared + own))
    return lists


class TestHeuristicGcd:
    """_heu_gcd proves its gcd through exact integer tests; sympy's route is
    the reference and the fallback."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(polys=heu_gcd_inputs())
    def test_matches_reference(self, polys):
        with pytest.MonkeyPatch.context() as mp:
            heu_answers(mp)
            got = poly_gcd(polys)
        assert got == reference_poly_gcd(polys)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nvars", [3, 4])
    def test_planted_factor_is_proved(self, monkeypatch, seed, nvars):
        # a planted quadric, cofactors of degrees 1, 2 and 3
        rng = random.Random(1000 * nvars + seed)
        big = seed % 2 == 1
        common = rand_int_poly(rng, 2, nvars, big)
        polys = [common * rand_int_poly(rng, d, nvars, big) for d in (1, 2, 3)]
        answers = heu_answers(monkeypatch)
        assert poly_gcd(polys) == reference_poly_gcd(polys)
        assert answers[0] is not None

    def test_compose_content_gcd_is_proved(self, monkeypatch):
        # compose16's shape: phi_2G o phi_G is 16 -> 10, phi_-G o phi_G 16 -> 1
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, multiple, translation_map

        curve, G = WeierstrassCurve(0, -2), CurvePoint.affine(3, 5)
        phi = {k: translation_map(curve, multiple(curve, k, G)) for k in (-1, 1, 2)}
        answers = heu_answers(monkeypatch)
        for f in (phi[2], phi[-1]):
            comps = [substitute(c, phi[1].components) for c in f.components]
            assert poly_gcd(comps) == reference_poly_gcd(comps)
        assert len(answers) == 2 and all(answers)

    def test_cofactors_take_the_sign(self):
        # a lone -x y: _heu_gcd's G is -1 in the chart, and the sign that
        # comes off the gcd goes onto the cofactor; a zero input's cofactor is 0
        g = poly_gcd([HomPoly.zero(3), -(x * y) * Fraction(1, 2)])
        assert g == x * y
        assert g.cofactors == [HomPoly.zero(3), HomPoly.constant(3, -1)]

    @pytest.mark.parametrize("route", ["heuristic", "sympy"])
    def test_negative_raw_gcd_takes_the_sign(self, monkeypatch, route):
        # no input keeps z^2, so the chart is y = 1; both routes find z - 1
        # there, positive in (x, z), and put back it is z - y, whose
        # lex-leading term y has coefficient -1: the gcd and every cofactor
        # change sign
        from planecubic import exact

        polys = [(z - y) * y, (z - y) * (x + y)]
        raw, real = [], exact._with_cofactors
        monkeypatch.setattr(exact, "_with_cofactors", lambda i, g, q: raw.append(g) or real(i, g, q))
        if route == "heuristic":
            answers = heu_answers(monkeypatch)
        else:
            rings = fallback_only(monkeypatch)
        g = poly_gcd(polys)
        assert answers[0] is not None if route == "heuristic" else rings == [2] * 2
        assert raw[0][max(raw[0])] < 0
        assert g == y - z == reference_poly_gcd(polys)
        assert g.cofactors == [-y, -x - y]
        assert [g * q for q in g.cofactors] == polys

    def test_arithmetic_on_the_gcd_is_a_plain_form(self):
        # the cofactors belong to g alone: -g, g q, g + h, g^k and a partial
        # are forms without them
        g = poly_gcd([x * y, x * z])
        h = poly_gcd([y * y, y * z])
        assert g.cofactors == [y, z]
        got = [-g, g * y, g + h, g**2, g.partial(0)]
        assert got == [-x, x * y, x + y, x * x, HomPoly.constant(3, 1)]
        assert all(type(p) is HomPoly for p in got)

    def test_carry_is_rejected(self):
        # at xi = 256, (t + 1)(100 t + 100) = 100 t^2 + 200 t + 100 has the
        # digits of f = 101 t^2 - 56 t + 100, which t + 1 does not divide:
        # the cofactor bound 100 * ||t + 1||_1 >= 128 must refuse it
        from planecubic.exact import _heu_gcd_at

        f, g = {0: 100, 1: -56, 2: 101}, {0: 2, 1: 3, 2: 1}
        assert _heu_gcd_at([f, g], 8) is None

    def test_gcd_past_the_cofactor_bound_is_refused(self):
        # f = 99 t + 100 is its own primitive gcd: at xi = 2^8 its 1-norm 199
        # reaches 2^7, so no cofactor bound holds; at xi = 2^16 it is proved
        from planecubic.exact import _heu_gcd_at

        f = {0: 100, 1: 99}
        assert _heu_gcd_at([f], 8) is None
        assert _heu_gcd_at([f], 16) == (f, [{0: 1}])

    def test_list_retry_squares_xi(self, monkeypatch):
        # (t^2 - 1)^9 and (t + 1)^9 (t - 2) share G = (t + 1)^9: at the first
        # xi = 2^16, ||G||_1 = 2^9 times the cofactor (t - 1)^9's C(9, 4) =
        # 126 reaches 2^15, so the bound refuses; xi^2 = 2^32 proves G
        from planecubic import exact

        tries = []
        real = exact._heu_gcd_at
        monkeypatch.setattr(exact, "_heu_gcd_at", lambda fs, s: tries.append(s) or real(fs, s))
        G = [int(c) for c in _times_roots([1], [-1] * 9)]
        lists = [exact._int_poly_mul(G, [int(c) for c in _times_roots([1], [1] * 9)]),
                 exact._int_poly_mul(G, [-2, 1])]
        gcd, cofactors = exact._list_gcd(lists)
        assert tries == [16, 32]
        assert gcd == G and [exact._int_poly_mul(gcd, q) for q in cofactors] == lists

        def form(f):  # sum f[k] t^k as a binary form
            return HomPoly(2, {(k, len(f) - 1 - k): c for k, c in enumerate(f)})

        assert reference_poly_gcd([form(f) for f in lists]) == form(G)
        assert rational_roots(*lists) == [-1] == reference_rational_roots(*lists)

    def test_chart_keeps_the_cofactors_off_its_origin(self, monkeypatch):
        # both cofactors vanish at (0 : 0 : 1), and no input keeps z^3: the
        # chart y = 1 (the second input keeps y^3) lets _heu_gcd prove it
        from planecubic import exact

        polys = [(x + y + z) * (x * x + y * z), (x + y + z) * (y * y + 2 * x * z)]
        answers = heu_answers(monkeypatch)
        monkeypatch.setattr(exact, "_ring", None)
        assert poly_gcd(polys) == x + y + z == reference_poly_gcd(polys)
        assert answers[0] is not None

    def test_gcd_one_past_line_zero(self, monkeypatch):
        # the base point (0 : 3 : 4) of this translation map is on line 0, so
        # the certificate fails; _heu_gcd's cofactor bound and degree check
        # prove the gcd 1
        from planecubic import exact
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        f = translation_map(
            WeierstrassCurve(0, Fraction(9, 16)), CurvePoint.affine(0, Fraction(3, 4))
        )
        answers = heu_answers(monkeypatch)
        monkeypatch.setattr(exact, "_ring", None)
        assert not _coprime_on_line(f.components)
        assert poly_gcd(f.components) == HomPoly.constant(3, 1)
        assert answers[0][0] == {0: 1}

    @pytest.mark.parametrize(
        "cofactors", [(x - y, y - z), (x * x - y * z, y * y - x * z)], ids=["lines", "conics"]
    )
    def test_retry_moves_the_curve_off_a_common_zero(self, monkeypatch, cofactors):
        # the cofactors meet at (1 : 1 : 1), where the Kronecker curve passes
        # in either chart: the first answer carries their common factor and
        # fails the degree check, and the retry with the first variable
        # negated is accepted
        from planecubic import exact

        verdicts = []
        real = exact._heu_gcd

        def spy(fs, accept, lead):
            return real(fs, lambda *found: verdicts.append(accept(*found)) or verdicts[-1], lead)

        monkeypatch.setattr(exact, "_heu_gcd", spy)
        monkeypatch.setattr(exact, "_ring", None)
        h = x + 2 * y + 3 * z
        polys = [h * q for q in cofactors]
        assert poly_gcd(polys) == h == reference_poly_gcd(polys)
        assert verdicts == [False, True]

    def test_degree_22_content_gcd_takes_the_sympy_route(self, monkeypatch):
        # phi_{-3G} o (phi_2G o phi_G): 40 -> 22, whose packed operands run
        # past _HEU_GCD_BITS, where sympy's gcd is the faster
        from planecubic import exact
        from planecubic.cremona import compose
        from planecubic.elliptic import CurvePoint, multiple, translation_map

        inner, curve = degree_ten_composite()
        outer = translation_map(curve, multiple(curve, -3, CurvePoint.affine(3, 5)))
        answers, rings = [], []
        real_heu, real_ring = exact._heu_gcd, exact._ring
        monkeypatch.setattr(exact, "_heu_gcd", lambda *a: answers.append(real_heu(*a)))
        monkeypatch.setattr(exact, "_ring", lambda n: rings.append(n) or real_ring(n))
        assert compose(outer, inner).degree == 22
        assert answers == [None] and rings == [2] * 3

    def test_forced_fallback(self, monkeypatch):
        # the same answers on sympy's route alone; the translation map by
        # P = (0, 3/4), whose base point (0 : 3 : 4) lies on the
        # certificate's line 0, is the case test_elliptic's fixed cases pin
        from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map

        on_line = translation_map(
            WeierstrassCurve(0, Fraction(9, 16)), CurvePoint.affine(0, Fraction(3, 4))
        )
        f, _ = degree_ten_composite()
        rng = random.Random(77)
        common = rand_int_poly(rng, 2, 4, False)
        gcd_cases = [
            list(on_line.components),
            list(f.components),
            [common * rand_int_poly(rng, d, 4, True) for d in (1, 2)],
            [x * (y - z), y * (z + x)],
            [6 * (x + y) * (y - z), 4 * (x + y) * (y + z)],  # sympy's gcd has content 2
            [(x + y) * (y - z) * x, (x + y) * (y - z) * y, (x + y) * z],  # the gcd shrinks
        ]
        root_cases = [
            [[-1, 3, -3, 1]],  # (t - 1)^3
            [_times_roots([6], [Fraction(1, 2), Fraction(1, 2), Fraction(-2, 3), 5])],
            [_times_roots([1, 0, 1], [2, 2]), _times_roots([3], [2, 2, 2, 7])],
        ]
        expected = [poly_gcd(polys) for polys in gcd_cases]
        expected_roots = [rational_roots(*lists) for lists in root_cases]
        rings = fallback_only(monkeypatch)
        got = [poly_gcd(polys) for polys in gcd_cases]
        assert got == expected
        assert [g.cofactors for g in got] == [g.cofactors for g in expected]
        assert expected == [reference_poly_gcd(polys) for polys in gcd_cases]
        assert [rational_roots(*lists) for lists in root_cases] == expected_roots
        assert expected_roots == [reference_rational_roots(*lists) for lists in root_cases]
        assert set(rings) == {1, 2, 3}  # lists, plane forms, forms in 4 variables


def rand_int_poly(rng, degree, nvars, big):
    """A form with x_last^degree and three random terms, with one-digit or
    100-digit integer coefficients (never zero): a product of such forms
    keeps its pure power of x_last, which poly_gcd's chart needs."""
    span = 10**100 if big else 9
    terms = {(0,) * (nvars - 1) + (degree,): rng.randint(1, span)}
    for _ in range(3):
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = rng.choice((-1, 1)) * rng.randint(1, span)
    return HomPoly(nvars, terms)


class TestRootsOfTheGcd:
    """rational_roots takes the lists' gcd and its squarefree part with
    _heu_gcd; the sympy-only route is the reference."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(repeated_root_searches())
    def test_repeated_roots_match_reference(self, lists):
        assert rational_roots(*lists) == reference_rational_roots(*lists)

    def test_triple_roots_of_the_degree_ten_forest(self, monkeypatch):
        # every root search of the degree-10 composite's forest, among them
        # one-list searches (t - a)^3 whose squarefree part is linear
        from planecubic import cremona, exact

        f, curve = degree_ten_composite()
        calls, rings = [], []
        real, real_ring = exact.rational_roots, exact._ring
        monkeypatch.setattr(cremona, "rational_roots", lambda *l: calls.append(l) or real(*l))
        monkeypatch.setattr(exact, "_ring", lambda n: rings.append(n) or real_ring(n))
        cremona.base_forest(f, cubic=curve.equation)
        assert rings == []
        for lists in calls:
            assert real(*lists) == reference_rational_roots(*lists)
        ints = [exact._int_coeffs(lists[0]) for lists in calls if len(lists) == 1]
        assert any(len(f) == 4 and len(exact._root_part([f])) == 2 for f in ints)

    def test_denominator_divides_lc(self):
        lists = [_times_roots([30], [Fraction(1, 2), Fraction(2, 3), Fraction(-4, 5), 7])]
        assert rational_roots(*lists) == [Fraction(-4, 5), Fraction(1, 2), Fraction(2, 3), 7]
        assert rational_roots(*lists) == reference_rational_roots(*lists)


def scaled_x_coeffs(a: AffinePoly, y0) -> list:
    """The shift route's row of a(x, y0) times den m^top (y0 = n / m, top the
    largest y-exponent of a): the integer scale _x_coeffs_at keeps."""
    scale = a.den * Fraction(y0).denominator ** max(j for _, j in a.num)
    return [c * scale for c in reference_x_coeffs_at(a, y0)]


class TestXCoeffsAt:
    """_plane_candidates reads den m^top a(x, y0) row by row, in integers; the
    shift route is the reference."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
            min_size=1,
            max_size=8,
        ),
        st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)),
    )
    def test_matches_shift_route(self, terms, y0):
        a = AffinePoly(2, terms)
        got = _x_coeffs_at(a, y0)
        assert got == scaled_x_coeffs(a, y0)
        assert all(type(c) is int for c in got)

    def test_cancelling_rows(self):
        a = AffinePoly(2, {(2, 1): 1, (2, 0): -3, (0, 2): Fraction(1, 2)})  # den 2, top 2
        assert reference_x_coeffs_at(a, 3) == [Fraction(9, 2)]
        assert _x_coeffs_at(a, Fraction(3)) == [9] == scaled_x_coeffs(a, 3)
        assert _x_coeffs_at(a, Fraction(0)) == [0, 0, -6] == scaled_x_coeffs(a, 0)
