from fractions import Fraction

import pytest

import random

from _oracles import binary_restriction, reference_certify_irreducible

from planecubic.cremona import CremonaError, CremonaMap, compose
from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map
from planecubic.exact import HomPoly, poly_divide, substitute, variables
from planecubic.threefold import (
    QuarticData,
    SpaceMap,
    ThreefoldError,
    _certify_irreducible,
    _cubic_from_conic_restriction,
    _poly_from_roots,
    base_lines,
    bs_not_in_quartic,
    build_involution,
    desk_instance,
    is_involution,
    lift_plane_poly,
    line_restrictions,
    preserves_quartic,
    quadratic_form_rank,
    restrict_to_line,
    rigged_instance,
    tangent_instance,
)

x0, x1, x2, x3 = variables(4)
u1, u2, u3 = variables(3)


@pytest.fixture(scope="module")
def desk():
    return desk_instance()


@pytest.fixture(scope="module")
def phi(desk):
    return build_involution(desk)


class TestQuarticData:
    def test_desk_instance_valid(self, desk):
        assert desk.D.degree == 4
        assert desk.tangent_cone_rank_at_p() == 3

    def test_rank_two_form_rejected(self):
        with pytest.raises(ThreefoldError):
            QuarticData.build(u1 * u3, u1**3, u1**4 + u2**4 + u3**4)

    def test_rank_function(self):
        assert quadratic_form_rank(u1 * u3 - u2**2) == 3
        assert quadratic_form_rank(u1 * u2) == 2
        assert quadratic_form_rank(u1**2) == 1

    @pytest.mark.parametrize(
        "form",
        [u1**2 + u1 * u2 + u2**2 + u3**2, (u1 + u2 + u3) ** 2, (u1 + u2) ** 2 + u3**2,
         u1 * u2 + u2 * u3 + u3 * u1, (u1 - 2 * u3) * (3 * u2 + u3),
         (Fraction(1, 2) * u1 + u2) * (u2 - Fraction(2, 3) * u3),
         Fraction(1, 2) * u1**2 + Fraction(1, 3) * u1 * u2 - u2 * u3 + Fraction(3, 5) * u3**2],
    )
    def test_rank_with_elimination_below_the_pivot(self, form):
        # each form's matrix has a nonzero entry under its first pivot
        from sympy import Matrix, Rational

        hessian = [[form.partial(i).partial(j).coefficient((0, 0, 0)) for j in range(3)]
                   for i in range(3)]
        expected = Matrix([[Rational(c.numerator, c.denominator) for c in row]
                           for row in hessian]).rank()
        assert quadratic_form_rank(form) == expected

    def test_wrong_degrees_rejected(self):
        with pytest.raises(ThreefoldError):
            QuarticData.build(u1**2, u1**2, u1**4, validate=False)

    def test_quartic_built_once(self, desk):
        assert desk.D is desk.D


class TestInvolution:
    def test_components_shape(self, desk, phi):
        assert phi.degree == 3
        # the last component is A*x3 up to the canonical sign normalization
        quo, ok = poly_divide(phi.components[3], lift_plane_poly(desk.A) * x3)
        assert ok and quo.degree == 0

    def test_is_involution(self, phi):
        assert is_involution(phi)

    def test_identity_and_swap(self):
        assert is_involution(SpaceMap.identity())
        assert is_involution(SpaceMap([x1, x0, x2, x3]))

    def test_non_involution(self):
        assert not is_involution(SpaceMap([x0 + x1, x1, x2, x3]))

    def test_maps_quartic_point_to_quartic_point(self, desk, phi):
        from planecubic.exact import evaluate

        # (0 : a) with a on the conic and C(a) = -B(a)... simpler: scan a
        # rational point of D directly
        pt = None
        from fractions import Fraction
        from math import isqrt

        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    if (a, b, c) == (0, 0, 0):
                        continue
                    # solve D(t, a, b, c) = 0 for rational t via the quadratic in t
                    A = evaluate(desk.A, (a, b, c))
                    B = evaluate(desk.B, (a, b, c))
                    C = evaluate(desk.C, (a, b, c))
                    if A == 0:
                        continue
                    disc = B * B - 4 * A * C
                    if disc < 0:
                        continue
                    rn, rd = isqrt(disc.numerator), disc.denominator
                    if rn * rn != disc.numerator:
                        continue
                    t = Fraction(-B + rn, 2 * A)
                    pt = (t, Fraction(a), Fraction(b), Fraction(c))
                    break
                if pt:
                    break
            if pt:
                break
        assert pt is not None, "no small rational point of D found"
        assert evaluate(desk.D, pt) == 0
        img = phi.apply(pt)
        if img is not None:
            assert evaluate(desk.D, img) == 0


def _involution_cases():
    x, y, z = variables(3)
    x0, x1, x2, x3 = variables(4)
    return {
        "SIGMA": CremonaMap([y * z, x * z, x * y]),
        "phi(P)": translation_map(WeierstrassCurve(0, 1), CurvePoint.affine(2, 3)),
        "plane identity": CremonaMap.identity(),
        "space identity": SpaceMap.identity(),
        "swap": SpaceMap([x1, x0, x2, x3]),
        "(x : -y : z)": CremonaMap([x, -y, z]),
        "shear": SpaceMap([x0 + x1, x1, x2, x3]),
        "desk": build_involution(desk_instance()),
        "tangent": build_involution(tangent_instance()),
        "rigged": build_involution(rigged_instance()),
    }


class TestInvolutionAgainstCompose:
    """is_involution reads f o f = H id off the substituted components; the
    content-normalized compose(f, f) is the reference."""

    @pytest.mark.parametrize("name", sorted(_involution_cases()))
    def test_matches_compose(self, name):
        f = _involution_cases()[name]
        assert is_involution(f) is compose(f, f).is_identity
        assert is_involution(f) is (name not in ("phi(P)", "shear"))

    def test_degenerate_square_raises_as_compose(self):
        x, y, z = variables(3)
        # f o f has a zero component, and with f nilpotent (M^2 = 0) it is zero
        nilpotent = [[2, -3, -1, 2], [1, -1, 0, 1], [-1, 1, 0, -1], [-1, 2, 1, -1]]
        space = SpaceMap([sum((c * v for c, v in zip(row, (x0, x1, x2, x3))), HomPoly.zero(4))
                          for row in nilpotent])
        for f in (CremonaMap([x - y, x - y, z]), space):
            with pytest.raises(CremonaError, match="zero"):
                compose(f, f)
            with pytest.raises(CremonaError, match="zero"):
                is_involution(f)


def workload_quartic(rng):
    """D as the threefold benchmark seeds it: the conic A, a cubic B through
    six conic points with parameters n / d, and a quartic C with C(1, t, 0)
    Eisenstein at 2 and random further terms."""
    params = set()
    while len(params) < 6:
        params.add(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    terms = {(4, 0, 0): 2 * (2 * rng.randint(-2, 2) + 1), (0, 4, 0): 1}
    for j in (1, 2, 3):
        terms[(4 - j, j, 0)] = 2 * rng.randint(-2, 2)
    for e in [(a, b, 4 - a - b) for a in range(4) for b in range(4 - a)]:
        if rng.random() < 0.4:
            terms[e] = rng.randint(-3, 3)
    B = _cubic_from_conic_restriction(_poly_from_roots(sorted(params)))
    return QuarticData(u1 * u3 - u2**2, B, HomPoly(3, terms)).D


class TestCertifyIrreducible:
    """_certify_irreducible skips the restrictions through a zero of D; its
    verdict must be that of the loop that factors every restriction."""

    def test_desk_and_library_instances(self):
        for instance in (desk_instance, tangent_instance, rigged_instance):
            D = instance().D
            assert _certify_irreducible(D) is reference_certify_irreducible(D)
        assert _certify_irreducible(desk_instance().D)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_quartics(self, seed):
        D = workload_quartic(random.Random(seed))
        assert _certify_irreducible(D) is reference_certify_irreducible(D) is True

    def test_reducible_quartic(self):
        # double at P = (1:0:0:0): a product of two quadrics through P
        D = (x0 * x1 + x2 * x3) * (x0 * x3 + x1 * x2 - x3 * x3)
        assert _certify_irreducible(D) is reference_certify_irreducible(D) is False


class TestPreservesQuartic:
    def test_desk_map_preserves(self, desk, phi):
        assert preserves_quartic(phi, desk)

    def test_quotient_degree_eight(self, desk, phi):
        quo, ok = poly_divide(substitute(desk.D, phi.components), desk.D)
        assert ok and quo.degree == 8
        # the quotient is exactly A^4
        _, ok = poly_divide(quo, lift_plane_poly(desk.A) ** 4)
        assert ok

    def test_identity_trivially_preserves(self, desk):
        assert preserves_quartic(SpaceMap.identity(), desk)

    def test_generic_linear_does_not(self, desk):
        assert not preserves_quartic(SpaceMap([x0 + x1, x1, x2, x3]), desk)

    def test_map_into_the_quartic_does_not(self):
        # A, B and C vanish at (1:1:1), so D holds the line {(s : t : t : t)}
        # and f = (x0 : x1 : x1 : x1) maps all of P^3 into it: D(f) = 0,
        # which D divides, but f is no member
        A = u1**2 + u2**2 - 2 * u3**2
        B = u1**3 - u2 * u3**2
        C = u1**4 + u2**4 - 2 * u3**4
        q = QuarticData.build(A, B, C)
        f = SpaceMap([x0, x1, x1, x1])
        assert substitute(q.D, f.components).is_zero
        assert not preserves_quartic(f, q)


class TestBaseLines:
    def test_six_distinct_lines(self, desk):
        lines = base_lines(desk)
        assert len(lines) == len(set(lines)) == 6

    def test_restrictions_have_degree_four(self, desk):
        restr = line_restrictions(base_lines(desk), desk)
        assert all(len(r) == 5 for r in restr)

    def test_tangent_instance_rejected(self):
        with pytest.raises(ThreefoldError, match="not general enough"):
            base_lines(tangent_instance())

    def test_shared_component_rejected(self):
        # B = A (x1 + x2): the conic and the cubic meet in a whole curve
        q = desk_instance()
        shared = QuarticData.build(q.A, q.A * (u1 + u2), q.C, validate=False)
        message = r"not general enough: .* share the component x1\*x3 - x2\^2"
        with pytest.raises(ThreefoldError, match=message):
            base_lines(shared)

    @pytest.mark.parametrize(
        "C", [None, u2 * u3**3, u1 * u2 * u3**2 + u1**4, u1 * (u1 * u3 - u2**2) * u3],
        ids=["desk", "one-line-in-D", "mixed", "all-lines-in-D"],
    )
    def test_restrictions_match_restrict_to_line(self, desk, C):
        # read from A(a), B(a), C(a): the same lists as substituting the line
        q = desk if C is None else QuarticData.build(desk.A, desk.B, C, validate=False)
        lines = base_lines(q)
        expected = [restrict_to_line(q.D, (1, 0, 0, 0), (0,) + tuple(a)) for a in lines]
        assert line_restrictions(lines, q) == expected

    def test_bs_not_in_quartic_positive(self, desk):
        assert bs_not_in_quartic(base_lines(desk), desk)

    def test_rigged_instance_negative(self):
        q = rigged_instance()
        lines = base_lines(q)
        assert len(lines) == 6
        assert not bs_not_in_quartic(lines, q)


def trimmed(coeffs):
    """binary_restriction's list in restrict_to_line's form: no trailing zeros."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


LINES = [
    ((1, 0, 0, 0), (0, 1, 2, 3)),
    ((1, 1, 1, 1), (1, 2, 3, 4)),
    ((2, -1, 1, 3), (1, -1, 2, -2)),
    ((0, 1, 0, 0), (0, 0, 1, 0)),
    ((Fraction(1, 2), 0, Fraction(-3, 7), 0), (Fraction(5, 3), 0, 2, 0)),
    ((0, 0, 0, 1), (0, 0, 0, 2)),
]


class TestRestrictToLine:
    """restrict_to_line (one substitute call) against the term-by-term
    expansion binary_restriction in _oracles."""

    @pytest.mark.parametrize("instance", [desk_instance, tangent_instance, rigged_instance])
    @pytest.mark.parametrize("u, v", LINES)
    def test_quartic_matches_oracle(self, instance, u, v):
        D = instance().D
        assert restrict_to_line(D, u, v) == trimmed(binary_restriction(D, u, v))

    @pytest.mark.parametrize("instance", [desk_instance, rigged_instance])
    def test_involution_components_on_base_lines(self, instance):
        q = instance()
        phi, origin = build_involution(q), (1, 0, 0, 0)
        for a in base_lines(q):
            direction = (0,) + tuple(a)
            for comp in phi.components:
                got = restrict_to_line(comp, origin, direction)
                assert got == trimmed(binary_restriction(comp, origin, direction)) == [0]

    def test_plane_form_matches_oracle(self):
        p = u1**3 - 2 * u1 * u2 * u3 + Fraction(3, 4) * u3**3
        u, v = (1, 0, Fraction(-1, 3)), (0, 0, 5)
        assert restrict_to_line(p, u, v) == trimmed(binary_restriction(p, u, v))
