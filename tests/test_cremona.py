import random
from fractions import Fraction

import pytest

from _oracles import reference_forest_from
from planecubic.cremona import (
    DIR_INF,
    BubbleForest,
    CremonaError,
    CremonaMap,
    HomaloidalType,
    IrrationalBasePointError,
    NoetherViolation,
    base_forest,
    check_cubic_nonsingular,
    compose,
    composition_degree,
    homaloidal_type,
    inertia_witness,
    inertia_witness_triple,
    is_de_jonquieres,
    is_in_dec,
    noether_check,
    shared_base_pairs,
)
from planecubic.elliptic import (
    CurvePoint,
    WeierstrassCurve,
    add,
    default_samples,
    multiple,
    neg,
    to_projective,
    translation_map,
)
from planecubic.exact import AffinePoly, HomPoly, poly_divide, substitute, variables
from planecubic.threefold import SpaceMap, is_involution

x, y, z = variables(3)

CURVE = WeierstrassCurve(0, 1)
P = CurvePoint.affine(2, 3)
Q = CurvePoint.affine(0, 1)
SIGMA = CremonaMap([y * z, x * z, x * y])


def phi(pt):
    return translation_map(CURVE, pt)


class TestCremonaMap:
    def test_identity(self):
        assert CremonaMap.identity().degree == 1
        assert CremonaMap.identity().is_identity

    def test_proportional_components_rejected(self):
        with pytest.raises(CremonaError):
            CremonaMap([x, 2 * x, 3 * x])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(CremonaError):
            CremonaMap([x, y, z * z])

    @pytest.mark.parametrize("cls", [CremonaMap, SpaceMap])
    def test_zero_component_rejected(self, cls):
        n = cls.NVARS
        comps = variables(n)
        for i in range(n):
            with pytest.raises(CremonaError, match="zero"):
                cls(comps[:i] + (HomPoly.zero(n),) + comps[i + 1:])

    def test_space_map_wrong_shape_rejected(self):
        with pytest.raises(CremonaError):
            SpaceMap([x, y, z])
        with pytest.raises(CremonaError):
            SpaceMap(variables(4)[:3])

    def test_deterministic_normal_form(self):
        a = CremonaMap([7 * (y * z), 7 * (x * z), 7 * (x * y)])
        b = CremonaMap([y * z * Fraction(1, 3), x * z * Fraction(1, 3), x * y * Fraction(1, 3)])
        assert a == b == SIGMA


class TestCompose:
    def test_standard_quadratic_involution(self):
        assert compose(SIGMA, SIGMA).is_identity

    def test_is_involution_on_plane_maps(self):
        assert is_involution(SIGMA)
        assert not is_involution(phi(P))

    def test_space_maps_compose_to_space_map(self):
        x0, x1, x2, x3 = variables(4)
        swap = SpaceMap([x1, x0, x2, x3])
        shear = SpaceMap([x0 + x1, x1, x2, x3])
        h = compose(shear, swap)
        assert type(h) is SpaceMap
        assert h == SpaceMap([x0 + x1, x0, x2, x3])

    def test_identity_neutral(self):
        f = phi(P)
        assert compose(f, CremonaMap.identity()) == f
        assert compose(CremonaMap.identity(), f) == f

    def test_translation_composite_degree_ten(self):
        assert compose(phi(Q), phi(P)).degree == 10

    def test_composite_restricts_to_sum_translation(self):
        comp = compose(phi(Q), phi(P))
        S = add(CURVE, P, Q)
        for pt in default_samples(CURVE, 6):
            img = comp.apply(to_projective(pt))
            if img is not None:
                assert img == to_projective(add(CURVE, pt, S))


class TestNoether:
    def test_degree_four_types_pass(self):
        assert noether_check(HomaloidalType(4, (3, 1, 1, 1, 1, 1, 1)))
        assert noether_check(HomaloidalType(4, (2, 2, 2, 1, 1, 1)))

    def test_bad_type_fails(self):
        assert not noether_check(HomaloidalType(4, (3, 3)))

    def test_random_non_homaloidal_tuples_fail(self):
        rng = random.Random(99)
        seen = 0
        while seen < 50:
            d = rng.randint(2, 9)
            mults = tuple(
                sorted((rng.randint(1, d - 1) for _ in range(rng.randint(1, 9))), reverse=True)
            )
            t = HomaloidalType(d, mults)
            if sum(mults) == 3 * d - 3 and sum(m * m for m in mults) == d * d - 1:
                continue  # accidentally homaloidal: not a negative case
            seen += 1
            assert not noether_check(t)


class TestDeJonquieres:
    def test_translation_type(self):
        assert is_de_jonquieres(HomaloidalType(4, (3, 1, 1, 1, 1, 1, 1)))

    def test_quadratic_degenerate_overlap(self):
        assert is_de_jonquieres(HomaloidalType(2, (1, 1, 1)))

    def test_symmetric_type_is_not(self):
        t = HomaloidalType(5, (2, 2, 2, 2, 2, 2))
        assert noether_check(t)
        assert not is_de_jonquieres(t)

    def test_non_homaloidal_rejected(self):
        with pytest.raises(NoetherViolation):
            is_de_jonquieres(HomaloidalType(4, (3, 3)))


class TestCompositionDegree:
    T4 = HomaloidalType(4, (3, 1, 1, 1, 1, 1, 1))

    def test_six_shared_simple_points(self):
        assert composition_degree(self.T4, self.T4, [(1, 1)] * 6) == 10

    def test_no_shared_points(self):
        assert composition_degree(self.T4, self.T4, []) == 16

    def test_quadratic_self_composition(self):
        t2 = HomaloidalType(2, (1, 1, 1))
        assert composition_degree(t2, t2, [(1, 1)] * 3) == 1

    def test_inconsistent_data_rejected(self):
        with pytest.raises(CremonaError):
            composition_degree(self.T4, self.T4, [(3, 3)] + [(1, 1)] * 7)


class TestBaseForest:
    def test_translation_forest_structure(self):
        f = phi(P)
        forest = base_forest(f, cubic=CURVE.equation)
        roots = forest.roots()
        assert sorted(n.mult for n in roots) == [1, 3]
        by_mult = {n.mult: n for n in roots}
        assert by_mult[3].point == (Fraction(2), Fraction(3), Fraction(1))
        assert by_mult[1].point == (Fraction(0), Fraction(1), Fraction(0))
        # chain of length 5 over O, each simple, every node on the cubic
        chain = []
        cur = by_mult[1]
        while True:
            kids = forest.children(cur.id)
            if not kids:
                break
            assert len(kids) == 1
            cur = kids[0]
            chain.append(cur)
        assert [n.level for n in chain] == [1, 2, 3, 4, 5]
        assert all(n.mult == 1 for n in chain)
        assert all(n.on_cubic for n in forest)
        assert forest.children(by_mult[3].id) == []

    def test_degree_ten_composite_forest(self):
        # phi_2G o phi_G on y^2 = x^3 - 2: every node pinned, in the order
        # base_forest emits them (proper points sorted, then depth first)
        curve = WeierstrassCurve(0, -2)
        G = CurvePoint.affine(3, 5)
        f = compose(translation_map(curve, add(curve, G, G)), translation_map(curve, G))
        assert f.degree == 10
        forest = base_forest(f, cubic=curve.equation)
        assert all(n.on_cubic for n in forest)
        got = [(n.parent, n.level, n.mult, n.point, n.direction) for n in forest]
        infinity = (Fraction(0), Fraction(1), Fraction(0))
        assert got == [
            (None, 0, 3, infinity, None),
            (0, 1, 3, None, Fraction(0)),
            (1, 2, 3, None, Fraction(0)),
            (2, 3, 3, None, Fraction(1)),
            (3, 4, 3, None, Fraction(0)),
            (4, 5, 3, None, Fraction(0)),
            (None, 0, 6, (Fraction(3), Fraction(5), Fraction(1)), None),
            (6, 1, 3, None, Fraction(27, 10)),
        ]

    def test_standard_quadratic_forest(self):
        forest = base_forest(SIGMA)
        assert len(forest) == 3
        assert all(n.level == 0 and n.mult == 1 for n in forest)

    def test_identity_forest_empty(self):
        assert len(base_forest(CremonaMap.identity())) == 0

    def test_hints_accepted(self):
        forest = base_forest(SIGMA, hints=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(forest) == 3

    def test_bad_hint_rejected(self):
        with pytest.raises(CremonaError):
            base_forest(SIGMA, hints=[(1, 1, 1)])

    def test_irrational_base_points_detected(self):
        f = CremonaMap([x * z, y * z, x * x - 2 * (y * y)])
        with pytest.raises(IrrationalBasePointError):
            base_forest(f)


E2 = WeierstrassCurve(0, -2)
G2 = CurvePoint.affine(3, 5)


@pytest.fixture
def zero_search_calls(monkeypatch):
    """The weierstrass argument of every common_zeros_plane call base_forest makes."""
    from planecubic import cremona

    calls = []
    real = cremona.common_zeros_plane

    def spy(polys, weierstrass=None):
        calls.append(weierstrass)
        return real(polys, weierstrass)

    monkeypatch.setattr(cremona, "common_zeros_plane", spy)
    return calls


class TestBaseForestOnCubic:
    """With a Weierstrass cubic, proper base points are looked for on it; the
    equations of condition decide whether a search of the plane must follow."""

    def test_degree_22_triple_forest(self, zero_search_calls):
        # phi_{-3G} o phi_{2G} o phi_G, no hints: every node pinned
        f = inertia_witness_triple(E2, G2, add(E2, G2, G2))
        assert f.degree == 22
        forest = base_forest(f, cubic=E2.equation)
        assert zero_search_calls == [(0, -2)]
        assert homaloidal_type(f, forest) == HomaloidalType(22, (12,) + (7,) * 6 + (6, 3))
        assert all(n.on_cubic for n in forest)
        got = [(n.parent, n.level, n.mult, n.point, n.direction) for n in forest]
        infinity = (Fraction(0), Fraction(1), Fraction(0))
        minus_6g = to_projective(multiple(E2, -6, G2))
        assert minus_6g[0] == Fraction(794845361623184880769, 513127310073606144900)
        assert got == [
            (None, 0, 7, infinity, None),
            (0, 1, 7, None, Fraction(0)),
            (1, 2, 7, None, Fraction(0)),
            (2, 3, 7, None, Fraction(1)),
            (3, 4, 7, None, Fraction(0)),
            (4, 5, 7, None, Fraction(0)),
            (None, 0, 3, minus_6g, None),
            (None, 0, 12, (Fraction(3), Fraction(5), Fraction(1)), None),
            (7, 1, 6, None, Fraction(27, 10)),
        ]

    def test_dec_map_needs_one_search(self, zero_search_calls):
        forest = base_forest(translation_map(E2, G2), cubic=E2.equation)
        assert zero_search_calls == [(0, -2)]
        assert sorted(n.mult for n in forest) == [1] * 6 + [3]

    def test_falls_back_when_a_base_point_is_off_the_cubic(self, zero_search_calls):
        # only (0:1:0) of sigma's base points lies on y^2 = x^3 - 2, so the
        # forest over the cubic's points fails the equations of condition
        forest = base_forest(SIGMA, cubic=E2.equation)
        assert zero_search_calls == [(0, -2), None]
        got = [(n.parent, n.level, n.mult, n.on_cubic, n.point) for n in forest]
        assert got == [
            (None, 0, 1, False, (0, 0, 1)),
            (None, 0, 1, True, (0, 1, 0)),
            (None, 0, 1, False, (1, 0, 0)),
        ]

    def test_no_cubic_searches_the_plane(self, zero_search_calls):
        base_forest(SIGMA)
        # not in Weierstrass form: its nonsingularity check searches the
        # partials' common zeros, then the forest searches the plane
        base_forest(SIGMA, cubic=x**3 + y**3 + z**3)
        assert zero_search_calls == [None, None, None]

    def test_irrational_base_points_still_detected(self, zero_search_calls):
        f = CremonaMap([x * z, y * z, x * x - 2 * (y * y)])
        with pytest.raises(IrrationalBasePointError):
            base_forest(f, cubic=E2.equation)
        assert zero_search_calls == [(0, -2), None]


class TestForestMemo:
    """A searched forest is memoized by value on the map and the cubic; the
    cubic check runs on every call, and hints and failures are not kept."""

    def test_equal_map_reuses_the_forest(self, zero_search_calls):
        from planecubic.jsonio import map_from_json, map_to_json

        f = translation_map(E2, G2)
        first = base_forest(f, cubic=E2.equation)
        again = base_forest(map_from_json(map_to_json(f)), cubic=WeierstrassCurve(0, -2).equation)
        assert again is first and isinstance(first.nodes, tuple)
        assert zero_search_calls == [(0, -2)]

    def test_memo_keys_on_the_cubic(self, zero_search_calls):
        # the same map without the cubic has no incidence flags, and with
        # another cubic other ones
        f = translation_map(E2, G2)
        bare = base_forest(f)
        on_e2 = base_forest(f, cubic=E2.equation)
        on_other = base_forest(f, cubic=WeierstrassCurve(0, 1).equation)
        assert zero_search_calls == [None, (0, -2), (0, 1), None]
        assert not any(n.on_cubic for n in bare) and all(n.on_cubic for n in on_e2)
        assert [n.on_cubic for n in on_other] != [n.on_cubic for n in on_e2]
        assert [n.mult for n in bare] == [n.mult for n in on_e2] == [n.mult for n in on_other]

    def test_hints_are_not_memoized(self, zero_search_calls):
        # one hint of phi_G's two proper base points leaves the forest short:
        # a hint list is read as given, whatever forest the memo holds
        f = translation_map(E2, G2)
        searched = base_forest(f, cubic=E2.equation)
        roots = [n.point for n in searched.roots()]
        with pytest.raises(IrrationalBasePointError):
            base_forest(f, cubic=E2.equation, hints=roots[:1])
        hinted = base_forest(f, cubic=E2.equation, hints=roots)
        assert hinted is not searched and hinted.nodes == searched.nodes
        assert zero_search_calls == [(0, -2)]

    def test_failed_search_is_not_memoized(self, zero_search_calls):
        f = CremonaMap([x * z, y * z, x * x - 2 * (y * y)])
        for _ in range(2):
            with pytest.raises(IrrationalBasePointError):
                base_forest(f, cubic=E2.equation)
        assert zero_search_calls == [(0, -2), None] * 2

    def test_cubic_is_checked_on_every_call(self, zero_search_calls):
        # a cubic out of Weierstrass form is checked by a search of its
        # partials each time; the forest's own search runs once
        for _ in range(2):
            base_forest(SIGMA, cubic=x**3 + y**3 + z**3)
        assert zero_search_calls == [None, None, None]
        with pytest.raises(CremonaError, match="singular"):
            base_forest(SIGMA, cubic=y * y * z - x**3)

    def test_memo_is_bounded(self):
        from planecubic import cremona

        for k in range(cremona._FOREST_MEMO_SIZE + 2):
            base_forest(compose(SIGMA, CremonaMap([x + k * z, y, z])))
        assert cremona._searched_forest.cache_info().currsize == cremona._FOREST_MEMO_SIZE

    def test_pipeline_searches_once(self, zero_search_calls):
        # base-forest, factorize and vp-verify on one map in one process
        import io
        import json

        from planecubic.cli import main
        from planecubic.jsonio import map_to_json

        payload = json.dumps({"map": map_to_json(translation_map(E2, G2)), "curve": {"p": "0", "q": "-2"}})
        for command in ("base-forest", "factorize", "vp-verify"):
            assert main([command], stdin=io.StringIO(payload), stdout=io.StringIO()) == 0
        assert zero_search_calls == [(0, -2)]


def _oracle_cases():
    """(name, map, cubic) over C: y^2 = x^3 - 2 with G = (3, 5).

    The two cubic de Jonquieres maps branch: sigma (z : x + y : x - y) sigma
    has a double point at (0:0:1) with simple points infinitely near it in
    the directions y = +-x.  A linear map that fixes (0:0:1) moves them to
    y = 27x/10, the tangent there of C moved to put G at (0:0:1), and to
    y = 0 (two chart-A children) or to x = 0 (a chart-A and a chart-B
    child)."""
    C = E2.equation
    G2x2 = add(E2, G2, G2)
    phi_g = translation_map(E2, G2)
    moved = substitute(C, [x + 3 * z, y + 5 * z, z])
    jonq = compose(SIGMA, compose(CremonaMap([z, x + y, x - y]), SIGMA))
    two_a = compose(jonq, CremonaMap([27 * x - 9 * y, 11 * y - 27 * x, 27 * z]))
    a_and_b = compose(jonq, CremonaMap([26 * x - 10 * y, 10 * y - 28 * x, 5 * z]))
    return [
        ("phi_G", phi_g, C),
        ("phi_2G phi_G", compose(translation_map(E2, G2x2), phi_g), C),
        ("phi_-3G phi_2G phi_G", inertia_witness_triple(E2, G2, G2x2), C),
        ("phi_G, moved cubic", phi_g, substitute(C, [x + z, y, z])),
        ("(yz, xz, xy)", SIGMA, C),
        ("(xz, yz, x^2)", CremonaMap([x * z, y * z, x * x]), C),
        ("(y^2, xy, xz)", CremonaMap([y * y, x * y, x * z]), C),
        ("phi_G, no cubic", phi_g, None),
        ("two chart-A children", two_a, moved),
        ("chart-A and chart-B children", a_and_b, moved),
    ]


class TestForestAgainstOracle:
    """One node step builds the same forest as the earlier three-copy route
    (`reference_forest_from`), which carries the cubic along every branch
    and decides incidence by evaluating it at each point."""

    @pytest.mark.parametrize(
        "f, cubic", [pytest.param(f, c, id=name) for name, f, c in _oracle_cases()]
    )
    def test_nodes_match(self, f, cubic):
        forest = base_forest(f, cubic=cubic)
        proper = [n.point for n in forest.roots()]
        assert forest.nodes == reference_forest_from(f, proper, cubic).nodes
        assert [n.id for n in forest] == list(range(len(forest)))
        assert all(n.parent is None or n.parent < n.id for n in forest)

    def test_cases_reach_the_branches_that_leave_the_cubic(self):
        cases = {name: (f, c) for name, f, c in _oracle_cases()}

        def forest(name):
            f, cubic = cases[name]
            return base_forest(f, cubic=cubic)

        moved = [(n.level, n.on_cubic) for n in forest("phi_G, moved cubic") if n.parent is not None]
        assert moved == [(1, True), (2, True), (3, True), (4, True), (5, False)]
        quadratic = forest("(y^2, xy, xz)")
        (inf,) = [n for n in quadratic if n.direction == DIR_INF]
        assert not inf.on_cubic and not quadratic.nodes[inf.parent].on_cubic
        assert not any(n.on_cubic for n in forest("phi_G, no cubic"))

    def test_cases_reach_nodes_with_several_children(self):
        cases = {name: (f, c) for name, f, c in _oracle_cases()}

        def children(name):
            f, cubic = cases[name]
            forest = base_forest(f, cubic=cubic)
            return [
                [(k.on_cubic, k.direction) for k in forest.children(n.id)]
                for n in forest
                if len(forest.children(n.id)) > 1
            ]

        assert children("two chart-A children") == [[(False, 0), (True, Fraction(27, 10))]]
        assert children("chart-A and chart-B children") == [
            [(True, Fraction(27, 10)), (False, DIR_INF)]
        ]

    def test_chart_a_is_built_only_under_a_base_point(self, monkeypatch):
        # phi_G's 7 nodes are all on the cubic, and 5 have a chart-A child:
        # 5 x (3 forms + the cubic) charts; building every chart A made 28
        calls = []
        real = AffinePoly.substitute_two

        def spy(self, u, v):
            calls.append((u, v))
            return real(self, u, v)

        monkeypatch.setattr(AffinePoly, "substitute_two", spy)
        forest = base_forest(translation_map(E2, G2), cubic=E2.equation)
        assert len(forest) == 7 and all(n.on_cubic for n in forest)
        under_a = {n.parent for n in forest if n.parent is not None and n.direction != DIR_INF}
        assert len(under_a) == 5
        assert len(calls) == 20


class TestHomaloidalTypeOfMaps:
    def test_translation(self):
        assert homaloidal_type(phi(P)) == HomaloidalType(4, (3, 1, 1, 1, 1, 1, 1))

    def test_standard_quadratic(self):
        assert homaloidal_type(SIGMA) == HomaloidalType(2, (1, 1, 1))

    def test_identity(self):
        assert homaloidal_type(CremonaMap.identity()) == HomaloidalType(1, ())


class TestSharedPairsDegreeLaw:
    def test_translation_family_shares_exactly_the_chain(self):
        ff = base_forest(phi(P), cubic=CURVE.equation)
        fg = base_forest(phi(Q), cubic=CURVE.equation)
        shared = shared_base_pairs(ff, fg)
        assert shared == [(1, 1)] * 6
        predicted = composition_degree(
            homaloidal_type(phi(P)), homaloidal_type(phi(Q)), shared
        )
        assert predicted == compose(phi(Q), phi(P)).degree == 10

    def test_sigma_and_translation_share_only_o(self):
        # (0:1:0) is a coordinate point of sigma and the neutral element of
        # the curve; no deeper coincidence exists
        ff = base_forest(SIGMA)
        fg = base_forest(phi(P))
        assert shared_base_pairs(ff, fg) == [(1, 1)]


class TestDecMembership:
    def test_translation_in_dec(self):
        assert is_in_dec(phi(P), CURVE.equation)

    def test_identity_in_dec(self):
        assert is_in_dec(CremonaMap.identity(), CURVE.equation)

    def test_generic_linear_not_in_dec(self):
        assert not is_in_dec(CremonaMap([x + y, y, z]), CURVE.equation)

    def test_standard_quadratic_not_in_dec_of_this_cubic(self):
        assert not is_in_dec(SIGMA, CURVE.equation)

    def test_map_contracting_the_cubic_not_in_dec(self):
        # f = (2h + C, 3h, h + 5C) is (2:3:1) on C: C divides C(f), and the
        # group-law samples of the Weierstrass C show the contraction
        cubic = CURVE.equation
        h = x**3 + y**3 + 2 * z**3
        f = CremonaMap([2 * h + cubic, 3 * h, h + 5 * cubic])
        assert plain_divisibility(f, cubic)
        assert {f.apply(to_projective(pt)) for pt in default_samples(CURVE)} <= {
            None, (2, 3, 1)
        }
        assert not is_in_dec(f, cubic)

    def test_map_into_a_cubic_singular_off_q_not_in_dec(self):
        # C = x (x^2 + y^2 - 2z^2) is singular only at (0 : +-sqrt(2) : 1), so
        # the rational check passes it; f sends (x : y) along the conic's
        # parametrization from (1 : 1 : 1), so C(f) = 0, which C divides,
        # yet f maps the plane into C
        cubic = x * (x * x + y * y - 2 * z * z)
        f = CremonaMap([x * x + 2 * x * y - y * y, -x * x + 2 * x * y + y * y, x * x + y * y])
        assert check_cubic_nonsingular(cubic) is None
        assert substitute(cubic, f.components).is_zero
        assert not is_in_dec(f, cubic)

    def test_singular_cubic_rejected(self):
        nodal = y * y * z - x * x * (x + z)  # node at the origin
        with pytest.raises(CremonaError):
            is_in_dec(SIGMA, nodal)

    def test_nonsingular_check_returns_the_weierstrass_pair(self):
        assert check_cubic_nonsingular(3 * E2.equation) == (0, -2)
        assert check_cubic_nonsingular(x**3 + y**3 + z**3) is None

    def test_cubic_not_in_three_variables_rejected(self):
        binary = HomPoly(2, {(3, 0): 1, (0, 3): 1})
        with pytest.raises(CremonaError):
            is_in_dec(phi(P), binary)


def plain_divisibility(f, cubic):
    """The cubic divides its pullback through f's own components."""
    pullback = substitute(cubic, f.components)
    return not pullback.is_zero and poly_divide(pullback, cubic)[1]


def dec_and_non_dec_maps(curve, P):
    """(map, expected verdict) pairs: translations and their composite,
    linear maps, sigma o L and translation o linear."""
    phi_p, phi_2p = translation_map(curve, P), translation_map(curve, multiple(curve, 2, P))
    inversion = CremonaMap([x, -y, z])
    shear = CremonaMap([x + y, y, z])
    generic = CremonaMap([2 * x - y + z, x + 3 * z, y - z])
    return [
        (phi_p, True),
        (translation_map(curve, neg(curve, P)), True),
        (compose(phi_2p, phi_p), True),
        (CremonaMap.identity(), True),
        (inversion, True),
        (shear, False),
        (generic, False),
        (compose(SIGMA, generic), False),
        (compose(SIGMA, inversion), False),
        (compose(phi_p, inversion), True),
        (compose(phi_p, shear), False),
    ]


class TestDecReducedRoute:
    """On a Weierstrass cubic is_in_dec pulls the cubic back through the map
    reduced modulo the cubic; its verdict must be the plain route's."""

    @pytest.mark.parametrize(
        "curve, P",
        [
            (WeierstrassCurve(0, 1), CurvePoint.affine(2, 3)),
            (WeierstrassCurve(0, -2), CurvePoint.affine(3, 5)),
            (
                WeierstrassCurve(Fraction(-1, 4), Fraction(1, 4)),
                CurvePoint.affine(Fraction(1, 2), Fraction(1, 2)),
            ),
            (
                WeierstrassCurve(Fraction(1, 3), Fraction(-13, 12)),
                CurvePoint.affine(1, Fraction(1, 2)),
            ),
        ],
        ids=["y2=x3+1", "y2=x3-2", "p=-1/4,q=1/4", "p=1/3,q=-13/12"],
    )
    def test_same_verdict_as_plain_route(self, curve, P, monkeypatch):
        import planecubic.cremona as cremona

        calls = []
        real = cremona.reduce_on_cubic
        monkeypatch.setattr(
            cremona, "reduce_on_cubic", lambda *a: calls.append(a) or real(*a)
        )
        cubic = curve.equation
        for scale in (1, Fraction(-3, 2)):  # a scaled equation is Weierstrass too
            for f, expected in dec_and_non_dec_maps(curve, P):
                assert plain_divisibility(f, cubic * scale) == expected
                assert is_in_dec(f, cubic * scale) == expected
        assert len(calls) == 2 * len(dec_and_non_dec_maps(curve, P))

    def test_non_weierstrass_cubic_takes_the_plain_route(self, monkeypatch):
        # y -> y + z conjugates Dec(C) to Dec(C o L)
        import planecubic.cremona as cremona

        monkeypatch.setattr(cremona, "reduce_on_cubic", None)
        L, L_inv = CremonaMap([x, y + z, z]), CremonaMap([x, y - z, z])
        cubic = substitute(CURVE.equation, L.components)
        for f, expected in dec_and_non_dec_maps(CURVE, P):
            g = compose(L_inv, compose(f, L))
            assert is_in_dec(g, cubic) == plain_divisibility(g, cubic) == expected


class TestInertia:
    def test_pair_witness_fixes_samples_but_is_identity(self):
        # phi_{-S} is the exact inverse of phi_S, so the pair composite
        # collapses to the identity; the acceptance suite records the
        # expected-nontrivial claim as a known failure
        w = inertia_witness(CURVE, P, P)
        for pt in default_samples(CURVE, 6):
            img = w.apply(to_projective(pt))
            assert img is None or img == to_projective(pt)
        assert w.is_identity

    def test_triple_witness_is_nontrivial_inertia(self):
        w = inertia_witness_triple(CURVE, P, Q)
        assert w.degree > 1
        assert not w.is_identity
        fixed = 0
        for pt in default_samples(CURVE, 6):
            img = w.apply(to_projective(pt))
            if img is not None:
                assert img == to_projective(pt)
                fixed += 1
        assert fixed >= 3

    def test_neutral_arguments_rejected(self):
        from planecubic.elliptic import O

        with pytest.raises(CremonaError):
            inertia_witness(CURVE, P, O)
        with pytest.raises(CremonaError):
            inertia_witness(CURVE, P, neg(CURVE, P))  # P + Q = O


class TestDecForestIncidence:
    """Dec members of degree > 1 have their whole bubble forest on the cubic."""

    def test_second_curve_instance(self):
        curve = WeierstrassCurve(0, -2)
        g = translation_map(curve, CurvePoint.affine(3, 5))
        assert is_in_dec(g, curve.equation)
        forest = base_forest(g, cubic=curve.equation)
        assert all(n.on_cubic for n in forest)
        assert all(n.on_cubic for n in forest.roots())
