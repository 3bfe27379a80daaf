import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecubic.cli import EX_OK, EX_VERIFY, main
from planecubic.cremona import CremonaMap, base_forest
from planecubic.elliptic import CurvePoint, WeierstrassCurve, translation_map
from planecubic.sarkisov import (
    EngineError,
    FactorizationState,
    SarkisovTrace,
    StepCapExceeded,
    StuckState,
    TrackedPoint,
    apply_link,
    factorize,
    jonquieres_centers,
    next_link,
    plane_state,
    state_from_map,
)
from planecubic.surfaces import SurfaceError, SurfaceModel, canonical_class

CURVE = WeierstrassCurve(0, 1)
P = CurvePoint.affine(2, 3)


def neg_k(model):
    return tuple(-c for c in canonical_class(model))


def hirz_state(n, system, points, cubic_cls):
    return FactorizationState(
        SurfaceModel.hirzebruch(n),
        tuple(system),
        tuple(points),
        tuple(cubic_cls),
        next_id=max((p.id for p in points), default=-1) + 1,
    )


class TestQuadraticOracle:
    """(2;1,1,1) against the hand lattice computation."""

    def test_all_points_on_cubic(self):
        trace = factorize(plane_state(2, [(1, True), (1, True), (1, True)]))
        assert trace.kinds() == ["I", "II", "II", "III"]
        assert trace.all_vp
        # hand computation: systems and boundary classes after each link
        expected = [
            (SurfaceModel.hirzebruch(1), (2, 1), (3, 2)),
            (SurfaceModel.hirzebruch(0), (1, 1), (2, 2)),
            (SurfaceModel.hirzebruch(1), (1, 1), (3, 2)),
            (SurfaceModel.plane(), (1,), (3,)),
        ]
        got = [(s.model, s.system, s.cubic) for s in trace.states]
        assert got == expected
        assert all(s.cubic == neg_k(s.model) for s in trace.states)

    def test_one_point_off_cubic_flips_vp(self):
        trace = factorize(plane_state(2, [(1, True), (1, True), (1, False)]))
        assert trace.kinds() == ["I", "II", "II", "III"]
        assert not trace.all_vp
        flags = [l.vp for l in trace.links]
        assert False in flags
        # the elementary transformation centered at the off-cubic point
        off_link = trace.links[2]
        assert off_link.kind == "II" and off_link.vp is False
        assert off_link.case_tag == "off-cubic"

    def test_case_tags_on_cubic(self):
        trace = factorize(plane_state(2, [(1, True), (1, True), (1, True)]))
        assert [l.case_tag for l in trace.links if l.kind == "II"] == [3, 1]


class TestElementaryTransform:
    def test_off_section_drops_n(self):
        st = hirz_state(2, (4, 2), [TrackedPoint(0, 2, True)], cubic_cls=(4, 2))
        link, new = apply_link(st, "II", 0)
        assert new.model == SurfaceModel.hirzebruch(1)
        assert new.system == (2, 2)
        assert new.points == ()  # b - m = 0: no new point
        assert new.cubic == (3, 2) == neg_k(new.model)
        assert link.vp and link.case_tag == 3

    def test_on_section_raises_n(self):
        st = hirz_state(
            1, (3, 1),
            [TrackedPoint(0, 1, True, on_negative_section=True)],
            cubic_cls=(3, 2),
        )
        link, new = apply_link(st, "II", 0)
        assert new.model == SurfaceModel.hirzebruch(2)
        assert new.system == (3, 1)
        assert new.cubic == (4, 2) == neg_k(new.model)
        assert link.case_tag == 1

    def test_new_point_mult_is_b_minus_m(self):
        st = hirz_state(1, (3, 2), [TrackedPoint(0, 1, True)], cubic_cls=(3, 2))
        link, new = apply_link(st, "II", 0)
        assert new.system == (2, 2)
        assert len(new.points) == 1
        q = new.points[0]
        assert q.mult == 1  # b - m = 2 - 1
        assert q.on_cubic  # contracted fiber meets the boundary once
        assert link.vp

    def test_off_cubic_center_not_vp_and_singular_image(self):
        st = hirz_state(1, (3, 2), [TrackedPoint(0, 1, False)], cubic_cls=(3, 2))
        link, new = apply_link(st, "II", 0)
        assert not link.vp
        assert link.case_tag == "off-cubic"
        # C-check . fiber = 2: the image of C is no longer anticanonical
        assert new.cubic == (3, 2) != neg_k(new.model)

    def test_tangent_with_chain_unsupported(self):
        st = hirz_state(
            1, (3, 2),
            [TrackedPoint(0, 1, True, fiber_tangent_to_cubic=True,
                          children=(TrackedPoint(-1, 1, True),))],
            cubic_cls=(3, 2),
        )
        with pytest.raises(EngineError):
            apply_link(st, "II", 0)

    def test_plane_rejected(self):
        with pytest.raises(EngineError):
            apply_link(plane_state(2, [(1, True)]), "II", 0)


class TestLinkIII:
    def test_anticanonical_system(self):
        st = hirz_state(1, (3, 2), [], cubic_cls=(3, 2))
        link, new = apply_link(st, "III")
        assert new.model.is_plane and new.system == (3,)
        assert len(new.points) == 1 and new.points[0].mult == 1
        assert new.points[0].on_cubic
        assert link.vp  # C.E = 3 - 2 = 1

    def test_low_system(self):
        st = hirz_state(1, (2, 1), [], cubic_cls=(3, 2))
        _, new = apply_link(st, "III")
        assert new.system == (2,) and new.points[0].mult == 1

    def test_balanced_system_no_new_point(self):
        st = hirz_state(1, (2, 2), [], cubic_cls=(3, 2))
        _, new = apply_link(st, "III")
        assert new.system == (2,) and new.points == ()

    def test_wrong_model_rejected(self):
        with pytest.raises(EngineError):
            apply_link(hirz_state(2, (3, 2), [], cubic_cls=(4, 2)), "III")


class TestLinkIV:
    def test_swap(self):
        st = hirz_state(0, (3, 1), [], cubic_cls=(2, 2))
        link, new = apply_link(st, "IV")
        assert new.system == (1, 3)
        assert new.model == SurfaceModel.hirzebruch(0)
        assert link.vp

    def test_triggered_then_stuck(self):
        # a < b: the swap lowers the Sarkisov degree b/2 to a/2; after it
        # a > b with nothing to do is stuck, so the swap never repeats
        st = hirz_state(0, (1, 3), [], cubic_cls=(2, 2))
        link, new = next_link(st)
        assert link.kind == "IV"
        assert new.system == (3, 1) and new.degree < st.degree
        with pytest.raises(StuckState):
            next_link(new)


class TestApplyLink:
    @pytest.mark.parametrize("kind", ["V", "ii", None])
    def test_unknown_kind_rejected(self, kind):
        st = hirz_state(1, (3, 2), [TrackedPoint(0, 1, True)], cubic_cls=(3, 2))
        with pytest.raises(EngineError, match="unknown link kind"):
            apply_link(st, kind, 0)

    @pytest.mark.parametrize("n, kind", [(1, "III"), (0, "IV")])
    def test_center_rejected_where_the_link_has_none(self, n, kind):
        model = SurfaceModel.hirzebruch(n)
        st = hirz_state(n, (1, 3), [TrackedPoint(0, 1, True)], cubic_cls=neg_k(model))
        with pytest.raises(EngineError, match=f"type {kind} link has no center"):
            apply_link(st, kind, 0)
        assert apply_link(st, kind)[0].center is None

    def test_start_model_checked_before_the_center(self):
        # on F_1 a type I link fails on its model, not on the missing point
        st = hirz_state(1, (3, 2), [], cubic_cls=(3, 2))
        with pytest.raises(EngineError, match=r"type I link starts on P\^2"):
            apply_link(st, "I", 99)


class TestPlaneState:
    @pytest.mark.parametrize(
        "degree, points",
        [
            (2.9, [(1.5, "no"), (1, True), (1, True)]),
            (2.0, [(1, True), (1, True), (1, True)]),
            (True, []),
            (2, [(1.5, True), (1, True), (1, True)]),
            (2, [(1, "no"), (1, True), (1, True)]),
            (2, [(1, 1), (1, True), (1, True)]),
            (2, [(1, True, [(1.0, True)]), (1, True)]),
        ],
        ids=["float-degree-and-point", "float-degree", "bool-degree", "float-mult",
             "string-flag", "int-flag", "float-child"],
    )
    def test_no_cast(self, degree, points):
        # a cast would read 2.9 as 2, 1.5 as 1 and "no" as on the cubic
        with pytest.raises(EngineError):
            plane_state(degree, points)

    @pytest.mark.parametrize(
        "degree, points",
        [(0, []), (-1, []), (2, [(0, True), (1, True), (1, True)]),
         (2, [(1, True, [(-1, False)]), (1, True)])],
        ids=["degree-0", "degree-negative", "mult-0", "child-mult-negative"],
    )
    def test_below_1_rejected(self, degree, points):
        with pytest.raises(EngineError):
            plane_state(degree, points)

    def test_ints_and_bools_kept(self):
        st = plane_state(2, [(1, True, [(1, False)]), (1, False)])
        assert st.system == (2,) and st.next_id == 2
        assert [(p.id, p.mult, p.on_cubic) for p in st.points] == [(0, 1, True), (1, 1, False)]
        assert st.points[0].children == (TrackedPoint(-1, 1, False),)


class TestTranslationMapRun:
    def test_full_pipeline(self):
        f = translation_map(CURVE, P)
        trace = factorize(f, CURVE)
        assert trace.kinds() == ["I"] + ["II"] * 6 + ["III"]
        assert trace.all_vp
        allowed = {
            SurfaceModel.plane(),
            SurfaceModel.hirzebruch(0),
            SurfaceModel.hirzebruch(1),
            SurfaceModel.hirzebruch(2),
        }
        assert {s.model for s in trace.states} <= allowed
        assert all(s.cubic == neg_k(s.model) for s in trace.states)
        assert trace.final.system == (1,)
        assert trace.lints == ()

    def test_enrichment_structure(self):
        st = state_from_map(translation_map(CURVE, P), CURVE)
        assert st.system == (4,)
        mults = sorted(p.mult for p in st.points)
        assert mults == [1, 3]
        chain_root = next(p for p in st.points if p.mult == 1)
        depth = 0
        node = chain_root
        while node.children:
            assert len(node.children) == 1
            node = node.children[0]
            depth += 1
        assert depth == 5

    def test_identity_empty_trace(self):
        trace = factorize(CremonaMap.identity(), CURVE)
        assert trace.kinds() == [] and trace.all_vp

    def test_first_link_at_max_mult_point(self):
        trace = factorize(translation_map(CURVE, P), CURVE)
        first = trace.links[0]
        assert first.kind == "I"
        assert trace.initial.point(first.center).mult == 3


def _words(curve, G):
    """The four degree-10 Dec words of one curve, with sigma = (x : -y : z),
    and the degree-4 words phi_G, sigma phi_G and phi_G sigma."""
    from planecubic.cremona import compose
    from planecubic.elliptic import add, neg
    from planecubic.exact import variables

    x, y, z = variables(3)
    sigma = CremonaMap([x, -y, z])
    G2 = add(curve, G, G)
    phi_g, phi_2g = translation_map(curve, G), translation_map(curve, G2)
    degree_10 = [
        compose(phi_g, phi_g),
        compose(translation_map(curve, neg(curve, G)), phi_2g),
        compose(phi_g, translation_map(curve, neg(curve, G2))),
        compose(phi_2g, compose(sigma, phi_g)),
    ]
    degree_4 = [phi_g, compose(sigma, phi_g), compose(phi_g, sigma)]
    return degree_10, degree_4


WORD_CURVES = [
    (WeierstrassCurve(0, -2), CurvePoint.affine(3, 5)),
    (WeierstrassCurve(-1, 1), CurvePoint.affine(1, 1)),
    (WeierstrassCurve(0, 17), CurvePoint.affine(-1, 4)),
]
KINDS_4 = ["I"] + ["II"] * 6 + ["III"]
KINDS_10 = ["I"] + ["II"] * 7 + ["IV"] + ["II"] * 7 + ["III"]
KINDS_22 = ["I"] + ["II"] * 7 + ["IV"] + ["II"] * 8 + ["IV"] + ["II"] * 7 + ["III"]


def check_vp_trace(trace, kinds):
    assert trace.kinds() == kinds
    assert trace.all_vp and trace.lints == () and trace.final.system == (1,)
    assert {s.model for s in trace.states} <= {
        SurfaceModel.plane(), SurfaceModel.hirzebruch(0), SurfaceModel.hirzebruch(1)
    }
    assert all(s.cubic == neg_k(s.model) for s in trace.states)


class TestDecWordsFinish:
    """Dec elements of degree 10 and 22 factorize with every link volume
    preserving: on F0 the rulings swap when a < b, which lowers the Sarkisov
    degree, and an elementary transformation from F0 leaves the other points
    off the new negative section."""

    @pytest.mark.parametrize("curve, G", WORD_CURVES, ids=["x3-2", "x3-x+1", "x3+17"])
    def test_words(self, curve, G):
        degree_10, degree_4 = _words(curve, G)
        for f in degree_10:
            assert f.degree == 10
            check_vp_trace(factorize(f, curve), KINDS_10)
        for f in degree_4:
            check_vp_trace(factorize(f, curve), KINDS_4)

    def test_composite10(self):
        # phi_2G o phi_G on y^2 = x^3 - 2, the benchmark's composite10 shape
        from planecubic.cremona import compose
        from planecubic.elliptic import add
        from planecubic.jsonio import map_to_json

        curve, G = WORD_CURVES[0]
        f = compose(translation_map(curve, add(curve, G, G)), translation_map(curve, G))
        check_vp_trace(factorize(f, curve), KINDS_10)
        out = io.StringIO()
        payload = {"curve": {"p": "0", "q": "-2"}, "map": map_to_json(f)}
        code = main(["vp-verify"], stdin=io.StringIO(json.dumps(payload)), stdout=out)
        report = json.loads(out.getvalue())
        assert code == EX_OK and report["ok"] and report["links"] == len(KINDS_10) == 17

    def test_degree_22_triple(self):
        from planecubic.cremona import inertia_witness_triple
        from planecubic.elliptic import add

        curve, G = WORD_CURVES[0]
        trace = factorize(inertia_witness_triple(curve, G, add(curve, G, G)), curve)
        assert trace.initial.system == (22,) and len(KINDS_22) == 26
        check_vp_trace(trace, KINDS_22)


class TestStuckAndCap:
    def test_plane_without_points(self):
        with pytest.raises(StuckState):
            next_link(plane_state(2, []))

    def test_plane_point_below_degree(self):
        with pytest.raises(StuckState):
            next_link(plane_state(4, [(1, True)]))

    def test_f2_without_big_points(self):
        st = hirz_state(2, (2, 2), [], cubic_cls=(4, 2))
        with pytest.raises(StuckState):
            next_link(st)

    def test_step_cap(self):
        # (2; 1, 1, 1) needs the four links I II II III: a cap of 3 stops it
        with pytest.raises(StepCapExceeded):
            factorize(plane_state(2, [(1, True)] * 3), step_cap=3)

    @pytest.mark.parametrize(
        "degree, points",
        [(1, [(5, True)]), (2, [(1, True)]), (2, [(1, True, [(1, True)]), (1, True), (1, True)])],
        ids=["d1-mult5", "d2-one-point", "d2-extra-child"],
    )
    def test_non_homaloidal_start_is_refused(self, degree, points):
        # (1; 5) used to run no link and report all_vp; (2; 1) ran into the cap
        with pytest.raises(EngineError, match="equations of condition"):
            factorize(plane_state(degree, points))

    def test_terminal_state_has_no_next_link(self):
        with pytest.raises(EngineError):
            next_link(plane_state(1, []))


class TestLints:
    def test_bare_type_iii_flagged(self):
        st = hirz_state(1, (1, 1), [], cubic_cls=(3, 2))
        trace = factorize(st)
        assert trace.kinds() == ["III"]
        assert any("type III" in lint for lint in trace.lints)

    def test_opening_type_iv_flagged(self):
        trace = factorize(f0_opening_with_iv())
        assert trace.kinds() == ["IV", "II", "II", "II", "III"]
        assert trace.lints == ("link 0: type IV not preceded by type II",)
        assert trace.all_vp and trace.final.system == (1,)
        assert all(s.cubic == neg_k(s.model) for s in trace.states)


def f0_opening_with_iv():
    """F_0 with the system F + 2E through three points of multiplicity 1 on
    C: none is above the degree 2/2, and 1 < 2, so the rulings swap first
    (the degree drops to 1/2) before any link at a point.  The class is
    homaloidal: D^2 - sum m^2 = 4 - 3 = 1 and -K.D - sum m = 6 - 3 = 3."""
    return hirz_state(0, (1, 2), [TrackedPoint(i, 1, True) for i in range(3)], (2, 2))


class TestJonquieres:
    def test_translation_trace_single_block(self):
        trace = factorize(translation_map(CURVE, P), CURVE)
        rep = jonquieres_centers(trace)
        assert rep.grouped
        assert len(rep.centers) == 1
        center_id, on_cubic = rep.centers[0]
        assert on_cubic
        assert trace.initial.point(center_id).mult == 3

    def test_quadratic_trace_single_block(self):
        trace = factorize(plane_state(2, [(1, True), (1, True), (1, True)]))
        rep = jonquieres_centers(trace)
        assert rep.grouped and len(rep.centers) == 1
        assert rep.centers[0][1] is True

    def test_empty_trace(self):
        trace = factorize(plane_state(1, []))
        rep = jonquieres_centers(trace)
        assert rep.grouped and rep.centers == ()

    def test_ungrouped_fallback(self):
        trace = factorize(plane_state(2, [(1, True), (1, True), (1, True)]))
        broken = SarkisovTrace(
            links=trace.links[:-1],  # drop the closing III
            all_vp=True,
            initial=trace.initial,
            final=trace.states[-2],
        )
        rep = jonquieres_centers(broken)
        assert not rep.grouped
        assert len(rep.centers) == 3  # every I/II center reported flat

    def test_trace_opening_with_type_iv(self):
        # no I (II)* III block opens the trace: every II center, in order
        rep = jonquieres_centers(factorize(f0_opening_with_iv()))
        assert not rep.grouped
        assert rep.centers == ((0, True), (1, True), (2, True))


KIND_MODELS = {
    "I": ("P2", "F1"),
    "II": ("Fn", "Fn+-1"),
    "III": ("F1", "P2"),
    "IV": ("F0", "F0"),
}


def check_kind_model_compatibility(trace):
    prev = trace.initial.model
    for link in trace.links:
        assert link.from_model == prev
        if link.kind == "I":
            assert link.from_model.is_plane
            assert link.to_model == SurfaceModel.hirzebruch(1)
        elif link.kind == "II":
            assert not link.from_model.is_plane and not link.to_model.is_plane
            assert abs(link.from_model.n - link.to_model.n) == 1
        elif link.kind == "III":
            assert link.from_model == SurfaceModel.hirzebruch(1)
            assert link.to_model.is_plane
        elif link.kind == "IV":
            assert link.from_model == link.to_model == SurfaceModel.hirzebruch(0)
        prev = link.to_model
    assert prev == trace.final.model


def remaining_mult_total(state):
    def pending(point):
        return point.mult + sum(pending_child(c) for c in point.children)

    def pending_child(c):
        return c.mult + sum(pending_child(k) for k in c.children)

    return sum(pending(p) for p in state.points)


class TestTraceInvariants:
    def test_kind_model_chaining(self):
        for trace in (
            factorize(translation_map(CURVE, P), CURVE),
            factorize(plane_state(2, [(1, True), (1, True), (1, True)])),
            factorize(plane_state(2, [(1, True), (1, True), (1, False)])),
        ):
            check_kind_model_compatibility(trace)

    def test_type_ii_strictly_decreases_remaining_multiplicity(self):
        trace = factorize(translation_map(CURVE, P), CURVE)
        states = [trace.initial] + list(trace.states)
        for link, before, after in zip(trace.links, states, states[1:]):
            if link.kind in ("I", "II"):
                assert remaining_mult_total(after) < remaining_mult_total(before)


def _forest_case(pt):
    """phi_pt's base forest as plane_state specs, any subset set off the cubic."""
    phi = translation_map(CURVE, pt)
    forest = base_forest(phi, cubic=CURVE.equation)
    assert all(n.on_cubic for n in forest) and len(forest) == 7
    by_parent = {}
    for n in forest:
        by_parent.setdefault(n.parent, []).append(n)

    def specs(off):
        def spec(node):
            kids = [spec(k) for k in by_parent.get(node.id, ())]
            return (node.mult, node.id not in off, kids)

        return [spec(r) for r in forest.roots()]

    return phi.degree, [n.id for n in forest], specs, factorize(phi, CURVE)


def _quadratic_case():
    return 2, [0, 1, 2], lambda off: [(1, i not in off) for i in range(3)], None


class TestOffCubicExhaustive:
    """Every subset of base points set off the cubic: the link sequence is
    unchanged, the trace is volume preserving iff the subset is empty, and
    the boundary stays anticanonical until the first non-VP link."""

    @pytest.mark.parametrize(
        "case",
        [lambda: _forest_case(P), lambda: _forest_case(CurvePoint.affine(0, 1)),
         _quadratic_case],
        ids=["phi_(2,3)", "phi_(0,1)", "(2;1,1,1)"],
    )
    def test_every_subset(self, case):
        degree, ids, specs, from_map = case()

        def sequence(trace):
            return [(l.kind, l.center, l.system_after) for l in trace.links]

        base = factorize(plane_state(degree, specs(frozenset())))
        if from_map is not None:
            assert [(l.kind, l.system_after) for l in base.links] == [
                (l.kind, l.system_after) for l in from_map.links
            ]
        for mask in range(1 << len(ids)):
            off = frozenset(i for k, i in enumerate(ids) if mask >> k & 1)
            trace = factorize(plane_state(degree, specs(off)))
            assert sequence(trace) == sequence(base)
            assert trace.all_vp == (not off)
            first_bad = next(
                (i for i, l in enumerate(trace.links) if not l.vp), len(trace.links)
            )
            states = [trace.initial] + list(trace.states)
            for s in states[: first_bad + 1]:
                assert s.cubic == neg_k(s.model)


# homaloidal types whose enriched plane states finish under every on_cubic pattern
PLANE_TYPES = [
    (2, (1,) * 3),
    (3, (2,) + (1,) * 4),
    (4, (3,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 3),
    (5, (4,) + (1,) * 8),
]


@settings(max_examples=50, deadline=None, database=None)
@given(st.data())
def test_vp_links_iff_boundary_stays_anticanonical(data):
    """The per-link vp flags and the boundary class are two routes to one
    verdict: a trace from P^2 is all vp exactly when C stays -K, and vp-verify
    reports the routes agreeing."""
    degree, mults = data.draw(st.sampled_from(PLANE_TYPES))
    flags = data.draw(st.lists(st.booleans(), min_size=len(mults), max_size=len(mults)))
    points = data.draw(st.permutations(list(zip(mults, flags))))
    trace = factorize(plane_state(degree, points))
    assert trace.all_vp == all(s.cubic == neg_k(s.model) for s in trace.states)

    state = {"degree": degree, "points": [{"mult": m, "on_cubic": c} for m, c in points]}
    out = io.StringIO()
    code = main(["vp-verify"], stdin=io.StringIO(json.dumps({"state": state})), stdout=out)
    report = json.loads(out.getvalue())
    assert report["routes_agree"] is True
    assert report["ok"] == trace.all_vp
    assert code == (EX_OK if trace.all_vp else EX_VERIFY)


# -- engine corpus pin ----------------------------------------------------------


def _noether_types(max_degree):
    """Every (d, mults) with 2 <= d <= max_degree solving Noether's equations."""

    def parts(n, top):
        if n == 0:
            yield ()
            return
        for k in range(min(n, top), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest

    return [
        (d, p)
        for d in range(2, max_degree + 1)
        for p in parts(3 * d - 3, d - 1)
        if sum(m * m for m in p) == d * d - 1
    ]


def _nested_plane_state(rng, degree, mults):
    """A plane state of the type, some points infinitely near an earlier
    point of no smaller multiplicity, each on or off the cubic at random."""
    specs = [[m, rng.random() < 0.7, []] for m in mults]
    roots = []
    for i, spec in enumerate(specs):
        if i and rng.random() < 0.3:
            rng.choice(specs[:i])[2].append(spec)
        else:
            roots.append(spec)
    rng.shuffle(roots)
    return plane_state(degree, roots)


def _arbitrary_state(rng):
    """Any model, system, boundary class and flags: most of these stop with
    an error, which is what the pin records for them."""
    n = rng.choice([None, 0, 0, 1, 1, 2, 3])
    model = SurfaceModel.plane() if n is None else SurfaceModel.hirzebruch(n)

    def point(pid, depth):
        kids = ()
        if depth < 2 and rng.random() < 0.3:
            kids = tuple(point(-1, depth + 1) for _ in range(rng.randrange(1, 3)))
        return TrackedPoint(
            pid, rng.randrange(-1, 6), rng.random() < 0.6,
            rng.random() < 0.3, rng.random() < 0.2, kids,
        )

    points = tuple(point(pid, 0) for pid in range(rng.randrange(5)))
    if rng.random() < 0.6:
        cubic = neg_k(model)
    else:
        cubic = tuple(rng.randrange(-2, 7) for _ in range(model.rank))
    system = tuple(rng.randrange(-1, 9) for _ in range(model.rank))
    return FactorizationState(model, system, points, cubic, rng.randrange(3), len(points))


def _state_line(state):
    return repr((state.model, state.system, state.cubic, state.step,
                 state.next_id, state.points))


def _error_line(e):
    return f"{type(e).__name__}: {e}"


def _run_lines(state, cap=40):
    """The state, then each link and state the flowchart takes from it, then
    how the run ended."""
    lines = [_state_line(state)]
    for _ in range(cap):
        if state.is_terminal:
            lines.append("terminal")
            break
        try:
            link, state = next_link(state)
        except (EngineError, SurfaceError) as e:
            lines.append(_error_line(e))
            break
        lines += [repr(link), _state_line(state)]
    else:
        lines.append("cap")
    return lines


def _update_lines(state):
    """Every link update applied directly, at every point id and a missing one."""
    ids = [p.id for p in state.points] + [99]
    calls = [("III",), ("IV",)] + [(kind, pid) for kind in ("I", "II") for pid in ids]
    lines = []
    for args in calls:
        try:
            link, new = apply_link(state, *args)
        except (EngineError, SurfaceError) as e:
            lines.append(_error_line(e))
        else:
            lines += [repr(link), _state_line(new)]
    return lines


def _corpus_lines():
    rng = random.Random(20261019)
    lines = []
    for degree, mults in _noether_types(9):
        for _ in range(12):
            lines += _run_lines(_nested_plane_state(rng, degree, mults))
    for _ in range(800):
        state = _arbitrary_state(rng)
        lines += _run_lines(state) + _update_lines(state)
    return lines


class TestEngineCorpusPin:
    """The engine's full traces over a seeded corpus, pinned by sha256: every
    link, every state with all point flags, and every error's type and
    message.  The corpus is each solution of Noether's equations with
    d <= 9 under random nesting and on_cubic flags, plus arbitrary states
    driven through the flowchart and through each link update directly."""

    DIGEST = "6193ddda6273c8b8a83e54320223c2cb1d3ff19afc68b741157546a50181fb31"

    def test_noether_types(self):
        types = _noether_types(9)
        assert len(types) == 63 and (4, (3,) + (1,) * 6) in types

    def test_digest(self):
        digest = hashlib.sha256("\n".join(_corpus_lines()).encode()).hexdigest()
        assert digest == self.DIGEST
