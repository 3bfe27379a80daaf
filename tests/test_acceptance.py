"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All assertions are exact (tolerance zero).  Run with `pytest -s` to see the
lines as they happen; without -s they appear for failing criteria only.

Criterion 5 is expected to fail: the composite phi_{P+Q} o phi_{-(P+Q)} it
asks about is the exact polynomial identity, because phi_{-S} is the exact
inverse of phi_S (see test_cremona.TestInertia).  The criterion is kept as
stated; inertia_witness_triple is the construction that really is nontrivial.
"""

import random
from fractions import Fraction

from planecubic.cremona import (
    HomaloidalType,
    base_forest,
    compose,
    composition_degree,
    homaloidal_type,
    inertia_witness,
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
from planecubic.exact import (
    common_zeros_plane,
    mult_at,
    normalize_point,
    poly_divide,
    substitute,
)
from planecubic.sarkisov import factorize, plane_state
from planecubic.surfaces import (
    SurfaceModel,
    blowup_vp,
    canonical_class,
    intersect,
    is_mf_cy_admissible,
)

from _oracles import chord_reflect

TORSION = WeierstrassCurve(0, 1)
T_P = CurvePoint.affine(2, 3)
T_Q = CurvePoint.affine(0, 1)

RANK1 = WeierstrassCurve(0, -2)
G = CurvePoint.affine(3, 5)


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_translation_pipeline():
    f = translation_map(TORSION, T_P)
    forest = base_forest(f, cubic=TORSION.equation)
    checks = {}
    checks["degree 4"] = f.degree == 4
    bs = common_zeros_plane(list(f.components))
    checks["Bs = {P, O}"] = set(bs) == {
        normalize_point((2, 3, 1)),
        normalize_point((0, 1, 0)),
    }
    proper = {n.point: n.mult for n in forest.roots()}
    checks["multiplicities (3,1)"] = (
        proper[normalize_point((2, 3, 1))] == 3
        and proper[normalize_point((0, 1, 0))] == 1
    )
    checks["type (4;3,1^6)"] = homaloidal_type(f, forest) == HomaloidalType(
        4, (3, 1, 1, 1, 1, 1, 1)
    )
    depths = [n.level for n in forest]
    checks["chain of length 5 over O"] = sorted(depths) == [0, 0, 1, 2, 3, 4, 5]
    checks["all nodes on the cubic"] = all(n.on_cubic for n in forest)
    report(1, "translation-map pipeline on y^2 = x^3 + 1, P = (2,3)",
           all(checks.values()), str(checks))


def test_criterion_02_dec_membership():
    f = translation_map(RANK1, G)
    pull = substitute(RANK1.equation, f.components)
    quo, ok = poly_divide(pull, RANK1.equation)
    divisible = ok and quo.degree == 9

    samples = [pt for pt in default_samples(RANK1, 12) if pt != G]
    translated = 0
    for pt in samples:
        img = f.apply(to_projective(pt))
        if img != to_projective(add(RANK1, pt, G)):
            break
        translated += 1
    enough = translated >= 10
    member = is_in_dec(f, RANK1.equation)
    report(2, "Dec membership: exact divisibility + restriction = T_P on >= 10 points",
           divisible and enough and member,
           f"quotient_deg_9={divisible}, samples_translated={translated}, is_in_dec={member}")


def test_criterion_03_composition_degree():
    fP = translation_map(TORSION, T_P)
    fQ = translation_map(TORSION, T_Q)
    symbolic = compose(fQ, fP).degree
    shared = shared_base_pairs(
        base_forest(fP, cubic=TORSION.equation),
        base_forest(fQ, cubic=TORSION.equation),
    )
    formula = composition_degree(homaloidal_type(fP), homaloidal_type(fQ), shared)
    report(3, "deg(phi_Q o phi_P) = 10 symbolically and by the degree formula",
           symbolic == 10 and formula == 10 and shared == [(1, 1)] * 6,
           f"symbolic={symbolic}, formula={formula}, shared={shared}")


def test_criterion_04_non_splitting():
    fP = translation_map(TORSION, T_P)
    fQ = translation_map(TORSION, T_Q)
    composite_deg = compose(fQ, fP).degree
    sum_deg = translation_map(TORSION, add(TORSION, T_Q, T_P)).degree
    report(4, "deg(phi_Q o phi_P) != deg(phi_{Q+P}) = 4",
           composite_deg == 10 and sum_deg == 4 and composite_deg != sum_deg,
           f"composite={composite_deg}, direct={sum_deg}")


def test_criterion_05_inertia_witness():
    # the composite is phi_S o phi_R with S = P+Q, R = -S, as specified
    P, Q = G, multiple(RANK1, 2, G)
    w = inertia_witness(RANK1, P, Q)
    S = add(RANK1, P, Q)
    fixed = 0
    for pt in default_samples(RANK1, 12):
        img = w.apply(to_projective(pt))
        if img is None:
            continue
        if img != to_projective(pt):
            break
        fixed += 1
    fixes = fixed >= 10
    non_identity = not w.is_identity
    report(5, "inertia witness fixes >= 10 curve points and is not the identity",
           fixes and non_identity,
           f"fixed={fixed}, non_identity={non_identity} "
           "[known failure: phi_{-S} is the exact inverse of phi_S, so this "
           "composite IS the identity; inertia_witness_triple is the "
           "nontrivial construction]")


def test_criterion_06_sarkisov_positive():
    f = translation_map(TORSION, T_P)
    trace = factorize(f, TORSION)
    allowed = {
        SurfaceModel.plane(),
        SurfaceModel.hirzebruch(0),
        SurfaceModel.hirzebruch(1),
        SurfaceModel.hirzebruch(2),
    }
    neg_k = lambda m: tuple(-c for c in canonical_class(m))
    checks = {
        "terminates": trace.final.is_terminal,
        "all links vp": trace.all_vp,
        "models in {P2, F0, F1, F2}": {s.model for s in trace.states} <= allowed,
        "cubic class = -K throughout": all(
            s.cubic == neg_k(s.model) for s in trace.states
        ),
    }
    report(6, "Sarkisov engine on phi_P: terminating, all vp, admissible models, CY",
           all(checks.values()), str(checks))


def test_criterion_07_sarkisov_oracle():
    on_c = factorize(plane_state(2, [(1, True), (1, True), (1, True)]))
    hand = [
        (SurfaceModel.hirzebruch(1), (2, 1), (3, 2)),
        (SurfaceModel.hirzebruch(0), (1, 1), (2, 2)),
        (SurfaceModel.hirzebruch(1), (1, 1), (3, 2)),
        (SurfaceModel.plane(), (1,), (3,)),
    ]
    matches = [(s.model, s.system, s.cubic) for s in on_c.states] == hand
    kinds_ok = on_c.kinds() == ["I", "II", "II", "III"] and on_c.all_vp
    off_c = factorize(plane_state(2, [(1, True), (1, True), (1, False)]))
    flipped = not off_c.all_vp and False in [l.vp for l in off_c.links]
    report(7, "(2;1,1,1) trace matches the hand lattice computation; off-cubic flips vp",
           kinds_ok and matches and flipped,
           f"kinds={on_c.kinds()}, lattice_match={matches}, off_cubic_flip={flipped}")


def test_criterion_08_noether_equations():
    pos = noether_check(HomaloidalType(4, (3, 1, 1, 1, 1, 1, 1))) and noether_check(
        HomaloidalType(4, (2, 2, 2, 1, 1, 1))
    )
    rng = random.Random(2024)
    rejected = 0
    tested = 0
    while tested < 50:
        d = rng.randint(2, 9)
        r = rng.randint(1, 9)
        mults = tuple(sorted((rng.randint(1, d - 1) for _ in range(r)), reverse=True))
        if sum(mults) == 3 * d - 3 and sum(m * m for m in mults) == d * d - 1:
            continue  # accidentally homaloidal
        tested += 1
        if not noether_check(HomaloidalType(d, mults)):
            rejected += 1
    report(8, "Noether equations: both degree-4 types pass, 50 random non-homaloidal fail",
           pos and rejected == 50, f"positives={pos}, rejected={rejected}/50")


def test_criterion_09_group_law_suite():
    rng = random.Random(512)
    pool = default_samples(RANK1, 14) + [neg(RANK1, pt) for pt in default_samples(RANK1, 4)]
    ok_assoc = ok_comm = ok_inv = ok_oracle = 0
    for _ in range(100):
        P, Q, R = (rng.choice(pool) for _ in range(3))
        if add(RANK1, add(RANK1, P, Q), R) == add(RANK1, P, add(RANK1, Q, R)):
            ok_assoc += 1
        if add(RANK1, P, Q) == add(RANK1, Q, P):
            ok_comm += 1
        if add(RANK1, P, neg(RANK1, P)).is_infinity:
            ok_inv += 1
        if (
            add(RANK1, P, Q) == chord_reflect(RANK1, P, Q)
            and add(RANK1, Q, R) == chord_reflect(RANK1, Q, R)
        ):
            ok_oracle += 1
    report(9, "group-law axioms and chord-and-reflect oracle on 100 seeded triples",
           ok_assoc == ok_comm == ok_inv == ok_oracle == 100,
           f"assoc={ok_assoc}, comm={ok_comm}, inv={ok_inv}, oracle={ok_oracle}")


def test_criterion_10_lattice_identities():
    minus_k_dot_e = all(
        intersect(
            SurfaceModel.hirzebruch(n),
            tuple(-c for c in canonical_class(SurfaceModel.hirzebruch(n))),
            (0, 1),
        )
        == 2 - n
        for n in range(4)
    )
    admissible = all(
        is_mf_cy_admissible(SurfaceModel.hirzebruch(n)) == (n <= 2) for n in range(4)
    )
    discrepancy = all(blowup_vp(m) == (m == 1, 1 - m) for m in (0, 1))
    report(10, "-K.E = 2-n, CY admissibility exactly n <= 2, blowup discrepancy 1-m",
           minus_k_dot_e and admissible and discrepancy,
           f"-K.E={minus_k_dot_e}, admissible={admissible}, discrepancy={discrepancy}")


def test_criterion_11_threefold_suite():
    from planecubic.threefold import (
        base_lines,
        bs_not_in_quartic,
        build_involution,
        desk_instance,
        is_involution,
        lift_plane_poly,
        line_restrictions,
        preserves_quartic,
        pullback_quotient,
    )

    q = desk_instance()
    phi = build_involution(q)
    checks = {}
    checks["involution"] = is_involution(phi)
    checks["D | D o phi"] = preserves_quartic(phi, q)
    checks["quotient degree 8"] = pullback_quotient(phi, q).degree == 8
    lines = base_lines(q)
    checks["6 distinct base lines"] = len(set(lines)) == 6
    restr = line_restrictions(lines, q)
    checks["some line not in D"] = bs_not_in_quartic(lines, q) and any(
        any(c != 0 for c in r) for r in restr
    )
    checks["tangent cone rank 3"] = (
        mult_at(q.D, (1, 0, 0, 0)) == 2 and q.tangent_cone_rank_at_p() == 3
    )
    report(11, "quartic threefold involution suite on the rational desk instance",
           all(checks.values()), str(checks))
