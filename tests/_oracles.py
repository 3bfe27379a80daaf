"""Independent oracles shared by the test modules.

The chord-and-reflect oracle computes the group law from its definition: the
binary-cubic restriction of the curve equation to the chord (or tangent),
with the two known roots stripped off exactly.  It never uses the slope
formulas under test.  That restriction, `binary_restriction`, is a
term-by-term expansion of p(s u + t v), and it is also the reference for
`threefold.restrict_to_line`, which makes the same restriction with one
`substitute` call.

The AffinePoly references are the plain term-by-term expansions that the
chart kernels in `exact.py` must agree with.  `reference_substitute` and
`reference_poly_gcd` are the rational-arithmetic versions of the integer
kernels: Fraction products of cached powers, and the homogeneous gcd in
QQ[x0, ..., x{n-1}].  `reference_eval`, `reference_poly_divide` and
`reference_content_normalize` are likewise the Fraction versions of point
evaluation, lex-order long division and canonical scaling.

`reference_common_zeros_plane` is the earlier route of
`exact.common_zeros_plane`, with candidates found in sympy's QQ rings: the
affine specializations evaluated in QQ[x, y], the binary forms on z = 0 as
rows in QQ[t] with (1:0:0) added only when no form has a pure-x term, and on
a Weierstrass cubic the gcd of the norms factored in QQ[t].

`reference_poly_gcd` is also the sympy-only route that `exact.poly_gcd`
must match whether or not its coprimality certificate decides the case.
`reference_x_coeffs_at` is the earlier way `_plane_candidates` read the
x-coefficients at a y-candidate: a Taylor shift of the whole polynomial.

`reference_rational_roots` is the sympy-only route of `exact.rational_roots`:
the gcd of the lists in ZZ[t], factored over Z, its linear factors read off,
with none of the small-degree or mod-prime shortcuts.
`reference_certify_irreducible` is the earlier loop of
`threefold._certify_irreducible`, which factors every degree-4 line
restriction, those through a zero of D included.

`reference_default_samples` is the eager breadth-first enumeration that
`elliptic.default_samples` must reproduce point for point: every popped
point's sums with the bases are computed as it is popped.

`reference_equation`, `reference_translation_map` and
`reference_small_points` are the Fraction-operator versions of the curve's
equation, the degree-4 translation map and the small-point scan.

`reference_forest_from` is the earlier node builder of
`cremona._forest_from`: three copies of the node step (proper point, chart A
direction, chart B origin), ids from a counter, the cubic's transform carried
along every branch, incidence by evaluating it at each point, and a guard
that skips a direction of multiplicity 0.  Its charts are built by
`reference_substitute_two` and a term-by-term division, and its rows on
the exceptional line are read off `terms`.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import comb
from math import gcd as int_gcd
from math import lcm as int_lcm

from sympy import QQ, ZZ, lex
from sympy.polys.rings import PolyRing

from planecubic import elliptic
from planecubic.cremona import (
    DIR_INF,
    BubbleForest,
    BubbleNode,
    CremonaError,
    CremonaMap,
    IrrationalBasePointError,
)
from planecubic.elliptic import CurvePoint, O, to_projective
from planecubic.exact import (
    AffinePoly,
    DimensionMismatch,
    ExactError,
    HomPoly,
    PositiveDimensionalError,
    _all_proportional,
    _delta_w,
    _norm_on_cubic,
    _rational_sqrt,
    evaluate,
    local_charts,
    normalize_point,
    rational_roots,
    variables,
)


def binary_restriction(p: HomPoly, u, v):
    """Coefficients c_k of p(s u + t v) = sum c_k s^(d-k) t^k."""
    d = p.degree
    out = [Fraction(0)] * (d + 1)
    for e, coef in p.terms.items():
        partial = {0: coef}
        for ui, vi, k in zip(u, v, e):
            for _ in range(k):
                nxt = {}
                for tdeg, c in partial.items():
                    if ui != 0:
                        nxt[tdeg] = nxt.get(tdeg, Fraction(0)) + c * ui
                    if vi != 0:
                        nxt[tdeg + 1] = nxt.get(tdeg + 1, Fraction(0)) + c * vi
                partial = nxt
                if not partial:
                    break
        for tdeg, c in partial.items():
            out[tdeg] += c
    return out


def chord_reflect(curve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q by intersecting the chord with the cubic and reflecting."""
    F = curve.equation
    A = to_projective(P)
    B = to_projective(Q)
    if A == B:
        # tangent direction from the gradient
        fx = evaluate(F.partial(0), A)
        fy = evaluate(F.partial(1), A)
        V = (fy, -fx, Fraction(0))
        if all(c == 0 for c in V):
            fz = evaluate(F.partial(2), A)
            V = (fz, Fraction(0), -fx)
        B = tuple(a + v for a, v in zip(A, V))
        if all(c == 0 for c in B):
            raise ValueError("degenerate tangent parametrization")
        c = binary_restriction(F, A, B)
        assert c[0] == 0 and c[1] == 0, "tangency root stripping failed"
        c2, c3 = c[2], c[3]
        if c2 == 0 and c3 == 0:
            third = A  # inflectional tangent: triple contact
        else:
            third = tuple(c3 * a - c2 * b for a, b in zip(A, B))
    else:
        c = binary_restriction(F, A, B)
        assert c[0] == 0 and c[3] == 0, "chord endpoints are not both on the curve"
        c1, c2 = c[1], c[2]
        if c1 == 0 and c2 == 0:
            raise ValueError("line contained in the cubic (impossible: irreducible)")
        third = tuple(c2 * a - c1 * b for a, b in zip(A, B))
    x, y, z = third
    if z == 0:
        return O
    return CurvePoint(x / z, -y / z)


def reference_shift(p: AffinePoly, point) -> AffinePoly:
    """p(u + point), expanding every term as a product of binomial rows."""
    point = [Fraction(c) for c in point]
    out = {}
    for e, coef in p.terms.items():
        partial = {(): coef}
        for ei, c in zip(e, point):
            row = [(k, comb(ei, k) * c ** (ei - k)) for k in range(ei + 1)]
            nxt = {}
            for tail, a in partial.items():
                for k, bc in row:
                    key = tail + (k,)
                    nxt[key] = nxt.get(key, Fraction(0)) + a * bc
            partial = nxt
        for exp, a in partial.items():
            out[exp] = out.get(exp, Fraction(0)) + a
    return AffinePoly(p.nvars, out)


def reference_substitute_two(p: AffinePoly, u: AffinePoly, v: AffinePoly) -> AffinePoly:
    """p(u, v) for a 2-variable p, by polynomial products and sums."""
    out = AffinePoly(u.nvars, {})
    for (a, b), c in p.terms.items():
        term = AffinePoly(u.nvars, {(0,) * u.nvars: c})
        for _ in range(a):
            term = term * u
        for _ in range(b):
            term = term * v
        out = out + term
    return out


def reference_substitute(p: HomPoly, maps) -> HomPoly:
    """p(f_1, ..., f_n) as a sum of Fraction products of cached powers."""
    maps = list(maps)
    nvars = maps[0].nvars
    powers = [[HomPoly.constant(nvars, 1)] for _ in maps]
    out = HomPoly.zero(nvars)
    for e, c in p.terms.items():
        term = HomPoly.constant(nvars, c)
        for m, pw, k in zip(maps, powers, e):
            while len(pw) <= k:
                pw.append(pw[-1] * m)
            if k:
                term = term * pw[k]
        out = out + term
    return out


def reference_poly_gcd(polys) -> HomPoly:
    """Gcd of the nonzero homogeneous polynomials in QQ[x0, ..., x{n-1}],
    integer primitive with positive lex-leading coefficient."""
    polys = [p for p in polys if not p.is_zero]
    nvars = polys[0].nvars
    ring = PolyRing([f"x{i}" for i in range(nvars)], QQ, lex)

    def to_ring(p):
        return ring.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()})

    g = to_ring(polys[0])
    for p in polys[1:]:
        g = g.gcd(to_ring(p))
    g = g.monic().primitive()[1]
    return HomPoly(nvars, {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in g.items()})


def reference_rational_roots(*coeff_lists):
    """The rational roots common to every nonzero coefficient list
    (ascending), sorted: each list scaled to integers, their gcd in ZZ[t]
    factored over Z."""
    ring = PolyRing(["t"], ZZ, lex)

    def to_ring(coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = int_lcm(*(c.denominator for c in coeffs))
        return ring.from_dict({(k,): int(c * den) for k, c in enumerate(coeffs) if c})

    g = reduce(lambda f, h: f.gcd(h), map(to_ring, coeff_lists))
    roots = set()
    for fac, _mult in g.factor_list()[1]:
        if fac.degree() == 1:
            roots.add(Fraction(-int(fac.get((0,), 0)), int(fac[(1,)])))
    return sorted(roots)


def reference_certify_irreducible(D: HomPoly, tries: int = 12) -> bool:
    """True iff one of the first `tries` line restrictions of D through
    pairs of the eight small points has degree 4 and is irreducible over Q;
    every such restriction is factored."""
    pts = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 1, 1), (1, 2, 3, 4), (2, -1, 1, 3), (1, -1, 2, -2),
    ]
    ring = PolyRing(["t"], QQ, lex)
    for u, v in list(combinations(pts, 2))[:tries]:
        coeffs = binary_restriction(D, u, v)
        if coeffs[4] != 0:
            terms = {(k,): QQ(c.numerator, c.denominator) for k, c in enumerate(coeffs) if c}
            if ring.from_dict(terms).is_irreducible:
                return True
    return False


def reference_x_coeffs_at(a: AffinePoly, y0) -> list:
    """Ascending x-coefficients of a(x, y0) for an AffinePoly a in (x, y), by
    shifting the whole polynomial to y = y0 and keeping its y-free row."""
    return _reference_row(reference_shift(a, (0, y0)), 1)


def _reference_row(p: AffinePoly, i: int) -> list:
    """Ascending coefficients, without trailing zeros, of a 2-variable p on
    the line u_i = 0, in the other variable."""
    row = {e[1 - i]: c for e, c in p.terms.items() if not e[i]}
    return [row.get(k, Fraction(0)) for k in range(max(row) + 1)] if row else []


def reference_eval(p: AffinePoly, point) -> Fraction:
    """p at a point, as a sum of Fraction products."""
    point = [Fraction(c) for c in point]
    total = Fraction(0)
    for e, c in p.terms.items():
        for coord, k in zip(point, e):
            if k:
                c *= coord**k
        total += c
    return total


def reference_poly_divide(f: HomPoly, g: HomPoly):
    """(f / g, True) if g divides f, else (0, False): lex-order long division
    in Fractions, with the remainder's leading term found by max."""
    rem = dict(f.terms)
    quo = {}
    g_lead = max(g.terms)
    g_c = g.terms[g_lead]
    while rem:
        lead = max(rem)
        if any(a < b for a, b in zip(lead, g_lead)):
            return HomPoly.zero(f.nvars), False
        q_exp = tuple(a - b for a, b in zip(lead, g_lead))
        q_c = rem[lead] / g_c
        quo[q_exp] = quo.get(q_exp, Fraction(0)) + q_c
        for e, c in g.terms.items():
            e2 = tuple(a + b for a, b in zip(q_exp, e))
            nc = rem.get(e2, Fraction(0)) - q_c * c
            if nc == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = nc
    return HomPoly(f.nvars, quo), True


def reference_content_normalize(maps) -> list:
    """Divide by the gcd (reference_poly_gcd, reference_poly_divide), then
    scale by Fraction products to integer primitive form with the first
    nonzero component's lex-leading coefficient positive."""
    maps = list(maps)
    g = reference_poly_gcd(maps)
    if g.degree:
        maps = [m if m.is_zero else reference_poly_divide(m, g)[0] for m in maps]
    denoms = [c.denominator for m in maps for c in m.terms.values()]
    maps = [m * Fraction(int_lcm(*denoms)) for m in maps]
    content = 0
    for m in maps:
        for c in m.terms.values():
            content = int_gcd(content, c.numerator)
    maps = [m * Fraction(1, content) for m in maps]
    lead = next(m for m in maps if not m.is_zero)
    if lead.terms[max(lead.terms)] < 0:
        maps = [m * Fraction(-1) for m in maps]
    return maps


def reference_default_samples(curve, count=10):
    """default_samples with a queue of points: each output point's sums with
    every base are formed as soon as the point is popped."""
    bases = elliptic.small_points(curve)  # looked up per call: patchable
    out, seen = [], {O}
    queue = list(bases)
    steps = 0
    while queue and len(out) < count and steps < 40 * count:
        steps += 1
        pt = queue.pop(0)
        if pt in seen:
            continue
        seen.add(pt)
        out.append(pt)
        for b in bases:
            queue.append(elliptic.add(curve, pt, b))  # looked up per call: countable
    return out


def reference_equation(curve) -> HomPoly:
    """y^2 z - x^3 - p x z^2 - q z^3 by polynomial operators."""
    x, y, z = variables(3)
    return y**2 * z - x**3 - curve.p * (x * z**2) - curve.q * z**3


def reference_translation_map(curve, P) -> CremonaMap:
    """The degree-4 translation map by P, built by polynomial operators from
    its factored form in x - a z and y - b z."""
    if P.is_infinity:
        return CremonaMap.identity()
    a, b = P.x, P.y
    x, y, z = variables(3)
    xa = x - a * z
    yb = y - b * z
    F1 = z * yb**2 * xa - (x + a * z) * xa**3
    F2 = -(z * yb**3) + yb * (x + 2 * a * z) * xa**2 - b * (z * xa**3)
    F3 = z * xa**3
    return CremonaMap([F1, F2, F3])


def reference_small_points(curve, bound=50, limit=8):
    """small_points with the cubic evaluated in Fractions at each integer x."""
    found = []
    for ax in range(-bound, bound + 1):
        y0 = _rational_sqrt(Fraction(ax) ** 3 + curve.p * ax + curve.q)
        if y0 is None:
            continue
        found.append(CurvePoint(Fraction(ax), y0))
        if y0 != 0:
            found.append(CurvePoint(Fraction(ax), -y0))
        if len(found) >= limit:
            break
    return found


def _to_qq(terms: dict, nvars: int):
    ring = PolyRing([f"u{i}" for i in range(nvars)], QQ, lex)
    return ring.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items()})


def _qq_roots(p) -> set:
    """Rational roots of a univariate QQ-ring element, from its linear factors."""
    roots = set()
    for fac, _mult in p.factor_list()[1]:
        if fac.degree() == 1:
            r = -fac.get((0,), QQ(0)) / fac[(1,)]
            roots.add(Fraction(int(r.numerator), int(r.denominator)))
    return roots


def _qq_gcd(polys):
    return reduce(lambda f, g: f.gcd(g), polys)


def reference_common_zeros_plane(polys, weierstrass=None):
    """Every rational common zero of >= 2 plane forms (on the cubic y^2 z =
    x^3 + p x z^2 + q z^3 when weierstrass = (p, q)), sorted; the checks,
    errors and final verification of exact.common_zeros_plane, with the
    candidates found in QQ rings."""
    polys = [p for p in polys if not p.is_zero]
    if len(polys) < 2:
        raise ExactError("need at least two nonzero polynomials")
    if any(p.nvars != 3 for p in polys):
        raise DimensionMismatch("common_zeros_plane expects 3-variable polynomials")
    if _all_proportional(polys):
        raise ExactError("polynomials are all proportional")
    g = reference_poly_gcd(polys)
    if g.degree:
        raise PositiveDimensionalError(g)
    if weierstrass is None:
        candidates = _reference_plane_candidates(polys)
    else:
        p, q = (Fraction(c) for c in weierstrass)
        w = _delta_w(p, q)
        norms = [_to_qq({(k,): Fraction(c) for k, c in enumerate(_norm_on_cubic(f, w)) if c}, 1)
                 for f in polys]
        candidates = {(0, 1, 0)}
        for x0 in _qq_roots(_qq_gcd([n for n in norms if n])):
            y0 = _rational_sqrt(x0**3 + p * x0 + q)
            if y0 is not None:
                candidates |= {(x0, y0, 1), (x0, -y0, 1)}
    points = {normalize_point(c) for c in candidates}
    return sorted(pt for pt in points if all(evaluate(f, pt) == 0 for f in polys))


def _reference_plane_candidates(polys) -> set:
    candidates = set()
    affine = [_to_qq(p.dehomogenize(2).terms, 2) for p in polys]
    for y0 in _reference_y_candidates(affine):
        specs = [s for s in (f.evaluate(1, y0) for f in affine) if s]
        if specs:
            candidates |= {(x0, y0, 1) for x0 in _qq_roots(_qq_gcd(specs))}
    forms = [{e[:2]: c for e, c in p.terms.items() if e[2] == 0} for p in polys]
    forms = [f for f in forms if f]
    if forms:
        rows = [_to_qq({(a,): c for (a, _b), c in f.items()}, 1) for f in forms]
        candidates |= {(x0, 1, 0) for x0 in _qq_roots(_qq_gcd(rows))}
        if all(all(b > 0 for _a, b in f) for f in forms):
            candidates.add((1, 0, 0))
    return candidates


def _reference_y_candidates(affine) -> set:
    with_x = [f for f in affine if f.degree(0) > 0]
    pure_y = [f for f in affine if f.degree(0) <= 0 and f]
    if pure_y:
        return _qq_roots(pure_y[0].drop(0))
    pairs = combinations(with_x, 2)
    if len(with_x) >= 3:
        combos = (with_x[1] + t * with_x[k] for k in range(2, len(with_x)) for t in range(1, 32))
        pairs = chain(pairs, ((with_x[0], c) for c in combos if c.degree(0) > 0))
    for f, g in pairs:
        res = f.resultant(g)
        if res:
            return _qq_roots(res)
    if with_x:
        raise ExactError("could not isolate y-candidates (degenerate system)")
    return set()


def _reference_system_mult(locals_) -> int:
    orders = [g.order() for g in locals_ if not g.is_zero]
    if not orders:
        raise CremonaError("system vanishes identically near the point")
    return min(orders)


def reference_forest_from(f: CremonaMap, proper, cubic) -> BubbleForest:
    nodes = []
    counter = [0]

    def new_id():
        counter[0] += 1
        return counter[0] - 1

    for pt in sorted(set(proper)):
        locals_ = local_charts(f.components, pt)
        m = _reference_system_mult(locals_)
        on_c = cubic is not None and evaluate(cubic, pt) == 0
        nid = new_id()
        nodes.append(BubbleNode(nid, None, 0, m, on_c, tuple(pt)))
        cub_local = local_charts([cubic], pt)[0] if cubic is not None else None
        _reference_blow_up(locals_, m, cub_local, nid, 1, nodes, new_id)

    forest = BubbleForest(nodes)
    d = f.degree
    msum = sum(n.mult for n in forest)
    msq = sum(n.mult * n.mult for n in forest)
    if msum != 3 * d - 3 or msq != d * d - 1:
        raise IrrationalBasePointError(
            f"forest multiplicities ({msum}, {msq}) violate the equations of "
            f"condition ({3 * d - 3}, {d * d - 1}): irrational base point "
            "or incomplete forest"
        )
    return forest


_S = AffinePoly(2, {(1, 0): 1})
_ST = AffinePoly(2, {(1, 1): 1})
_T = AffinePoly(2, {(0, 1): 1})


def _reference_chart(g: AffinePoly, u, v, i: int, m: int) -> AffinePoly:
    """g(u, v) divided by u_i^m, by polynomial products and sums and an
    exact division term by term."""
    h = reference_substitute_two(g, u, v)
    if any(e[i] < m for e in h.terms):
        raise ExactError("chart is not divisible by the exceptional power")
    return AffinePoly(2, {e[:i] + (e[i] - m,) + e[i + 1 :]: c for e, c in h.terms.items()})


def _reference_blow_up(locals_, m, cub_local, parent_id, level, nodes, new_id):
    # chart A: (u, v) = (s, s t), exceptional line s = 0
    chart_a = [_reference_chart(g, _S, _ST, 0, m) for g in locals_]
    cub_a = None
    if cub_local is not None:
        mc = cub_local.order()  # the cubic's multiplicity here (0 off it)
        cub_a = _reference_chart(cub_local, _S, _ST, 0, mc)

    restrictions = [_reference_row(g, 0) for g in chart_a]
    nonzero = [r for r in restrictions if r]
    if not nonzero:
        raise CremonaError("exceptional valuation exceeded multiplicity (bug)")
    for t0 in rational_roots(*nonzero):
        shifted = [g.shift((0, t0)) for g in chart_a]
        cm = _reference_system_mult(shifted)
        if cm == 0:
            continue
        on_c = cub_a is not None and cub_a.eval((0, t0)) == 0
        nid = new_id()
        nodes.append(BubbleNode(nid, parent_id, level, cm, on_c, None, t0))
        cub_next = cub_a.shift((0, t0)) if cub_a is not None else None
        _reference_blow_up(shifted, cm, cub_next, nid, level + 1, nodes, new_id)

    # chart B: (u, v) = (s t, t), exceptional line t = 0; only its origin
    if all((0, m) not in g.num for g in locals_):
        chart_b = [_reference_chart(g, _ST, _T, 1, m) for g in locals_]
        cm = _reference_system_mult(chart_b)
        cub_b = None
        if cub_local is not None:
            cub_b = _reference_chart(cub_local, _ST, _T, 1, mc)
        on_c = cub_b is not None and (0, 0) not in cub_b.num
        nid = new_id()
        nodes.append(BubbleNode(nid, parent_id, level, cm, on_c, None, DIR_INF))
        _reference_blow_up(chart_b, cm, cub_b, nid, level + 1, nodes, new_id)
