"""Birational self-maps of P^2: composition, decomposition-group membership,
infinitely-near base point forests, homaloidal types."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    AffinePoly,
    ExactError,
    HomPoly,
    common_zeros_plane,
    content_normalize,
    evaluate,
    local_charts,
    normalize_point,
    poly_divide,
    rational_roots,
    reduce_on_cubic,
    substitute,
    substitute_all,
    _all_proportional,
    _normalized,
    _projective_ints,
)


class CremonaError(Exception):
    pass


class IrrationalBasePointError(CremonaError):
    pass


class NoetherViolation(CremonaError):
    pass


DIR_INF = "inf"  # the direction not covered by the first blowup chart


class CremonaMap:
    """Birational self-map of P^(NVARS-1) as a content-normalized list of
    NVARS polynomials in NVARS variables; NVARS = 3 is the plane."""

    NVARS = 3
    __slots__ = ("components",)

    def __init__(self, components):
        n = self.NVARS
        comps = list(components)
        if len(comps) != n or any(c.nvars != n for c in comps):
            raise CremonaError(f"a map needs {n} components in {n} variables")
        if any(c.is_zero for c in comps):
            raise CremonaError("a component is zero: the map is not dominant")
        if len({c.degree for c in comps}) != 1:
            raise CremonaError("components must share one degree")
        comps = content_normalize(comps)
        if _all_proportional(comps):
            raise CremonaError("components are proportional: map is not dominant")
        self.components = tuple(comps)

    @classmethod
    def identity(cls):
        n = cls.NVARS
        return cls([HomPoly.variable(n, i) for i in range(n)])

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def is_identity(self) -> bool:
        return self == type(self).identity()

    def __eq__(self, other):
        return (
            isinstance(other, CremonaMap) and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"{type(self).__name__}(deg={self.degree}, {list(self.components)})"

    def apply(self, pt):
        """Image of a projective point, or None if pt is a base point."""
        nums, D = _projective_ints(pt, self.NVARS)
        # canonical components share one degree and denominator 1, so their
        # values on one scaling of pt share one scale, which the image drops
        vals = [c._scaled_value(nums, D)[0] for c in self.components]
        return _normalized(vals) if any(vals) else None


def compose(f: CremonaMap, g: CremonaMap) -> CremonaMap:
    """f after g, of f's type.  Substitutes, strips the common content,
    renormalizes."""
    return type(f)(substitute_all(f.components, g.components))


# -- homaloidal types ---------------------------------------------------------


@dataclass(frozen=True)
class HomaloidalType:
    d: int
    mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(sorted(self.mults, reverse=True)))

    def __repr__(self):
        return f"({self.d}; {','.join(map(str, self.mults)) or '-'})"


def noether_check(t: HomaloidalType) -> bool:
    """The equations of condition: sum m = 3d-3 and sum m^2 = d^2-1."""
    return (
        sum(t.mults) == 3 * t.d - 3
        and sum(m * m for m in t.mults) == t.d * t.d - 1
    )


def is_de_jonquieres(t: HomaloidalType) -> bool:
    """Type (d; d-1, 1^(2d-2)), the pencil-of-lines preserving maps."""
    if not noether_check(t):
        raise NoetherViolation(f"{t} is not a homaloidal type")
    if t.d == 1:
        return True
    expected = (t.d - 1,) + (1,) * (2 * t.d - 2)
    return t.mults == expected


def composition_degree(t_f: HomaloidalType, t_g: HomaloidalType, shared) -> int:
    """deg(g o f^-1) = d e - sum m_i l_i over coincident base points."""
    d = t_f.d * t_g.d - sum(m * l for m, l in shared)
    if d < 1:
        raise CremonaError(
            f"composition degree {d} < 1: inconsistent shared-point data"
        )
    return d


# -- the bubble forest --------------------------------------------------------


@dataclass(frozen=True)
class BubbleNode:
    id: int
    parent: Optional[int]
    level: int
    mult: int
    on_cubic: bool
    point: Optional[tuple]  # proper points: normalized projective coordinates
    direction: object = None  # infinitely near: Fraction in the parent chart, or "inf"


class BubbleForest:
    """The nodes of a base point forest, read-only: `base_forest` hands one
    forest to every caller that asks for an equal map and cubic."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        self._by_id = {n.id: n for n in self.nodes}

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def roots(self):
        return [n for n in self.nodes if n.parent is None]

    def children(self, node_id):
        return [n for n in self.nodes if n.parent == node_id]

    def key_of(self, node_id):
        """Lineage key identifying the bubble point independently of the map."""
        n = self._by_id[node_id]
        if n.parent is None:
            return ("pt", n.point)
        return (self.key_of(n.parent), "dir", str(n.direction))

    def __repr__(self):
        return f"BubbleForest({self.nodes})"


def base_forest(
    f: CremonaMap,
    cubic: Optional[HomPoly] = None,
    hints=None,
) -> BubbleForest:
    """Full (infinitely near) base point analysis of a plane Cremona map.

    Proper base points are found over Q (or supplied as hints); each is blown
    up in affine charts, dividing out the exceptional factor to the system's
    multiplicity, until no base point remains on the exceptional line.  When a
    cubic is supplied, every node carries the incidence flag against the
    cubic's strict transform computed in the same chart.  The finished forest
    must satisfy the equations of condition.

    For a Weierstrass cubic the proper points are first looked for on the
    cubic only: a map in its decomposition group has every base point there.
    Every node has multiplicity >= 1, so a forest that misses a base point
    has sum m < 3d - 3, and the equations of condition certify the points
    found; if they fail, the forest is rebuilt once from a search of the
    whole plane.  A given cubic must pass `check_cubic_nonsingular`, on every
    call.

    A searched forest is memoized by value, on the map and the cubic
    together (the cubic sets the incidence flags): within one process an
    equal map with an equal cubic, decoded afresh or built again, gets the
    same read-only forest without a second search.  The memo keeps the last
    `_FOREST_MEMO_SIZE` forests.  A failed search is not kept, so it raises
    again on every call; a forest over given hints is always built anew.
    """
    weierstrass = None if cubic is None else check_cubic_nonsingular(cubic)
    if f.degree == 1:
        return BubbleForest([])
    if hints is not None:
        proper = []
        for pt in hints:
            pt = normalize_point(pt)
            if any(evaluate(c, pt) != 0 for c in f.components):
                raise CremonaError(f"hint {pt} is not a base point")
            proper.append(pt)
        return _forest_from(f, proper, cubic)
    return _searched_forest(f, cubic, weierstrass)


_FOREST_MEMO_SIZE = 8  # a pipeline asks for one map's forest at a time


@functools.lru_cache(maxsize=_FOREST_MEMO_SIZE)
def _searched_forest(f: CremonaMap, cubic, weierstrass) -> BubbleForest:
    """base_forest's search of the proper points; `weierstrass` is the
    cubic's (p, q), or None, so it adds nothing to the memo's key."""
    if weierstrass is not None:
        try:
            return _forest_from(f, common_zeros_plane(f, weierstrass), cubic)
        except IrrationalBasePointError:
            pass  # a base point off the cubic (or an irrational one)
    return _forest_from(f, common_zeros_plane(f), cubic)


def _forest_from(f: CremonaMap, proper, cubic) -> BubbleForest:
    """The forest over the given proper base points, checked against the
    equations of condition."""
    nodes = []
    for pt in sorted(set(proper)):
        forms = local_charts(f.components + (() if cubic is None else (cubic,)), pt)
        cub = None if cubic is None else forms.pop()
        _add_node(nodes, forms, cub, None, 0, tuple(pt))
    forest = BubbleForest(nodes)
    t = HomaloidalType(f.degree, tuple(n.mult for n in forest))
    if not noether_check(t):
        raise IrrationalBasePointError(
            f"forest type {t} violates the equations of condition: irrational "
            "base point or incomplete forest"
        )
    return forest


_S = AffinePoly(2, {(1, 0): 1})
_ST = AffinePoly(2, {(1, 1): 1})
_T = AffinePoly(2, {(0, 1): 1})
_CHARTS = ((_S, _ST), (_ST, _T))  # chart A: (u, v) = (s, s t); chart B: (s t, t)


def _chart(g, m, i):
    """Chart A (i = 0) or B (i = 1) of the blow-up of the origin, with the
    exceptional line's factor (s in A, t in B) divided out to the power m."""
    return g.substitute_two(*_CHARTS[i]).divide_var_power(i, m)


def _add_node(nodes, forms, cub, parent, level, point, direction=None):
    """Record the base point at the origin of the system's local forms, blow
    it up and recurse into the base points on the exceptional line.

    The node's id is its index in `nodes`, and its multiplicity is the least
    order of the forms (ord(sum c_i g_i) = min ord(g_i) for general c_i).
    `cub` is the cubic's strict transform in the same chart, or None below a
    node off the cubic: a curve that misses a point misses every point
    infinitely near it.  The node is on the cubic iff `cub` has no constant
    term.  Every chart origin visited is a base point (a common root on the
    exceptional line, or chart B's origin when no form keeps a v^m term), so
    every node has multiplicity >= 1.

    Chart A sends u^a v^b to s^(a + b - m) t^b, so a form's restriction to
    its exceptional line s = 0 is read off its initial (degree-m) form: the
    t^b coefficient is the u^(m - b) v^b numerator.  The chart itself, of
    the forms and of the cubic, is built only when some direction is a base
    point.
    """
    m = min(g.order() for g in forms)
    on_c = cub is not None and (0, 0) not in cub.num
    nid = len(nodes)
    nodes.append(BubbleNode(nid, parent, level, m, on_c, point, direction))
    mc = cub.order() if on_c else 0  # the cubic's multiplicity here

    # chart A: the directions with a base point are the common roots of the
    # nonzero restrictions to the exceptional line
    restrictions = ([g.num.get((m - b, b), 0) for b in range(m + 1)] for g in forms)
    roots = rational_roots(*(r for r in restrictions if any(r)))
    if roots:
        chart_a = [_chart(g, m, 0) for g in forms]
        cub_a = _chart(cub, mc, 0) if on_c else None
        for t0 in roots:
            cub_t = cub_a.shift((0, t0)) if on_c else None
            _add_node(nodes, [g.shift((0, t0)) for g in chart_a], cub_t, nid, level + 1, None, t0)

    # chart B, exceptional line t = 0: only its origin (the direction chart A
    # misses) needs a look.  u^a v^b goes to s^a t^(a + b - m), so the
    # chart's constant term is the v^m term.
    if all((0, m) not in g.num for g in forms):
        cub_b = _chart(cub, mc, 1) if on_c else None
        _add_node(nodes, [_chart(g, m, 1) for g in forms], cub_b, nid, level + 1, None, DIR_INF)


def homaloidal_type(f: CremonaMap, forest: Optional[BubbleForest] = None) -> HomaloidalType:
    """(degree; nonincreasing multiplicities of every forest node)."""
    if forest is None:
        forest = base_forest(f)
    t = HomaloidalType(f.degree, tuple(n.mult for n in forest))
    if not noether_check(t):
        raise NoetherViolation(
            f"type {t} violates the equations of condition: base-forest bug"
        )
    return t


def shared_base_pairs(forest_f: BubbleForest, forest_g: BubbleForest):
    """(m_i, l_i) pairs over bubble points common to both forests, matched by
    chart lineage."""
    keys_f = {forest_f.key_of(n.id): n.mult for n in forest_f}
    keys_g = {forest_g.key_of(n.id): n.mult for n in forest_g}
    return sorted(
        (keys_f[k], keys_g[k]) for k in keys_f.keys() & keys_g.keys()
    )


# -- decomposition group ------------------------------------------------------


_WEIERSTRASS_TERMS = {(0, 2, 1), (3, 0, 0), (1, 0, 2), (0, 0, 3)}  # y^2 z, x^3, x z^2, z^3


def check_cubic_nonsingular(cubic: HomPoly) -> Optional[tuple]:
    """Nonsingularity precondition: a plane cubic, with nonzero discriminant
    for the Weierstrass shape lambda*(y^2 z - x^3 - p x z^2 - q z^3), and no
    rational common zero of the partials otherwise (Q-only, documented).
    Returns the Weierstrass (p, q) it recognized, or None."""
    if cubic.nvars != 3 or cubic.degree != 3:
        raise CremonaError(f"not a plane cubic: {cubic.nvars} variables, degree {cubic.degree}")
    num = cubic.num
    lam = num.get((0, 2, 1))
    if lam and num.get((3, 0, 0)) == -lam and num.keys() <= _WEIERSTRASS_TERMS:
        p, q = Fraction(-num.get((1, 0, 2), 0), lam), Fraction(-num.get((0, 0, 3), 0), lam)
        if 4 * p**3 + 27 * q**2 == 0:
            raise CremonaError("cubic is singular (zero discriminant)")
        return p, q
    parts = [cubic.partial(i) for i in range(3)]
    try:
        pts = common_zeros_plane(parts)
    except ExactError:
        raise CremonaError("cubic singularity check failed on degenerate partials")
    for pt in pts:
        if evaluate(cubic, pt) == 0:
            raise CremonaError(f"cubic is singular at {pt}")
    return None


def is_in_dec(f: CremonaMap, cubic: HomPoly, samples=None) -> bool:
    """Membership in the decomposition group of the cubic C, exact for a
    birational f.

    C must divide its pullback C(f).  Then f maps C into C, unless it
    contracts C to a point: a birational map contracts only rational curves,
    and C has genus 1, so f restricts to an automorphism of C.  Two distinct
    samples on C that are not base points tell the cases apart: their images
    differ iff C is not contracted.  Without given samples they come from the
    group law of a Weierstrass C; for any other C only divisibility is
    tested.

    For a Weierstrass cubic C the pullback is taken through the components
    reduced modulo C (`reduce_on_cubic`: h' = c z^m h mod C, of y-degree
    <= 1).  Then C(h') = c^3 z^(3m) C(h) mod C, and C is irreducible and does
    not divide z, so C divides C(h') iff it divides C(h).  A zero C(h') means
    h contracts C to a point of C; the samples decide that case.

    A linear f needs no samples: its components are not all proportional, so
    it has rank >= 2, and a form in two linear forms is no irreducible cubic.
    So C dividing C(f) means C(f) = c C, and f is an automorphism of C.
    """
    weierstrass = check_cubic_nonsingular(cubic)
    if weierstrass is None:
        pullback = substitute(cubic, f.components)
        if pullback.is_zero:
            return False  # h maps the plane into the cubic
    else:
        pullback = substitute(cubic, reduce_on_cubic(f.components, *weierstrass))
    _, ok = poly_divide(pullback, cubic)
    if not ok or f.degree == 1:
        return ok
    if samples is not None:
        samples = list(dict.fromkeys(normalize_point(pt) for pt in samples))
        if any(evaluate(cubic, pt) != 0 for pt in samples):
            raise CremonaError("a sample point is not on the cubic")
    elif weierstrass is not None:
        from .elliptic import WeierstrassCurve, default_samples, to_projective

        # distinct points of the curve, normalized with z = 1
        curve = WeierstrassCurve(*weierstrass)
        samples = [to_projective(pt) for pt in default_samples(curve)]
    else:
        return True  # divisibility only; no sample data to test restriction
    first = None
    for pt in samples:
        img = f.apply(pt)
        if img is None:
            continue  # base point: restriction defined by continuity, skip
        if first is None:
            first = img
        else:
            return img != first  # equal images: f contracts C
    raise CremonaError("fewer than two usable sample points on the cubic")


def inertia_witness(curve, P, Q) -> CremonaMap:
    """compose(phi_{P+Q}, phi_R) with R = -(P+Q): restricts to the identity
    on the cubic.

    Computation shows this composite is the identity map of P^2 itself
    (phi_{-S} is the exact inverse of phi_S): see inertia_witness_triple for
    a nontrivial inertia element.
    """
    from .elliptic import add, neg, translation_map

    S = add(curve, P, Q)
    if P.is_infinity or Q.is_infinity or S.is_infinity:
        raise CremonaError("inertia witness needs P, Q, P+Q all nonzero")
    R = neg(curve, S)
    return compose(translation_map(curve, S), translation_map(curve, R))


def inertia_witness_triple(curve, P, Q) -> CremonaMap:
    """phi_{-(Q+P)} o phi_Q o phi_P: a nontrivial inertia element whenever
    P + Q != O (its nontriviality is exactly the failure of the translation
    section to be a homomorphism: deg(phi_Q o phi_P) = 10 != 4)."""
    from .elliptic import add, neg, translation_map

    S = add(curve, Q, P)
    if P.is_infinity or Q.is_infinity or S.is_infinity:
        raise CremonaError("inertia witness needs P, Q, Q+P all nonzero")
    inner = compose(translation_map(curve, Q), translation_map(curve, P))
    return compose(translation_map(curve, neg(curve, S)), inner)
