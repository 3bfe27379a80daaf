"""The 2-dimensional Sarkisov factorization engine with per-link
volume-preserving flags.

The engine runs on the log Calabi-Yau pair (model, C): a Picard class for
the linear system, a table of base points with multiplicities and incidence
flags, and the boundary cubic C's class on the current model.  Each point
carries its own incidence with C (`on_cubic`), which is C's multiplicity
there; infinitely near points ride along as children with id -1 until their
parent is blown up.  Mid-trace models have no global coordinates, so
geometric flags (negative-section membership, fiber tangency) are propagated
by the elementary-transformation case analysis rather than recomputed from
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .surfaces import (
    SurfaceModel,
    blowdown_vp,
    blowup_vp,
    intersect,
    sarkisov_degree,
)


class EngineError(Exception):
    pass


class StuckState(EngineError):
    pass


class StepCapExceeded(EngineError):
    pass


@dataclass(frozen=True)
class TrackedPoint:
    id: int
    mult: int
    on_cubic: bool
    on_negative_section: bool = False
    fiber_tangent_to_cubic: bool = False
    children: tuple = ()  # infinitely near points over this one, id -1


@dataclass(frozen=True)
class FactorizationState:
    model: SurfaceModel
    system: tuple
    points: tuple
    cubic: tuple  # C's class; C's multiplicity at a base point is its on_cubic
    step: int = 0
    next_id: int = 0

    def point(self, pid: int) -> TrackedPoint:
        for p in self.points:
            if p.id == pid:
                return p
        raise EngineError(f"no tracked point with id {pid}")

    @property
    def degree(self) -> Fraction:
        return sarkisov_degree(self.model, self.system)

    @property
    def is_terminal(self) -> bool:
        return self.model.is_plane and self.system == (1,)

    def __repr__(self):
        return (
            f"State(step={self.step}, {self.model}, system={self.system}, "
            f"points={[(p.id, p.mult, p.on_cubic) for p in self.points]}, "
            f"cubic={self.cubic})"
        )


@dataclass(frozen=True)
class SarkisovLink:
    kind: str  # "I" | "II" | "III" | "IV"
    center: Optional[int]
    from_model: SurfaceModel
    to_model: SurfaceModel
    vp: bool
    case_tag: object = None  # type II: 1..4 or "off-cubic"
    center_on_cubic: Optional[bool] = None
    system_after: tuple = ()


@dataclass(frozen=True)
class SarkisovTrace:
    links: tuple
    all_vp: bool
    initial: FactorizationState
    final: FactorizationState
    states: tuple = ()  # state after each link
    lints: tuple = ()

    def kinds(self):
        return [l.kind for l in self.links]


# -- state construction -------------------------------------------------------


def plane_state(degree: int, points) -> FactorizationState:
    """Enriched starting state on P^2.

    `points` is a list of (mult, on_cubic[, children]) with children nested
    the same way; ids are assigned in order.
    """

    def build(spec, pid=-1):
        mult, on_c, *rest = spec
        kids = tuple(build(k) for k in (rest[0] if rest else ()))
        return TrackedPoint(pid, int(mult), bool(on_c), children=kids)

    tracked = tuple(build(spec, pid) for pid, spec in enumerate(points))
    return FactorizationState(
        SurfaceModel.plane(), (int(degree),), tracked, (3,),
        next_id=len(tracked),
    )


def state_from_map(f, curve) -> FactorizationState:
    """Enrich a polynomial Cremona map against a Weierstrass cubic: compute
    the base forest with incidence flags and lift it to a starting state."""
    from .cremona import base_forest

    forest = base_forest(f, cubic=curve.equation)
    by_parent = {}
    for n in forest:
        by_parent.setdefault(n.parent, []).append(n)

    def build(node, pid=-1):
        kids = tuple(build(k) for k in by_parent.get(node.id, ()))
        return TrackedPoint(pid, node.mult, node.on_cubic, children=kids)

    next_id = max((n.id for n in forest), default=-1) + 1
    return FactorizationState(
        SurfaceModel.plane(),
        (f.degree,),
        tuple(build(root, root.id) for root in forest.roots()),
        (3,),
        next_id=next_id,
    )


# -- link updates --------------------------------------------------------------


def _on_negative_section(state: FactorizationState, pt: TrackedPoint) -> bool:
    # on F_0 every point lies on a section of the labeled E class
    if not state.model.is_plane and state.model.n == 0:
        return True
    return pt.on_negative_section


def _activate_children(pt: TrackedPoint, on_e: bool):
    """Infinitely near children become proper points of the next model."""
    return [
        replace(c, id=-1, on_negative_section=on_e, fiber_tangent_to_cubic=False)
        for c in pt.children
    ]


def _assign_ids(points, next_id):
    out = []
    for p in points:
        if p.id < 0:
            p = replace(p, id=next_id)
            next_id += 1
        out.append(p)
    return out, next_id


def link_I_update(state: FactorizationState, center_id: int):
    """Blow up a point of P^2: P^2 -> F_1."""
    if not state.model.is_plane:
        raise EngineError("type I link starts on P^2")
    pt = state.point(center_id)
    (d,) = state.system
    m = pt.mult
    new_model = SurfaceModel.hirzebruch(1)
    new_system = (d, d - m)

    mc = int(pt.on_cubic)
    vp, _ = blowup_vp(mc)
    (kc,) = state.cubic

    kids = _activate_children(pt, on_e=True)
    others = [
        replace(p, on_negative_section=False, fiber_tangent_to_cubic=False)
        for p in state.points
        if p.id != center_id
    ]
    points, next_id = _assign_ids(others + kids, state.next_id)

    link = SarkisovLink(
        kind="I",
        center=center_id,
        from_model=state.model,
        to_model=new_model,
        vp=vp,
        center_on_cubic=pt.on_cubic,
        system_after=new_system,
    )
    new_state = FactorizationState(
        new_model, new_system, tuple(points), (kc, kc - mc),
        state.step + 1, next_id,
    )
    return link, new_state


def elementary_transform_update(state: FactorizationState, center_id: int):
    """Elementary transformation at a base point of F_n: blow up, contract the
    strict transform of the fiber through it.  Returns (link, state')."""
    if state.model.is_plane:
        raise EngineError("type II link needs a Hirzebruch model")
    pt = state.point(center_id)
    if pt.mult <= 0:
        raise EngineError("type II center must have positive multiplicity")
    n = state.model.n
    a, b = state.system
    m = pt.mult
    on_e = _on_negative_section(state, pt)
    tangent = pt.fiber_tangent_to_cubic

    if tangent and pt.children:
        raise EngineError(
            "tangent-fiber elementary transformation with an infinitely near "
            f"chain at the center is not supported; state: {state!r}"
        )

    new_n = n + 1 if on_e else n - 1
    if new_n < 0:
        raise EngineError(f"elementary transformation would leave F_{n} downward")
    new_model = SurfaceModel.hirzebruch(new_n)
    new_a = a + b - m if on_e else a - m
    new_system = (new_a, b)

    # boundary bookkeeping
    mc = int(pt.on_cubic)
    vp_blowup, _ = blowup_vp(mc)
    ac, bc = state.cubic
    c_dot_fiber = bc - mc  # C-check . F-tilde
    vp_blowdown = blowdown_vp(c_dot_fiber)
    new_cubic = (ac + bc - mc, bc) if on_e else (ac - mc, bc)

    if not pt.on_cubic:
        case = "off-cubic"
    elif on_e:
        case = 2 if tangent else 1
    else:
        case = 4 if tangent else 3

    new_points = []
    q_mult = b - m
    if q_mult > 0:
        # image of the contracted fiber: on the negative section exactly for
        # downward moves, with the tangency of the new fiber inherited from
        # the tangent cases
        new_points.append(
            TrackedPoint(
                id=-1,
                mult=q_mult,
                on_cubic=c_dot_fiber >= 1,
                on_negative_section=(not on_e) and new_n >= 1,
                fiber_tangent_to_cubic=tangent,
            )
        )
    kids = _activate_children(pt, on_e=False)
    others = [p for p in state.points if p.id != center_id]
    if n == 0:
        # the new negative section is the E-section through the center; the
        # other points are taken off it (the transverse default)
        others = [replace(p, on_negative_section=False) for p in others]
    points, next_id = _assign_ids(others + kids + new_points, state.next_id)

    link = SarkisovLink(
        kind="II",
        center=center_id,
        from_model=state.model,
        to_model=new_model,
        vp=vp_blowup and vp_blowdown,
        case_tag=case,
        center_on_cubic=pt.on_cubic,
        system_after=new_system,
    )
    new_state = FactorizationState(
        new_model, new_system, tuple(points), new_cubic, state.step + 1, next_id,
    )
    return link, new_state


def link_III_update(state: FactorizationState):
    """Blow down the negative section of F_1: F_1 -> P^2."""
    if state.model.is_plane or state.model.n != 1:
        raise EngineError("type III link starts on F_1")
    a, b = state.system
    if any(_on_negative_section(state, p) for p in state.points):
        raise EngineError(
            f"type III with tracked points on the negative section; state: {state!r}"
        )
    new_model = SurfaceModel.plane()
    new_system = (a,)

    c_dot_e = intersect(state.model, state.cubic, (0, 1))
    vp = blowdown_vp(c_dot_e)

    new_points = []
    q_mult = a - b
    if q_mult > 0:
        new_points.append(TrackedPoint(id=-1, mult=q_mult, on_cubic=c_dot_e >= 1))
    others = [
        replace(p, on_negative_section=False, fiber_tangent_to_cubic=False)
        for p in state.points
    ]
    points, next_id = _assign_ids(others + new_points, state.next_id)

    link = SarkisovLink(
        kind="III",
        center=None,
        from_model=state.model,
        to_model=new_model,
        vp=vp,
        system_after=new_system,
    )
    new_state = FactorizationState(
        new_model, new_system, tuple(points), (state.cubic[0],),
        state.step + 1, next_id,
    )
    return link, new_state


def link_IV_update(state: FactorizationState):
    """Swap the two rulings of F_0 (relabel which projection is the fibration)."""
    if state.model.is_plane or state.model.n != 0:
        raise EngineError("type IV link needs F_0")
    a, b = state.system
    new_system = (b, a)
    ac, bc = state.cubic
    link = SarkisovLink(
        kind="IV",
        center=None,
        from_model=state.model,
        to_model=state.model,
        vp=True,  # an automorphism: always volume preserving
        system_after=new_system,
    )
    new_state = FactorizationState(
        state.model, new_system, state.points, (bc, ac),
        state.step + 1, state.next_id,
    )
    return link, new_state


# -- the flowchart -------------------------------------------------------------


def _max_mult_point(points):
    best = None
    for p in points:
        if best is None or p.mult > best.mult or (p.mult == best.mult and p.id < best.id):
            best = p
    return best


def next_link(state: FactorizationState):
    """One step of the Sarkisov flowchart.

    P^2 with degree > 1: type I at the maximal point.  F_n with a point over
    the Sarkisov degree: type II there.  Otherwise F_1 -> type III, and
    F_0 with a < b -> type IV: the degree b/2 drops to a/2, and K + H/mu is
    not nef on the other ruling exactly when a < b.  F_0 with a >= b and
    nothing to do is a stuck state.
    """
    if state.is_terminal:
        raise EngineError("state is terminal (P^2 with the system of lines)")
    if state.model.is_plane:
        (d,) = state.system
        pt = _max_mult_point(state.points)
        if pt is None or Fraction(pt.mult) <= state.degree:
            raise StuckState(
                f"no base point above the Sarkisov degree on P^2; state: {state!r}"
            )
        return link_I_update(state, pt.id)
    deg = state.degree
    big = [p for p in state.points if Fraction(p.mult) > deg]
    if big:
        return elementary_transform_update(state, _max_mult_point(big).id)
    if state.model.n == 1:
        return link_III_update(state)
    if state.model.n == 0 and state.system[0] < state.system[1]:
        return link_IV_update(state)
    raise StuckState(f"no Sarkisov rule applies; state: {state!r}")


def factorize(state_or_map, curve=None, step_cap: int = 64) -> SarkisovTrace:
    """Run the engine to termination and collect the trace.

    Accepts either an enriched FactorizationState or a CremonaMap together
    with its Weierstrass cubic (which is then enriched via the base forest).
    """
    from .cremona import CremonaMap

    if isinstance(state_or_map, CremonaMap):
        if state_or_map.degree == 1:
            state = plane_state(1, ())
        else:
            if curve is None:
                raise EngineError("factorizing a polynomial map needs its cubic")
            state = state_from_map(state_or_map, curve)
    else:
        state = state_or_map

    initial = state
    links = []
    states = []
    while not state.is_terminal:
        if state.step >= step_cap:
            raise StepCapExceeded(
                f"no termination within {step_cap} links; state: {state!r}"
            )
        link, state = next_link(state)
        links.append(link)
        states.append(state)

    lints = []
    for i, link in enumerate(links):
        if link.kind == "III" and (i == 0 or links[i - 1].kind != "II"):
            lints.append(
                f"link {i}: type III not preceded by type II (unexpected for "
                "well-formed inputs)"
            )
        if link.kind == "IV" and (i == 0 or links[i - 1].kind != "II"):
            lints.append(f"link {i}: type IV not preceded by type II")

    return SarkisovTrace(
        links=tuple(links),
        all_vp=all(l.vp for l in links),
        initial=initial,
        final=state,
        states=tuple(states),
        lints=tuple(lints),
    )


# -- de Jonquieres regrouping ---------------------------------------------------


@dataclass(frozen=True)
class JonquieresReport:
    centers: tuple  # (center id, on_cubic)
    grouped: bool


def jonquieres_centers(trace: SarkisovTrace) -> JonquieresReport:
    """Centers of the de Jonquieres factors read off the trace.

    The grouping convention: each maximal I (II)* III block is one factor
    and contributes its opening center.  Traces that do not decompose into
    such blocks are reported ungrouped, one entry per I/II link.
    """
    centers = []
    i = 0
    links = trace.links
    grouped = True
    while i < len(links):
        if links[i].kind not in ("I", "II"):
            grouped = False
            break
        block_center = links[i]
        j = i + 1
        while j < len(links) and links[j].kind == "II":
            j += 1
        if j >= len(links) or links[j].kind != "III":
            grouped = False
            break
        centers.append((block_center.center, bool(block_center.center_on_cubic)))
        i = j + 1
    if not grouped:
        centers = [
            (l.center, bool(l.center_on_cubic))
            for l in links
            if l.kind in ("I", "II")
        ]
    return JonquieresReport(tuple(centers), grouped)
