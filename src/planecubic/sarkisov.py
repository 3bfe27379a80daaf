"""The 2-dimensional Sarkisov factorization engine with per-link
volume-preserving flags.

The engine runs on the log Calabi-Yau pair (model, C): a Picard class for
the linear system, a table of base points with multiplicities and incidence
flags, and the boundary cubic C's class on the current model.  Each point
carries its own incidence with C (`on_cubic`), which is C's multiplicity
there; infinitely near points ride along as children with id -1 until their
parent is blown up.

Every link pushes the system and C through one class map (`_push`), C with
its multiplicity `on_cubic` at the center in place of the system's.  The
same map gives C's intersection with the contracted curve, which decides
the link's volume-preserving flag and the new point's `on_cubic`.
Mid-trace models have no global coordinates, so geometric flags
(negative-section membership, fiber tangency) are propagated by the
elementary-transformation case analysis rather than recomputed from
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .surfaces import SurfaceModel, blowdown_vp, blowup_vp, sarkisov_degree


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
    the same way; ids are assigned in order.  Degrees and multiplicities
    must be ints >= 1 and on_cubic a bool: nothing is cast.
    """
    if type(degree) is not int or degree < 1:
        raise EngineError(f"degree must be an int >= 1, got {degree!r}")

    def build(spec, pid=-1):
        mult, on_c, *rest = spec
        if type(mult) is not int or mult < 1 or type(on_c) is not bool:
            raise EngineError(f"bad point {spec!r}: mult must be an int >= 1, on_cubic a bool")
        kids = tuple(build(k) for k in (rest[0] if rest else ()))
        return TrackedPoint(pid, mult, on_c, children=kids)

    tracked = tuple(build(spec, pid) for pid, spec in enumerate(points))
    return FactorizationState(
        SurfaceModel.plane(), (degree,), tracked, (3,),
        next_id=len(tracked),
    )


def check_start_state(state: FactorizationState) -> None:
    """A start state on P^2 must be homaloidal: its multiplicities, children
    included, satisfy the equations of condition.  `is_terminal` reads only
    the model and the system, so (1; 5) would otherwise run no link and
    report all_vp.  A start on a Hirzebruch model is not checked."""
    from .cremona import HomaloidalType, noether_check

    def mults(points):
        for p in points:
            yield p.mult
            yield from mults(p.children)

    if state.model.is_plane:
        t = HomaloidalType(state.system[0], tuple(mults(state.points)))
        if not noether_check(t):
            raise EngineError(f"{t} fails the equations of condition")


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


def _push(kind: str, cls: tuple, m: int, on_e: bool):
    """Carry a class through one link whose center has multiplicity m on it.

    Returns the class on the new model and the multiplicity of the new point,
    which is the class's intersection with the contracted curve (None when
    the link contracts nothing): b - m with the fiber through the center for
    type II, a - b with the negative section of F_1 for type III.
    """
    if kind == "I":
        (d,) = cls
        return (d, d - m), None
    a, b = cls
    if kind == "II":
        return (a + b - m if on_e else a - m, b), b - m
    if kind == "III":
        return (a,), a - b
    return (b, a), None


_START_ERRORS = {
    "I": "type I link starts on P^2",
    "II": "type II link needs a Hirzebruch model",
    "III": "type III link starts on F_1",
    "IV": "type IV link needs F_0",
}


def apply_link(state: FactorizationState, kind: str, center_id: Optional[int] = None):
    """Apply one link to `state` and return (link, state').

    I blows up the point `center_id` of P^2 (P^2 -> F_1).  II is the
    elementary transformation at the base point `center_id` of F_n: blow it
    up and contract the strict transform of the fiber through it.  III blows
    down the negative section of F_1 (F_1 -> P^2).  IV swaps the two rulings
    of F_0 (relabels which projection is the fibration), an automorphism, so
    always volume preserving.  III and IV have no center.  The system and
    the boundary C go through the same class map, C with its own
    multiplicity at the center in place of the system's.
    """
    if kind not in _START_ERRORS:
        raise EngineError(f"unknown link kind {kind!r}")
    n = state.model.n
    if not {"I": n is None, "II": n is not None, "III": n == 1, "IV": n == 0}[kind]:
        raise EngineError(_START_ERRORS[kind])
    pt = None
    if kind in ("I", "II"):
        pt = state.point(center_id)
    elif center_id is not None:
        raise EngineError(f"type {kind} link has no center")
    if kind == "II":
        if pt.mult <= 0:
            raise EngineError("type II center must have positive multiplicity")
        if pt.fiber_tangent_to_cubic and pt.children:
            raise EngineError(
                "tangent-fiber elementary transformation with an infinitely near "
                f"chain at the center is not supported; state: {state!r}"
            )
    if kind == "III" and any(p.on_negative_section for p in state.points):
        raise EngineError(
            f"type III with tracked points on the negative section; state: {state!r}"
        )
    # on F_0 every point lies on a section of the labeled E class
    on_e = kind == "II" and (n == 0 or pt.on_negative_section)
    m, mc = (pt.mult, int(pt.on_cubic)) if pt else (0, 0)
    system, q_mult = _push(kind, state.system, m, on_e)
    cubic, c_dot = _push(kind, state.cubic, mc, on_e)
    vp = blowup_vp(mc)[0] if pt else True
    if c_dot is not None:
        vp = blowdown_vp(c_dot) and vp

    if kind == "II":
        model = SurfaceModel.hirzebruch(n + (1 if on_e else -1))
    elif kind == "IV":
        model = state.model
    else:  # I lands on F_1, III on P^2
        model = SurfaceModel.hirzebruch(1) if kind == "I" else SurfaceModel.plane()

    others = [p for p in state.points if pt is None or p.id != pt.id]
    if kind in ("I", "III"):
        others = [
            replace(p, on_negative_section=False, fiber_tangent_to_cubic=False)
            for p in others
        ]
    elif kind == "II" and n == 0:
        # the new negative section is the E-section through the center; the
        # other points are taken off it (the transverse default)
        others = [replace(p, on_negative_section=False) for p in others]
    # infinitely near children become proper points of the next model
    fresh = [
        replace(c, on_negative_section=kind == "I", fiber_tangent_to_cubic=False)
        for c in (pt.children if pt else ())
    ]
    tangent = kind == "II" and pt.fiber_tangent_to_cubic
    if q_mult is not None and q_mult > 0:
        # image of the contracted curve: on the negative section exactly for
        # downward elementary transformations, with the tangency of the new
        # fiber inherited from the tangent cases
        fresh.append(TrackedPoint(
            -1, q_mult, c_dot >= 1,
            on_negative_section=kind == "II" and not on_e and model.n >= 1,
            fiber_tangent_to_cubic=tangent,
        ))
    fresh = [replace(p, id=state.next_id + i) for i, p in enumerate(fresh)]

    case = None
    if kind == "II":
        # 1 and 3 for a center on and off E, one more when the fiber is tangent
        case = (1 if on_e else 3) + tangent if pt.on_cubic else "off-cubic"
    link = SarkisovLink(
        kind=kind,
        center=pt.id if pt else None,
        from_model=state.model,
        to_model=model,
        vp=vp,
        case_tag=case,
        center_on_cubic=pt.on_cubic if pt else None,
        system_after=system,
    )
    new_state = FactorizationState(
        model, system, tuple(others + fresh), cubic,
        state.step + 1, state.next_id + len(fresh),
    )
    return link, new_state


# -- the flowchart -------------------------------------------------------------


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
    # the flowchart's center: the largest multiplicity, ties to the lowest id
    deg = state.degree
    big = [p for p in state.points if p.mult > deg]
    if big:
        pt = min(big, key=lambda p: (-p.mult, p.id))
        return apply_link(state, "I" if state.model.is_plane else "II", pt.id)
    if state.model.is_plane:
        raise StuckState(
            f"no base point above the Sarkisov degree on P^2; state: {state!r}"
        )
    if state.model.n == 1:
        return apply_link(state, "III")
    if state.model.n == 0 and state.system[0] < state.system[1]:
        return apply_link(state, "IV")
    raise StuckState(f"no Sarkisov rule applies; state: {state!r}")


def factorize(state_or_map, curve=None, step_cap: int = 64) -> SarkisovTrace:
    """Run the engine to termination and collect the trace.

    Accepts either an enriched FactorizationState or a CremonaMap together
    with its Weierstrass cubic (which is then enriched via the base forest).
    A start state on P^2 must pass `check_start_state`.
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
    check_start_state(state)

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
