"""Desk-scale checks on the quartic threefold with one A_1 point: the explicit
involution, its base lines, and the failure of base-locus containment."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .cremona import CremonaMap
from .exact import (
    HomPoly,
    PositiveDimensionalError,
    common_zeros_plane,
    evaluate,
    is_irreducible,
    mult_at,
    poly_divide,
    substitute,
    substitute_all,
    variables,
)


class ThreefoldError(Exception):
    pass


def lift_plane_poly(p: HomPoly) -> HomPoly:
    """Reinterpret a polynomial in (x1, x2, x3) inside (x0, x1, x2, x3)."""
    if p.nvars != 3:
        raise ThreefoldError("expected a 3-variable polynomial")
    return HomPoly._of(4, {(0,) + e: c for e, c in p.num.items()}, p.den)


def quadratic_form_rank(A: HomPoly) -> int:
    """Rank of a quadratic form in 3 variables: the size of the largest
    nonzero principal minor of its symmetric matrix (a symmetric matrix of
    rank r has a nonzero principal r-minor), read off A's integer numerators
    as the matrix times 2 den, which has the same rank."""
    if A.nvars != 3 or A.degree != 2:
        raise ThreefoldError("rank check needs a 3-variable quadratic form")
    n = A.num.get
    a, d, f = 2 * n((2, 0, 0), 0), 2 * n((0, 2, 0), 0), 2 * n((0, 0, 2), 0)
    b, c, e = n((1, 1, 0), 0), n((1, 0, 1), 0), n((0, 1, 1), 0)
    if a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d):
        return 3
    if a * d - b * b or a * f - c * c or d * f - e * e:
        return 2
    return 1  # A is nonzero


@dataclass(frozen=True)
class QuarticData:
    """The quartic x0^2 A + x0 B + C with an ordinary double point at
    P = (1:0:0:0); A, B, C live in (x1, x2, x3)."""

    A: HomPoly
    B: HomPoly
    C: HomPoly

    @classmethod
    def build(cls, A: HomPoly, B: HomPoly, C: HomPoly, validate: bool = True):
        q = cls(A, B, C)
        if (A.degree, B.degree, C.degree) != (2, 3, 4):
            raise ThreefoldError("need degrees (2, 3, 4) for (A, B, C)")
        if validate:
            if quadratic_form_rank(A) != 3:
                raise ThreefoldError("A must be a quadratic form of rank 3")
            if mult_at(q.D, (1, 0, 0, 0)) != 2:
                raise ThreefoldError("P = (1:0:0:0) is not a double point")
            if not _certify_irreducible(q.D):
                raise ThreefoldError(
                    "could not certify irreducibility of the quartic over Q"
                )
        return q

    @cached_property
    def D(self) -> HomPoly:
        x0 = HomPoly.variable(4, 0)
        return (
            x0 * x0 * lift_plane_poly(self.A)
            + x0 * lift_plane_poly(self.B)
            + lift_plane_poly(self.C)
        )

    def tangent_cone_rank_at_p(self) -> int:
        # dehomogenizing at x0 = 1 leaves A + B + C; the lowest form is A
        return quadratic_form_rank(self.A)


def _certify_irreducible(D: HomPoly) -> bool:
    """Restrict to the lines through the first 12 pairs of small rational
    points; an irreducible degree-4 restriction certifies irreducibility of
    D.  D(u + t v) has constant term D(u) and t^4 coefficient D(v), so a
    line with D(u) = 0 or D(v) = 0 is skipped unrestricted (the first 7 pass
    through P)."""
    pts = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 1, 1), (1, 2, 3, 4), (2, -1, 1, 3), (1, -1, 2, -2),
    ]
    for u, v in itertools.islice(itertools.combinations(pts, 2), 12):
        if evaluate(D, u) and evaluate(D, v) and is_irreducible(restrict_to_line(D, u, v)):
            return True
    return False


def restrict_to_line(p: HomPoly, u, v):
    """Coefficients (ascending in t) of p(u + t v); with deg(p) = d this is the
    degree-d restriction to the line through u and v in the chart s = 1."""
    line = [HomPoly(2, {(1, 0): a, (0, 1): b}) for a, b in zip(u, v)]
    form = substitute(p, line)  # p(s u + t v), a binary form of degree d
    d = p.degree or 0
    return _trim([form.coefficient((d - k, k)) for k in range(d + 1)])


def _trim(coeffs):
    """Drop trailing zero coefficients, keeping at least one."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class SpaceMap(CremonaMap):
    """Birational self-map of P^3 as a content-normalized quadruple."""

    NVARS = 4
    __slots__ = ()


def build_involution(q: QuarticData) -> SpaceMap:
    """(x0 : x1 : x2 : x3) -> (-A x0 - B : A x1 : A x2 : A x3)."""
    x0, x1, x2, x3 = variables(4)
    A4 = lift_plane_poly(q.A)
    B4 = lift_plane_poly(q.B)
    return SpaceMap([-(A4 * x0) - B4, A4 * x1, A4 * x2, A4 * x3])


def is_involution(f: CremonaMap) -> bool:
    """Whether f o f is the identity: its components g_i = f_i(f) are H x_i
    for one nonzero form H, read off g_0 = H x_0 by an exponent shift (no
    content gcd).  Where they are not, the map of the g_i (compose's body)
    decides; like compose, this raises CremonaError on a degenerate f o f."""
    g = substitute_all(f.components, f.components)
    g0 = g[0]
    if g0.num and all(e[0] for e in g0.num):
        H = {(e[0] - 1,) + e[1:]: c for e, c in g0.num.items()}
        n = g0.nvars
        if all(
            gi
            == HomPoly._of(n, {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in H.items()}, g0.den)
            for i, gi in enumerate(g[1:], 1)
        ):
            return True
    return type(f)(g).is_identity


def preserves_quartic(f: SpaceMap, q: QuarticData) -> bool:
    """Membership in the decomposition group of D: D divides D o f exactly."""
    pullback = substitute(q.D, f.components)
    if pullback.is_zero:
        return False
    _, ok = poly_divide(pullback, q.D)
    return ok


def base_lines(q: QuarticData):
    """The six lines through P joining it to the rational points of
    {A = 0} n {B = 0} in the plane (x1 : x2 : x3).

    Returns the six plane points (each encodes the line (s : t a1 : t a2 :
    t a3)); raises ThreefoldError when the conic and cubic share a component
    or meet in fewer than six distinct rational points.  Every involution
    component vanishes on these lines: A(t a) = B(t a) = 0.
    """
    try:
        pts = common_zeros_plane([q.A, q.B])
    except PositiveDimensionalError as e:
        raise ThreefoldError(
            "B not general enough: conic and cubic share the component "
            f"{lift_plane_poly(e.component)}"
        ) from e
    if len(pts) != 6:
        raise ThreefoldError(
            f"B not general enough: conic and cubic share {len(pts)} rational "
            "points, need 6 distinct"
        )
    return pts


def bs_not_in_quartic(lines, q: QuarticData) -> bool:
    """True iff at least one base line is not contained in D (restrict D to
    each line as a degree-4 binary form and test for a nonzero one)."""
    return any(any(r) for r in line_restrictions(lines, q))


def line_restrictions(lines, q: QuarticData):
    """Degree-4 restriction coefficient lists of D on each base line, as
    restrict_to_line lists them: on (1 : t a1 : t a2 : t a3), D = x0^2 A +
    x0 B + C is t^2 A(a) + t^3 B(a) + t^4 C(a)."""
    zero = Fraction(0)
    return [
        _trim([zero, zero] + [evaluate(p, a) for p in (q.A, q.B, q.C)])
        for a in lines
    ]


# -- concrete rational instances ------------------------------------------------


_X1, _X2, _X3 = variables(3)
_CONIC = _X1 * _X3 - _X2**2
_FOURTH_POWERS = _X1**4 + _X2**4 + _X3**4


def _cubic_from_conic_restriction(root_pattern):
    """A cubic in (x1, x2, x3) whose restriction to the conic x1 x3 = x2^2,
    parametrized by (1 : t : t^2), equals the given monic degree-6 polynomial
    in t (as a coefficient list, ascending): t^m is the m-th monomial below."""
    lift = [(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3)]
    return HomPoly(3, dict(zip(lift, root_pattern)))


def _poly_from_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= Fraction(r) * coeffs[i + 1]
    return coeffs


def _conic_instance(roots, C: HomPoly, validate: bool = True) -> QuarticData:
    """A = x1 x3 - x2^2 (rank 3), B cutting the conic in the six parameter
    values `roots`, and C."""
    B = _cubic_from_conic_restriction(_poly_from_roots(roots))
    return QuarticData.build(_CONIC, B, C, validate=validate)


def desk_instance() -> QuarticData:
    """The concrete rational witness: B cuts the conic in {0, +-1, +-2, 3},
    and C, the sum of fourth powers, vanishes at none of the six points, so
    no base line lies on D."""
    return _conic_instance([0, 1, -1, 2, -2, 3], _FOURTH_POWERS)


def tangent_instance() -> QuarticData:
    """B meets the conic with a double parameter value: base_lines must
    reject it."""
    return _conic_instance([0, 0, 1, -1, 2, -2], _FOURTH_POWERS, validate=False)


def rigged_instance() -> QuarticData:
    """C forced to vanish on the whole conic, so every base line lies inside
    the (no longer general) quartic: the negative witness."""
    C = _CONIC * (_X1**2 + _X2**2 + _X3**2)
    return _conic_instance([0, 1, -1, 2, -2, 3], C, validate=False)
