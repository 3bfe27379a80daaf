"""The nonsingular plane cubic as an elliptic curve: group law, automorphism
order, and the explicit degree-4 translation maps."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .cremona import CremonaMap
from .exact import HomPoly, _ints_over_lcm, substitute_all


class EllipticError(Exception):
    pass


@dataclass(frozen=True)
class CurvePoint:
    x: Optional[Fraction]
    y: Optional[Fraction]

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        return cls(Fraction(x), Fraction(y))

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


O = CurvePoint.infinity()


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 z = x^3 + p x z^2 + q z^3 with rational p, q and neutral element
    O = (0:1:0), an inflection point."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.discriminant == 0:
            raise EllipticError(
                f"singular curve: discriminant of y^2=x^3+({self.p})x+({self.q}) is 0"
            )
        # x^3 + p x + q = (den x^3 + P x + Q) / den with integral P and Q
        (P, Q), den = _ints_over_lcm((self.p, self.q))
        object.__setattr__(self, "_integral", (den, P, Q))

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.p**3 + 27 * self.q**2)

    @property
    def equation(self) -> HomPoly:
        return HomPoly(3, {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -self.p, (0, 0, 3): -self.q})

    def contains(self, pt: CurvePoint) -> bool:
        if pt.is_infinity:
            return True
        # with x = a / b and y = c / e: c^2 den b^3 = e^2 (den a^3 + P a b^2 + Q b^3)
        den, P, Q = self._integral
        a, b, c, e = pt.x.numerator, pt.x.denominator, pt.y.numerator, pt.y.denominator
        bb = b * b
        return c * c * den * bb * b == e * e * ((den * a * a + P * bb) * a + Q * bb * b)

    def _require(self, pt: CurvePoint):
        if not self.contains(pt):
            raise EllipticError(f"{pt} is not on y^2=x^3+({self.p})x+({self.q})")

    def __repr__(self):
        return f"WeierstrassCurve(y^2 = x^3 + ({self.p})x + ({self.q}))"


def add(curve: WeierstrassCurve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-and-tangent group law with neutral element O.

    The sum is the reflection of the third collinear point; skipping the
    reflection yields an operation with no neutral element (see the
    sign-convention test), so only this convention is implemented.
    """
    curve._require(P)
    curve._require(Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    # in integers, with x_i = n_i / d_i and y_i = c_i / e_i: the slope a / b,
    # then x3 = m^2 - x1 - x2 and y3 = m (x1 - x3) - y1, one Fraction each
    n1, d1, c1, e1 = P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator
    n2, d2, c2, e2 = Q.x.numerator, Q.x.denominator, Q.y.numerator, Q.y.denominator
    if P.x == Q.x:
        if P.y == -Q.y:
            return O
        den, pn, _ = curve._integral  # m = (3 x1^2 + pn / den) / (2 y1)
        a, b = (3 * n1 * n1 * den + pn * d1 * d1) * e1, 2 * c1 * d1 * d1 * den
    else:
        a, b = (c2 * e1 - c1 * e2) * d1 * d2, (n2 * d1 - n1 * d2) * e1 * e2
    x3 = Fraction(a * a * d1 * d2 - (n1 * d2 + n2 * d1) * b * b, b * b * d1 * d2)
    n3, d3 = x3.numerator, x3.denominator
    y3 = Fraction(a * (n1 * d3 - n3 * d1) * e1 - c1 * b * d1 * d3, b * d1 * d3 * e1)
    return CurvePoint(x3, y3)


def neg(curve: WeierstrassCurve, P: CurvePoint) -> CurvePoint:
    curve._require(P)
    if P.is_infinity:
        return O
    return CurvePoint(P.x, -P.y)


def multiple(curve: WeierstrassCurve, k: int, P: CurvePoint) -> CurvePoint:
    if k < 0:
        return multiple(curve, -k, neg(curve, P))
    acc, base = O, P
    while k:
        if k & 1:
            acc = add(curve, acc, base)
        base = add(curve, base, base)
        k >>= 1
    return acc


def aut_order(curve: WeierstrassCurve) -> int:
    """Order of the automorphism group fixing O: 6 at j=0, 4 at j=1728, else 2."""
    if curve.p == 0:
        return 6
    if curve.q == 0:
        return 4
    return 2


def translation_map(curve: WeierstrassCurve, P: CurvePoint) -> CremonaMap:
    """The degree-4 plane Cremona map restricting to translation by P on the
    cubic; P = O gives the identity (the set-theoretic section)."""
    curve._require(P)
    if P.is_infinity:
        return CremonaMap.identity()
    a, b = P.x, P.y
    # the forms in X = x - a z, Y = y - b z and z, then one shared substitution
    templates = (
        {(1, 2, 1): 1, (4, 0, 0): -1, (3, 0, 1): -2 * a},
        {(0, 3, 1): -1, (3, 1, 0): 1, (2, 1, 1): 3 * a, (3, 0, 1): -b},
        {(3, 0, 1): 1},
    )
    shifted = [
        HomPoly(3, {(1, 0, 0): 1, (0, 0, 1): -a}),
        HomPoly(3, {(0, 1, 0): 1, (0, 0, 1): -b}),
        HomPoly(3, {(0, 0, 1): 1}),
    ]
    return CremonaMap(substitute_all([HomPoly(3, t) for t in templates], shifted))


def to_projective(pt: CurvePoint):
    if pt.is_infinity:
        return (Fraction(0), Fraction(1), Fraction(0))
    return (pt.x, pt.y, Fraction(1))


def small_points(curve: WeierstrassCurve, bound: int = 50, limit: int = 8):
    """Affine rational points with small integer x (sampling seeds)."""
    # x^3 + p x + q = v / den for v = den x^3 + P x + Q;
    # v / den = (v den) / den^2 is a rational square iff s = v den is a square
    den, P, Q = curve._integral
    found = []
    for ax in range(-bound, bound + 1):
        s = ((den * ax * ax + P) * ax + Q) * den
        if s < 0:
            continue
        r = isqrt(s)
        if r * r != s:
            continue
        y0 = Fraction(r, den)
        found.append(CurvePoint(Fraction(ax), y0))
        if y0 != 0:
            found.append(CurvePoint(Fraction(ax), -y0))
        if len(found) >= limit:
            break
    if not found:
        raise EllipticError("no small rational point found; supply one explicitly")
    return found


def default_samples(curve: WeierstrassCurve, count: int = 10):
    """Distinct affine sample points: the subgroup generated by small points,
    enumerated breadth-first.

    On torsion-only curves the closure is finite, so fewer than `count`
    points may come back; callers that need many samples should use a
    positive-rank curve.
    """
    bases = small_points(curve)
    out, seen = [], {O}
    # each entry stands for the point prev + b (b itself when prev is None),
    # added only when popped: the queue's tail is mostly never reached
    queue = deque((None, b) for b in bases)
    steps = 0
    while queue and len(out) < count and steps < 40 * count:
        steps += 1
        prev, b = queue.popleft()
        pt = b if prev is None else add(curve, prev, b)
        if pt in seen:
            continue
        seen.add(pt)
        out.append(pt)
        queue.extend((pt, b) for b in bases)
    return out
