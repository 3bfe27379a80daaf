"""Picard lattices of P^2 and the Hirzebruch surfaces: intersection numbers,
canonical classes, Calabi-Yau admissibility, and the two volume-preserving
decision lemmas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class SurfaceError(Exception):
    pass


def _int(v):
    """v itself if it is an int (bools excluded): nothing is cast."""
    if type(v) is not int:
        raise SurfaceError(f"expected an int, got {v!r}")
    return v


@dataclass(frozen=True)
class SurfaceModel:
    """P^2 (n is None) with basis [H], or F_n with basis [F, E] (F a fiber, E
    the negative section; for n = 0 the labels fix one ruling as the fibration)."""

    n: Optional[int] = None

    def __post_init__(self):
        if self.n is not None and _int(self.n) < 0:
            raise SurfaceError("Hirzebruch surface needs n >= 0")

    @classmethod
    def plane(cls) -> "SurfaceModel":
        return cls()

    @classmethod
    def hirzebruch(cls, n: int) -> "SurfaceModel":
        return cls(_int(n))

    @property
    def is_plane(self) -> bool:
        return self.n is None

    @property
    def rank(self) -> int:
        return 1 if self.is_plane else 2

    def __repr__(self):
        return "P2" if self.is_plane else f"F{self.n}"


def _check_class(model: SurfaceModel, D):
    if len(D) != model.rank:
        raise SurfaceError(f"class {D} does not match basis of {model}")
    return tuple(_int(c) for c in D)


def intersect(model: SurfaceModel, D1, D2) -> int:
    """Intersection form: H^2 = 1 on P^2; F^2 = 0, F.E = 1, E^2 = -n on F_n."""
    D1 = _check_class(model, D1)
    D2 = _check_class(model, D2)
    if model.is_plane:
        return D1[0] * D2[0]
    a1, b1 = D1
    a2, b2 = D2
    return a1 * b2 + a2 * b1 - model.n * b1 * b2


def canonical_class(model: SurfaceModel):
    """-3H on P^2; -(n+2)F - 2E on F_n."""
    if model.is_plane:
        return (-3,)
    return (-(model.n + 2), -2)


def is_mf_cy_admissible(model: SurfaceModel) -> bool:
    """Whether the Mori fibered surface admits an irreducible anticanonical
    boundary: P^2 always, F_n exactly for n <= 2 (since -K.E = 2-n)."""
    if model.is_plane:
        return True
    return model.n <= 2


def blowup_vp(point_mult_on_boundary: int):
    """Volume-preservation of one point blowup against a nonsingular boundary.

    The boundary multiplicity m is 0 or 1; the exceptional discrepancy is
    1 - m, and the blowup is volume preserving exactly when it vanishes.
    Returns (vp, discrepancy).
    """
    m = _int(point_mult_on_boundary)
    if m not in (0, 1):
        raise SurfaceError(
            f"boundary multiplicity {m} impossible for a nonsingular boundary"
        )
    return (m == 1, 1 - m)


def blowdown_vp(c_dot_e: int) -> bool:
    """Volume-preservation of contracting a (-1)-curve E: true iff C.E = 1
    (then the image curve stays nonsingular)."""
    if _int(c_dot_e) < 0:
        raise SurfaceError("C.E < 0 would make E a component of the boundary")
    return c_dot_e == 1


def sarkisov_degree(model: SurfaceModel, system) -> Fraction:
    """d/3 for a degree-d system on P^2; b/2 for aF + bE on F_n (the label
    of the fibration fixes which projection is meant on F_0)."""
    system = _check_class(model, system)
    if model.is_plane:
        return Fraction(system[0], 3)
    return Fraction(system[1], 2)
