"""JSON encodings of the library's values (rationals as "num/den" strings)."""

from __future__ import annotations

import sys
from fractions import Fraction

from .cremona import BubbleForest, CremonaMap, HomaloidalType
from .elliptic import CurvePoint, WeierstrassCurve
from .exact import ExactError, HomPoly
from .sarkisov import EngineError, FactorizationState, SarkisovLink, check_start_state, plane_state
from .surfaces import SurfaceModel


class DecodeError(ValueError):
    pass


def rat_to_json(r) -> str:
    return str(Fraction(r))


def rat_from_json(s) -> Fraction:
    return Fraction(_number_from_json(s))


def _number_from_json(s):
    """A rational as an int when it is a JSON integer or its text is
    -?[0-9]+ (the common case), else as a Fraction; either way it has the
    value Fraction(str(s)) reads.  Only strings and JSON integers are read:
    a float, a bool or null is rejected, not cast, and so is a decimal
    exponent above Python's integer-string limit (when it has one), whose
    value could be neither built quickly nor printed."""
    if type(s) is int:
        return s
    if type(s) is not str:
        raise DecodeError(f"bad rational {s!r}: expected a string or a JSON integer")
    try:
        digits = s[1:] if s[:1] == "-" else s
        if digits.isascii() and digits.isdigit():
            return int(s)
        _, sep, exponent = s.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 or none before 3.10.7: no limit
        if sep and limit and abs(int(exponent)) > limit:
            raise ValueError(f"exponent above the {limit}-digit integer limit")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DecodeError(f"bad rational {s!r}: {e}")


def poly_to_json(p: HomPoly) -> dict:
    den = p.den
    return {
        "vars": p.nvars,
        "terms": [
            {"exp": list(e), "coef": str(c) if den == 1 else rat_to_json(Fraction(c, den))}
            for e, c in sorted(p.num.items(), reverse=True)
        ],
    }


def _json_int(x) -> int:
    """A JSON integer as is; floats, bools and strings are rejected, not cast."""
    if type(x) is not int:
        raise DecodeError(f"expected a JSON integer, got {x!r}")
    return x


def _json_bool(x) -> bool:
    """A JSON boolean as is; strings, numbers and null are rejected, not cast."""
    if type(x) is not bool:
        raise DecodeError(f"expected a JSON boolean, got {x!r}")
    return x


def poly_from_json(obj) -> HomPoly:
    """`vars` is a JSON integer in {3, 4}, no exponent vector is repeated and
    each coefficient is read by `_number_from_json`; the HomPoly constructor
    checks the exponents and the one total degree."""
    try:
        nvars = _json_int(obj["vars"])
        if nvars not in (3, 4):
            raise DecodeError(f"vars must be 3 or 4, got {nvars}")
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if exp in terms:
                raise DecodeError("an exponent is repeated in terms")
            terms[exp] = _number_from_json(t["coef"])
        return HomPoly(nvars, terms)
    except (ExactError, KeyError, TypeError, ValueError) as e:
        raise DecodeError(f"bad polynomial object: {e}")


def map_to_json(f: CremonaMap) -> dict:
    return {"deg": f.degree, "components": [poly_to_json(c) for c in f.components]}


def map_from_json(obj) -> CremonaMap:
    try:
        comps = [poly_from_json(c) for c in obj["components"]]
    except (KeyError, TypeError) as e:
        raise DecodeError(f"bad map object: {e}")
    f = CremonaMap(comps)
    if "deg" in obj and _json_int(obj["deg"]) != f.degree:
        raise DecodeError(f"declared degree {obj['deg']} != actual {f.degree}")
    return f


def curve_from_json(obj) -> WeierstrassCurve:
    try:
        return WeierstrassCurve(rat_from_json(obj["p"]), rat_from_json(obj["q"]))
    except (KeyError, TypeError) as e:
        raise DecodeError(f"bad curve object: {e}")


def curve_point_to_json(pt: CurvePoint):
    if pt.is_infinity:
        return "O"
    return {"x": rat_to_json(pt.x), "y": rat_to_json(pt.y)}


def curve_point_from_json(obj) -> CurvePoint:
    if obj == "O":
        return CurvePoint.infinity()
    try:
        return CurvePoint(rat_from_json(obj["x"]), rat_from_json(obj["y"]))
    except (KeyError, TypeError) as e:
        raise DecodeError(f"bad point object: {e}")


def proj_point_to_json(pt):
    return [rat_to_json(c) for c in pt]


def proj_point_from_json(obj):
    if type(obj) is not list:
        raise DecodeError(f"bad projective point: expected a JSON list, got {obj!r}")
    return tuple(rat_from_json(c) for c in obj)


def forest_to_json(forest: BubbleForest) -> list:
    out = []
    for n in forest:
        entry = {
            "id": n.id,
            "parent": n.parent,
            "level": n.level,
            "mult": n.mult,
            "on_cubic": n.on_cubic,
        }
        if n.point is not None:
            entry["point"] = proj_point_to_json(n.point)
        if n.direction is not None:
            entry["dir"] = (
                n.direction if isinstance(n.direction, str) else rat_to_json(n.direction)
            )
        out.append(entry)
    return out


def type_to_json(t: HomaloidalType) -> dict:
    return {"d": t.d, "mults": list(t.mults)}


def type_from_json(obj) -> HomaloidalType:
    """{"d": d, "mults": [m, ...]}: the degree and every multiplicity an integer >= 1."""
    try:
        d, mults = _json_int(obj["d"]), tuple(_json_int(m) for m in obj["mults"])
    except (KeyError, TypeError) as e:
        raise DecodeError(f"bad homaloidal type: {e}")
    if min((d,) + mults) < 1:
        raise DecodeError(f"bad homaloidal type: d and mults must be >= 1, got {d}; {list(mults)}")
    return HomaloidalType(d, mults)


def model_to_json(m: SurfaceModel) -> dict:
    if m.is_plane:
        return {"kind": "P2"}
    return {"kind": "Fn", "n": m.n}


def link_to_json(link: SarkisovLink) -> dict:
    out = {
        "kind": link.kind,
        "center": link.center,
        "vp": link.vp,
        "from": model_to_json(link.from_model),
        "to": model_to_json(link.to_model),
        "system": list(link.system_after),
    }
    if link.kind == "II":
        out["case"] = link.case_tag
    return out


def state_from_json(obj) -> FactorizationState:
    """Enriched starting state on P^2 with the boundary cubic: {"degree": d,
    "points": [{"mult", "on_cubic", "children": [...]}, ...]}.  The cubic is
    always tracked, so a "track_cubic" key is rejected.  The multiplicities,
    children included, must satisfy the equations of condition."""

    def spec(node):
        try:
            return (
                _json_int(node["mult"]),
                _json_bool(node.get("on_cubic", False)),
                [spec(k) for k in node.get("children", [])],
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DecodeError(f"bad enriched point: {e}")

    try:
        if "track_cubic" in obj:
            raise DecodeError("track_cubic is not a state field: the cubic is always tracked")
        degree = _json_int(obj["degree"])
        points = [spec(p) for p in obj.get("points", [])]
    except (KeyError, TypeError, ValueError) as e:
        raise DecodeError(f"bad enriched state: {e}")
    state = plane_state(degree, points)
    try:
        check_start_state(state)
    except EngineError as e:
        raise DecodeError(f"bad enriched state: {e}")
    return state
