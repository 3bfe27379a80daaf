"""The benchmark's workloads: seeded item generators, the chain of CLI calls
one item makes, and the checks on every call's output.

An item is a fixed chain of ``planecubic.cli.main([...], stdin=..., stdout=...)``
calls made in process.  The generators draw every input from the seed and
never repeat an item within a run, because sympy's process-wide cache would
otherwise time the cache instead of the program.  Checks run after the
timed loop and recompute what they can with ``arith`` instead of taking
the program's word for it.

Each call gets one verdict: "ok", "wrong" (exit 0 or 2 with the wrong answer
or the wrong one of the two codes) or "failed" (any other exit code, an
exception, or a call the chain never reached because an earlier call broke).

Left out on purpose: the degree-22 triple ``phi_{-(Q+P)} o phi_Q o phi_P``.
One compose of it took 81 s on a 2-core box (16-21 s elsewhere), longer than
a whole run; adding it is its own benchmark change.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction

import arith

OK, WRONG, FAILED = "ok", "wrong", "failed"

# Coefficient-height band shared by every curve: y^2 = x^3 + p x + q through
# the integral point G = (a, b), with |p| <= 3, 1 <= |a| <= 3, 1 <= |b| <= 6.
# a = 0 is left out: it makes the translation maps sparse, a cheaper cost class.
P_BAND, A_BAND, B_BAND = 3, 3, 6
# Multiples of G used as curve sample points when checking phi(R) = R + S.
SAMPLE_MULTIPLES = (3, 4, 5, 7, 9)
MAX_DRAWS = 100_000
HEIGHT_BAND = "|p| <= 3, 1 <= |a| <= 3, 1 <= |b| <= 6"


@dataclass
class Call:
    cmd: str
    rc: object  # int, or None when main raised
    out: str
    err: str
    start: float  # perf_counter() when main was called
    seconds: float  # wall time of the main call


class CLI:
    """Calls ``cli.main`` in process and records every call.  The module is
    looked up at each call, so the traced run sees its wrapper.  `before`,
    if given, runs ahead of every call, outside its timing."""

    def __init__(self, cli_module, before=None):
        self.cli = cli_module
        self.before = before
        self.calls = []

    def __call__(self, cmd, payload) -> Call:
        if self.before is not None:
            self.before()
        stdin, out, err = io.StringIO(json.dumps(payload)), io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(err):
                rc = self.cli.main([cmd], stdin=stdin, stdout=out)
        except Exception as e:  # a crash is a failed call, not the end of the run
            rc = None
            err.write(f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - start
        call = Call(cmd, rc, out.getvalue(), err.getvalue(), start, seconds)
        self.calls.append(call)
        return call


def verdict(call, expect_rc, check) -> tuple:
    """(verdict, detail) for one call; `check` maps stdout to "" or a reason."""
    if call is None:
        return FAILED, "not reached"
    if call.rc not in (0, 2):
        return FAILED, f"exit {call.rc}: {call.err.strip()[:200]}"
    if call.rc != expect_rc:
        return WRONG, f"exit {call.rc}, expected {expect_rc}"
    try:
        reason = check(call.out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
        reason = f"unreadable output: {type(e).__name__}: {e}"
    return (WRONG, reason) if reason else (OK, "")


def _curve_json(p, q):
    return {"p": str(p), "q": str(q)}


def _point_json(P):
    return {"x": str(P[0]), "y": str(P[1])}


def _draw_curve(rng):
    """A nonsingular curve in the height band with a non-torsion point G."""
    for _ in range(MAX_DRAWS):
        p = rng.randint(-P_BAND, P_BAND)
        a = rng.choice((-1, 1)) * rng.randint(1, A_BAND)
        b = rng.choice((-1, 1)) * rng.randint(1, B_BAND)
        q = b * b - a**3 - p * a
        if 4 * p**3 + 27 * q * q == 0:
            continue
        p, q, G = Fraction(p), Fraction(q), (Fraction(a), Fraction(b))
        if arith.on_curve(p, q, G) and arith.is_non_torsion(p, q, G):
            return p, q, G
    raise RuntimeError("no curve found in the height band")


def _distinct(draw, seed):
    """Yield draw(rng, index) items whose .key was not yielded before; a draw
    that returns None is redrawn."""
    rng = random.Random(seed)
    seen = set()
    while True:
        for _ in range(MAX_DRAWS):
            item = draw(rng, len(seen))
            if item is not None and item.key not in seen:
                break
        else:
            raise RuntimeError("item space exhausted")
        seen.add(item.key)
        yield item


def _samples(p, q, G):
    return [arith.ec_mul(p, q, j, G) for j in SAMPLE_MULTIPLES]


def _map_components(obj):
    return [arith.poly_from_json(c) for c in obj["components"]]


def _check_translation(p, q, obj, deg, shift, samples):
    if obj["deg"] != deg or len(obj["components"]) != 3:
        return f"degree {obj['deg']}, expected {deg}"
    return arith.translates_on_curve(p, q, _map_components(obj), shift, samples)


def _check_noether(t, d, mults):
    got = (t["d"], list(t["mults"]))
    if got != (d, list(mults)):
        return f"type {got}, expected {(d, list(mults))}"
    ms = t["mults"]
    if sum(ms) != 3 * d - 3 or sum(m * m for m in ms) != d * d - 1:
        return f"type {got} breaks the equations of condition"
    return ""


def _check_forest(obj, d, mults):
    reason = _check_noether(obj["type"], d, mults)
    if reason:
        return reason
    if sorted((n["mult"] for n in obj["forest"]), reverse=True) != list(mults):
        return "forest multiplicities disagree with the type"
    return ""


def _check_vp(expect_ok, links=None, in_dec=True):
    def check(out):
        obj = json.loads(out)
        want = {"all_vp": expect_ok, "ok": expect_ok, "in_dec": in_dec}
        if expect_ok:
            want.update(cy_invariant=True, models_admissible=True, routes_agree=True)
        if links is not None:
            want["links"] = links
        bad = {k: obj.get(k) for k, v in want.items() if obj.get(k) != v}
        return f"fields {bad}, expected {want}" if bad else ""

    return check


def _check_dec(d):
    def check(out):
        obj = json.loads(out)
        want = {"in_dec": True, "quotient_deg": 3 * d - 3}
        return "" if obj == want else f"{obj}, expected {want}"

    return check


def _check_compose(p, q, shift, samples):
    def check(out):
        obj = json.loads(out)
        if (obj["deg"], obj["deg_f"], obj["deg_g"]) != (10, 4, 4):
            return f"degrees {obj['deg']}, {obj['deg_f']}, {obj['deg_g']}; expected 10, 4, 4"
        return _check_translation(p, q, obj["map"], 10, shift, samples)

    return check


def _check_identity(out):
    obj = json.loads(out)
    comps = obj["map"]["components"]
    ident = [{"vars": 3, "terms": [{"exp": [int(i == j) for j in range(3)], "coef": "1"}]} for i in range(3)]
    if obj["deg"] != 1 or comps != ident:
        return f"not the identity: degree {obj['deg']}"
    return ""


# -- chain4 -------------------------------------------------------------------------


@dataclass
class Chain4Item:
    p: Fraction
    q: Fraction
    G: tuple
    k: int
    P: tuple
    flip: bool  # flip one node of the enriched state off the cubic
    flip_pick: int
    key: tuple = field(repr=False)


def _enriched_state(forest, degree, flip_id):
    kids = {}
    for n in forest:
        kids.setdefault(n["parent"], []).append(n)

    def spec(n):
        return {
            "mult": n["mult"],
            "on_cubic": n["on_cubic"] and n["id"] != flip_id,
            "children": [spec(k) for k in kids.get(n["id"], ())],
        }

    return {"degree": degree, "points": [spec(r) for r in kids.get(None, ())]}


class Chain4:
    name = "chain4"
    why = ("the README chain translate -> base-forest -> factorize -> vp-verify on "
           "phi_kG: many small calls, so jsonio, cli and common_zeros_plane show")
    K_BAND = 6  # P = kG with 1 <= |k| <= K_BAND; item cost is flat over it
    dims = {"degree": 4, "vars": 3, "k_band": K_BAND, "forests_per_item": 3,
            "height_band": HEIGHT_BAND}
    calls = ("translate", "base-forest", "factorize", "vp-verify", "vp-verify-state")
    min_items = 10

    def items(self, seed):
        def draw(rng, index):
            p, q, G = _draw_curve(rng)
            k = rng.choice((-1, 1)) * rng.randint(1, self.K_BAND)
            P = arith.ec_mul(p, q, k, G)
            if not arith.on_curve(p, q, P) or not arith.is_non_torsion(p, q, P):
                raise RuntimeError(f"bad point {P}")
            return Chain4Item(p, q, G, k, P, index % 2 == 1, rng.randrange(1 << 30),
                              key=(p, q, P))

        return _distinct(draw, seed)

    def run(self, item, cli):
        curve = _curve_json(item.p, item.q)
        m = json.loads(cli("translate", {"curve": curve, "P": _point_json(item.P)}).out)
        bf = json.loads(cli("base-forest", {"curve": curve, "map": m}).out)
        cli("factorize", {"curve": curve, "map": m})
        cli("vp-verify", {"curve": curve, "map": m})
        forest = bf["forest"]
        flip_id = forest[item.flip_pick % len(forest)]["id"] if item.flip else None
        cli("vp-verify", {"state": _enriched_state(forest, bf["type"]["d"], flip_id)})

    def check(self, item, calls):
        p, q, P = item.p, item.q, item.P
        samples = _samples(p, q, item.G)
        links = []

        def forest(out):
            obj = json.loads(out)
            reason = _check_forest(obj, 4, (3, 1, 1, 1, 1, 1, 1))
            if reason:
                return reason
            roots = {tuple(n["point"]): n["mult"] for n in obj["forest"] if n["parent"] is None}
            want = {(str(P[0]), str(P[1]), "1"): 3, ("0", "1", "0"): 1}
            if roots != want:
                return f"proper base points {roots}, expected {want}"
            if not all(n["on_cubic"] for n in obj["forest"]):
                return "a base point of phi_P off the cubic"
            return ""

        def factorize(out):
            lines = [json.loads(line) for line in out.splitlines()]
            summary, body = lines[-1], lines[:-1]
            want = {"all_vp": True, "final_system": [1], "links": len(body), "lints": []}
            if summary != want or not body:
                return f"summary {summary}, expected {want}"
            if not all(link["vp"] for link in body):
                return "a link is not volume preserving"
            links.append(len(body))
            return ""

        v = [
            verdict(_get(calls, 0), 0, lambda out: _check_translation(p, q, json.loads(out), 4, P, samples)),
            verdict(_get(calls, 1), 0, forest),
            verdict(_get(calls, 2), 0, factorize),
        ]
        v.append(verdict(_get(calls, 3), 0, _check_vp(True, links[0] if links else None)))
        v.append(verdict(_get(calls, 4), 2 if item.flip else 0, _check_vp(not item.flip, in_dec=None)))
        return v


def _get(calls, i):
    return calls[i] if i < len(calls) else None


# -- compose16 and composite10 ----------------------------------------------------


@dataclass
class PairItem:
    p: Fraction
    q: Fraction
    G: tuple
    P: tuple
    Q: tuple
    maps: dict  # "P", "Q", "-P": translation maps as CLI JSON
    key: tuple = field(repr=False)


def _pair_items(seed):
    """P = +-G and Q = +-2G: a fixed low-height band, so the seed does not
    change an item's cost class; P + Q is +-G or +-3G, never O."""

    def draw(rng, index):
        p, q, G = _draw_curve(rng)
        k1, k2 = rng.choice((-1, 1)), rng.choice((-2, 2))
        P, Q = arith.ec_mul(p, q, k1, G), arith.ec_mul(p, q, k2, G)
        for pt in (P, Q, arith.ec_add(p, q, P, Q)):
            if pt is arith.O or not arith.is_non_torsion(p, q, pt):
                raise RuntimeError(f"bad point {pt}")
        maps = {name: arith.map_json(arith.translation_map(pt))
                for name, pt in (("P", P), ("Q", Q), ("-P", arith.ec_neg(P)))}
        return PairItem(p, q, G, P, Q, maps, key=(p, q, P, Q))

    return _distinct(draw, seed)


class Compose16:
    name = "compose16"
    why = ("compose(phi_Q, phi_P) (16 -> 10) and compose(phi_-P, phi_P) (16 -> 1), then "
           "dec-check: content gcd does the work, base_forest none")
    dims = {"degree": "4 in, 16 before gcd, 10 and 1 out", "vars": 3,
            "multiples": "P = +-G, Q = +-2G", "forests_per_item": 0,
            "height_band": HEIGHT_BAND}
    calls = ("compose", "compose-inverse", "dec-check")
    min_items = 4

    def items(self, seed):
        return _pair_items(seed)

    def run(self, item, cli):
        h = json.loads(cli("compose", {"f": item.maps["Q"], "g": item.maps["P"]}).out)
        cli("compose", {"f": item.maps["-P"], "g": item.maps["P"]})
        cli("dec-check", {"curve": _curve_json(item.p, item.q), "map": h["map"]})

    def check(self, item, calls):
        p, q = item.p, item.q
        shift = arith.ec_add(p, q, item.P, item.Q)
        samples = _samples(p, q, item.G)
        return [
            verdict(_get(calls, 0), 0, _check_compose(p, q, shift, samples)),
            verdict(_get(calls, 1), 0, _check_identity),
            verdict(_get(calls, 2), 0, _check_dec(10)),
        ]


class Composite10:
    name = "composite10"
    why = ("compose -> dec-check -> base-forest -> vp-verify on phi_Q o phi_P: degree-10 "
           "blowup charts dominate; vp-verify hits the engine's StuckState")
    dims = {"degree": "4 in, 10 out", "vars": 3, "multiples": "P = +-G, Q = +-2G",
            "forests_per_item": 2, "height_band": HEIGHT_BAND}
    calls = ("compose", "dec-check", "base-forest", "vp-verify")
    min_items = 4  # about 24 reference seconds: every run times the same 4 items

    def items(self, seed):
        return _pair_items(seed)

    def run(self, item, cli):
        curve = _curve_json(item.p, item.q)
        h = json.loads(cli("compose", {"f": item.maps["Q"], "g": item.maps["P"]}).out)
        cli("dec-check", {"curve": curve, "map": h["map"]})
        cli("base-forest", {"curve": curve, "map": h["map"]})
        cli("vp-verify", {"curve": curve, "map": h["map"]})

    def check(self, item, calls):
        p, q = item.p, item.q
        shift = arith.ec_add(p, q, item.P, item.Q)
        samples = _samples(p, q, item.G)
        # phi_Q o phi_P preserves the cubic, so every link must be volume
        # preserving: exit 0 is the right answer for vp-verify.
        return [
            verdict(_get(calls, 0), 0, _check_compose(p, q, shift, samples)),
            verdict(_get(calls, 1), 0, _check_dec(10)),
            verdict(_get(calls, 2), 0, lambda out: _check_forest(json.loads(out), 10, (6,) + (3,) * 7)),
            verdict(_get(calls, 3), 0, _check_vp(True)),
        ]


# -- threefold ------------------------------------------------------------------------


@dataclass
class ThreefoldItem:
    params: tuple  # parameters t of the points (1 : t : t^2) where B meets the conic
    kind: str  # "general" | "tangent" | "rigged"
    payload: dict
    key: tuple = field(repr=False)


def _x(i):
    return arith.var(3, i)


def _conic():
    return arith.padd(arith.pmul(_x(0), _x(2)), arith.pscale(arith.pmul(_x(1), _x(1)), -1))


def _cubic_through(params):
    """A cubic whose restriction to the conic x1 x3 = x2^2, parametrized by
    (1 : t : t^2), is prod (t - t_i)."""
    coeffs = [Fraction(1)]
    for r in params:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    x1, x2, x3 = _x(0), _x(1), _x(2)
    lift = [
        arith.ppow(x1, 3), arith.pmul(arith.ppow(x1, 2), x2), arith.pmul(arith.ppow(x1, 2), x3),
        arith.pmul(arith.pmul(x1, x2), x3), arith.pmul(x1, arith.ppow(x3, 2)),
        arith.pmul(x2, arith.ppow(x3, 2)), arith.ppow(x3, 3),
    ]
    return arith.padd(*(arith.pscale(m, c) for m, c in zip(lift, coeffs)))


def _eisenstein_quartic(rng):
    """A quartic C with C(1, t, 0) Eisenstein at 2, so D = x0^2 A + x0 B + C is
    irreducible over Q by construction; the x3 terms are free."""
    terms = {(4, 0, 0): Fraction(2 * (2 * rng.randint(-2, 2) + 1)), (0, 4, 0): Fraction(1)}
    for j in (1, 2, 3):
        terms[(4 - j, j, 0)] = Fraction(2 * rng.randint(-2, 2))
    for e in [(a, b, 4 - a - b) for a in range(4) for b in range(4 - a)]:
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-3, 3))
    return {e: c for e, c in terms.items() if c}


class Threefold:
    name = "threefold"
    why = ("threefold-check on seeded {A, B, C}: the only path through threefold and "
           "4-variable exact; 1/4 tangent and 1/4 rigged instances must exit 2")
    dims = {"degree": "quartic in 4 vars (A, B, C of degrees 2, 3, 4 in 3)", "vars": 4,
            "param_band": "t = n/d, |n| <= 6, d <= 3", "share_tangent": 0.25,
            "share_rigged": 0.25}
    calls = ("threefold-check",)
    min_items = 20
    KINDS = ("general", "tangent", "general", "rigged")

    def items(self, seed):
        def draw(rng, index):
            kind = self.KINDS[index % len(self.KINDS)]
            params = set()
            while len(params) < (5 if kind == "tangent" else 6):
                params.add(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            params = sorted(params)
            if kind == "tangent":
                params.append(rng.choice(params))
            A = _conic()
            if kind == "rigged":
                quad = {}
                while not quad:
                    quad = {e: Fraction(rng.randint(-3, 3))
                            for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1))}
                    quad = {e: c for e, c in quad.items() if c}
                C = arith.pmul(A, quad)
            else:
                C = _eisenstein_quartic(rng)
                if any(arith.peval(C, (1, t, t * t)) == 0 for t in params):
                    return None  # C must miss the six points
            payload = {"A": arith.poly_json(A), "B": arith.poly_json(_cubic_through(params)),
                       "C": arith.poly_json(C)}
            if kind == "rigged":
                # as in the library's own rigged instance: D is not general, so
                # irreducibility is not certified
                payload["validate"] = False
            return ThreefoldItem(tuple(params), kind, payload,
                                 key=json.dumps(payload, sort_keys=True))

        return _distinct(draw, seed)

    def run(self, item, cli):
        cli("threefold-check", item.payload)

    def check(self, item, calls):
        general = item.kind == "general"
        want = {
            "involution": True,
            "preserves_quartic": True,
            "quotient_degree_8": True,
            "six_distinct_base_lines": item.kind != "tangent",
            "bs_not_in_quartic": general,
            "tangent_cone_rank_3": True,
        }

        def check(out):
            obj = json.loads(out)
            checks = dict(obj["checks"])
            has_error = checks.pop("base_lines_error", None) is not None
            if checks != want or obj["ok"] != general or has_error != (item.kind == "tangent"):
                return f"{obj}, expected checks {want}"
            return ""

        return [verdict(_get(calls, 0), 0 if general else 2, check)]


WORKLOADS = {w.name: w for w in (Chain4(), Compose16(), Composite10(), Threefold())}
