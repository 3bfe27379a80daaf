"""Exact arithmetic the benchmark does on its own, without the package under
test: the elliptic group law (to make inputs and to check outputs), the
degree-4 translation-map formula (to make compose inputs), and evaluation of
the JSON polynomials the CLI prints.

Rationals are Fractions; a polynomial is a dict {exponent tuple: Fraction}.
"""

from __future__ import annotations

from fractions import Fraction

O = None  # the neutral element (0:1:0)

# Mazur: a rational torsion point has order at most 12.
MAX_TORSION_ORDER = 12


def on_curve(p, q, pt) -> bool:
    if pt is O:
        return True
    x, y = pt
    return y * y == x**3 + p * x + q


def ec_add(p, q, P, Q):
    """Chord-and-tangent sum on y^2 = x^3 + p x + q, neutral element O."""
    if P is O:
        return Q
    if Q is O:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return O
        m = (3 * x1 * x1 + p) / (2 * y1)
    else:
        m = (y2 - y1) / (x2 - x1)
    x3 = m * m - x1 - x2
    return (x3, m * (x1 - x3) - y1)


def ec_neg(P):
    return O if P is O else (P[0], -P[1])


def ec_mul(p, q, k, P):
    if k < 0:
        return ec_mul(p, q, -k, ec_neg(P))
    acc = O
    for _ in range(k):
        acc = ec_add(p, q, acc, P)
    return acc


def is_non_torsion(p, q, P) -> bool:
    acc = P
    for _ in range(MAX_TORSION_ORDER):
        if acc is O:
            return False
        acc = ec_add(p, q, acc, P)
    return True


# -- polynomials in (x, y, z) or (x1, x2, x3) ------------------------------------


def pmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def padd(*fs):
    out = {}
    for f in fs:
        for e, c in f.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def pscale(f, c):
    return {e: c * v for e, v in f.items()} if c else {}


def ppow(f, k):
    out = {(0,) * len(next(iter(f))): Fraction(1)}
    for _ in range(k):
        out = pmul(out, f)
    return out


def var(n, i):
    return {tuple(int(j == i) for j in range(n)): Fraction(1)}


def peval(f, pt):
    total = Fraction(0)
    for e, c in f.items():
        v = c
        for coord, k in zip(pt, e):
            if k:
                v *= coord**k
        total += v
    return total


def poly_json(f) -> dict:
    """The CLI's polynomial encoding: {"vars": n, "terms": [{"exp", "coef"}]}."""
    n = len(next(iter(f)))
    return {
        "vars": n,
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(f.items(), reverse=True)],
    }


def poly_from_json(obj):
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in obj["terms"]}


def translation_map(P):
    """Components of the degree-4 map restricting to translation by the
    affine point P = (a, b) on the cubic."""
    a, b = P
    x, y, z = (var(3, i) for i in range(3))
    xa = padd(x, pscale(z, -a))
    yb = padd(y, pscale(z, -b))
    xa2 = pmul(xa, xa)
    xa3 = pmul(xa2, xa)
    F1 = padd(pmul(pmul(z, pmul(yb, yb)), xa), pscale(pmul(padd(x, pscale(z, a)), xa3), -1))
    F2 = padd(
        pscale(pmul(z, ppow(yb, 3)), -1),
        pmul(pmul(yb, padd(x, pscale(z, 2 * a))), xa2),
        pscale(pmul(z, xa3), -b),
    )
    F3 = pmul(z, xa3)
    return [F1, F2, F3]


def map_json(components) -> dict:
    return {"components": [poly_json(c) for c in components]}


def apply_map(components, P):
    """Image of an affine curve point under a plane map: an affine point, O,
    or "base" when every component vanishes there."""
    vals = [peval(c, (P[0], P[1], Fraction(1))) for c in components]
    if all(v == 0 for v in vals):
        return "base"
    X, Y, Z = vals
    if Z == 0:
        return O if X == 0 else "off"
    return (X / Z, Y / Z)


def translates_on_curve(p, q, components, shift, samples) -> str:
    """Empty string when the map sends every usable sample R to R + shift;
    otherwise the first discrepancy.  At least three samples must be usable."""
    used = 0
    for R in samples:
        img = apply_map(components, R)
        if img == "base":
            continue
        want = ec_add(p, q, R, shift)
        if img != want:
            return f"phi({R}) = {img}, expected {want}"
        used += 1
    return "" if used >= 3 else f"only {used} usable samples"
