"""Property tests for the one sparse polynomial type (AffinePoly, and HomPoly
as its homogeneous subclass) on small random polynomials in 2-4 variables.

The representation tests check that every operation returns integer
numerators over one denominator in canonical form, and that its Fraction
view `terms` equals the result computed on plain {exponent: Fraction}
dicts (or by the Fraction references in `_oracles`)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    reference_content_normalize,
    reference_eval,
    reference_poly_divide,
    reference_poly_gcd,
    reference_shift,
    reference_substitute,
)

from planecubic.cremona import CremonaError, CremonaMap
from planecubic.exact import (
    AffinePoly,
    DimensionMismatch,
    ExactError,
    HomPoly,
    content_normalize,
    evaluate,
    normalize_point,
    poly_divide,
    poly_gcd,
    reduce_on_cubic,
    substitute,
    substitute_all,
)
from planecubic.jsonio import poly_to_json

SETTINGS = settings(max_examples=25, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def affine_polys(draw, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return AffinePoly(nvars, draw(st.dictionaries(exps, rationals, max_size=5)))


@st.composite
def forms(draw, nvars, degree):
    """A HomPoly of the given degree: each exponent counts `degree` draws of a
    variable index."""
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        picks = draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))
        out[tuple(picks.count(i) for i in range(nvars))] = draw(rationals)
    return HomPoly(nvars, out)


nvars_st = st.integers(2, 4)


@SETTINGS
@given(st.data(), nvars_st)
def test_ring_identities(data, nvars):
    p, q, r = (data.draw(affine_polys(nvars)) for _ in range(3))
    assert (p + q) - q == p
    assert p * (q + r) == p * q + p * r


@SETTINGS
@given(st.data(), nvars_st)
def test_equal_polynomials_hash_equal(data, nvars):
    p, q = data.draw(affine_polys(nvars)), data.draw(affine_polys(nvars))
    rebuilt = AffinePoly(nvars, dict(reversed(list(p.terms.items()))))
    assert (p + q) - q == rebuilt == p
    assert hash((p + q) - q) == hash(rebuilt) == hash(p)
    form = data.draw(forms(nvars, data.draw(st.integers(0, 3))))
    as_affine = AffinePoly(nvars, form.terms)
    assert as_affine == form and hash(as_affine) == hash(form)


@SETTINGS
@given(st.data(), nvars_st)
def test_shift_roundtrip(data, nvars):
    p = data.draw(affine_polys(nvars))
    c = data.draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    assert p.shift(c).shift([-a for a in c]) == p


@SETTINGS
@given(st.data(), nvars_st)
def test_evaluate_is_dehomogenized_eval(data, nvars):
    P = data.draw(forms(nvars, data.draw(st.integers(0, 4))))
    raw = data.draw(
        st.lists(rationals, min_size=nvars, max_size=nvars).filter(any)
    )
    pt = normalize_point(raw)
    chart = max(i for i, c in enumerate(pt) if c)
    rest = pt[:chart] + pt[chart + 1 :]
    assert evaluate(P, pt) == P.dehomogenize(chart).eval(rest)


@SETTINGS
@given(st.data(), nvars_st, st.integers(0, 3), st.integers(1, 3))
def test_sum_of_different_degrees_rejected(data, nvars, d, gap):
    p = data.draw(forms(nvars, d).filter(lambda f: not f.is_zero))
    q = data.draw(forms(nvars, d + gap).filter(lambda f: not f.is_zero))
    with pytest.raises(ExactError):
        p + q
    with pytest.raises(ExactError):
        q - p


@SETTINGS
@given(st.data(), nvars_st, st.integers(0, 3), st.integers(0, 2))
def test_poly_divide_recovers_a_factor(data, nvars, dp, dq):
    p = data.draw(forms(nvars, dp).filter(lambda f: not f.is_zero))
    q = data.draw(forms(nvars, dq).filter(lambda f: not f.is_zero))
    assert poly_divide(p * q, q) == (p, True)
    f = p * q + data.draw(forms(nvars, dp + dq))
    assert poly_divide(f, q)[1] == reference_poly_divide(f, q)[1]


@settings(max_examples=30, deadline=None, database=None)
@given(st.data(), st.integers(3, 4), st.sampled_from(["certificate", "heuristic", "sympy"]))
def test_gcd_cofactors_on_every_route(data, nvars, route):
    # a planted factor (a constant on the certificate's route) times cofactors
    # of degrees 0..2, some of them zero: g times each cofactor is its input's
    # numerator, on the route the gcd takes
    from planecubic import exact

    degree = 0 if route == "certificate" else data.draw(st.integers(1, 2))
    common = data.draw(forms(nvars, degree).filter(lambda f: not f.is_zero))
    degrees = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=3))
    fs = [common * data.draw(forms(nvars, d)) for d in degrees]
    nonzero = [f for f in fs if not f.is_zero]
    assume(nonzero)
    if route == "certificate":
        assume(len(nonzero) > 1 and exact._coprime_on_line(nonzero))
    answers = []
    real = exact._heu_gcd
    with pytest.MonkeyPatch.context() as mp:
        if route == "sympy":
            mp.setattr(exact, "_heu_gcd", lambda *args: None)
        else:
            mp.setattr(exact, "_heu_gcd", lambda *a: answers.append(real(*a)) or answers[-1])
        g = poly_gcd(fs)
    if route == "heuristic":
        assume(answers[-1] is not None)
    assert g == reference_poly_gcd(fs)
    assert len(g.cofactors) == len(fs)
    for f, q in zip(fs, g.cofactors):
        assert g * q == HomPoly(nvars, f.num)


# -- the representation: canonical numerators over one denominator ---------


def assert_reads_as(p, expected: dict):
    """p is canonical (nonzero int numerators, den >= 1 sharing no factor
    with them) and its Fraction view equals `expected` without its zeros."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert dict(p.terms) == {e: c for e, c in expected.items() if c}


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def dict_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = dict_mul(out, a)
    return out


@SETTINGS
@given(st.data(), nvars_st, rationals)
def test_arithmetic_is_canonical(data, nvars, r):
    p, q = data.draw(affine_polys(nvars)), data.draw(affine_polys(nvars))
    P, Q = dict(p.terms), dict(q.terms)
    assert_reads_as(p, P)
    assert_reads_as(p + q, dict_add(P, Q))
    assert_reads_as(p - q, dict_add(P, {e: -c for e, c in Q.items()}))
    assert_reads_as(p * q, dict_mul(P, Q))
    assert_reads_as(p * r, {e: c * r for e, c in P.items()})
    assert_reads_as(r * p, {e: c * r for e, c in P.items()})


@SETTINGS
@given(st.data(), nvars_st)
def test_chart_operations_are_canonical(data, nvars):
    p = data.draw(affine_polys(nvars))
    P = dict(p.terms)
    i = data.draw(st.integers(0, nvars - 1))
    assert_reads_as(
        p.partial(i),
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in P.items() if e[i]},
    )
    point = data.draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    assert_reads_as(p.shift(point), dict(reference_shift(p, point).terms))
    k = data.draw(st.integers(0, 2))
    raised = p * AffinePoly(nvars, {tuple(k if j == i else 0 for j in range(nvars)): 1})
    assert_reads_as(raised.divide_var_power(i, k), P)


@SETTINGS
@given(st.data(), nvars_st)
def test_substitute_two_with_rational_monomials(data, nvars):
    """Unit monomials in 2 variables with an injective exponent map rename
    keys; a rational coefficient, more variables or a map that is not
    injective raises."""
    p = data.draw(affine_polys(2))
    exps = st.lists(st.integers(0, 2), min_size=2, max_size=2)
    eu, ev = data.draw(exps), data.draw(exps)
    assume(eu[0] * ev[1] != eu[1] * ev[0])
    u, v = AffinePoly(2, {tuple(eu): 1}), AffinePoly(2, {tuple(ev): 1})
    expected = {tuple(a * i + b * j for i, j in zip(eu, ev)): c for (a, b), c in p.terms.items()}
    assert_reads_as(p.substitute_two(u, v), expected)
    c = data.draw(rationals.filter(lambda r: r not in (0, 1)))
    wide = AffinePoly.variable(nvars + 1, 0), AffinePoly.variable(nvars + 1, 1)
    for bad in [(u * c, v), (u, v * c), wide, (u, u)]:
        with pytest.raises(ExactError):
            p.substitute_two(*bad)


@SETTINGS
@given(st.data(), nvars_st, st.integers(0, 3))
def test_dehomogenize_is_canonical(data, nvars, d):
    form = data.draw(forms(nvars, d))
    chart = data.draw(st.integers(0, nvars - 1))
    assert_reads_as(
        form.dehomogenize(chart), {e[:chart] + e[chart + 1 :]: c for e, c in form.terms.items()}
    )


@SETTINGS
@given(st.data(), nvars_st, st.integers(0, 2), st.integers(0, 2))
def test_kernels_are_canonical(data, nvars, dp, dm):
    P = data.draw(forms(nvars, dp))
    maps = [data.draw(forms(nvars, dm)) for _ in range(nvars)]
    if any(not m.is_zero for m in maps):
        assert_reads_as(substitute(P, maps), dict(reference_substitute(P, maps).terms))
    q = data.draw(forms(nvars, dm).filter(lambda f: not f.is_zero))
    quo, ok = poly_divide(P * q, q)
    assert ok and (P.is_zero or quo == P)
    assert_reads_as(quo, dict(P.terms))
    if any(not m.is_zero for m in maps):
        for got, ref in zip(content_normalize(maps), reference_content_normalize(maps)):
            assert_reads_as(got, dict(ref.terms))


@SETTINGS
@given(st.data(), st.sampled_from([3, 4]), st.integers(1, 3))
def test_substitute_all_matches_reference(data, nvars, dm):
    """Forms of mixed degrees, a zero form among them, substituted together
    (sharing the products of the maps, one of them zero): each reads as its
    own substitution."""
    degrees = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    ps = [data.draw(forms(nvars, d)) for d in degrees]
    ps.insert(data.draw(st.integers(0, len(ps))), HomPoly.zero(nvars))
    maps = [data.draw(forms(nvars, dm).filter(lambda f: not f.is_zero)) for _ in range(nvars)]
    maps[data.draw(st.integers(0, nvars - 1))] = HomPoly.zero(nvars)
    got = substitute_all(ps, maps)
    assert len(got) == len(ps)
    for p, out in zip(ps, got):
        assert_reads_as(out, dict(reference_substitute(p, maps).terms))
        assert substitute(p, maps) == substitute_all([p], maps)[0] == out


@SETTINGS
@given(st.data(), st.integers(0, 4), rationals, rationals)
def test_reduce_on_cubic_is_canonical(data, d, p, q):
    """Each output reads as c z^(D - d) f with y^2 z replaced by W = x^3 +
    p x z^2 + q z^3, for the c = delta^(d // 2) den that reduce_on_cubic
    documents."""
    fs = [data.draw(forms(3, d).filter(lambda f: not f.is_zero)) for _ in range(2)]
    top, k = d + d // 2, d // 2
    delta = Fraction(p).denominator * Fraction(q).denominator // gcd(
        Fraction(p).denominator, Fraction(q).denominator
    )
    den = 1
    for f in fs:
        den = den * f.den // gcd(den, f.den)
    W = {(3, 0, 0): Fraction(1), (1, 0, 2): p, (0, 0, 3): q}
    for f, r in zip(fs, reduce_on_cubic(fs, p, q)):
        expected = {}
        for (i, j, l), c in f.terms.items():
            e = j // 2
            term = {(i, j % 2, l + top - d - e): c * delta**k * den}
            expected = dict_add(expected, dict_mul(term, dict_pow(W, e, 3)))
        assert_reads_as(r, expected)


@SETTINGS
@given(st.data(), st.integers(3, 4), st.integers(0, 3))
def test_json_prints_the_fraction_reading(data, nvars, d):
    """poly_to_json prints the stored numerators over den exactly as the
    Fraction view reads, in descending exponent order."""
    f = data.draw(forms(nvars, d))
    assert poly_to_json(f) == {
        "vars": nvars,
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(f.terms.items(), reverse=True)],
    }


# -- points in integers: one scaling per point, Fractions only in the result


# coordinates mix ints and Fractions, zero included
coords = st.one_of(st.integers(-4, 4), rationals)


def points(nvars):
    return st.lists(coords, min_size=nvars, max_size=nvars)


def reference_normalized(pt) -> tuple:
    last = next(Fraction(c) for c in reversed(pt) if c)
    return tuple(Fraction(c) / last for c in pt)


@SETTINGS
@given(st.data(), nvars_st)
def test_eval_matches_reference(data, nvars):
    p = data.draw(affine_polys(nvars))
    F = data.draw(forms(nvars, data.draw(st.integers(0, 4))))
    pt = data.draw(points(nvars))
    for q in (p, F):
        got = q.eval(pt)
        assert type(got) is Fraction and got == reference_eval(q, pt)
    if any(pt):
        got = evaluate(F, pt)
        assert type(got) is Fraction and got == reference_eval(F, pt)
    else:
        with pytest.raises(ExactError):
            evaluate(F, pt)


@SETTINGS
@given(st.data(), nvars_st)
def test_normalize_point_matches_fraction_division(data, nvars):
    pt = data.draw(points(nvars))
    if not any(pt):
        with pytest.raises(ExactError):
            normalize_point(pt)
        return
    got = normalize_point(pt)
    assert got == reference_normalized(pt)
    assert type(got) is tuple and all(type(c) is Fraction for c in got)
    assert normalize_point(got) == got and normalize_point(list(got)) == got


def test_normalize_point_reads_ints_as_fractions():
    assert normalize_point((2, 4, 1)) == (Fraction(2), Fraction(4), Fraction(1))
    assert all(type(c) is Fraction for c in normalize_point((2, 4, 1)))
    assert normalize_point((Fraction(1, 2), 3, 0)) == (Fraction(1, 6), Fraction(1), Fraction(0))


@SETTINGS
@given(st.data(), st.sampled_from([3, 4]), st.integers(1, 3))
def test_apply_matches_normalized_values(data, nvars, d):
    comps = [data.draw(forms(nvars, d).filter(lambda f: not f.is_zero)) for _ in range(nvars)]
    try:
        f = type("Map", (CremonaMap,), {"NVARS": nvars})(comps)
    except (CremonaError, ExactError):
        assume(False)
    pt = data.draw(points(nvars).filter(any))
    vals = [reference_eval(c, pt) for c in f.components]
    assert f.apply(pt) == (reference_normalized(vals) if any(vals) else None)


def test_apply_base_point_and_bad_points():
    x, y, z = (HomPoly.variable(3, i) for i in range(3))
    sigma = CremonaMap([y * z, x * z, x * y])
    assert sigma.apply((1, 0, 0)) is None
    assert sigma.apply((Fraction(1, 2), 3, 1)) == (Fraction(2), Fraction(1, 3), Fraction(1))
    with pytest.raises(ExactError):
        sigma.apply((0, 0, 0))
    with pytest.raises(DimensionMismatch):
        sigma.apply((1, 2))
