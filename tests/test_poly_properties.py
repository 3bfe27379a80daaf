"""Property tests for the one sparse polynomial type (AffinePoly, and HomPoly
as its homogeneous subclass) on small random polynomials in 2-4 variables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_poly_divide

from planecubic.exact import (
    AffinePoly,
    ExactError,
    HomPoly,
    evaluate,
    normalize_point,
    poly_divide,
)

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
