"""Exact scalar and polynomial arithmetic over Q: the substrate for everything else.
A polynomial is integer numerators over one denominator, and the kernels read them as stored."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, combinations, repeat
from math import gcd as int_gcd
from math import isqrt
from math import lcm as int_lcm
from operator import add, mul, sub
from types import MappingProxyType

Rational = Fraction

_VAR_NAMES = {3: ("x", "y", "z"), 4: ("x0", "x1", "x2", "x3")}


class ExactError(Exception):
    pass


class DimensionMismatch(ExactError):
    pass


class PositiveDimensionalError(ExactError):
    """The common zero locus has a curve component; carries it as a polynomial."""

    def __init__(self, component: "HomPoly"):
        self.component = component
        super().__init__(f"common positive-dimensional component: {component}")


class AffinePoly:
    """Sparse polynomial in nvars >= 1 variables over Q: local (chart)
    expansions, and through HomPoly the forms themselves.

    Stored as integer numerators over one denominator: `num` maps exponent
    tuples to nonzero ints and `den` is an int >= 1 with gcd(den, *num) = 1,
    so the pair is canonical; the zero polynomial is {} over 1 and its
    degree is None.  `terms` is the Fraction reading, a read-only view.
    Instances are immutable by convention and hashable: results may share a
    numerator dict with their input.  `terms`, the hash and the degree are
    computed on first use and kept.
    """

    __slots__ = ("nvars", "num", "den", "_terms", "_hash", "_degree")

    def __init__(self, nvars: int, terms: dict):
        if type(nvars) is not int or nvars < 1:
            raise DimensionMismatch(f"nvars must be a positive integer, got {nvars!r}")
        clean = {}
        for exp, c in terms.items():
            if len(exp) != nvars or any(type(e) is not int or e < 0 for e in exp):
                raise ExactError(f"bad exponent vector {exp!r}")
            if type(c) is not int:
                c = _rational(c)
            if c:
                clean[tuple(exp)] = c
        nums, self.den = _ints_over_lcm(clean.values())
        self.nvars = nvars
        self.num = dict(zip(clean, nums))
        self._terms = self._hash = self._degree = None
        self._validate()

    def _validate(self):
        """Subclass hook: reject terms the subclass cannot hold; returns self."""
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int):
        if type(i) is not int or not 0 <= i < nvars:
            raise ExactError(f"no variable {i!r} among {nvars!r}")
        return cls(nvars, {tuple(int(k == i) for k in range(nvars)): 1})

    @classmethod
    def _of(cls, nvars: int, num: dict, den: int = 1):
        """Wrap nonzero int numerators over den >= 1 (the kernels' constructor),
        cancelling their common factor with den; den = 1 costs nothing."""
        if den != 1:
            g = int_gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: c // g for e, c in num.items()}
        return cls._wrap(nvars, num, den)

    @classmethod
    def _wrap(cls, nvars: int, num: dict, den: int):
        """Wrap a pair that is already canonical, as a remap of a canonical
        pair's keys is: no gcd is taken."""
        out = object.__new__(cls)
        out.nvars, out.num, out.den = nvars, num, den
        out._terms = out._hash = out._degree = None
        return out

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self):
        """{exponent tuple: Fraction coefficient}, read-only."""
        if self._terms is None:
            self._terms = MappingProxyType({e: Fraction(c, self.den) for e, c in self.num.items()})
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if self._degree is None and self.num:
            self._degree = max(map(sum, self.num))
        return self._degree

    def coefficient(self, exp) -> Fraction:
        return Fraction(self.num.get(tuple(exp), 0), self.den)

    def __eq__(self, other):
        return (
            isinstance(other, AffinePoly)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self.den, tuple(sorted(self.num.items()))))
        return self._hash

    def __repr__(self):
        if self.is_zero:
            return "0"
        names = _VAR_NAMES.get(self.nvars) or [f"u{i}" for i in range(self.nvars)]
        parts = []
        for exp in sorted(self.num, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("mixed variable counts")
        a, b = self.den, other.den
        den = int_lcm(a, b)
        num = {e: c * (den // a) for e, c in self.num.items()}
        for e, c in other.num.items():
            num[e] = num.get(e, 0) + c * (den // b)
        return type(self)._of(self.nvars, {e: c for e, c in num.items() if c}, den)._validate()

    def __neg__(self):
        return type(self)._of(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, AffinePoly):
            other = _rational(other)
            num = {e: c * other.numerator for e, c in self.num.items()} if other else {}
            return type(self)._of(self.nvars, num, self.den * other.denominator)
        if self.nvars != other.nvars:
            raise DimensionMismatch("mixed variable counts")
        num = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                num[e] = num.get(e, 0) + c1 * c2
        num = {e: c for e, c in num.items() if c}
        return type(self)._of(self.nvars, num, self.den * other.den)._validate()

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ExactError("negative power")
        out = type(self)._of(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, i: int):
        num = {
            e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]
            for e, c in self.num.items()
            if e[i]
        }
        return type(self)._of(self.nvars, num, self.den)

    def eval(self, point) -> Fraction:
        """Value at a point: `_scaled_value` on its integer scaling, read as
        one Fraction (none for a zero value)."""
        total, scale = self._scaled_value(*_point_ints(point))
        return Fraction(total, scale) if total else _ZERO

    def _scaled_value(self, nums, D) -> tuple:
        """(total, scale) with value = total / scale at the point with
        coordinates n_i / D: total = sum num_e prod n_i^e_i D^(d - |e|) and
        scale = den D^d, for d the degree (0 for the zero polynomial), summed
        over per-coordinate power tables."""
        d = self.degree or 0
        tables = [_powers(n, d) for n in nums]
        lift = _powers(D, d)
        total = 0
        for e, v in self.num.items():
            for t, k in zip(tables, e):
                v *= t[k]
            total += v * lift[d - sum(e)]
        return total, self.den * lift[d]

    # -- chart operations ---------------------------------------------------

    def order(self) -> int:
        """Order of vanishing at the origin: minimal total degree of a term."""
        if self.is_zero:
            raise ExactError("order of the zero polynomial")
        return min(map(sum, self.num))

    def shift(self, point) -> "AffinePoly":
        """Translate so that `point` moves to the origin: u_i -> u_i + c_i."""
        num, den = self.num, self.den
        for i, c in enumerate(point):
            if c:
                num, den = _shift_var(num, den, i, c if type(c) in (int, Fraction) else Fraction(c))
        if den == self.den:
            # no shift had a denominator: an integer shift is invertible over
            # Z, so it keeps the numerators' content and the pair canonical
            return AffinePoly._wrap(self.nvars, num, den)
        return AffinePoly._of(self.nvars, num, den)

    def substitute_two(self, u: "AffinePoly", v: "AffinePoly") -> "AffinePoly":
        """Plug unit monomials u = s^eu, v = s^ev in 2 variables into a
        2-variable polynomial, with (a, b) -> a eu + b ev injective (as on
        both blow-up charts): a renaming of keys, so no gcd is taken."""
        if self.nvars != 2:
            raise DimensionMismatch("substitute_two needs a 2-variable polynomial")
        if u.nvars != 2 or v.nvars != 2 or len(u.num) != 1 or len(v.num) != 1:
            raise ExactError("substitute_two needs two monomials in 2 variables")
        (((i0, i1), nu),) = u.num.items()
        (((j0, j1), nv),) = v.num.items()
        if nu != 1 or nv != 1 or u.den != 1 or v.den != 1 or i0 * j1 == i1 * j0:
            raise ExactError("substitute_two needs unit monomials with an injective exponent map")
        num = {(a * i0 + b * j0, a * i1 + b * j1): c for (a, b), c in self.num.items()}
        return AffinePoly._wrap(2, num, self.den)

    def divide_var_power(self, i: int, k: int) -> "AffinePoly":
        """Exact division by u_i^k; raises if some term is not divisible."""
        if any(e[i] < k for e in self.num):
            raise ExactError("not divisible by requested variable power")
        num = {e[:i] + (e[i] - k,) + e[i + 1 :]: c for e, c in self.num.items()}
        return AffinePoly._wrap(self.nvars, num, self.den)


class HomPoly(AffinePoly):
    """An AffinePoly whose terms share one total degree: a form on P^(nvars-1)."""

    __slots__ = ()

    def _validate(self):
        degs = {sum(e) for e in self.num}
        if len(degs) > 1:
            raise ExactError(f"non-homogeneous terms: degrees {sorted(degs)}")
        return self

    def dehomogenize(self, chart: int) -> AffinePoly:
        """Set variable `chart` to 1; remaining variables keep their order."""
        # one total degree: dropping a coordinate keeps exponents distinct
        num = {e[:chart] + e[chart + 1 :]: c for e, c in self.num.items()}
        return AffinePoly._wrap(self.nvars - 1, num, self.den)


def _rational(c) -> Fraction:
    """An int (not a bool) or a Fraction, as a Fraction; nothing is cast."""
    if type(c) not in (int, Fraction):
        raise ExactError(f"coefficients must be ints or Fractions, got {c!r}")
    return Fraction(c) if type(c) is int else c


_ZERO = Fraction(0)


def _ints_over_lcm(values) -> tuple:
    """Ints and Fractions as integer numerators over the lcm D of their
    denominators: (nums, D), with gcd(D, *nums) = 1."""
    D = int_lcm(*(c.denominator for c in values))
    return [c.numerator * (D // c.denominator) for c in values], D


def _point_ints(point) -> tuple:
    """`_ints_over_lcm` of a point; a coordinate not an int or Fraction goes through Fraction."""
    return _ints_over_lcm([c if type(c) in (int, Fraction) else Fraction(c) for c in point])


def _projective_ints(pt, nvars: int) -> tuple:
    """`_point_ints` of a projective point with nvars coordinates."""
    nums, D = _point_ints(pt)
    if len(nums) != nvars:
        raise DimensionMismatch(f"point has {len(nums)} coordinates, expected {nvars}")
    if not any(nums):
        raise ExactError("not a projective point: all coordinates zero")
    return nums, D


def _powers(n: int, d: int) -> list:
    """[n^0, ..., n^d]."""
    return list(accumulate(repeat(n, d), mul, initial=1))


def variables(n: int):
    return tuple(HomPoly.variable(n, i) for i in range(n))


def _shift_var(num: dict, den: int, i: int, c: Fraction) -> tuple:
    """u_i -> u_i + c on num / den, as (numerators, denominator): one integer
    Taylor shift per row of terms that agree off variable i.  With c = p / q
    and N the largest exponent of u_i, a row f(t) times q^N is h(q t + p) for
    the integral h(t) = q^N f(t / q), over den q^N."""
    rows = {}
    for e, coef in num.items():
        rows.setdefault(e[:i] + e[i + 1 :], {})[e[i]] = coef
    p, q = c.numerator, c.denominator
    N = max((e[i] for e in num), default=0)
    out = {}
    for rest, row in rows.items():
        n = max(row)
        h = [0] * (n + 1)
        for k, a in row.items():
            h[k] = a * q ** (N - k)
        for lo in range(n):
            for k in range(n - 1, lo - 1, -1):
                h[k] += p * h[k + 1]
        for k, hk in enumerate(h):
            if hk:
                out[rest[:i] + (k,) + rest[i:]] = hk * q**k
    return out, den * q**N


def _pack(e, base: int) -> int:
    """An exponent vector as one int in the given base; when every exponent
    is below the base, exponents add as ints and lex order is int order."""
    key = 0
    for k in e:
        key = key * base + k
    return key


def _unpack(key: int, base: int, nvars: int) -> tuple:
    exp = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        key, exp[i] = divmod(key, base)
    return tuple(exp)


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two {packed key: int} polynomials (may keep zeros): terms,
    or `substitute_all`'s rows, whose ints multiply as packed polynomials."""
    out = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


# -- sympy bridge: sparse rings over ZZ, reached by poly_gcd, rational_roots
# (and is_irreducible) and the resultant in _affine_y_candidates only


@cache
def _ring(nvars: int):
    """ZZ[u0, ..., u{nvars-1}] in lex order, built on first use: sympy is
    imported only when a gcd, a resultant or a root search needs it."""
    from sympy import ZZ, lex
    from sympy.polys.rings import PolyRing

    return PolyRing([f"u{i}" for i in range(nvars)], ZZ, lex)


def _univariate(ints: list):
    return _ring(1).from_dict({(k,): c for k, c in enumerate(ints) if c})


class _Gcd(HomPoly):
    """poly_gcd's answer g, carrying `cofactors`: one integer form q_i per
    input, with g q_i the input's numerator (zero for a zero input).
    Arithmetic on g gives a plain HomPoly, which has no cofactors."""

    __slots__ = ("cofactors",)

    @classmethod
    def _of(cls, nvars: int, num: dict, den: int = 1):
        return HomPoly._of(nvars, num, den)


def poly_gcd(polys) -> HomPoly:
    """Gcd of the nonzero polynomials, as an integer primitive polynomial with
    positive lex-leading coefficient; its `cofactors` (see _Gcd) are found
    with it, so content_normalize divides nothing.

    Two or more inputs first meet the exact coprimality certificate
    `_coprime_on_line`, which needs no sympy; when it holds the gcd is 1 and
    the cofactors are the numerators.  Otherwise the common monomial x^low
    comes off every input, low_i the least x_i-exponent over all terms, and
    goes back on the result alone.  No x_j divides the gcd of the stripped
    inputs, so it is the homogenization of their gcd in the chart x_j = 1,
    for the last x_j whose pure power some stripped input keeps (else
    x_last), computed in integers; each cofactor is homogenized to its
    input's degree less the gcd's.  The heuristic gcd `_heu_gcd` finds the
    gcd and the cofactors where it can prove its answer; sympy's ZZ ring
    does the rest, its gcd giving the cofactors as well.
    """
    inputs = list(polys)
    polys = [p for p in inputs if not p.is_zero]
    if not polys:
        raise ExactError("gcd of all-zero input")
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in inputs):
        raise DimensionMismatch("mixed variable counts")
    if len(polys) > 1 and _coprime_on_line(polys):
        return _with_cofactors(inputs, {(0,) * nvars: 1}, [p.num for p in polys])
    low = list(map(min, zip(*chain.from_iterable(p.num for p in polys))))
    nums = [p.num for p in polys]
    if any(low):
        nums = [{tuple(map(sub, e, low)): c for e, c in f.items()} for f in nums]
    # an input with x_j^d is nonzero at e_j, so e_j is no common zero of the
    # cofactors, and the chart puts e_j where _heu_gcd's curve starts
    j = next((j for j in reversed(range(nvars)) if any(_keeps_top(f, j) for f in nums)), nvars - 1)
    degrees = [p.degree - sum(low) for p in polys]
    base = max(degrees) + 1
    affine = [{e[:j] + e[j + 1 :]: c for e, c in f.items()} for f in nums]
    packed = [{_pack(e, base): c for e, c in f.items()} for f in affine]
    found = _heu_gcd(packed, (base, nvars - 1))
    if found is not None:
        g, cofactors = found
    else:
        # sympy's gcd over ZZ comes with its cofactors: each input is g times
        # its q, kept up to date as g shrinks
        elems = [_ring(nvars - 1).from_dict(f) for f in affine]
        g, cofactors = elems[0], [elems[0].ring.one]
        for f in elems[1:]:
            if g.is_ground:
                break
            g, a, b = g.cofactors(f)
            cofactors = [q * a for q in cofactors] + [b]
        if g.is_ground:
            g, cofactors = {(0,) * (nvars - 1): 1}, affine
        else:
            content, g = g.primitive()
            cofactors = [q * content for q in cofactors]
            g, *cofactors = ({e: int(c) for e, c in q.items()} for q in [g, *cofactors])
    d = max(map(sum, g))

    def homogenized(f: dict, deg: int) -> dict:
        return {e[:j] + (deg - sum(e),) + e[j:]: c for e, c in f.items()}

    g = {tuple(map(add, e, low)): c for e, c in homogenized(g, d).items()}
    cofactors = [homogenized(q, deg - d) for q, deg in zip(cofactors, degrees)]
    return _with_cofactors(inputs, g, cofactors)


def _with_cofactors(inputs, g: dict, cofactors) -> _Gcd:
    """The gcd numerator g and the nonzero inputs' cofactors, signed so g's
    lex-leading coefficient is positive, as a _Gcd."""
    nvars = inputs[0].nvars
    if g[max(g)] < 0:
        g = {e: -c for e, c in g.items()}
        cofactors = [{e: -c for e, c in q.items()} for q in cofactors]
    out = _Gcd._wrap(nvars, g, 1)
    quotients = iter(cofactors)
    out.cofactors = [HomPoly._wrap(nvars, {} if p.is_zero else next(quotients), 1) for p in inputs]
    return out


# Packed operands above this many bits skip _heu_gcd: CPython's int gcd is
# quadratic, and beyond it sympy's recursive gcd is faster.
_HEU_GCD_BITS = 24_000


def _heu_gcd(fs, form=None):
    """(G, [Q_i]) with G Q_i = f_i and G primitive, so G is the gcd of the
    f_i up to its sign; or None.  Each f_i is a nonzero {packed exponent:
    int} dict: a list's coefficients by position, or, with form = (base,
    nvars), a form's dehomogenization F_i packed in base over nvars
    variables (the Kronecker substitution), whose answer _form_gcd unpacks.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symb. Comput. 7, 1989),
    with each f_i read as a polynomial in t: f_i is evaluated at xi = 2^s,
    G is read off the balanced base-xi digits of the values' gcd, and each
    Q_i off the quotient of its value by G(xi).  When ||f_i||, ||Q_i||
    ||G||_1 < xi / 2 (the cofactor bound), the digits of both sides of
    G(xi) Q_i(xi) = f_i(xi) agree, so G Q_i = f_i in Z[t].  As s >=
    bitlen ||f||_inf + 8, xi > 2 ||f||_inf + 2, and by their theorem a
    primitive G that divides every f_i is then their gcd in Z[t].

    For forms that is the gcd of the images f_i = pack(F_i).  As G Q_i =
    f_i, no key of G or Q_i passes f_i's largest, so they unpack to G_u and
    Q_u with pack(G_u) = G and pack(Q_u) = Q_i; and pack is one-to-one, and
    multiplicative on factors whose total degrees add up below the base.
    The degree check asks deg G_u + deg Q_u < base, so no exponent of
    G_u Q_u reaches the base and pack(G_u Q_u) = G Q_i = f_i = pack(F_i):
    G_u divides every F_i, so g = G_u k for their gcd g.  Each F_i is g
    times a cofactor of degree deg F_i - deg g, so pack(g) = G pack(k)
    divides every f_i, and so G: pack(k) = +-1, and g = +-G_u.

    A rejected answer is retried once: lists with xi squared, forms as _form_gcd says.
    """
    norm = max(abs(c) for f in fs for c in f.values())
    top = max(key for f in fs for key in f)
    s = (norm.bit_length() + 15) // 8 * 8  # at least 8 bits to spare
    if s * (top + 1) > _HEU_GCD_BITS:
        return None
    if form:
        return _form_gcd(lambda lead: [_at_power(_negated(f, lead), s) for f in fs], s, *form)
    found = _heu_gcd_at(fs, s)  # lists retry with xi squared
    if found is None and 2 * s * (top + 1) <= _HEU_GCD_BITS:
        found = _heu_gcd_at(fs, 2 * s)
    return found


def _form_gcd(values, s: int, base: int, nvars: int):
    """_heu_gcd's answer on forms packed in base over nvars variables, past
    its degree check and unpacked, (G_u, [Q_u]); or None.  values(lead) are
    the forms' values at xi = 2^s with the variable of place value lead
    negated (none for lead 0).  The second try negates the first variable:
    the Kronecker curve (t^lead, ..., t) starts at the origin, which the
    caller's chart keeps off the cofactors' common zeros, but passes through
    (1, ..., 1), where the cofactors may meet and share a factor that no xi
    removes.  _heu_gcd's argument holds for the negated F_i."""
    for lead in (0, base ** max(nvars - 1, 0)):
        found = _heu_gcd_of(values(lead), s)
        if found is not None:
            G, *qs = ({_unpack(k, base, nvars): c for k, c in _negated(f, lead).items()}
                      for f in [found[0], *found[1]])
            dg = max(map(sum, G))
            if all(dg + max(map(sum, q)) < base for q in qs):
                return G, qs
    return None


def _negated(f: dict, lead: int) -> dict:
    """A packed form with its variable of place value lead negated; f for lead 0."""
    return {key: -c if key // lead % 2 else c for key, c in f.items()} if lead else f


def _heu_gcd_at(fs, s: int):
    """One try of _heu_gcd at xi = 2^s, before the degree check."""
    return _heu_gcd_of([_at_power(f, s) for f in fs], s)


def _heu_gcd_of(vals, s: int):
    """One try on the nonzero values f_i(2^s): (G, [Q_i]) as digit dicts, or None."""
    G = _balanced_digits(reduce(int_gcd, vals), s)
    cont = int_gcd(*G.values())
    G = {key: c // cont for key, c in G.items()}
    # a G of 1-norm >= 2^(s-1) fails the cofactor bound below, as Q_i != 0
    g_norm, half = sum(map(abs, G.values())), 1 << (s - 1)
    g_val = _at_power(G, s)
    cofactors = []
    for v in vals:
        q, r = divmod(v, g_val)
        Q = _balanced_digits(q, s)
        if r or max(map(abs, Q.values())) * g_norm >= half:
            return None
        cofactors.append(Q)
    return G, cofactors


def _at_power(f: dict, s: int) -> int:
    """The packed polynomial's value at 2^s (s a multiple of 8, every
    coefficient below 2^(s-1) in size): each coefficient plus 2^(s-1) is one
    s-bit digit of the bytes, and 2^(s-1) in every position comes off."""
    w, half = s // 8, 1 << (s - 1)
    lift = half.to_bytes(w, "little")
    digits = [lift] * (max(f) + 1)
    for key, c in f.items():
        digits[key] = (c + half).to_bytes(w, "little")
    return int.from_bytes(b"".join(digits), "little") - int.from_bytes(lift * len(digits), "little")


def _balanced_digits(v: int, s: int) -> dict:
    """v in base 2^s (s a multiple of 8) with digits in [-2^(s-1), 2^(s-1)),
    as {position: digit} for the nonzero digits: the inverse of _at_power,
    and the reader of substitute_all's rows."""
    if not v:
        return {}
    low = ((v & -v).bit_length() - 1) // s  # the digits below position low are 0
    v >>= low * s
    w, half = s // 8, 1 << (s - 1)
    if -half <= v < half:
        return {low: v}
    n = (abs(v).bit_length() + 1) // s + 1  # n digits cover |v| < 2^(s n - 2)
    raw = (v + int.from_bytes(half.to_bytes(w, "little") * n, "little")).to_bytes(n * w, "little")
    out = {}
    for k in range(0, n * w, w):
        d = int.from_bytes(raw[k : k + w], "little") - half
        if d:
            out[low] = d
        low += 1
    return out


def _coprime_on_line(polys) -> bool:
    """True only if the nonzero forms share no nonconstant factor; a False
    decides nothing.

    Each form's integral numerator is restricted to a line through the
    vertex e_j, for the first j at which some form has an x_j^d term.  Line
    j goes through the point with coordinates k + 2 (k != j), so it avoids
    (1:...:1); line 0 of the plane, (s : 3 : 4), holds no point (x : y : 1)
    with x and y integers.  The form's s^i coefficient there (at t = 1) sums
    its coefficients with x_j-exponent i, each times the point's coordinates
    to the other exponents.  When no form has a pure power, the line x_k =
    k + 2 + s, of direction (1, ..., 1), is used instead if some form is
    nonzero at (1 : ... : 1).  No later line is tried, so a real common
    factor costs one line.  The certificate holds when the integer gcd of
    the restrictions' values at xi = 2^s is below xi / 2, with s 8 bits
    above every restriction's largest coefficient, so xi / 2 > 1 + that
    coefficient in size.

    Exact: a common factor H of the integral forms is, up to a unit,
    integral and primitive, so H(e_j) divides each form's x_j^d coefficient
    (Gauss's lemma) and is nonzero, as one form has that term.  So H's
    restriction h has degree deg H >= 1, with top coefficient H(e_j), and
    divides every restriction in Z[s].  On the diagonal line that coefficient is H(1, ..., 1), which
    divides some form's nonzero value there.  A root a of h is a root of a
    nonzero restriction r, so |a| < 1 + ||r||_inf < xi / 2 (Cauchy's bound)
    and |h(xi)| >= prod |xi - a| > (xi / 2)^deg h >= xi / 2.  h(xi) divides
    every value, r(xi) != 0 among them, so their gcd is above xi / 2.
    """
    nvars = polys[0].nvars
    j = next((j for j in range(nvars) if any(_keeps_top(p.num, j) for p in polys)), None)
    if j is not None:
        rows = [_line_restriction(p, j) for p in polys]
    elif any(sum(p.num.values()) for p in polys):
        rows = list(map(_diagonal_restriction, polys))
    else:
        return False
    s = max(abs(c) for row in rows for c in row).bit_length() + 8
    values = (reduce(lambda v, c: (v << s) + c, reversed(row), 0) for row in rows)  # Horner
    return int_gcd(*values) < 1 << (s - 1)


def _keeps_top(num: dict, j: int) -> bool:
    """Whether a form's numerator has an x_j^d term."""
    e = next(iter(num))
    return (0,) * j + (sum(e),) + (0,) * (len(e) - j - 1) in num


def _line_restriction(p: HomPoly, j: int) -> list:
    """Ascending s-coefficients of p's numerator on line j of
    _coprime_on_line, at t = 1."""
    rows = {}
    for e, c in p.num.items():
        for k, ek in enumerate(e):
            if ek and k != j:
                c *= (k + 2) ** ek
        rows[e[j]] = rows.get(e[j], 0) + c
    return [rows.get(i, 0) for i in range(max(rows) + 1)]


def _diagonal_restriction(p: HomPoly) -> list:
    """Ascending s-coefficients of p's numerator on the line x_k = k + 2 + s
    of _coprime_on_line."""
    out = [0] * (p.degree + 1)
    for e, c in p.num.items():
        row = [c]
        for k, ek in enumerate(e):
            for _ in range(ek):  # times (k + 2 + s)
                row = [a * (k + 2) + b for a, b in zip(row + [0], [0] + row)]
        out = [a + b for a, b in zip(out, row)]
    return out


def poly_divide(f: HomPoly, g: HomPoly):
    """Exact division f / g for homogeneous polynomials.

    Returns (quotient, ok). Single-divisor reduction in lex order; the
    remainder is unique, so ok=True iff g divides f exactly.

    Works in integers: with f = F / fden and g = cont G / gden for the
    numerators F and cont G (G primitive), G divides F over Q iff over Z
    (Gauss's lemma), so a remainder whose leading coefficient lc(G) does not
    divide ends the division at once; f / g = (F / G) gden / (fden cont).
    Exponents are packed in base max(deg f, deg g) + 1, which no exponent of
    f, g or a remainder term reaches, and the remainder's leading term comes
    off a heap.
    """
    if g.is_zero:
        raise ExactError("division by zero polynomial")
    if f.is_zero:
        return HomPoly.zero(f.nvars), True
    if f.nvars != g.nvars:
        raise DimensionMismatch("mixed variable counts")
    if any(len({sum(e) for e in p.num}) > 1 for p in (f, g)):
        raise ExactError("poly_divide needs homogeneous polynomials")
    n, base = f.nvars, max(f.degree, g.degree) + 1
    rem = {_pack(e, base): c for e, c in f.num.items()}
    G = {_pack(e, base): c for e, c in g.num.items()}
    cont = int_gcd(*G.values())
    g_key = max(G)
    g_lead, g_c = _unpack(g_key, base, n), G.pop(g_key) // cont
    G = [(e, c // cont) for e, c in G.items()]
    heap = [-key for key in rem]
    heapify(heap)
    quo = {}
    while rem:
        lead = -heappop(heap)
        if lead not in rem:
            continue  # cancelled, or a second entry for a processed term
        q_c, r = divmod(rem.pop(lead), g_c)
        if r or any(a < b for a, b in zip(_unpack(lead, base, n), g_lead)):
            return HomPoly.zero(n), False
        q_key = lead - g_key
        quo[q_key] = q_c
        for e, c in G:
            e2 = q_key + e
            if e2 not in rem:
                heappush(heap, -e2)
            nc = rem.get(e2, 0) - q_c * c
            if nc:
                rem[e2] = nc
            else:
                del rem[e2]
    quo = {_unpack(key, base, n): c * g.den for key, c in quo.items()}
    return HomPoly._of(n, quo, f.den * cont), True


def rational_roots(*coeff_lists):
    """The rational roots common to every sum(coeffs[k] t^k), ascending.

    Each list is first scaled to integers.  When the lowest-degree list has
    degree <= 2 its roots come by formula and each is checked against every
    list.  Otherwise the roots are those of the lists' gcd g, and so of its
    squarefree part g / gcd(g, g'), both taken by _heu_gcd where it proves
    its answer: of degree <= 2 it is solved by formula (a constant has no
    root), and above that factored once over Z by sympy (the integer content
    the factorization splits off is no factor)."""
    if not coeff_lists or not all(any(coeffs) for coeffs in coeff_lists):
        raise ExactError("rational_roots of the zero polynomial")
    ints = [_int_coeffs(coeffs) for coeffs in coeff_lists]
    low = min(ints, key=len)
    if len(low) > 3:
        low = _root_part(ints)
    if len(low) <= 3:
        return sorted(r for r in _small_degree_roots(low) if all(_vanishes_at(f, r) for f in ints))
    roots = set()
    for fac, _mult in _univariate(low).factor_list()[1]:
        if fac.degree() == 1:  # a t + b
            roots.add(Fraction(-int(fac.get((0,), 0)), int(fac[(1,)])))
    return sorted(roots)


def _root_part(ints) -> list:
    """An integer list with the rational roots of the lists' gcd g: the
    squarefree part of g where _heu_gcd proves it, else g itself."""
    g = ints[0]
    if len(ints) > 1:
        found = _list_gcd(ints)
        if found is None:
            g = reduce(lambda f, h: f.gcd(h), map(_univariate, ints))
            return [int(c) for c in reversed(g.to_dense())]
        g = found[0]
    if len(g) > 3:
        found = _list_gcd([g, [k * c for k, c in enumerate(g)][1:]])
        if found is not None:
            g = found[1][0]
    return g


def _list_gcd(lists):
    """(gcd, cofactors) of nonzero integer coefficient lists by _heu_gcd, as
    lists, or None."""
    found = _heu_gcd([{k: c for k, c in enumerate(f) if c} for f in lists])
    return found and (_packed_list(found[0]), [_packed_list(q) for q in found[1]])


def _packed_list(f: dict) -> list:
    return [f.get(k, 0) for k in range(max(f) + 1)]


def _int_coeffs(coeffs) -> list:
    """A nonzero ascending coefficient list times the lcm of its
    denominators, as ints without trailing zeros."""
    out = _ints_over_lcm(coeffs)[0]
    while not out[-1]:
        out.pop()
    return out


def _small_degree_roots(f: list) -> set:
    """The rational roots of an integer list of degree <= 2."""
    if len(f) == 1:
        return set()
    if len(f) == 2:
        return {Fraction(-f[0], f[1])}
    s = _rational_sqrt(Fraction(f[1] * f[1] - 4 * f[2] * f[0]))
    if s is None:
        return set()
    return {(-f[1] + s) / (2 * f[2]), (-f[1] - s) / (2 * f[2])}


def _vanishes_at(f: list, r: Fraction) -> bool:
    """Whether the integer list f vanishes at r = n / m: sum f_k n^k m^(deg-k),
    by Horner."""
    n, m = r.numerator, r.denominator
    acc, mp = 0, 1
    for c in reversed(f):
        acc = acc * n + c * mp
        mp *= m
    return acc == 0


def is_irreducible(coeffs) -> bool:
    """Whether the nonzero sum(coeffs[k] t^k) is irreducible over Q (over Z
    up to its content)."""
    return _univariate(_int_coeffs(coeffs)).is_irreducible


# -- projective-geometry operations ------------------------------------------


def evaluate(p: HomPoly, pt) -> Fraction:
    """Value of p at an affine representative of the projective point."""
    total, scale = p._scaled_value(*_projective_ints(pt, p.nvars))
    return Fraction(total, scale) if total else _ZERO


def normalize_point(pt):
    """Scale so the last nonzero coordinate is 1 (canonical representative),
    as a tuple of Fractions.  A point of Fractions whose last nonzero
    coordinate is 1 already comes back as it is."""
    pt = tuple(pt)
    last = next((c for c in reversed(pt) if c), None)
    if last == 1 and all(type(c) is Fraction for c in pt):
        return pt
    return _normalized(_point_ints(pt)[0])


def _normalized(nums) -> tuple:
    """The integer vector's point with its last nonzero entry 1, as Fractions."""
    last = next((n for n in reversed(nums) if n), 0)
    if not last:
        raise ExactError("zero vector is not a projective point")
    return tuple(Fraction(n, last) for n in nums)


def local_charts(ps, pt) -> list:
    """Each form dehomogenized in the chart of pt's last nonzero coordinate
    and shifted so that pt sits at the origin; pt is normalized once."""
    pt = normalize_point(pt)
    chart = max(i for i, c in enumerate(pt) if c)
    coords = pt[:chart] + pt[chart + 1 :]
    return [p.dehomogenize(chart).shift(coords) for p in ps]


def mult_at(p: HomPoly, pt) -> int:
    """Order of vanishing of p at the projective point pt."""
    if p.is_zero:
        raise ExactError("multiplicity of the zero polynomial is undefined")
    (local,) = local_charts([p], pt)
    if local.is_zero:
        raise ExactError("polynomial vanishes on the whole chart")
    return local.order()


def substitute(p: HomPoly, maps) -> HomPoly:
    """p(f_1, ..., f_n) for homogeneous f_i; the nonzero f_i share one degree
    and a zero f_i substitutes 0."""
    return substitute_all([p], maps)[0]


def substitute_all(ps, maps) -> list:
    """[p(f_1, ..., f_n) for p in ps], as `substitute` reads each."""
    return _read_rows(*_substitute_rows(ps, maps))


def _substitute_rows(ps, maps) -> tuple:
    """substitute_all's products, (nvars, s, base, [(rows, degree, den) per
    p]): the ps share the products of the f_i, each built once.

    Works in integers on rows: with den the lcm of the f_i's denominators,
    f_i = G_i / den (G_i integral) and p = q / pden, p(f) = q(G) / (pden
    den^deg p).  A row gathers a form's terms that share the exponents of
    x_1 ... x_(n-2).  Its key packs those in base deg(f) top + 1 (top the
    largest deg p, at least 1), which no output exponent reaches, so keys
    add as ints.  Its value is sum c_i xi^i over its terms c_i x_0^i ...,
    xi = 2^s: the Kronecker substitution in x_0 alone, with x_(n-1)'s
    exponent left to the degree.  A table keyed by the exponent vectors e
    of all the ps lists each e's coefficients; G^e is built by row
    products from cached pure powers G_i^k, added into every p that has e,
    and dropped, so at most one such product is held at a time.

    Exact by a bound: x_0 -> xi, x_(n-1) -> 1 is a ring homomorphism, so a
    product's rows are the products of rows, whatever their sizes on the
    way.  The 1-norm is submultiplicative, so each coefficient of q(G) is
    at most sum_e |q_e| prod ||G_i||_1^e_i <= ||q||_1 M^top, for M >= 1 the
    largest ||G_i||_1.  With s a multiple of 8 and 2^(s-1) above every such
    bound, each output coefficient lies in (-xi/2, xi/2): it is its row's
    digit at its x_0 exponent.
    """
    ps, maps = list(ps), list(maps)
    if any(len(maps) != p.nvars for p in ps):
        raise DimensionMismatch("one substituting polynomial per variable required")
    degs = {m.degree for m in maps if m.num}
    if len(degs) != 1:
        raise ExactError("nonzero substituting polynomials must share one degree")
    nvars = maps[0].nvars
    (dm,) = degs
    pdegs = [p.degree or 0 for p in ps]
    top = max(pdegs + [1])
    base = dm * top + 1  # deg 0 uses only 0th powers
    den = int_lcm(*(m.den for m in maps))
    ints = [
        m.num if m.den == den else {e: c * (den // m.den) for e, c in m.num.items()} for m in maps
    ]
    norm = max(sum(map(abs, g.values())) for g in ints)
    bound = max((sum(map(abs, p.num.values())) for p in ps), default=0) * norm**top
    s = (bound.bit_length() + 8) // 8 * 8
    # x_0 rides, whatever the forms: a rule chosen per call costs set-up on
    # the small sparse forms of threefold-check, where no variable makes
    # many fewer rows than another
    powers = []
    for g in ints:
        rows = {}
        for e, c in g.items():
            key = _pack(e[1:-1], base)
            rows[key] = rows.get(key, 0) + (c << s * e[0])
        powers.append([{0: 1}, rows])
    accs = [{} for _ in ps]
    uses = {}
    for acc, p in zip(accs, ps):
        for e, c in p.num.items():
            uses.setdefault(e, []).append((acc, c))
    for e, cs in uses.items():
        term = None  # the product so far, None while it is 1
        for pw, k in zip(powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(_mul_packed(pw[-1], pw[1]))
                term = pw[k] if term is None else _mul_packed(term, pw[k])
                if not term:
                    break  # a zero f_i
        if term is None:
            term = {0: 1}
        for acc, c in cs:
            get = acc.get
            for key, v in term.items():
                acc[key] = get(key, 0) + c * v
    return nvars, s, base, [(acc, dm * k, p.den * den**k) for p, k, acc in zip(ps, pdegs, accs)]


def _read_rows(nvars: int, s: int, base: int, outs) -> list:
    """The forms of _substitute_rows' rows, each row read once into balanced digits."""
    out = []
    for acc, d, den in outs:
        num = {}
        for key, v in acc.items():
            if not v:
                continue
            mid = _unpack(key, base, nvars - 2)
            rest = d - sum(mid)
            for i, c in _balanced_digits(v, s).items():
                num[(i, *mid, rest - i)] = c
        if nvars == 1:  # x_0 is also the last variable, whose exponent comes off
            num = {e[:1]: c for e, c in num.items()}
        out.append(HomPoly._of(nvars, num, den))
    return out


def _composed(ps, maps) -> tuple:
    """(forms, the normalization they need) for compose: the cofactors of the
    content gcd of _substitute_rows' integral forms and _canonical_scale;
    else, if the values pass _HEU_GCD_BITS, a form is zero, no form keeps
    x_last^d (the Kronecker curve's start) or both tries fail, the read
    forms and content_normalize.  sum_key row << s base key is a form's
    value at xi = 2^s in the chart x_last = 1, in base d + 1 with x_1 first
    and x_0 last, and the substitution's bound gives xi >= 2 ||h||_inf + 2
    for its coefficients h.  Some cofactor is prime to x_last, so the
    chart's cofactors homogenized to their largest degree are the forms'."""
    nvars, s, base, outs = rows = _substitute_rows(ps, maps)
    accs, found = [acc for acc, _, _ in outs], None
    if (s * base ** (nvars - 1) <= _HEU_GCD_BITS and all(any(acc.values()) for acc in accs)
            and any(acc.get(0, 0) % (1 << s) for acc in accs)):  # the last: some x_last^d
        found = _form_gcd(  # x_1, of place value lead, is at lead // base in a row's key
            lambda lead: [sum(v << s * base * k for k, v in _negated(acc, lead // base).items())
                          for acc in accs], s, base, nvars - 1)
    if found is None:
        return _read_rows(*rows), content_normalize
    d = max(max(map(sum, q)) for q in found[1])  # unpacked as (x_1, ..., x_(n-2), x_0)
    qs = ({(u[-1], *u[:-1], d - sum(u)): c for u, c in q.items()} for q in found[1])
    return [HomPoly._wrap(nvars, q, 1) for q in qs], _canonical_scale


def content_normalize(maps) -> list:
    """Divide a component list by its polynomial gcd, then scale to integer
    primitive form with positive lex-leading coefficient (canonical form).
    The quotients are the gcd's cofactors over each component's denominator."""
    maps = list(maps)
    if not maps or all(m.is_zero for m in maps):
        raise ExactError("content_normalize of all-zero input")
    g = poly_gcd(maps)
    if g.degree:
        maps = [HomPoly._of(m.nvars, q.num, m.den) for m, q in zip(maps, g.cofactors)]
    return _canonical_scale(maps)


def _canonical_scale(maps) -> list:
    """Forms, some nonzero, in canonical scaling: integer numerators divided by
    their content, signed so the first nonzero lex-leading one is positive."""
    den = int_lcm(*(m.den for m in maps))
    ints = [m.num for m in maps] if den == 1 else [
        {e: c * (den // m.den) for e, c in m.num.items()} for m in maps
    ]
    content = int_gcd(*(c for t in ints for c in t.values()))
    lead = next(t for t in ints if t)
    if lead[max(lead)] < 0:
        content = -content
    if den == 1 and content == 1:
        return maps  # already canonical, as a map decoded from its own JSON is
    return [
        type(m)._of(m.nvars, {e: c // content for e, c in t.items()}) for m, t in zip(maps, ints)
    ]


def common_zeros_plane(polys, weierstrass=None):
    """All rational projective common zeros of >= 2 polynomials in 3 variables,
    or of a plane map's components; with weierstrass = (p, q), only those on
    y^2 z = x^3 + p x z^2 + q z^3.

    Every search for a coordinate is one rational_roots call.  Without a
    cubic, the y of an affine candidate is a root of a resultant (or of an
    x-free equation), its x a common root at that y, and on z = 0 the
    candidates are (1:0:0) and the common roots at y = 1.  On the cubic, the
    affine candidates have as x the common roots of the components' norms
    (univariate, of degree <= 3 deg), and at z = 0 the only candidate is
    O = (0:1:0).  Every candidate is then verified against the full system.
    Completeness holds over Q only.  A common curve component raises
    PositiveDimensionalError carrying the component.  A map (anything with
    `components`) skips those two checks: its constructor made the
    components coprime and not all proportional.
    """
    components = getattr(polys, "components", None)
    polys = [p for p in (polys if components is None else components) if not p.is_zero]
    if len(polys) < 2:
        raise ExactError("need at least two nonzero polynomials")
    if any(p.nvars != 3 for p in polys):
        raise DimensionMismatch("common_zeros_plane expects 3-variable polynomials")
    if components is None:
        if _all_proportional(polys):
            raise ExactError("polynomials are all proportional")
        g = poly_gcd(polys)
        if g.degree and g.degree > 0:
            raise PositiveDimensionalError(g)

    if weierstrass is None:
        candidates = _plane_candidates(polys)
    else:
        candidates = _cubic_candidates(polys, *weierstrass)

    # each candidate is built as normalize_point returns it, a tuple of
    # Fractions: (1:0:0), (x0:1:0), (0:1:0) or (x:y:1)
    return sorted(pt for pt in candidates if all(evaluate(p, pt) == 0 for p in polys))


def _plane_candidates(polys) -> set:
    """Candidate common zeros anywhere in the plane (a superset of the zeros)."""
    # on z = 0: (1:0:0), and the common roots of the nonzero rows at y = 1
    # (a row that vanishes identically imposes no condition)
    candidates = {(Fraction(1), Fraction(0), Fraction(0))}
    rows = [r for r in (_x_coeffs_at(p.dehomogenize(1), Fraction(0)) for p in polys) if r]
    if rows:
        candidates.update((x0, Fraction(1), Fraction(0)) for x0 in rational_roots(*rows))

    # points with z != 0: affine system in (x, y)
    affine = [p.dehomogenize(2) for p in polys]
    for y0 in _affine_y_candidates(affine):
        specs = [s for s in (_x_coeffs_at(a, y0) for a in affine) if s]
        if specs:
            candidates.update((x0, y0, Fraction(1)) for x0 in rational_roots(*specs))
    return candidates


def _x_coeffs_at(a: AffinePoly, y0: Fraction) -> list:
    """Ascending integer coefficients of den m^top a(x, y0) in x, without
    trailing zeros, for an AffinePoly a = A / den in (x, y) and y0 = n / m:
    row i is sum_j A_ij n^j m^(top - j), a positive multiple of a's row, so
    its roots are a's.  One pass shares the denominators across rows:
    `AffinePoly.eval` on each row costs 2.6 times as much on threefold's
    calls, about as much as the Taylor shift it replaces."""
    n, m = y0.numerator, y0.denominator
    top = max(j for _, j in a.num)
    rows = {}
    for (i, j), c in a.num.items():
        rows[i] = rows.get(i, 0) + c * n**j * m ** (top - j)
    out = [rows.get(i, 0) for i in range(max(rows) + 1)]
    while out and not out[-1]:
        out.pop()
    return out


def _cubic_candidates(polys, p, q) -> set:
    """Candidate common zeros on y^2 z = x^3 + p x z^2 + q z^3 (a superset of
    the zeros on the cubic).

    On the cubic, f(x, y, 1) = a(x) + y b(x) where y^2 = w(x) = x^3 + p x + q,
    and the norm a^2 - w b^2 is f's value at (x, y) times its value at
    (x, -y).  So the x of a common zero is a root of every norm.  A norm is
    zero only if f vanishes on the cubic (w is no square in Q(x)); such an f
    imposes no condition.
    """
    p, q = Fraction(p), Fraction(q)
    w = _delta_w(Fraction(p), Fraction(q))
    norms = (_norm_on_cubic(f, w) for f in polys)
    # some norm is nonzero: the caller ruled out a common curve component
    candidates = {(Fraction(0), Fraction(1), Fraction(0))}
    for x0 in rational_roots(*(n for n in norms if any(n))):
        y0 = _rational_sqrt(x0**3 + p * x0 + q)
        if y0 is not None:
            candidates.update({(x0, y0, Fraction(1)), (x0, -y0, Fraction(1))})
    return candidates


def _delta_w(p: Fraction, q: Fraction) -> list:
    """delta w for w(x) = x^3 + p x + q, with delta = lcm of the denominators
    of p and q: an integral ascending coefficient list with leading delta."""
    (qn, pn), delta = _ints_over_lcm((q, p))
    return [qn, pn, 0, delta]


def _halves_on_cubic(f: HomPoly, w, den: int, k: int) -> tuple:
    """The integral halves (A, B) = delta^k den (a, b) of f(x, y, 1) = a(x) +
    y b(x) mod y^2 = w, as ascending coefficient lists of length deg f + k + 1;
    w is given as the integral delta w with delta its leading coefficient.

    den must be a multiple of f.den and k at least deg f // 2: a term
    x^i y^(2e + r) becomes delta^(k - e) x^i y^r (delta w)^e, of x-degree
    i + 3e <= deg f + e.
    """
    delta = w[-1]
    size = f.degree + k + 1
    halves = ([0] * size, [0] * size)  # A, B
    powers = [[1]]
    scale = den // f.den
    for (i, j, _), c in f.num.items():
        e = j // 2
        while len(powers) <= e:
            powers.append(_int_poly_mul(powers[-1], w))
        c = c * scale * delta ** (k - e)
        acc = halves[j % 2]
        for t, wt in enumerate(powers[e]):
            acc[i + t] += c * wt
    return halves


def _norm_on_cubic(f: HomPoly, w) -> list:
    """A positive integer multiple of the norm a^2 - w b^2 of f(x, y, 1) =
    a(x) + y b(x) mod y^2 = w, as ascending coefficients; w is given as the
    integral delta w with delta its leading coefficient.

    With k = deg f // 2, the integral halves A = delta^k den a and B =
    delta^k den b give delta A^2 - (delta w) B^2 = delta^(2k+1) den^2 (a^2 -
    w b^2), for den = f.den.
    """
    delta = w[-1]
    a, b = _halves_on_cubic(f, w, f.den, f.degree // 2)
    out = [-v for v in _int_poly_mul(w, _int_poly_mul(b, b))]
    for t, v in enumerate(_int_poly_mul(a, a)):
        out[t] += delta * v
    return out


def reduce_on_cubic(components, p, q) -> list:
    """Nonzero forms f_i of one degree d reduced modulo the Weierstrass cubic
    C = y^2 z - x^3 - p x z^2 - q z^3: forms of degree D = d + d // 2 and
    y-degree <= 1, the i-th congruent to c z^(D - d) f_i modulo C for one
    positive integer c shared by all i (a zero output means C divides f_i).

    Modulo C, y^2 z = W(x, z) = x^3 + p x z^2 + q z^3, so a term x^i y^(2e + r)
    z^l times z^(D - d) is x^i y^r z^(l + D - d - e) W^e, and e <= d // 2.  The
    output is the homogenization of the halves a(x) + y b(x) of f_i(x, y, 1),
    with c = delta^(d // 2) den, den the lcm of the f_i's denominators.
    """
    comps = list(components)
    if any(f.is_zero or f.nvars != 3 for f in comps) or len({f.degree for f in comps}) != 1:
        raise ExactError("reduce_on_cubic needs nonzero plane forms of one degree")
    d = comps[0].degree
    k = d // 2
    top = d + k
    w = _delta_w(Fraction(p), Fraction(q))
    den = int_lcm(*(f.den for f in comps))
    out = []
    for f in comps:
        a, b = _halves_on_cubic(f, w, den, k)
        num = {(t, 0, top - t): v for t, v in enumerate(a) if v}
        num.update({(t, 1, top - 1 - t): v for t, v in enumerate(b) if v})
        out.append(HomPoly._of(3, num))
    return out


def _int_poly_mul(a: list, b: list) -> list:
    """Product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _rational_sqrt(s: Fraction):
    """The nonnegative rational square root of s, or None if s has none."""
    if s < 0:
        return None
    n, m = isqrt(s.numerator), isqrt(s.denominator)
    if n * n != s.numerator or m * m != s.denominator:
        return None
    return Fraction(n, m)


def _all_proportional(polys) -> bool:
    base = polys[0].num
    e0 = next(iter(base))
    for p in polys[1:]:
        # p proportional to base <=> same terms, cross products agree
        num = p.num
        if num.keys() != base.keys():
            return False
        c0, cp = base[e0], num[e0]
        if any(c * cp != num[e] * c0 for e, c in base.items()):
            return False
    return True


def _affine_y_candidates(affine):
    """y-values that can appear in a common zero of the affine system, given
    as AffinePolys in (x, y) (resultants are taken in ZZ[x, y]).

    Over-generation is fine (candidates get verified); the only requirement
    is that every true common zero's y-value appears.  The system has at
    least two nonzero equations, so without an x-free one each has x.
    """
    def has_x(f):
        return any(e[0] for e in f.num)

    with_x = [f for f in affine if has_x(f)]
    pure_y = [f for f in affine if not has_x(f)]
    if pure_y:
        # any nonzero x-free equation already pins y to its root set; its
        # numerators have the same roots
        f = pure_y[0]
        return rational_roots([f.num.get((0, k), 0) for k in range(f.degree + 1)])
    # resultants eliminate x and land in ZZ[y]
    pairs = combinations(with_x, 2)
    if len(with_x) >= 3:
        # if every pair shares a factor, a combination breaks the coincidence
        # (the full system has trivial gcd, so generic t works)
        combos = (with_x[1] + t * with_x[k] for k in range(2, len(with_x)) for t in range(1, 32))
        pairs = chain(pairs, ((with_x[0], c) for c in combos if has_x(c)))
    for f, g in pairs:
        # Res(a f, b g) is a nonzero constant times Res(f, g): same roots
        res = _ring(2).from_dict(f.num).resultant(_ring(2).from_dict(g.num))
        if res:
            return rational_roots([int(c) for c in reversed(res.to_dense())])
    raise ExactError("could not isolate y-candidates (degenerate system)")
