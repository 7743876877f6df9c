"""Truncated generating series and the transform's series actions."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift.errors import KindMismatch, OrderMismatch
from binshift.exactnum import (
    INT,
    RAT,
    Poly,
    Quad,
    domain_of,
    join_domains,
    one,
    poly_domain,
    promote,
    quad_domain,
    zero,
)
from binshift.series import (
    EGF,
    OGF,
    TruncSeries,
    _cauchy,
    egf_transform,
    prefix_from_series,
    riordan_entry,
    series_compose_geometric,
    series_from_prefix,
    series_mul,
)
from binshift.transform import SequencePrefix, apply_transform

from exact_strategies import (
    RADICANDS,
    assert_same_scalars,
    double_sum,
    prefixes_st,
    shifts_st,
)

FIB = (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)
LUCAS = (2, 1, 3, 4, 7, 11, 18, 29, 47, 76)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeffs_st = st.lists(fractions_st, min_size=1, max_size=7)


class TestTruncSeries:
    def test_order_and_coefficients(self):
        f = TruncSeries(OGF, (1, 2, 3))
        assert f.order == 2
        assert f.coefficient(1) == 2
        with pytest.raises(IndexError):
            f.coefficient(3)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TruncSeries("gf", (1,))
        with pytest.raises(ValueError):
            TruncSeries(OGF, ())

    def test_prefix_round_trip(self):
        p = SequencePrefix(FIB)
        f, g = series_from_prefix(p), series_from_prefix(p, EGF)
        assert prefix_from_series(f) == p
        assert g.kind == EGF and g != f
        assert f != p and p != f

    def test_analytic_coefficient(self):
        f = TruncSeries(EGF, (1, 1, 3))
        assert f.analytic_coefficient(2) == Fraction(3, 2)
        assert f.analytic_coefficient(1) == 1
        g = TruncSeries(OGF, (1, 1, 3))
        assert g.analytic_coefficient(2) == 3

    def test_analytic_coefficient_nonrational_domains(self):
        f = TruncSeries(EGF, (Quad(1, 1, 5), Quad(0, 2, 5), Quad(4, 0, 5)))
        assert f.analytic_coefficient(2) == Quad(2, 0, 5)
        g = TruncSeries(EGF, [Poly((0, 2), "x")] * 3)
        assert g.analytic_coefficient(2) == Poly((0, 1), "x")

    def test_text(self):
        assert TruncSeries(OGF, (1, 0, 2)).text() == "1 + 2*z^2 + O(z^3)"
        assert TruncSeries(OGF, (0, 0)).text() == "0 + O(z^2)"
        assert TruncSeries(EGF, (2, 1, 3)).text() == "2 + 1*t + 3*t^2/2! + O(t^3)"


class TestSeriesMul:
    def test_ogf_geometric_square(self):
        ones = TruncSeries(OGF, (1,) * 5)
        assert series_mul(ones, ones).coeffs == (1, 2, 3, 4, 5)

    def test_egf_exponential_square(self):
        # exp(t) * exp(t) = exp(2t): stored coefficients are 2^n
        ones = TruncSeries(EGF, (1,) * 5)
        assert series_mul(ones, ones).coeffs == (1, 2, 4, 8, 16)

    def test_identity_elements(self):
        f = TruncSeries(OGF, FIB)
        delta = TruncSeries(OGF, (1,) + (0,) * 9)
        assert series_mul(f, delta) == f
        g = TruncSeries(EGF, LUCAS)
        const = TruncSeries(EGF, (1,) + (0,) * 9)
        assert series_mul(g, const) == g

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            series_mul(TruncSeries(OGF, (1, 1)), TruncSeries(EGF, (1, 1)))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            series_mul(TruncSeries(OGF, (1, 1)), TruncSeries(OGF, (1, 1, 1)))

    @settings(max_examples=100)
    @given(coeffs_st, st.data())
    def test_commutative(self, xs, data):
        ys = data.draw(
            st.lists(fractions_st, min_size=len(xs), max_size=len(xs))
        )
        for kind in (OGF, EGF):
            f, g = TruncSeries(kind, xs), TruncSeries(kind, ys)
            assert series_mul(f, g) == series_mul(g, f)

    @settings(max_examples=60)
    @given(coeffs_st, st.data())
    def test_associative(self, xs, data):
        size = len(xs)
        same_size = st.lists(fractions_st, min_size=size, max_size=size)
        ys, zs = data.draw(same_size), data.draw(same_size)
        for kind in (OGF, EGF):
            f, g, h = (TruncSeries(kind, c) for c in (xs, ys, zs))
            assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))


class TestComposeGeometric:
    def test_fibonacci_shift1(self):
        f = series_from_prefix(FIB)
        assert series_compose_geometric(f, 1).coeffs == (
            0, 1, 3, 8, 21, 55, 144, 377, 987, 2584,
        )

    def test_shift_zero_is_identity(self):
        f = series_from_prefix(LUCAS)
        assert series_compose_geometric(f, 0) == f

    def test_geometric_of_delta(self):
        # A(z) = z maps to z/(1-rz)^2: coefficients n * r^(n-1)
        f = TruncSeries(OGF, (0, 1, 0, 0, 0, 0))
        out = series_compose_geometric(f, 3)
        assert out.coeffs == tuple(n * 3 ** (n - 1) if n else 0 for n in range(6))

    def test_requires_ogf(self):
        with pytest.raises(KindMismatch):
            series_compose_geometric(TruncSeries(EGF, (1, 1)), 1)

    @settings(max_examples=80)
    @given(coeffs_st, fractions_st)
    def test_matches_transform(self, coeffs, r):
        f = TruncSeries(OGF, coeffs)
        composed = series_compose_geometric(f, r)
        direct = apply_transform(coeffs, r)
        assert composed.coeffs == direct.values


class TestEgfTransform:
    def test_lucas_shift1(self):
        f = series_from_prefix(LUCAS, EGF)
        assert egf_transform(f, 1).coeffs == (2, 3, 7, 18, 47, 123, 322, 843, 2207, 5778)

    def test_delta_gives_powers(self):
        f = TruncSeries(EGF, (1, 0, 0, 0, 0))
        assert egf_transform(f, 3).coeffs == (1, 3, 9, 27, 81)

    def test_requires_egf(self):
        with pytest.raises(KindMismatch):
            egf_transform(TruncSeries(OGF, (1, 1)), 1)

    @settings(max_examples=80)
    @given(coeffs_st, fractions_st)
    def test_matches_transform(self, coeffs, r):
        f = TruncSeries(EGF, coeffs)
        assert egf_transform(f, r).coeffs == apply_transform(coeffs, r).values


class TestRiordanEntry:
    def test_literals(self):
        assert riordan_entry(2, 3, 1) == 12
        assert riordan_entry(1, 4, 2) == 6
        assert riordan_entry(5, 3, 3) == 1
        assert riordan_entry(3, 2, 5) == 0

    def test_shift_zero_is_identity_matrix(self):
        for n in range(5):
            for k in range(5):
                assert riordan_entry(0, n, k) == (1 if n == k else 0)

    def test_rational_shift(self):
        assert riordan_entry(Fraction(1, 2), 4, 2) == Fraction(3, 2)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            riordan_entry(1, -1, 0)
        with pytest.raises(ValueError):
            riordan_entry(1, 0, -2)

    @pytest.mark.parametrize(
        "r, message",
        [
            (2.5, "floating point values are not supported; use Fraction"),
            (True, "bool is not a scalar"),
        ],
        ids=["float", "bool"],
    )
    @pytest.mark.parametrize("n, k", [(3, 1), (3, 3), (1, 3)])
    def test_float_and_bool_shifts_rejected(self, r, message, n, k):
        """On and below the diagonal as above it: the shift is checked
        before any arithmetic."""
        with pytest.raises(TypeError) as raised:
            riordan_entry(r, n, k)
        assert str(raised.value) == message

    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2, Fraction(1, 2)])
    def test_closed_form(self, r):
        for n in range(9):
            for k in range(n + 1):
                assert riordan_entry(r, n, k) == math.comb(n, k) * r ** (n - k)

    def test_row_action_matches_transform(self):
        values = (3, 1, 4, 1, 5, 9, 2, 6)
        b = apply_transform(values, 2)
        for n in range(len(values)):
            total = sum(riordan_entry(2, n, k) * values[k] for k in range(n + 1))
            assert total == b[n]


# Reference route for the two views, the expansion they used before the
# division recurrence: multiply out the powers of u = z/(1 - r z) with
# truncated Cauchy products, O(N^3) for the OGF and O(k n^2) for one
# Riordan entry.


def compose_by_powers_of_u(f, r):
    target = join_domains(f.domain, domain_of(r))
    rp = promote(r, target)
    zero_s = zero(target)
    one_s = one(target)
    n_ord = f.order
    geom = [one_s]  # (1 - r z)^(-1) = sum r^j z^j
    for _ in range(n_ord):
        geom.append(geom[-1] * rp)
    u = [zero_s] + geom[:n_ord]  # z * (1 - r z)^(-1)
    coeffs = f.promoted(target).coeffs
    acc = [zero_s] * (n_ord + 1)
    upow = [one_s] + [zero_s] * n_ord
    for k in range(n_ord + 1):
        ck = coeffs[k]
        if ck != zero_s:
            for j in range(k, n_ord + 1):
                acc[j] = acc[j] + ck * upow[j]
        if k < n_ord:
            upow = _cauchy(upow, u, n_ord, zero_s)
    return TruncSeries(OGF, _cauchy(acc, geom, n_ord, zero_s), target)


def riordan_by_powers_of_u(r, n, k):
    dom = domain_of(r)
    if k > n:
        return zero(dom)
    zero_s = zero(dom)
    one_s = one(dom)
    geom = [one_s]
    for _ in range(n):
        geom.append(geom[-1] * r)
    u = [zero_s] + geom[:n]
    upow = [one_s] + [zero_s] * n
    for _ in range(k):
        upow = _cauchy(upow, u, n, zero_s)
    return _cauchy(upow, geom, n, zero_s)[n]


SERIES_DOMAINS = ("int", "rat", "quad5", "quad999983", "polyx")


@st.composite
def series_and_shift_st(draw):
    """An OGF series over one of SERIES_DOMAINS, order 0..20, and an int,
    Fraction, irrational Quad or non-constant Poly shift that joins with it."""
    dom = draw(st.sampled_from(SERIES_DOMAINS))
    size = draw(st.integers(min_value=1, max_value=21))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if dom == "int":
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    elif dom == "rat":
        coeffs = draw(st.lists(small, min_size=size, max_size=size))
    elif dom.startswith("quad"):
        d = int(dom[4:])
        pairs = draw(st.lists(st.tuples(small, small), min_size=size, max_size=size))
        coeffs = [Quad(a, b, d) for a, b in pairs]
    else:
        polys = draw(st.lists(st.lists(small, max_size=3), min_size=size, max_size=size))
        coeffs = [Poly(cs, "x") for cs in polys]
    f = TruncSeries(OGF, coeffs, RAT if dom == "rat" else None)
    kinds = ["int", "rat", "poly" if dom in ("int", "rat", "polyx") else "quad"]
    if dom in ("int", "rat"):
        kinds.append("quad")
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        r = draw(st.integers(-3, 3))
    elif kind == "rat":
        r = draw(small)
    elif kind == "quad":
        d = int(dom[4:]) if dom.startswith("quad") else draw(st.sampled_from((5, 999983)))
        r = Quad(draw(small), draw(small.filter(bool)), d)
    else:
        r = Poly([draw(small), draw(small.filter(bool))], "x")
    return f, r


class TestViewsAgainstPowersOfU:
    """The division recurrence gives, scalar for scalar, what the
    powers-of-u expansion and the double sum give."""

    @settings(max_examples=60, deadline=None)
    @given(series_and_shift_st())
    def test_compose_geometric(self, case):
        f, r = case
        got = series_compose_geometric(f, r)
        want = compose_by_powers_of_u(f, r)
        assert got.domain == want.domain
        assert_same_scalars(got.coeffs, want.coeffs)
        rp = promote(r, got.domain)
        assert got.coeffs == double_sum(f.promoted(got.domain).coeffs, rp)

    @pytest.mark.parametrize(
        "r",
        [3, Fraction(-2, 3), Quad(1, 1, 5), Quad(0, -2, 999983), Poly((1, 1), "x")],
        ids=["int", "rat", "quad5", "quad999983", "polyx"],
    )
    @pytest.mark.parametrize(
        "n, k", [(0, 0), (5, 0), (5, 5), (0, 1), (4, 7), (6, 2)]
    )
    def test_riordan_entry(self, r, n, k):
        got = riordan_entry(r, n, k)
        want = riordan_by_powers_of_u(r, n, k)
        assert_same_scalars([got], [want])
        assert domain_of(got) == domain_of(r)
        expected = math.comb(n, k) * r ** (n - k) if k <= n else 0
        assert got == expected


class TestViewsGrowQuadratically:
    """Counted Poly constructions: doubling the order of a poly(x) series
    multiplies them by about 4 (O(N^2)), not 8 (O(N^3))."""

    @pytest.fixture
    def poly_news(self, monkeypatch):
        calls = [0]
        original = Poly._new

        def counted(cls, *args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(Poly, "_new", classmethod(counted))
        return calls

    def _count(self, poly_news, fn):
        poly_news[0] = 0
        fn()
        return poly_news[0]

    def test_compose_geometric(self, poly_news):
        def series(order):
            return TruncSeries(
                OGF, [Poly((k, 1 - k), "x") for k in range(order + 1)], poly_domain("x")
            )

        small, large = series(20), series(40)
        r = Fraction(1, 3)
        ratio = self._count(poly_news, lambda: series_compose_geometric(large, r)) / (
            self._count(poly_news, lambda: series_compose_geometric(small, r))
        )
        assert ratio < 5

    def test_riordan_entry(self, poly_news):
        r = 1 + Poly.indeterminate("x")
        ratio = self._count(poly_news, lambda: riordan_entry(r, 24, 12)) / (
            self._count(poly_news, lambda: riordan_entry(r, 12, 6))
        )
        assert ratio < 5


class TestRiordanEntryBuildsTwoValues:
    """An entry is a power of r times an int: at a non-constant Poly or an
    irrational Quad shift it builds at most two values, wherever it is."""

    @pytest.mark.parametrize(
        "r",
        [
            Poly((0, 1), "r"),
            Poly((Fraction(1, 3), -2, 1), "x"),
            Quad(1, 1, 5),
            Quad(0, -2, 999983),
        ],
        ids=["poly-r", "poly-x", "quad5", "quad999983"],
    )
    @pytest.mark.parametrize("n, k", [(40, 10), (24, 12), (9, 9), (6, 0)])
    def test_at_most_two(self, monkeypatch, r, n, k):
        built = [0]
        original = type(r)._new

        def counted(cls, *args):
            built[0] += 1
            return original(*args)

        monkeypatch.setattr(type(r), "_new", classmethod(counted))
        got = riordan_entry(r, n, k)
        monkeypatch.undo()
        assert built[0] <= 2
        assert got == math.comb(n, k) * r ** (n - k)


def egf_by_series_mul(f, r):
    """exp(r t) * f by series_mul with the series of powers of r: the
    EGF product itself, on the scalars (test oracle)."""
    target = join_domains(f.domain, domain_of(r))
    rp = promote(r, target)
    powers = [one(target)]
    for _ in range(f.order):
        powers.append(powers[-1] * rp)
    return series_mul(f, TruncSeries(EGF, powers, target))


@st.composite
def egf_and_shift_st(draw):
    """An EGF series over int, rat, quad(5), quad(-3), quad(999983) or
    poly(x), and an int, Fraction, Quad (rational or not) or Poly
    (constant or not) shift that joins with it."""
    f = series_from_prefix(draw(prefixes_st()), EGF)
    return f, draw(shifts_st(f.domain))


X = Poly.indeterminate("x")


class TestEgfDifferential:
    """The EGF view, on int columns at a rational shift and on the
    scalars otherwise, gives scalar for scalar what series_mul with the
    powers of r and the double sum give."""

    @settings(max_examples=250, deadline=None)
    @given(egf_and_shift_st())
    # r = 0
    @example((TruncSeries(EGF, (Quad(1, 2, 5), Quad(0, 1, 5))), 0))
    @example((TruncSeries(EGF, (Fraction(1, 3), 2)), Fraction(0)))
    # order 0
    @example((TruncSeries(EGF, (Fraction(-4, 9),)), Fraction(3, 2)))
    @example((TruncSeries(EGF, (X,)), Poly((1, 1), "x")))
    # columns that cancel to zero: a_k = (-1/2)^k at r = 1/2, a radical
    # part and polynomial columns that vanish
    @example((TruncSeries(EGF, (1, Fraction(-1, 2), Fraction(1, 4))), Fraction(1, 2)))
    @example((TruncSeries(EGF, (Quad(0, 1, 5), Quad(0, -1, 5))), 1))
    @example((TruncSeries(EGF, (X, -X, X)), 1))
    @example((TruncSeries(EGF, (Quad(1, 1, -3), Quad(-3, -1, -3))), Quad(0, -1, -3)))
    def test_matches_series_mul_and_double_sum(self, case):
        f, r = case
        got = egf_transform(f, r)
        want = egf_by_series_mul(f, r)
        assert got.kind == EGF
        assert got.domain == want.domain
        assert_same_scalars(got.coeffs, want.coeffs)
        rp = promote(r, got.domain)
        assert got.coeffs == double_sum(f.promoted(got.domain).coeffs, rp)


class TestEgfBuildsFewFractions:
    """At a rational shift the EGF view runs on int columns: an order-N
    rational EGF costs at most N + 3 Fractions, the N + 1 results among
    them."""

    def test_order_16(self, monkeypatch):
        n = 16
        f = TruncSeries(EGF, [Fraction(k - 7, k % 5 + 2) for k in range(n + 1)])
        r = Fraction(-5, 7)
        want = egf_by_series_mul(f, r)
        built = [0]
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        got = egf_transform(f, r)
        monkeypatch.undo()
        assert built[0] <= n + 3
        assert got == want


# Scalar routes of the OGF and Riordan views, as they ran at every shift
# before the rational-shift lowering (test oracles): the division by
# 1 - r z on promoted scalars.


def over_geometric_on_scalars(xs, r, order):
    w = [xs[0]]
    for j in range(1, order + 1):
        w.append(xs[j] + r * w[-1])
    return w


def compose_on_scalars(f, r):
    target = join_domains(f.domain, domain_of(r))
    rp = promote(r, target)
    coeffs = f.promoted(target).coeffs
    n_ord = f.order
    acc = [coeffs[n_ord]]
    for k in range(n_ord - 1, -1, -1):
        acc = [coeffs[k]] + over_geometric_on_scalars(acc, rp, n_ord - k - 1)
    return TruncSeries(OGF, over_geometric_on_scalars(acc, rp, n_ord), target)


def riordan_on_scalars(r, n, k):
    dom = domain_of(r)
    zero_s = zero(dom)
    if k > n:
        return zero_s
    column = [one(dom)] + [zero_s] * (n - k)
    for _ in range(k + 1):
        column = over_geometric_on_scalars(column, r, n - k)
    return column[-1]


@st.composite
def ogf_and_shift_st(draw):
    """An OGF series over int, rat, quad(5), quad(-3), quad(999983) or
    poly(x), of order 0 to 30, and an int, Fraction, Quad (rational or
    not) or Poly (constant or not) shift that joins with it.  Up to nine
    coefficients are drawn; the rest continue them by
    t_n = c t_(n-1) - t_(n-h), h the number drawn and c in -3..3, which
    keeps a long series generic at a few draws."""
    head = list(draw(prefixes_st()).values)
    size = draw(st.integers(len(head), 31))
    c, h = draw(st.integers(-3, 3)), len(head)
    while len(head) < size:
        head.append(c * head[-1] - head[-h])
    f = TruncSeries(OGF, head)
    return f, draw(shifts_st(f.domain))


@st.composite
def riordan_case_st(draw):
    """A shift of any kind and a position (n, k), n <= 24 and k <= n + 2."""
    dom = draw(st.sampled_from([INT, RAT, *map(quad_domain, RADICANDS), poly_domain("x")]))
    r = draw(shifts_st(dom))
    n = draw(st.integers(0, 24))
    return r, n, draw(st.integers(0, n + 2))


class TestRationalShiftViewsDifferential:
    """The OGF substitution, on ints at a rational shift and on the
    scalars otherwise, and the Riordan entry, a power of r times an int,
    give scalar for scalar what their scalar routes and the closed forms
    give."""

    @settings(max_examples=250, deadline=None)
    @given(ogf_and_shift_st())
    # r = 0
    @example((TruncSeries(OGF, (Quad(1, 2, 5), Quad(0, 1, 5))), 0))
    @example((TruncSeries(OGF, (Fraction(1, 3), 2)), Fraction(0)))
    # order 0
    @example((TruncSeries(OGF, (Fraction(-4, 9),)), Fraction(3, 2)))
    @example((TruncSeries(OGF, (X,)), Poly((1, 1), "x")))
    # an integral Fraction, and columns that cancel to zero
    @example((TruncSeries(OGF, (1, 2, 3)), Fraction(2)))
    @example((TruncSeries(OGF, (1, Fraction(-1, 2), Fraction(1, 4))), Fraction(1, 2)))
    @example((TruncSeries(OGF, (Quad(0, 1, -3), Quad(0, -1, -3))), 1))
    @example((TruncSeries(OGF, (X, -X, X)), Fraction(1, 3)))
    # long series: prefix sums at 1/3, the loop at -1, two packed
    # columns, a Poly shift
    @example((TruncSeries(OGF, [Fraction(k, 3) - 4 for k in range(31)]), Fraction(1, 3)))
    @example((TruncSeries(OGF, [Fraction(k, 3) - 4 for k in range(31)]), -1))
    @example((TruncSeries(OGF, [Quad(k, 1 - k, 5) for k in range(30)]), Fraction(-2, 3)))
    @example((TruncSeries(OGF, [Poly((k, 1), "x") for k in range(31)]), Poly((1, 1), "x")))
    def test_compose_geometric(self, case):
        f, r = case
        got = series_compose_geometric(f, r)
        want = compose_on_scalars(f, r)
        assert got.kind == OGF
        assert got.domain == want.domain
        assert_same_scalars(got.coeffs, want.coeffs)
        rp = promote(r, got.domain)
        assert got.coeffs == double_sum(f.promoted(got.domain).coeffs, rp)

    @settings(max_examples=250, deadline=None)
    @given(riordan_case_st())
    # r = 0, n = 0, k > n
    @example((0, 3, 1))
    @example((Fraction(0), 4, 4))
    @example((Fraction(1, 2), 0, 0))
    @example((Fraction(-2, 3), 2, 5))
    @example((Quad(Fraction(1, 2), 0, 999983), 3, 7))
    # an integral Fraction, a rational Quad and a constant Poly
    @example((Fraction(2), 6, 2))
    @example((Quad(Fraction(-3, 4), 0, -3), 5, 1))
    @example((Poly((Fraction(5, 2),), "x"), 4, 2))
    # far from the diagonal at a non-constant Poly and an irrational Quad
    @example((Poly((0, 1), "r"), 40, 10))
    @example((Quad(1, 1, 5), 40, 10))
    def test_riordan_entry(self, case):
        r, n, k = case
        got = riordan_entry(r, n, k)
        want = riordan_on_scalars(r, n, k)
        assert_same_scalars([got], [want])
        assert domain_of(got) == domain_of(r)
        assert got == (math.comb(n, k) * r ** (n - k) if k <= n else 0)
