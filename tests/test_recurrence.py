"""Characteristic polynomials, root shifts, and transformed recurrences."""

import contextlib
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift import recurrence
from binshift.errors import (
    DomainMismatch,
    NonInvertibleDomain,
    NonMonic,
    PrefixTooShort,
)
from binshift.exactnum import (
    INT,
    RAT,
    Poly,
    Quad,
    _rational_parts,
    domain_of,
    join_domains,
    one,
    poly_domain,
    promote,
    quad_domain,
    zero,
)
from binshift.recurrence import (
    CharPoly,
    Recurrence,
    apply_char_operator,
    intertwine_residual,
    monic_normalized,
    second_order_template,
    shift_characteristic,
    transform_recurrence,
    unroll,
)
from binshift.families import family_prefix
from binshift.series import (
    EGF,
    OGF,
    egf_transform,
    series_compose_geometric,
    series_from_prefix,
)
from binshift.transform import SequencePrefix, apply_transform
from binshift.verify import _naive_substitution_shift

from exact_strategies import RADICANDS, assert_same_scalars, prefixes_st, shifts_st

FIB_POLY = CharPoly((1, -1, -1))
MERSENNE_POLY = CharPoly((1, -3, 2))

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def monic_polys(max_degree):
    return st.lists(fractions_st, min_size=1, max_size=max_degree).map(
        lambda tail: CharPoly([Fraction(1), *tail])
    )


def substitute_x_minus_r(p, r):
    """Expand P(X - r) with plain polynomial multiplication (test oracle)."""
    target = p.promoted(RAT if isinstance(r, (int, Fraction)) else None)
    rr = promote(r, target.domain) if not isinstance(r, Poly) else r

    def xmul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    acc = [target.coeffs[0]]
    for c in target.coeffs[1:]:
        acc = xmul(acc, [-rr, promote(1, target.domain)])
        acc[0] = acc[0] + c
    return CharPoly(list(reversed(acc)))


class TestCharPoly:
    def test_coefficients_and_degree(self):
        assert FIB_POLY.degree == 2
        assert FIB_POLY.coeffs == (1, -1, -1)
        assert FIB_POLY.coefficient_of_power(2) == 1
        assert FIB_POLY.coefficient_of_power(0) == -1
        assert FIB_POLY.is_monic

    def test_validation(self):
        with pytest.raises(ValueError):
            CharPoly((1,))
        with pytest.raises(ValueError):
            CharPoly((0, 1, 2))
        with pytest.raises(ValueError, match="degree at least 1"):
            CharPoly([1.5])  # the length is checked before the values
        with pytest.raises(IndexError):
            FIB_POLY.coefficient_of_power(3)

    def test_text(self):
        assert FIB_POLY.text() == "X^2 - X - 1"
        assert MERSENNE_POLY.text() == "X^2 - 3*X + 2"
        assert CharPoly((1, 0)).text() == "X"
        assert CharPoly((1, Fraction(-5, 2), 0)).text() == "X^2 - 5/2*X"
        wpoly = CharPoly((1, Poly((0, -3), "x"), 2))
        assert wpoly.text() == "X^2 - (3x)*X + 2"

    def test_equality_is_by_value(self):
        assert CharPoly((1, -1, -1)) == CharPoly(
            (Fraction(1), Fraction(-1), Fraction(-1))
        )

    def test_monic_normalized(self):
        p = CharPoly((Fraction(2), Fraction(4), Fraction(-6)))
        q = monic_normalized(p)
        assert q.coeffs == (1, 2, -3)
        assert monic_normalized(q) is q
        with pytest.raises(NonInvertibleDomain):
            monic_normalized(CharPoly((2, 4)))


class TestRecurrenceUnroll:
    def test_fibonacci(self):
        rec = Recurrence(FIB_POLY, (0, 1))
        assert unroll(rec, 9).values == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_mersenne(self):
        rec = Recurrence(MERSENNE_POLY, (0, 1))
        assert unroll(rec, 5).values == (0, 1, 3, 7, 15, 31)

    def test_degree_one_powers(self):
        rec = Recurrence(CharPoly((1, -2)), (1,))
        assert unroll(rec, 6).values == (1, 2, 4, 8, 16, 32, 64)

    def test_short_unroll_slices_init(self):
        rec = Recurrence(FIB_POLY, (0, 1))
        assert unroll(rec, 0).values == (0,)

    def test_init_length_checked(self):
        with pytest.raises(ValueError):
            Recurrence(FIB_POLY, (0,))
        with pytest.raises(ValueError):
            Recurrence(FIB_POLY, (0, 1, 1))

    def test_monic_required(self):
        with pytest.raises(NonMonic):
            Recurrence(CharPoly((2, -1)), (1,))


class TestApplyCharOperator:
    def test_annihilates_own_sequence(self):
        rec = Recurrence(FIB_POLY, (0, 1))
        out = apply_char_operator(FIB_POLY, unroll(rec, 12))
        assert all(v == 0 for v in out)
        assert len(out) == 11

    def test_shift_minus_one_is_difference_of_neighbors(self):
        # (S - 1) on (0, 1, 3, 8): entries a_{n+1} - a_n
        out = apply_char_operator(CharPoly((1, -1)), [0, 1, 3, 8])
        assert out.values == (1, 2, 5)

    def test_detects_non_solution(self):
        out = apply_char_operator(FIB_POLY, [0, 1, 1, 2, 4])
        assert any(v != 0 for v in out)

    def test_prefix_too_short(self):
        with pytest.raises(PrefixTooShort):
            apply_char_operator(FIB_POLY, [1, 2])


class TestShiftCharacteristic:
    def test_fibonacci_shift1(self):
        assert shift_characteristic(FIB_POLY, 1) == CharPoly((1, -3, 1))

    def test_mersenne_shift1(self):
        assert shift_characteristic(MERSENNE_POLY, 1) == CharPoly((1, -5, 6))

    def test_shift_zero_is_identity(self):
        assert shift_characteristic(FIB_POLY, 0) == FIB_POLY

    def test_stays_monic(self):
        q = shift_characteristic(FIB_POLY, Fraction(5, 3))
        assert q.is_monic

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonic):
            shift_characteristic(CharPoly((2, 1)), 1)

    def test_symbolic_shift(self):
        r = Poly.indeterminate("r")
        q = shift_characteristic(FIB_POLY, r)
        assert q.coefficient_of_power(1) == Poly((1, 2), "r") * -1
        assert q.coefficient_of_power(0) == Poly((-1, 1, 1), "r")

    @settings(max_examples=120)
    @given(monic_polys(6), fractions_st)
    def test_matches_naive_substitution(self, p, r):
        assert shift_characteristic(p, r) == substitute_x_minus_r(p, r)

    @settings(max_examples=100)
    @given(monic_polys(5), fractions_st, fractions_st)
    def test_additive_in_shift(self, p, r, s):
        twice = shift_characteristic(shift_characteristic(p, s), r)
        assert twice == shift_characteristic(p, r + s)

    @settings(max_examples=100)
    @given(monic_polys(5), fractions_st)
    def test_round_trip(self, p, r):
        assert shift_characteristic(shift_characteristic(p, r), -r) == p


class TestTransformRecurrence:
    def test_lucas_shift1(self):
        rec = Recurrence(FIB_POLY, (2, 1))
        out = transform_recurrence(rec, 1)
        assert out.poly == CharPoly((1, -3, 1))
        assert out.init == (2, 3)

    def test_pell_shift2(self):
        rec = Recurrence(CharPoly((1, -2, -1)), (0, 1))
        out = transform_recurrence(rec, 2)
        assert out.poly == CharPoly((1, -6, 7))
        assert unroll(out, 4).values == (0, 1, 6, 29, 132)

    def test_shift_zero_keeps_recurrence(self):
        rec = Recurrence(MERSENNE_POLY, (0, 1))
        assert transform_recurrence(rec, 0) == rec

    def test_unroll_commutes_with_transform(self):
        rec = Recurrence(CharPoly((1, -1, -2)), (0, 1))
        for r in (-2, -1, 1, 2, Fraction(1, 2)):
            direct = apply_transform(unroll(rec, 14), r)
            rerolled = unroll(transform_recurrence(rec, r), 14)
            assert direct == rerolled

    def test_degree_one(self):
        rec = Recurrence(CharPoly((1, -2)), (1,))
        out = transform_recurrence(rec, 1)
        assert out.poly == CharPoly((1, -3))
        assert unroll(out, 4).values == (1, 3, 9, 27, 81)

    @settings(max_examples=80)
    @given(monic_polys(4), st.data())
    def test_annihilation(self, p, data):
        d = p.degree
        init = data.draw(st.lists(fractions_st, min_size=d, max_size=d))
        r = data.draw(fractions_st)
        rec = Recurrence(p, init)
        transformed = apply_transform(unroll(rec, d + 10), r)
        residual = apply_char_operator(shift_characteristic(p, r), transformed)
        assert all(v == 0 for v in residual)


class TestSecondOrderTemplate:
    def test_fibonacci_symbolic(self):
        r = Poly.indeterminate("r")
        b1, b2 = second_order_template(1, -1, r)
        assert b1 == Poly((1, 2), "r")
        assert b2 == Poly((-1, 1, 1), "r")

    def test_wpoly_concrete_shift(self):
        x = Poly.indeterminate("x")
        b1, b2 = second_order_template(3 * x, 2, 1)
        assert b1 == Poly((2, 3), "x")
        assert b2 == Poly((3, 3), "x")

    def test_shift_zero(self):
        assert second_order_template(7, 5, 0) == (7, 5)

    def test_matches_shift_characteristic(self):
        for p, q, r in [(1, -1, 3), (2, -1, Fraction(1, 2)), (3, 2, -2)]:
            b1, b2 = second_order_template(p, q, r)
            shifted = shift_characteristic(CharPoly((1, -p, q)), r)
            assert shifted.coefficient_of_power(1) == -b1
            assert shifted.coefficient_of_power(0) == b2

    def test_two_indeterminates_rejected(self):
        x = Poly.indeterminate("x")
        r = Poly.indeterminate("r")
        with pytest.raises(DomainMismatch):
            second_order_template(3 * x, 2, r)


class TestIntertwineResidual:
    def test_zero_on_literal(self):
        out = intertwine_residual([0, 1, 1, 2, 3, 5], 1)
        assert all(v == 0 for v in out)
        assert len(out) == 5

    def test_needs_two_terms(self):
        with pytest.raises(PrefixTooShort):
            intertwine_residual([1], 1)

    @settings(max_examples=120)
    @given(st.lists(fractions_st, min_size=2, max_size=10), fractions_st)
    def test_always_zero(self, values, r):
        assert all(v == 0 for v in intertwine_residual(values, r))


def comb_formula_shift(p, r):
    """P(X - r) by the coefficient formula the Taylor shift replaced,
    q_j = sum_k p_k C(d-k, j-k) (-r)^(j-k) (test oracle)."""
    target = join_domains(p.domain, domain_of(r))
    neg_r = -promote(r, target)
    coeffs = p.promoted(target).coeffs
    d = p.degree
    neg_pow = [one(target)]
    for _ in range(d):
        neg_pow.append(neg_pow[-1] * neg_r)
    q = []
    for j in range(d + 1):
        acc = zero(target)
        for k in range(j + 1):
            acc = acc + math.comb(d - k, j - k) * (coeffs[k] * neg_pow[j - k])
        q.append(acc)
    return CharPoly(q, target)


@st.composite
def monic_and_shift_st(draw):
    """A monic polynomial over int, rat, quad(5), quad(-3), quad(999983)
    or poly(x), and an int, Fraction, Quad (rational or not) or Poly
    (constant or not) shift that joins with it."""
    tail = draw(prefixes_st())
    p = CharPoly([one(tail.domain), *tail.values], tail.domain)
    return p, draw(shifts_st(p.domain))


X = Poly.indeterminate("x")
SQRT5 = Quad(0, 1, 5)


class TestTaylorShiftDifferential:
    """The Ruffini-Horner shift, on int columns at a rational shift and on
    the scalars otherwise, gives scalar for scalar what the coefficient
    formula and the substitution by polynomial multiplication give."""

    @settings(max_examples=250, deadline=None)
    @given(monic_and_shift_st())
    # r = 0 in several domains
    @example((CharPoly((1, Fraction(1, 2), 3)), 0))
    @example((CharPoly((1, SQRT5, 2)), Fraction(0)))
    @example((CharPoly((1, X, 2)), Poly((), "x")))
    # degree 1
    @example((CharPoly((1, Fraction(-2, 3))), Fraction(5, 7)))
    @example((CharPoly((1, SQRT5)), Quad(1, 1, 5)))
    # columns that cancel to zero: (X - 1/2)^2 -> X^2, and a radical part
    # and polynomial columns that vanish
    @example((CharPoly((1, -1, Fraction(1, 4))), Fraction(-1, 2)))
    @example((CharPoly((1, Quad(-2, -2, 5), Quad(6, 2, 5))), Quad(1, 1, 5)))
    @example((CharPoly((1, -2 * X, X * X)), X))
    @example((CharPoly((1, Quad(0, 2, -3), Quad(-3, 0, -3))), Quad(0, -1, -3)))
    def test_matches_formula_and_substitution(self, case):
        p, r = case
        got = shift_characteristic(p, r)
        for want in (comb_formula_shift(p, r), _naive_substitution_shift(p, r)):
            assert got == want
            assert got.domain == want.domain
            assert_same_scalars(got.coeffs, want.coeffs)


class TestShiftBuildsFewFractions:
    """At a rational shift the Taylor shift runs on int columns: a degree-d
    rational polynomial costs at most d + 3 Fractions, the d + 1 results
    among them."""

    def test_degree_12(self, monkeypatch):
        d = 12
        p = CharPoly([1, *[Fraction((-1) ** k * (k + 2), k + 3) for k in range(d)]])
        r = Fraction(-5, 7)
        want = comb_formula_shift(p, r)
        built = [0]
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        got = shift_characteristic(p, r)
        monkeypatch.undo()
        assert built[0] <= d + 3
        assert got == want


# The scalar loops of unroll and apply_char_operator, as they ran for
# every domain before the int-column route (test oracles).


def unroll_on_scalars(rec, n_max):
    d = rec.degree
    p = rec.poly.coeffs
    vals = list(rec.init[: n_max + 1])
    zero_s = zero(rec.domain)
    for n in range(d, n_max + 1):
        acc = zero_s
        for k in range(1, d + 1):
            acc = acc - p[k] * vals[n - k]
        vals.append(acc)
    return vals


def char_operator_on_scalars(p, a):
    d = p.degree
    target = join_domains(p.domain, a.domain)
    coeffs = p.promoted(target).coeffs
    vals = a.promoted(target).values
    zero_s = zero(target)
    out = []
    for n in range(len(vals) - d):
        acc = zero_s
        for j in range(d + 1):
            acc = acc + coeffs[d - j] * vals[n + j]
        out.append(acc)
    return out


DOMAINS = {"int": INT, "rat": RAT, "poly": poly_domain("x")}
# fractions_st's values, drawn without st.fractions' per-draw flatmap
ratios_st = st.builds(Fraction, st.integers(min_value=-30, max_value=30), st.integers(1, 6))


@functools.lru_cache(maxsize=None)
def domain_values_st(kind, d, rational):
    """Values of int, rat, quad(d) or poly(x): for ``rational``, only
    ints, Fractions, Quads with zero radical part and constant Polys;
    otherwise any Quad and Polys of degree up to 1, as wpoly's 3x.
    Cached: hypothesis validates a new strategy object on its first draw."""
    if kind == "int":
        return st.integers(min_value=-50, max_value=50)
    if kind == "rat":
        return ratios_st
    if kind == "quad":
        radical = st.just(0) if rational else ratios_st
        return st.builds(lambda a, b: Quad(a, b, d), ratios_st, radical)
    return st.lists(ratios_st, max_size=1 if rational else 2).map(
        lambda cs: Poly(cs, "x")
    )


@st.composite
def domain_st(draw):
    """A domain kind of ``tests/exact_strategies.py``, its Domain and,
    for quad, the radicand."""
    kind = draw(st.sampled_from(("int", "rat", "quad", "poly")))
    d = draw(st.sampled_from(RADICANDS))
    return kind, (quad_domain(d) if kind == "quad" else DOMAINS[kind]), d


@st.composite
def recurrence_and_depth_st(draw):
    """A monic recurrence of degree 1-5, its coefficients rational or (in
    quad and poly) often not, its initial terms anywhere in the domain,
    and an n_max in 0..60."""
    kind, dom, d = draw(domain_st())
    degree = draw(st.integers(min_value=1, max_value=5))
    coefficients = domain_values_st(kind, d, draw(st.booleans()))
    tail = draw(st.lists(coefficients, min_size=degree, max_size=degree))
    terms = domain_values_st(kind, d, False)
    init = draw(st.lists(terms, min_size=degree, max_size=degree))
    rec = Recurrence(CharPoly([one(dom), *tail], dom), init)
    return rec, draw(st.integers(min_value=0, max_value=60))


@st.composite
def operator_and_prefix_st(draw):
    """A characteristic polynomial of degree 1-5, monic or not, with
    rational or (in quad and poly) often irrational coefficients, and a
    prefix of d + 1 to d + 61 terms of its domain or of int.  Up to nine
    terms are drawn; the rest continue them by t_n = c t_{n-1} - t_{n-h},
    h the number drawn and c a drawn scalar, which keeps a long prefix
    generic at a few draws."""
    kind, dom, d = draw(domain_st())
    degree = draw(st.integers(min_value=1, max_value=5))
    values = domain_values_st(kind, d, draw(st.booleans()))
    leading = draw(values.filter(lambda v: v != 0))
    p = CharPoly([leading, *draw(st.lists(values, min_size=degree, max_size=degree))], dom)
    size = degree + 1 + draw(st.integers(min_value=0, max_value=60))
    terms = domain_values_st(draw(st.sampled_from((kind, "int"))), d, False)
    head = draw(st.lists(terms, min_size=1, max_size=min(size, 9)))
    c, h = draw(terms), len(head)
    while len(head) < size:
        head.append(c * head[-1] - head[-h])
    return p, SequencePrefix(head)


@contextlib.contextmanager
def loops_on_scalars():
    """Counts the runs of the recurrence module's two loops on scalars
    rather than on ints."""
    runs = [0]
    originals = recurrence._continued, recurrence._operator_sums

    def counted(loop):
        def run(c, vals, *rest):
            runs[0] += not isinstance(vals[0], int)
            return loop(c, vals, *rest)

        return run

    recurrence._continued, recurrence._operator_sums = map(counted, originals)
    try:
        yield runs
    finally:
        recurrence._continued, recurrence._operator_sums = originals


def irrational(coeffs):
    return any(_rational_parts(c) is None for c in coeffs)


WPOLY = Recurrence(CharPoly((1, -3 * X, 2)), (0, 1))
FIB_REC = Recurrence(CharPoly((1, -1, -1)), (0, 1))
SIXTHS_REC = Recurrence(CharPoly((1, Fraction(-1, 2), Fraction(1, 3))), (Fraction(1, 5), 2))
SQRT5_REC = Recurrence(CharPoly((1, -SQRT5, -1)), (Quad(1, 1, 5), 2))


class TestRecurrenceLoopsDifferential:
    """unroll and apply_char_operator give, scalar for scalar, what the
    scalar loops give; the loops run on scalars only for an irrational
    Quad or a non-constant Poly coefficient."""

    @settings(max_examples=250, deadline=None)
    @given(recurrence_and_depth_st())
    # n_max below d - 1, at d - 1 and at d
    @example((Recurrence(CharPoly((1, Fraction(1, 2), 0, 0, 3)), (1, 2, 3, 4)), 1))
    @example((Recurrence(CharPoly((1, Fraction(1, 2), 3)), (1, Fraction(2, 3))), 1))
    @example((Recurrence(CharPoly((1, Quad(1, 0, 5))), (Quad(1, 1, 5),)), 1))
    @example((WPOLY, 12))
    @example((SQRT5_REC, 10))
    # a Quad recurrence whose radical column cancels, and all-zero terms
    @example((Recurrence(CharPoly((1, Quad(-2, 0, -3))), (Quad(0, 1, -3),)), 9))
    @example((Recurrence(CharPoly((1, Poly((), "x"), -1)), (Poly((), "x"), 0)), 7))
    # order 2, continued in two registers: n_max 0 to 2 (one start value
    # below 1), c2 = 0, coefficients past 64 bits (n_max 200 keeps the
    # terms under the 4,300 digits that str() of an int allows), and
    # E = 6 scaling the int columns of a rational recurrence
    @example((FIB_REC, 0))
    @example((FIB_REC, 1))
    @example((FIB_REC, 2))
    @example((Recurrence(CharPoly((1, -3, 0)), (2, -5)), 20))
    @example((Recurrence(CharPoly((1, 2**64 + 1, -(2**64 + 1))), (1, -1)), 200))
    @example((SIXTHS_REC, 40))
    def test_unroll(self, case):
        rec, n_max = case
        want = unroll_on_scalars(rec, n_max)
        with loops_on_scalars() as runs:
            got = unroll(rec, n_max)
        assert got.domain == rec.domain
        assert_same_scalars(got.values, want)
        assert runs[0] == (rec.domain.kind != "int" and irrational(rec.poly.coeffs))

    @settings(max_examples=250, deadline=None)
    @given(operator_and_prefix_st())
    # len(a) == d + 1, a non-monic rational operator, int terms promoted
    @example((CharPoly((Fraction(-2, 3), 1, Fraction(1, 2))), SequencePrefix([1, 2, 3])))
    @example((CharPoly((2, Quad(1, 0, 5))), SequencePrefix([Quad(0, 1, 5), 3, 1])))
    @example((WPOLY.poly, unroll(WPOLY, 9)))
    @example((SQRT5_REC.poly, unroll(SQRT5_REC, 9)))
    def test_apply_char_operator(self, case):
        p, a = case
        want = char_operator_on_scalars(p, a)
        with loops_on_scalars() as runs:
            got = apply_char_operator(p, a)
        target = join_domains(p.domain, a.domain)
        assert got.domain == target
        assert_same_scalars(got.values, want)
        assert runs[0] == (target.kind != "int" and irrational(p.coeffs))


@pytest.fixture
def fractions_built(monkeypatch):
    """A one-element list counting every Fraction constructed."""
    built = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


class TestRecurrenceLoopsBuildFewFractions:
    """On rational coefficients both loops run on int columns: each
    builds its results and at most two Fractions more (the scalar loops
    build 137 and 171 on the case below)."""

    REC = Recurrence(
        CharPoly([1, Fraction(-3, 4), Fraction(5, 2), Fraction(-1, 3), Fraction(2, 5)]),
        [Fraction(1, 2), Fraction(-4, 3), 5, Fraction(7, 6)],
    )

    def test_unroll_degree_4(self, fractions_built):
        want = unroll_on_scalars(self.REC, 20)
        fractions_built[0] = 0
        got = unroll(self.REC, 20)
        assert fractions_built[0] <= 21 + 2
        assert list(got.values) == want

    def test_apply_char_operator_on_21_terms(self, fractions_built):
        a = unroll(self.REC, 20)
        fractions_built[0] = 0
        got = apply_char_operator(self.REC.poly, a)
        assert fractions_built[0] <= 17 + 2
        assert all(v == 0 for v in got)
        assert len(got) == 17


class TestIntInputsAreNotPromoted:
    """Int and rational inputs are lowered to int columns as they are,
    and only the results are built in the target domain: each count
    below includes the results and allows two more.  Promoting the
    inputs first built 41 Fractions for the operator, 34 for each of
    the three views and 14 Polys for the root shift."""

    FIB = family_prefix("fibonacci", 16)
    HALF = Fraction(1, 2)

    def test_char_operator_on_int_terms(self, fractions_built):
        p = CharPoly([1, Fraction(-1, 2)])
        fractions_built[0] = 0
        got = apply_char_operator(p, range(21))
        assert fractions_built[0] <= 20 + 2
        assert list(got) == [n + 1 - Fraction(n, 2) for n in range(20)]

    @pytest.mark.parametrize(
        "view",
        [
            lambda a, r: apply_transform(a, r).values,
            lambda a, r: series_compose_geometric(series_from_prefix(a, OGF), r).coeffs,
            lambda a, r: egf_transform(series_from_prefix(a, EGF), r).coeffs,
        ],
        ids=["apply_transform", "series_compose_geometric", "egf_transform"],
    )
    def test_views_of_an_int_prefix(self, fractions_built, view):
        a, r = self.FIB, self.HALF
        want = [
            sum(math.comb(n, k) * r ** (n - k) * a[k] for k in range(n + 1))
            for n in range(len(a))
        ]
        fractions_built[0] = 0
        got = view(a, r)
        assert fractions_built[0] <= 17 + 2
        assert_same_scalars(got, want)

    def test_root_shift_at_a_symbolic_shift(self, monkeypatch):
        d = 12
        p = CharPoly([1, *[Fraction((-1) ** k * (k + 2), k + 3) for k in range(d)]])
        r = Poly.indeterminate("r")
        want = _naive_substitution_shift(p, r)
        calls = [0]
        original = Poly.__init__

        def counted(self, *args, **kwargs):
            calls[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counted)
        got = shift_characteristic(p, r)
        monkeypatch.undo()
        assert calls[0] == 0
        assert got == want
        assert got.domain == poly_domain("r")
