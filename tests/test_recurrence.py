"""Characteristic polynomials, root shifts, and transformed recurrences."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift.errors import (
    DomainMismatch,
    NonInvertibleDomain,
    NonMonic,
    PrefixTooShort,
)
from binshift.exactnum import (
    RAT,
    Poly,
    Quad,
    domain_of,
    join_domains,
    one,
    promote,
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
from binshift.transform import SequencePrefix, apply_transform
from binshift.verify import _naive_substitution_shift

from exact_strategies import assert_same_scalars, prefixes_st, shifts_st

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
