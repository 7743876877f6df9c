"""Exact scalar domains: arithmetic, promotion, rendering, parsing."""

import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift import cli, exactnum
from binshift.errors import DivisionByZero, DomainMismatch, NonInvertibleDomain
from binshift.exactnum import (
    INT,
    RAT,
    Domain,
    Poly,
    Quad,
    domain_of,
    indeterminate,
    is_squarefree,
    join_domains,
    one,
    parse_scalar,
    poly_domain,
    promote,
    quad_domain,
    render_scalar,
    scalar_inv,
    unify,
    zero,
)
from binshift.recurrence import (
    CharPoly,
    _taylor_shift,
    apply_char_operator,
    shift_characteristic,
)
from binshift.series import (
    EGF,
    OGF,
    TruncSeries,
    egf_transform,
    series_compose_geometric,
)
from binshift.transform import SequencePrefix, _table, apply_transform

from exact_strategies import assert_same_scalars

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys_st = st.lists(fractions_st, max_size=5).map(lambda cs: Poly(cs, "x"))
quads_st = st.builds(lambda a, b: Quad(a, b, 5), fractions_st, fractions_st)

X = indeterminate("x")
PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
PSI = Quad(Fraction(1, 2), Fraction(-1, 2), 5)


def squarefree_by_trial_division(n):
    """``is_squarefree`` by trial division up to sqrt(n), the search
    before the cube-root one (test oracle)."""
    n = abs(n)
    if n == 0 or n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 2
    return True


# primes on both sides of the cube roots of their products
SQUAREFREE_PRIMES = (2, 3, 5, 7, 11, 97, 101, 463, 467, 997, 1009, 9973, 10007)


class TestSquarefree:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(-(10**9), 10**9),
            st.builds(
                lambda primes, sign: sign * math.prod(primes),
                st.lists(st.sampled_from(SQUAREFREE_PRIMES), max_size=4),
                st.sampled_from((1, -1)),
            ),
        )
    )
    @example(0)
    @example(1)
    @example(-1)
    @example(10007**2)
    @example(9973 * 10007)
    @example(999983**2)
    @example(999983 * 1000003)
    @example(8 * 999983)
    def test_matches_trial_division(self, n):
        assert is_squarefree.__wrapped__(n) is squarefree_by_trial_division(n)

    def test_radicand_cap(self):
        cap = exactnum._MAX_RADICAND
        assert cap == 10**18
        assert is_squarefree(cap) is False  # 2^18 * 5^18, at the cap
        assert is_squarefree(-cap) is False
        for n in (cap + 1, -cap - 1, 10**18 + 3, 10**40):
            with pytest.raises(ValueError, match="above the cap"):
                is_squarefree(n)
            with pytest.raises(ValueError, match="above the cap"):
                quad_domain(n)
            with pytest.raises(ValueError, match="above the cap"):
                Quad(1, 1, n)

    def test_basic(self):
        assert is_squarefree(2)
        assert is_squarefree(-5)
        assert is_squarefree(30)
        assert not is_squarefree(4)
        assert not is_squarefree(12)
        assert not is_squarefree(-18)
        assert not is_squarefree(0)

    def test_quad_domain_rejects_bad_radicand(self):
        with pytest.raises(ValueError):
            quad_domain(4)
        with pytest.raises(ValueError):
            quad_domain(1)
        with pytest.raises(ValueError):
            quad_domain(0)
        with pytest.raises(ValueError):
            Quad(1, 1, 12)

    def test_negative_radicand_allowed(self):
        i = Quad(0, 1, -1)
        assert i * i == -1

    def test_matches_the_definition(self):
        # no k >= 2 with k^2 dividing n; 0 is divisible by every square
        for n in [*range(-5000, 5001), 999983, 4 * 999983, 999983**2]:
            roots = range(2, math.isqrt(abs(n)) + 1)
            expected = n != 0 and all(n % (k * k) for k in roots)
            assert is_squarefree.__wrapped__(n) is expected, n

    def test_large_radicand_checked_once(self):
        d = 999999999989  # prime near 10^12: one check runs to its cube root
        is_squarefree.cache_clear()
        start = time.perf_counter()
        prefix = SequencePrefix([Quad(k, 1, d) for k in range(41)])
        out = apply_transform(prefix, 1)
        assert time.perf_counter() - start < 1.0
        assert out[1] == Quad(1, 2, d)
        # the cached check still rejects what the uncached one rejected
        for _ in range(2):
            with pytest.raises(ValueError):
                Quad(1, 1, 4)
        Quad(1, 1, 5)
        with pytest.raises(TypeError):
            Quad(1, 1, 5.0)
        with pytest.raises(TypeError):
            Quad(1, 1, True)
        with pytest.raises(ValueError):
            Poly((1,), "1x")


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0, 0)).is_zero
        assert Poly(()).degree == -1
        assert Poly((5,)).degree == 0

    def test_product(self):
        assert (1 + X) * (1 - X) == Poly((1, 0, -1))
        assert (3 * X) * (3 * X) == Poly((0, 0, 9))
        assert X * Poly(()) == Poly(())

    def test_power(self):
        assert (1 + X) ** 2 == Poly((1, 2, 1))
        assert X**2 == Poly((0, 0, 1))
        assert X**0 == 1
        assert Poly((), "x") ** 0 == 1
        with pytest.raises(ValueError):
            X**-1

    def test_constants_compare_across_variables(self):
        assert Poly((3,), "x") == Poly((3,), "r")
        assert Poly((3,), "x") == 3
        assert Poly((), "x") == 0
        assert hash(Poly((3,), "x")) == hash(3)
        assert hash(Poly((), "r")) == hash(0)

    def test_nonconstants_need_matching_variable(self):
        r = indeterminate("r")
        assert X != r
        with pytest.raises(DomainMismatch):
            X + r
        with pytest.raises(DomainMismatch):
            X * r
        # constants adopt the other side's variable
        assert Poly((2,), "x") + r == Poly((2, 1), "r")

    def test_fraction_operands_rejected(self):
        with pytest.raises(TypeError):
            X + Fraction(1, 2)
        with pytest.raises(TypeError):
            Fraction(1, 2) * X

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly((0.5,))
        with pytest.raises(TypeError):
            domain_of(0.5)

    def test_bool_coefficients_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            Poly((True, 2))
        with pytest.raises(TypeError, match="bool"):
            Quad(True, False, 5)
        with pytest.raises(TypeError, match="bool"):
            Quad(1, True, 5)

    def test_constant_value(self):
        assert Poly((Fraction(7, 2),)).constant_value() == Fraction(7, 2)
        with pytest.raises(ValueError):
            X.constant_value()

    def test_text(self):
        assert Poly((1, 2), "r").text() == "1 + 2*r"
        assert Poly((-1, 1, 1), "r").text() == "-1 + r + r^2"
        assert Poly((0, -1)).text() == "-x"
        assert Poly((0, 0, Fraction(1, 2))).text() == "1/2*x^2"
        assert Poly(()).text() == "0"

    def test_compact(self):
        assert Poly((1, 2), "r").compact() == "2r+1"
        assert Poly((-1, 1, 1), "r").compact() == "r^2+r-1"
        assert Poly((2, 3, 1), "r").compact() == "r^2+3r+2"
        assert Poly((0, -3)).compact() == "-3x"


class TestQuad:
    def test_golden_ratio_relations(self):
        assert PHI * PSI == -1
        assert PHI + PSI == 1
        assert PHI * PHI == PHI + 1
        assert -PHI == Quad(Fraction(-1, 2), Fraction(-1, 2), 5)

    def test_sqrt5_inverse(self):
        root5 = Quad(0, 1, 5)
        assert scalar_inv(root5) == Quad(0, Fraction(1, 5), 5)
        assert root5 * scalar_inv(root5) == 1

    def test_norm(self):
        assert PHI.norm() == Fraction(-1)
        assert Quad(3, 1, 2).norm() == 7
        assert Quad(0, 0, 5).norm() == 0

    def test_conjugate(self):
        assert PHI.conjugate() == PSI
        assert (PHI * PSI).conjugate() == PHI * PSI

    def test_rational_values_compare_across_radicands(self):
        assert Quad(3, 0, 5) == Quad(3, 0, 2)
        assert Quad(3, 0, 5) == 3
        assert Quad(3, 0, 5) == Fraction(3)
        assert hash(Quad(3, 0, 5)) == hash(3)
        assert Quad(3, 1, 5) != Quad(3, 1, 2)

    def test_never_mixes_with_poly(self):
        # Poly and Quad share their int-numerator core, but not a domain
        p, q = Poly((3,), "x"), Quad(1, 1, 5)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, q)
            with pytest.raises(TypeError):
                op(q, p)
        three = Quad(3, 0, 5)
        assert p == 3 and three == 3
        assert (p == three) is False
        assert (three == p) is False

    def test_mixed_radicand_arithmetic_rejected(self):
        with pytest.raises(DomainMismatch):
            Quad(1, 1, 5) + Quad(1, 1, 2)
        with pytest.raises(DomainMismatch):
            Quad(3, 0, 5) * Quad(1, 1, 2)

    def test_pow(self):
        assert PHI**0 == 1
        assert PHI**2 == PHI + 1
        assert Quad(1, 1, 2) ** 3 == Quad(7, 5, 2)
        with pytest.raises(ValueError):
            PHI**-1

    def test_inverse_of_negative_norm(self):
        # the stored denominator stays positive when the norm is negative
        for x in (PHI, Quad(0, 1, 3), Quad(1, 2, 2), Quad(Fraction(-3, 4), 1, 7)):
            assert x.norm() < 0
            inv = _canonical(x.inverse())
            assert x * inv == 1
            assert repr(inv) == repr(Quad(inv.a, inv.b, inv.d))
        assert Quad(0, 1, 3).inverse() == Quad(0, Fraction(1, 3), 3)
        assert PHI.inverse() == Quad(Fraction(-1, 2), Fraction(1, 2), 5)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            Quad(0, 0, 5).inverse()

    def test_text(self):
        assert Quad(Fraction(1, 2), Fraction(1, 2), 5).text() == "1/2 + 1/2*sqrt(5)"
        assert Quad(0, -1, 2).text() == "-sqrt(2)"
        assert Quad(3, 0, 5).text() == "3"


class TestArithmeticBuildsNoFraction:
    """Quad and Poly arithmetic runs on int numerators over one
    denominator: it constructs no Fraction."""

    @pytest.fixture
    def fractions_built(self, monkeypatch):
        calls = [0]
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            calls[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        return calls

    @pytest.mark.parametrize(
        "op",
        [
            lambda q, r, p, s: q * r,
            lambda q, r, p, s: q + r,
            lambda q, r, p, s: q**5,
            lambda q, r, p, s: p * s,
            lambda q, r, p, s: p + s,
            lambda q, r, p, s: p * 7,
        ],
        ids=["quad*quad", "quad+quad", "quad**5", "poly*poly", "poly+poly", "poly*int"],
    )
    def test_zero_fractions(self, fractions_built, op):
        q = Quad(Fraction(1, 2), Fraction(-3, 4), 5)
        r = Quad(Fraction(5, 6), Fraction(1, 3), 5)
        p = Poly((Fraction(1, 2), 3, Fraction(-2, 7)), "x")
        s = Poly((Fraction(-1, 3), Fraction(5, 4)), "x")
        fractions_built[0] = 0
        result = op(q, r, p, s)
        assert fractions_built[0] == 0
        # the counter sees Fractions when they are built
        _ = result.a if isinstance(result, Quad) else result.coeffs
        assert fractions_built[0] > 0

    @pytest.mark.parametrize(
        "render",
        [
            lambda v: v["p"].text(),
            lambda v: v["p"].compact(),
            lambda v: v["q"].text(),
            lambda v: [c.text() for c in v["chars"]],
            lambda v: [c.text("Y") for c in v["chars"]],
            lambda v: [cli._json_value(x) for x in v["json"]],
            lambda v: cli._check_output_size([v["p"], v["p"] * 3], 7, 1),
        ],
        ids=[
            "Poly.text",
            "Poly.compact",
            "Quad.text",
            "CharPoly.text",
            "CharPoly.text(Y)",
            "cli._json_value",
            "cli._check_output_size",
        ],
    )
    def test_rendering_builds_none(self, fractions_built, render):
        q = Quad(Fraction(1, 2), Fraction(-3, 4), 5)
        p = Poly((Fraction(1, 2), 3, Fraction(-2, 7)), "x")
        values = {
            "p": p,
            "q": q,
            "chars": [
                CharPoly([Fraction(2, 3), Fraction(-1, 2), 0, 5]),
                CharPoly([3, -p, Poly((Fraction(-1, 3),), "x")]),
                CharPoly([1, q, Quad(-2, 0, 5)]),
            ],
            "json": [4, Fraction(7, 2), Fraction(6), p, Poly((-4,), "x"), q, Quad(3, 0, 5)],
        }
        fractions_built[0] = 0
        render(values)
        assert fractions_built[0] == 0


class TestPowerReducesOnce:
    """Quad and Poly powers multiply raw numerator tuples: ``x ** 20``
    brings one result into lowest terms, not one per product."""

    @pytest.mark.parametrize(
        "x",
        [
            Quad(Fraction(1, 2), Fraction(-3, 4), 5),
            Poly((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)), "x"),
        ],
        ids=["quad", "poly"],
    )
    def test_power_20(self, monkeypatch, x):
        calls = [0]
        original = exactnum._lowest

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(exactnum, "_lowest", counted)
        got = x**20
        monkeypatch.undo()
        assert calls[0] == 1
        assert got == power_by_products(x, 20)


def power_by_products(x, n):
    """``x ** n`` for a Quad or Poly ``x`` by square-and-multiply over
    its products, each brought into lowest terms, the route before raw
    numerator tuples (test oracle)."""
    result, base = one(domain_of(x)), x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


quad_radicands_st = st.builds(
    Quad, fractions_st, fractions_st, st.sampled_from((5, -3, 999983))
)


class TestDomains:
    def test_domain_of(self):
        assert domain_of(3) == INT
        assert domain_of(Fraction(1, 2)) == RAT
        assert domain_of(X) == poly_domain("x")
        assert domain_of(PHI) == quad_domain(5)

    def test_join_routes(self):
        assert join_domains(INT, RAT) == RAT
        assert join_domains(RAT, poly_domain("r")) == poly_domain("r")
        assert join_domains(quad_domain(5), INT) == quad_domain(5)
        assert join_domains(RAT, quad_domain(2)) == quad_domain(2)
        assert join_domains(INT, INT) == INT

    @pytest.mark.parametrize(
        "left,right",
        [
            (poly_domain("x"), quad_domain(5)),
            (quad_domain(5), quad_domain(2)),
            (poly_domain("x"), poly_domain("r")),
        ],
    )
    def test_join_rejects(self, left, right):
        with pytest.raises(DomainMismatch):
            join_domains(left, right)

    def test_promote(self):
        assert promote(3, RAT) == Fraction(3)
        assert promote(Fraction(1, 2), poly_domain("r")) == Poly((Fraction(1, 2),), "r")
        assert promote(3, quad_domain(5)) == Quad(3, 0, 5)
        assert promote(Poly((2,), "x"), poly_domain("r")).var == "r"
        with pytest.raises(DomainMismatch):
            promote(PHI, RAT)
        with pytest.raises(DomainMismatch):
            promote(X, quad_domain(5))
        with pytest.raises(DomainMismatch):
            promote(Fraction(1, 2), INT)

    def test_zero_one(self):
        for dom in (INT, RAT, poly_domain("r"), quad_domain(2)):
            assert zero(dom) == 0
            assert one(dom) == 1
            assert domain_of(zero(dom)) == dom
            assert domain_of(one(dom)) == dom

    def test_strict_ops_require_same_domain(self):
        with pytest.raises(DomainMismatch):
            PHI + Quad(1, 1, 2)
        with pytest.raises(DomainMismatch):
            PHI * Quad(0, 1, 2)
        with pytest.raises(DomainMismatch):
            X + Poly((0, 1), "y")
        with pytest.raises(DomainMismatch):
            unify([PHI, X])
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert unify([1, Fraction(1, 2)]) == (RAT, (Fraction(1), Fraction(1, 2)))
        assert -PHI == Quad(Fraction(-1, 2), Fraction(-1, 2), 5)

    def test_inv_errors(self):
        with pytest.raises(NonInvertibleDomain):
            scalar_inv(2)
        with pytest.raises(NonInvertibleDomain):
            scalar_inv(X)
        with pytest.raises(DivisionByZero):
            scalar_inv(Fraction(0))
        assert scalar_inv(Fraction(3)) == Fraction(1, 3)

    def test_pow(self):
        assert Fraction(1, 2) ** 3 == Fraction(1, 8)
        assert X**2 == Poly((0, 0, 1))
        assert PHI**0 == 1
        with pytest.raises(ValueError):
            X ** -1
        with pytest.raises(ValueError):
            PHI ** -1


# pieces of the term grammar, joined in any order
PARSE_TOKENS = (
    *("0", "1", "12", "3/4", "0/5", "x", "x^2", "sqrt(5)", "sqrt(2)"),
    *("*", "^3", "+", "-", " "),
)


class TestRenderParse:
    @pytest.mark.parametrize(
        "value,dom",
        [
            (42, INT),
            (-7, INT),
            (Fraction(-3, 4), RAT),
            (Poly((1, 2), "r"), poly_domain("r")),
            (Poly((-1, 1, 1), "r"), poly_domain("r")),
            (Poly((0, -1, 0, Fraction(2, 3)), "x"), poly_domain("x")),
            (Poly((), "x"), poly_domain("x")),
            (Quad(Fraction(1, 2), Fraction(1, 2), 5), quad_domain(5)),
            (Quad(0, -1, 2), quad_domain(2)),
            (Quad(-3, 0, 5), quad_domain(5)),
        ],
    )
    def test_round_trip(self, value, dom):
        assert parse_scalar(render_scalar(value), dom) == value

    def test_parse_compact_poly(self):
        assert parse_scalar("2r+1", poly_domain("r")) == Poly((1, 2), "r")
        assert parse_scalar("r^2+r-1", poly_domain("r")) == Poly((-1, 1, 1), "r")

    def test_parse_quad_forms(self):
        assert parse_scalar("1 + sqrt(5)", quad_domain(5)) == Quad(1, 1, 5)
        assert parse_scalar("-sqrt(2)", quad_domain(2)) == Quad(0, -1, 2)
        assert parse_scalar("sqrt(-1)", quad_domain(-1)) == Quad(0, 1, -1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("1.5", INT)
        with pytest.raises(ValueError):
            parse_scalar("x + y", poly_domain("x"))
        with pytest.raises(ValueError):
            parse_scalar("sqrt(2)", quad_domain(5))
        with pytest.raises(ValueError):
            parse_scalar("", RAT)

    @pytest.mark.parametrize(
        "text, dom",
        [("1/0", RAT), ("1/0*x", poly_domain("x")), ("1/0 + sqrt(5)", quad_domain(5))],
    )
    def test_parse_zero_denominator_is_value_error(self, text, dom):
        with pytest.raises(ValueError, match="cannot parse rational '1/0'"):
            parse_scalar(text, dom)

    @pytest.mark.parametrize(
        "text, dom, value",
        [
            ("1/2 + 1/3", RAT, Fraction(5, 6)),
            (" -3 ", RAT, Fraction(-3)),
            ("- 1/2 -x^2 +  3x ", poly_domain("x"), Poly((Fraction(-1, 2), 3, -1), "x")),
            ("2sqrt(5) - 1/2 + sqrt(5)", quad_domain(5), Quad(Fraction(-1, 2), 3, 5)),
        ],
    )
    def test_parse_sums_of_terms(self, text, dom, value):
        got = parse_scalar(text, dom)
        assert got == value and domain_of(got) == dom

    @pytest.mark.parametrize(
        "text, dom",
        [
            ("1.5", RAT),
            ("1e3", RAT),
            ("1_0/3", RAT),
            ("1.5", quad_domain(5)),
            ("1.5*x", poly_domain("x")),
            ("1 2*x", poly_domain("x")),
            ("x ^ 1 0", poly_domain("x")),
            ("1 2 + s qrt(5)", quad_domain(5)),
            ("sqrt( 5 )", quad_domain(5)),
            ("3 +", poly_domain("x")),
            ("2*", poly_domain("x")),
            ("*x", poly_domain("x")),
            ("sqrt(5)^2", quad_domain(5)),
        ],
    )
    def test_parse_rejects_text_outside_the_term_grammar(self, text, dom):
        with pytest.raises(ValueError):
            parse_scalar(text, dom)

    @pytest.mark.parametrize(
        "text, value",
        [("1 + 2", 3), (" -7 ", -7), ("+5", 5), ("4/2", 2), ("-0", 0),
         ("3 - 1/2 + 1/2", 3)],
    )
    def test_int_domain_reads_the_term_grammar(self, text, value):
        got = parse_scalar(text, INT)
        assert got == value and type(got) is int
        assert parse_scalar(text, RAT) == value

    @pytest.mark.parametrize("text", ["1_0", "1/2", "1.5", "1e3", "1 2", "", "1/0"])
    def test_int_domain_rejects_what_rat_rejects_and_fractions(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text, INT)

    def test_poly_power_above_the_cap_raises(self):
        cap = exactnum._MAX_PARSE_DEGREE
        assert cap > cli.MAX_POLY_INDEX
        for text in (f"x^{cap + 1}", "x^1000000", f"1 + x^{cap} - 2x^{10 * cap}"):
            with pytest.raises(ValueError, match="above"):
                parse_scalar(text, poly_domain("x"))

    def test_poly_round_trip_at_the_cap(self):
        p = Poly([Fraction(1, 2), *[0] * (exactnum._MAX_PARSE_DEGREE - 1), -3], "x")
        assert parse_scalar(render_scalar(p), poly_domain("x")) == p

    @given(st.lists(fractions_st, max_size=5), st.sampled_from(("x", "r")))
    def test_compact_round_trip(self, coeffs, var):
        p = Poly(coeffs, var)
        assert parse_scalar(p.compact(), poly_domain(p.var)) == p

    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from((INT, RAT, poly_domain("x"), quad_domain(5))),
        st.one_of(
            st.text(alphabet="0123456789/+-*^ x()sqrt", max_size=24),
            st.lists(st.sampled_from(PARSE_TOKENS), max_size=8).map("".join),
        ),
    )
    @example(INT, "1/0")
    @example(poly_domain("x"), "x^99999999999999999999")
    @example(quad_domain(5), "sqrt(5)^2")
    @example(quad_domain(5), "2sqrt(5) - 1/2")
    def test_text_of_the_alphabet_parses_or_raises_value_error(self, dom, text):
        # any other exception fails the test
        try:
            value = parse_scalar(text, dom)
        except ValueError:
            return
        assert domain_of(value) == dom
        assert parse_scalar(render_scalar(value), dom) == value

    @given(fractions_st)
    def test_rational_round_trip(self, q):
        assert parse_scalar(render_scalar(q), RAT) == q

    @given(polys_st)
    def test_poly_round_trip(self, p):
        assert parse_scalar(render_scalar(p), poly_domain("x")) == p

    @given(quads_st)
    def test_quad_round_trip(self, q):
        assert parse_scalar(render_scalar(q), quad_domain(5)) == q


def _canonical(v):
    """Assert that an arithmetic result, built without checks, is exactly
    what the public constructor would build from its components."""
    if isinstance(v, Poly):
        rebuilt = Poly(v.coeffs, v.var)
        assert rebuilt == v
        assert rebuilt.coeffs == v.coeffs and rebuilt.var == v.var
        assert all(type(c) is Fraction for c in v.coeffs)
        assert not v.coeffs or v.coeffs[-1] != 0
    else:
        assert Quad(v.a, v.b, v.d) == v
        assert type(v.a) is Fraction and type(v.b) is Fraction
    return v


def _check_ring_laws(x, y, z):
    c = _canonical
    assert c(x + y) == c(y + x)
    assert c(x * y) == c(y * x)
    assert c(c(x + y) + z) == c(x + c(y + z))
    assert c(c(x * y) * z) == c(x * c(y * z))
    assert c(x * c(y + z)) == c(c(x * y) + c(x * z))
    assert c(x + c(-x)) == 0
    assert c(x - y) == c(-c(y - x))
    assert c(c(3 - x) + c(x * 2)) == c(x + 3)
    assert c(x * 0) == 0


class TestRingLaws:
    @settings(max_examples=200)
    @given(polys_st, polys_st, polys_st)
    def test_poly_ring(self, x, y, z):
        _check_ring_laws(x, y, z)

    @settings(max_examples=200)
    @given(quads_st, quads_st, quads_st)
    def test_quad_ring(self, x, y, z):
        _check_ring_laws(x, y, z)

    @settings(max_examples=200)
    @given(quads_st, quads_st)
    def test_quad_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * _canonical(x.conjugate()) == x.norm()

    @settings(max_examples=100)
    @given(quads_st)
    def test_quad_inverse(self, x):
        if x == 0:
            return
        assert x * _canonical(scalar_inv(x)) == 1

    @settings(max_examples=100)
    @given(polys_st, st.integers(min_value=0, max_value=6))
    def test_poly_pow_matches_repeated_product(self, p, n):
        expected = Poly((1,), "x")
        for _ in range(n):
            expected = expected * p
        assert _canonical(p**n) == expected

    @settings(max_examples=100)
    @given(quads_st, st.integers(min_value=0, max_value=12))
    def test_quad_pow_matches_repeated_product(self, q, n):
        expected = Quad(1, 0, 5)
        for _ in range(n):
            expected = expected * q
        assert _canonical(q**n) == expected

    @settings(max_examples=200)
    @given(quad_radicands_st, st.integers(min_value=0, max_value=24))
    @example(PHI, 0)
    @example(PHI, 1)
    @example(PHI, 2)
    @example(Quad(Fraction(-2, 3), Fraction(1, 6), 999983), 2)
    @example(Quad(0, 0, -3), 0)
    @example(Quad(0, 0, -3), 3)
    def test_quad_pow_matches_quad_products(self, q, n):
        got = q**n
        want = power_by_products(q, n)
        assert exactnum._numerators(got) == exactnum._numerators(want)
        assert got.d == want.d
        assert _canonical(got) == want

    @given(fractions_st)
    def test_fraction_canonical_form(self, q):
        import math

        assert q.denominator > 0
        assert math.gcd(q.numerator, q.denominator) == 1


KERNELS = (_table, _taylor_shift)


MIXED_ROWS = [
    Poly((1, Fraction(1, 2), 3), "x"),
    2,
    Fraction(-3, 4),
    Poly((), "x"),
    Poly((Fraction(5, 7),), "x"),
    Poly((0, Fraction(-1, 3)), "x"),
] * 3


def bound_case(n, width, bits, pattern, r):
    """N + 1 values whose lowered int entries are all +-(2^bits - 1): of
    one sign, alternating along k and j, or all 0.  ``width`` 2 with a
    rational ``r`` gives quad(5) values, any other width poly(x) values of
    that many coefficients; ``r`` is promoted into their domain."""
    top = 2**bits - 1

    def sign(k, j):
        return {"plus": 1, "minus": -1, "zero": 0}.get(pattern, (-1) ** (k + j))

    rows = [[sign(k, j) * top for j in range(width)] for k in range(n + 1)]
    if width == 2 and not isinstance(r, Poly):
        dom = quad_domain(5)
        values = [Quad(a, b, 5) for a, b in rows]
    else:
        dom = poly_domain("x")
        values = [Poly(row, "x") for row in rows]
    return values, promote(r, dom), dom


@st.composite
def bound_cases_st(draw):
    """A prefix at the slot bound (:func:`bound_case`) of width 1, 2 or 9,
    and a shift: p/q with p in +-1, +-2, +-3 or a large |p| and q in 1, 2,
    7, or a Poly of degree 1 to 3 with coefficients of either sign over
    denominators up to 6.  It has 1 to 4 terms, or at a rational shift
    also 11, 25 or 26, the lengths from which one packs 9 and 2 columns."""
    lengths = (0, 1, 2, 3)
    width = draw(st.sampled_from((1, 2, 9)))
    bits = draw(st.integers(1, 80))
    pattern = draw(st.sampled_from(("plus", "minus", "alternating", "zero")))
    if draw(st.booleans()):
        p = draw(st.sampled_from((1, -1, 2, -2, 3, -3, 3**41, -(3**41))))
        r = Fraction(p, draw(st.sampled_from((1, 2, 7))))
        lengths += (10, 24, 25)
    else:
        degree = draw(st.integers(1, 3))
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        head = draw(st.lists(coeffs, min_size=degree, max_size=degree))
        r = Poly(head + [draw(coeffs.filter(bool))], "x")
    n = draw(st.sampled_from(lengths))
    return bound_case(n, width, bits, pattern, r)


class TestPackedColumns:
    """``exactnum._on_ints`` packs the int columns of a quad or poly
    prefix into one column of w-bit slots and runs a kernel once, with p
    or with S(2^w) for a Poly shift S/e; each of the two kernels must
    give, scalar for scalar, what it gives on the scalars themselves.  The
    entries sit at the slot bound, where N = 0 and N = 1 make it tight.
    Shorter prefixes at a rational shift run one column at a time."""

    @settings(max_examples=120, deadline=None)
    @given(bound_cases_st())
    # N = 0 and N = 1, at the bound, on both unpacking routes
    @example(bound_case(0, 2, 7, "plus", 1))
    @example(bound_case(1, 2, 64, "minus", 1))
    @example(bound_case(1, 2, 5, "alternating", Fraction(-2, 7)))
    @example(bound_case(1, 9, 33, "plus", 3))
    @example(bound_case(0, 9, 1, "alternating", -1))
    # the shortest packed prefixes at a rational shift
    @example(bound_case(24, 2, 64, "plus", 1))
    @example(bound_case(24, 2, 9, "alternating", Fraction(-3, 7)))
    @example(bound_case(10, 9, 17, "minus", 2))
    # the symbolic route: rational coefficients, so entry k is scaled by e^k
    @example(bound_case(1, 1, 12, "plus", Poly((Fraction(-1, 2), Fraction(3, 2)), "x")))
    @example(bound_case(1, 9, 40, "alternating", Poly((1, Fraction(-2, 3), 0, 5), "x")))
    @example(bound_case(3, 2, 20, "zero", Poly((0, 1), "x")))
    # ||S||_1 = 8 where the leading coefficient alone would give 1
    @example(bound_case(1, 1, 10, "plus", Poly((7, 1), "x")))
    # ragged poly rows over different denominators among ints and
    # Fractions, which are lowered as they are; packed at N = 17
    @example((MIXED_ROWS, Poly((Fraction(-2, 3),), "x"), poly_domain("x")))
    def test_matches_scalar_route(self, case):
        values, r, dom = case
        for kernel in KERNELS:
            got = exactnum._on_ints(kernel, values, r, dom)
            assert_same_scalars(got, kernel([promote(v, dom) for v in values], r))


TARGETS = (
    RAT,
    poly_domain("x"),
    poly_domain("r"),
    quad_domain(5),
    quad_domain(-1),
    quad_domain(999983),
)
ratios_st = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


def in_domain(dom, a, b):
    """a + b*s in ``dom``, s the indeterminate or sqrt(d); a alone in rat."""
    if dom.kind == "rat":
        return a
    if dom.kind == "poly":
        return Poly((a, b), dom.var)
    return Quad(a, b, dom.d)


@st.composite
def unpromoted_case_st(draw):
    """A target from TARGETS; 1 to 30 int values or 1 to 30 Fractions; a
    shift of the target that is rational (a Fraction, a Quad with zero
    radical part or a constant Poly) or not (a non-constant Poly or an
    irrational Quad), zero included; and the coefficients of a
    characteristic polynomial of degree 1-4 over the target, rational
    or not."""
    dom = draw(st.sampled_from(TARGETS))
    size = draw(st.integers(1, 30))
    values = st.integers(-50, 50) if draw(st.booleans()) else ratios_st
    vals = draw(st.lists(values, min_size=size, max_size=size))
    radical = st.just(0) if draw(st.booleans()) else ratios_st.filter(bool)
    r = in_domain(dom, draw(ratios_st), draw(radical))
    radical = st.just(0) if draw(st.booleans()) else ratios_st
    pairs = st.tuples(ratios_st, radical)
    tail = draw(st.lists(pairs, min_size=1, max_size=4))
    return dom, vals, r, [in_domain(dom, a, b) for a, b in tail]


def unpromoted_case(dom, vals, r, tail=((Fraction(1, 2), 1),)):
    return dom, vals, r, [in_domain(dom, a, b) for a, b in tail]


class TestUnpromotedLowering:
    """The five callers of the int lowering hand int and rational inputs
    to ``exactnum._on_ints`` or ``_int_columns`` unpromoted; each must
    give, type for type, what promoting the inputs into the target first
    gives.  Only the scalar branch of an irrational Quad shift, or of an
    irrational operator coefficient, promotes."""

    @settings(max_examples=200, deadline=None)
    @given(unpromoted_case_st())
    # rational values at an irrational Quad shift: the scalar branch must
    # promote, since a Quad times a Fraction is not defined
    @example(unpromoted_case(quad_domain(5), [Fraction(1, 2), Fraction(-3, 4)], Quad(1, 1, 5)))
    @example(unpromoted_case(quad_domain(-1), [1, 2, 3], Quad(0, -1, -1)))
    # rational values in a quad target at a rational shift: one column,
    # since no value has a radical numerator
    @example(unpromoted_case(quad_domain(5), [Fraction(1, 3), 2], Quad(Fraction(1, 2), 0, 5)))
    @example(unpromoted_case(quad_domain(999983), list(range(30)), Quad(-2, 0, 999983)))
    # packed: a Poly shift of a rational prefix
    @example(unpromoted_case(poly_domain("r"), [Fraction(k, 7) for k in range(12)], Poly((0, 1), "r")))
    @example(unpromoted_case(RAT, [1, 2, 3], Fraction(0)))
    def test_matches_promoting_first(self, case):
        dom, vals, r, tail = case
        assert join_domains(domain_of(r), unify(vals)[0]) == dom
        a, a_target = SequencePrefix(vals), SequencePrefix(vals, dom)
        check_same_result(apply_transform(a, r), apply_transform(a_target, r))
        for kind, view in ((OGF, series_compose_geometric), (EGF, egf_transform)):
            f, f_target = TruncSeries(kind, vals), TruncSeries(kind, vals, dom)
            check_same_result(view(f, r), view(f_target, r))
        p, p_target = CharPoly([1, *vals[:5]]), CharPoly([1, *vals[:5]], dom)
        check_same_result(shift_characteristic(p, r), shift_characteristic(p_target, r))
        op = CharPoly([one(dom), *tail], dom)
        if len(a) > op.degree:
            check_same_result(apply_char_operator(op, a), apply_char_operator(op, a_target))
        terms = SequencePrefix([promote(v, dom) + r for v in vals])
        if len(terms) > p.degree:
            check_same_result(apply_char_operator(p, terms), apply_char_operator(p_target, terms))


def check_same_result(got, want):
    """Equal domains, and type for type the same scalars."""
    assert got.domain == want.domain
    if isinstance(got, SequencePrefix):
        assert_same_scalars(got.values, want.values)
    else:
        assert_same_scalars(got.coeffs, want.coeffs)


class TestIntColumns:
    """``exactnum._int_columns`` reads ints, Fractions, Quads and Polys by
    their stored numerators: a quad prefix has a radical column only when
    some value has a radical part, and ``_from_int_columns`` builds the
    values back from either layout."""

    @pytest.mark.parametrize(
        "values, dom, columns, den",
        [
            ([1, Fraction(1, 2), Quad(3, 0, 5)], quad_domain(5), [[2, 1, 6]], 2),
            ([Quad(0, 0, 5), 0], quad_domain(5), [[0, 0]], 1),
            ([1, Quad(Fraction(1, 3), 2, 5)], quad_domain(5), [[3, 1], [0, 6]], 3),
            (
                [Fraction(-1, 2), Poly((0, 0, 1), "x")],
                poly_domain("x"),
                [[-1, 0], [0, 0], [0, 2]],
                2,
            ),
        ],
        ids=["rational-quad", "zero-quad", "quad", "poly"],
    )
    def test_layout_and_round_trip(self, values, dom, columns, den):
        assert exactnum._int_columns(values, dom) == (columns, den)
        back = exactnum._from_int_columns(columns, den, 1, dom)
        assert_same_scalars(back, [promote(v, dom) for v in values])


class TestNumerators:
    """``exactnum._numerators`` reads the ascending int numerators, with no
    trailing zeros, and the positive denominator of every kind of scalar;
    ``_rational_parts`` reads p/q through it."""

    @pytest.mark.parametrize(
        "x, nums, den",
        [
            (0, (), 1),
            (-7, (-7,), 1),
            (Fraction(0), (), 1),
            (Fraction(-3, 4), (-3,), 4),
            (Quad(Fraction(2, 3), 0, 5), (2,), 3),
            (Quad(Fraction(1, 2), Fraction(-1, 3), 5), (3, -2), 6),
            (Poly((), "x"), (), 1),
            (Poly((0, Fraction(1, 2), 1), "x"), (0, 1, 2), 2),
        ],
        ids=["zero", "int", "zero-fraction", "fraction", "rational-quad", "quad",
             "zero-poly", "poly"],
    )
    def test_every_scalar(self, x, nums, den):
        assert exactnum._numerators(x) == (nums, den)
        ratio = exactnum._rational_parts(x)
        if len(nums) > 1:
            assert ratio is None
        else:
            assert Fraction(*ratio) == x and ratio[1] == den
