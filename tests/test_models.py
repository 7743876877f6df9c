"""Closed forms, matrix models, and the combinatorial count."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift.errors import (
    DomainMismatch,
    EnumerationTooLarge,
    NegativeInput,
    NonMonic,
    PrefixTooShort,
)
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
    unify,
    zero,
)
from binshift.models import (
    ENUMERATION_LIMIT,
    BinetForm,
    MatrixModel,
    binet_eval,
    binet_shift,
    colored_count_bruteforce,
    companion_matrix,
    matrix_transform_eval,
    model_from_recurrence,
)
from binshift.recurrence import CharPoly, Recurrence, unroll
from binshift.transform import SequencePrefix, apply_transform

from exact_strategies import assert_same_scalars, prefixes_st, shifts_st

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
PSI = PHI.conjugate()
FIB_FORM = BinetForm([(Quad(0, Fraction(1, 5), 5), PHI), (Quad(0, Fraction(-1, 5), 5), PSI)])
MERSENNE_FORM = BinetForm([(1, 2), (-1, 1)])


class TestBinetForm:
    def test_fibonacci_values(self):
        got = [binet_eval(FIB_FORM, n) for n in range(11)]
        assert got == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_matches_unroll(self):
        rec = Recurrence(CharPoly((1, -1, -1)), (0, 1))
        rolled = unroll(rec, 15)
        for n, want in enumerate(rolled.values):
            assert binet_eval(FIB_FORM, n) == want

    def test_mersenne_values(self):
        assert [binet_eval(MERSENNE_FORM, n) for n in range(6)] == [0, 1, 3, 7, 15, 31]

    def test_integer_data_promotes_to_rationals(self):
        form = BinetForm([(2, 3)])
        assert form.domain.kind == "rat"
        assert binet_eval(form, 4) == 162

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError):
            BinetForm([(1, 2), (3, 2)])

    def test_polynomial_roots_rejected(self):
        with pytest.raises(DomainMismatch):
            BinetForm([(1, Poly.indeterminate("x"))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BinetForm([])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            binet_eval(FIB_FORM, -1)


class TestBinetShift:
    def test_fibonacci_shift1(self):
        shifted = binet_shift(FIB_FORM, 1)
        assert [binet_eval(shifted, n) for n in range(5)] == [0, 1, 3, 8, 21]

    def test_roots_move_weights_stay(self):
        shifted = binet_shift(MERSENNE_FORM, 1)
        assert shifted == BinetForm([(1, 3), (-1, 2)])
        assert binet_eval(shifted, 4) == 3**4 - 2**4 == 65

    def test_rational_shift(self):
        shifted = binet_shift(MERSENNE_FORM, Fraction(1, 2))
        assert binet_eval(shifted, 2) == Fraction(5, 2) ** 2 - Fraction(3, 2) ** 2

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=12),
    )
    def test_agrees_with_prefix_transform(self, r, n):
        base = [binet_eval(MERSENNE_FORM, k) for k in range(n + 1)]
        transformed = apply_transform(base, r)
        assert binet_eval(binet_shift(MERSENNE_FORM, r), n) == transformed.values[n]


class TestCompanionMatrix:
    def test_fibonacci(self):
        assert companion_matrix(CharPoly((1, -1, -1))) == ((0, 1), (1, 1))

    def test_mersenne(self):
        assert companion_matrix(CharPoly((1, -3, 2))) == ((0, 1), (-2, 3))

    def test_degree_three(self):
        m = companion_matrix(CharPoly((1, -4, 5, -6)))
        assert m == ((0, 1, 0), (0, 0, 1), (6, -5, 4))

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonic):
            companion_matrix(CharPoly((2, 1)))


class TestMatrixModel:
    def test_from_recurrence_reproduces_sequence(self):
        rec = Recurrence(CharPoly((1, -1, -1)), (0, 1))
        model = model_from_recurrence(rec)
        assert model.u == (1, 0)
        assert model.v == (0, 1)
        got = [matrix_transform_eval(model, 0, n) for n in range(10)]
        assert got == list(unroll(rec, 9).values)

    def test_shift_one_gives_bisection(self):
        rec = Recurrence(CharPoly((1, -1, -1)), (0, 1))
        model = model_from_recurrence(rec)
        got = [matrix_transform_eval(model, 1, n) for n in range(5)]
        assert got == [0, 1, 3, 8, 21]

    def test_one_by_one(self):
        model = MatrixModel([[2]], [1], [1])
        assert [matrix_transform_eval(model, 1, n) for n in range(5)] == [
            3**n for n in range(5)
        ]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MatrixModel([[1, 2]], [1], [1])
        with pytest.raises(ValueError):
            MatrixModel([[1, 0], [0, 1]], [1], [1, 0])
        with pytest.raises(ValueError):
            MatrixModel([], [], [])

    def test_negative_index_rejected(self):
        model = MatrixModel([[2]], [1], [1])
        with pytest.raises(ValueError):
            matrix_transform_eval(model, 0, -1)

    def test_mixed_domains_join(self):
        model = MatrixModel([[Fraction(1, 2)]], [1], [2])
        assert matrix_transform_eval(model, Fraction(1, 2), 2) == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2),
        st.integers(min_value=-2, max_value=2),
    )
    def test_agrees_with_prefix_transform(self, char_tail, init, r):
        rec = Recurrence(CharPoly((1, *char_tail)), init)
        model = model_from_recurrence(rec)
        direct = apply_transform(unroll(rec, 10), r)
        for n in range(11):
            assert matrix_transform_eval(model, r, n) == direct.values[n]

    def test_shift_additivity(self):
        model = model_from_recurrence(Recurrence(CharPoly((1, -2, -1)), (0, 1)))
        for n in range(8):
            once_each = matrix_transform_eval(model, 3, n)
            assert once_each == matrix_transform_eval(model, 1 + 2, n)


class TestValueSemantics:
    """Both models keep their values flat in the one-domain core: they
    compare and hash by value, never equal another class holding the same
    values, and stay valid when promoted into a wider domain."""

    def test_binet_layout(self):
        assert MERSENNE_FORM.terms == ((1, 2), (-1, 1))
        assert FIB_FORM.terms == (
            (Quad(0, Fraction(1, 5), 5), PHI),
            (Quad(0, Fraction(-1, 5), 5), PSI),
        )

    def test_binet_equal_values(self):
        same = BinetForm([(Fraction(1), 2), (-1, Fraction(1))])
        assert same == MERSENNE_FORM
        assert hash(same) == hash(MERSENNE_FORM)
        assert MERSENNE_FORM != BinetForm([(1, 2), (-1, 3)])
        assert MERSENNE_FORM != BinetForm([(2, 1), (1, -1)])

    def test_binet_never_equals_another_class(self):
        form = BinetForm([(1, 2)])
        for other in (SequencePrefix((1, 2), RAT), CharPoly((1, 2), RAT)):
            assert form.domain == other.domain
            assert form != other and other != form

    def test_binet_promoted(self):
        assert MERSENNE_FORM.promoted(INT) is MERSENNE_FORM
        wide = MERSENNE_FORM.promoted(quad_domain(5))
        assert wide.domain == quad_domain(5)
        assert wide == MERSENNE_FORM
        assert all(isinstance(x, Quad) for pair in wide.terms for x in pair)
        assert [binet_eval(wide, n) for n in range(6)] == [0, 1, 3, 7, 15, 31]
        assert binet_shift(wide, PHI) == binet_shift(MERSENNE_FORM, PHI)

    def test_binet_promoted_into_a_poly_domain(self):
        with pytest.raises(DomainMismatch) as raised:
            MERSENNE_FORM.promoted(poly_domain("x"))
        assert str(raised.value) == "closed forms need a field domain, got poly(x)"
        with pytest.raises(DomainMismatch):
            FIB_FORM.promoted(poly_domain("x"))

    def test_matrix_layout(self):
        model = MatrixModel([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [10, 11, 12], [13, 14, 15])
        assert model.dim == 3
        assert model.matrix == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert model.u == (10, 11, 12)
        assert model.v == (13, 14, 15)
        assert MatrixModel([[2]], [3], [4]).dim == 1

    def test_matrix_equal_values(self):
        fib = MatrixModel([[0, 1], [1, 1]], [1, 0], [0, 1])
        same = MatrixModel(((Fraction(0), 1), (1, 1)), (1, 0), [0, Fraction(1)])
        assert same is not fib
        assert same == fib
        assert hash(same) == hash(fib)
        assert len({fib, same}) == 1
        assert fib != MatrixModel([[0, 1], [1, 1]], [0, 1], [1, 0])
        assert fib != MatrixModel([[1, 1], [1, 0]], [1, 0], [0, 1])

    def test_matrix_never_equals_another_class(self):
        model = MatrixModel([[2]], [1], [1])
        for other in (
            SequencePrefix((2, 1, 1)),
            CharPoly((2, 1, 1)),
            Recurrence(CharPoly((1, 1)), (1,)),
        ):
            assert model != other and other != model

    def test_matrix_promoted(self):
        fib = MatrixModel([[0, 1], [1, 1]], [1, 0], [0, 1])
        assert fib.promoted(INT) is fib
        for dom in (RAT, quad_domain(5), poly_domain("x")):
            wide = fib.promoted(dom)
            assert wide.domain == dom
            assert wide == fib
            assert (wide.matrix, wide.u, wide.v) == (fib.matrix, fib.u, fib.v)
            assert {domain_of(x) for x in wide.u} == {dom}
            got = [matrix_transform_eval(wide, 1, n) for n in range(5)]
            assert got == [0, 1, 3, 8, 21]
            assert {domain_of(x) for x in got} == {dom}


def count_by_materializing(values, r, n):
    """Enumerate (subset, structure id, coloring) triples one by one."""
    total = 0
    elements = range(n)
    for size in range(n + 1):
        for subset in (
            c for c in product([False, True], repeat=n) if sum(c) == size
        ):
            rest = [e for e in elements if not subset[e]]
            for _structure in range(values[size]):
                for _coloring in product(range(r), repeat=len(rest)):
                    total += 1
    return total


class TestColoredCount:
    def test_two_colors_small(self):
        assert colored_count_bruteforce((1, 1, 1), 2, 2) == 9

    def test_matches_materialized_enumeration(self):
        values = (1, 1, 2, 6)
        assert colored_count_bruteforce(values, 1, 3) == 16
        assert colored_count_bruteforce(values, 1, 3) == count_by_materializing(
            values, 1, 3
        )
        assert colored_count_bruteforce(values, 2, 3) == count_by_materializing(
            values, 2, 3
        )

    def test_zero_colors_keeps_full_subsets_only(self):
        # r=0: only the full subset contributes (0^0 = 1 empty coloring).
        assert colored_count_bruteforce((5, 7, 11), 0, 2) == 11

    def test_matches_transform(self):
        values = tuple(math.factorial(k) for k in range(7))
        transformed = apply_transform(values, 3)
        for n in range(7):
            assert colored_count_bruteforce(values, 3, n) == transformed.values[n]

    def test_enumeration_cap(self):
        values = tuple(1 for _ in range(14))
        assert colored_count_bruteforce(values, 1, ENUMERATION_LIMIT) == 2**12
        with pytest.raises(EnumerationTooLarge):
            colored_count_bruteforce(values, 1, 13)

    def test_input_validation(self):
        with pytest.raises(NegativeInput):
            colored_count_bruteforce((1, 1), -1, 1)
        with pytest.raises(NegativeInput):
            colored_count_bruteforce((1, 1), 2, -1)
        with pytest.raises(NegativeInput):
            colored_count_bruteforce((1, -1), 2, 1)
        with pytest.raises(TypeError):
            colored_count_bruteforce((1, 1), Fraction(1, 2), 1)
        with pytest.raises(DomainMismatch):
            colored_count_bruteforce((Fraction(1, 2), 1), 2, 1)
        with pytest.raises(PrefixTooShort):
            colored_count_bruteforce((1, 1), 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=7),
        st.integers(min_value=0, max_value=3),
    )
    def test_always_the_transform(self, values, r):
        n = len(values) - 1
        transformed = apply_transform(values, r)
        assert colored_count_bruteforce(values, r, n) == transformed.values[n]


# Scalar routes of binet_eval and matrix_transform_eval, as they ran for
# every model and shift before the int path (test oracles).


def binet_eval_from_zero(form, n):
    acc = zero(form.domain)
    for c, rho in form.terms:
        acc = acc + c * rho**n
    return acc


def matrix_eval_on_scalars(model, r, n):
    target = join_domains(model.domain, domain_of(r))
    if target != model.domain:
        model = MatrixModel(model.matrix, model.u, unify(model.v, target)[1])
    rp = promote(r, target)
    zero_s = zero(target)
    shifted = [
        [x + rp if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(model.matrix)
    ]
    w = model.v
    for _ in range(n):
        out = []
        for row in shifted:
            acc = zero_s
            for x, y in zip(row, w):
                acc = acc + x * y
            out.append(acc)
        w = out
    acc = zero_s
    for x, y in zip(model.u, w):
        acc = acc + x * y
    return acc


@st.composite
def model_case_st(draw):
    """A matrix model over int, rat, quad(5), quad(-3), quad(999983) or
    poly(x), a shift of any kind that joins with it, and an index n.

    The model is the companion matrix of X^d + a_0 X^(d-1) + ... + a_(d-1)
    with v = a, and u is e_1 or a reversed."""
    a = draw(prefixes_st())
    dom = a.domain
    poly = CharPoly([one(dom), *a.values], dom)
    u = [one(dom) if j == 0 else zero(dom) for j in range(len(a))]
    if draw(st.booleans()):
        u = list(reversed(a.values))
    model = MatrixModel(companion_matrix(poly), u, a.values)
    return model, draw(shifts_st(dom)), draw(st.integers(0, 8))


RAT_MODEL = MatrixModel(
    [[Fraction(1, 2), Fraction(-2, 3)], [1, Fraction(3, 4)]],
    [Fraction(1, 3), 2],
    [Fraction(5, 7), -1],
)


FIB_MODEL = MatrixModel([[0, 1], [1, 1]], [1, 0], [0, 1])


class TestMatrixIntPathDifferential:
    """The matrix view's one loop, u'^T (q M' + s E I)^n v' over
    D_u D_v (q E)^n with r = s/q, gives scalar for scalar what the scalar
    route on the widened model gives, for every model and shift kind: on
    ints for an int or rat model at a rational shift, and with the ints
    times the Quads or Polys of the model or of s otherwise."""

    @settings(max_examples=250, deadline=None)
    @given(model_case_st())
    # r = 0 and n = 0
    @example((RAT_MODEL, 0, 5))
    @example((RAT_MODEL, Fraction(-3, 5), 0))
    @example((MatrixModel([[2]], [1], [1]), Fraction(0), 3))
    # a rat model, an integral Fraction on an int model, a rational Quad
    @example((RAT_MODEL, Fraction(-3, 5), 6))
    @example((RAT_MODEL, 2, 4))
    @example((MatrixModel([[1, 1], [1, 0]], [1, 0], [0, 1]), Fraction(2), 5))
    @example((RAT_MODEL, Quad(Fraction(1, 2), 0, 5), 3))
    # an int model at an irrational Quad and a non-constant Poly shift
    @example((FIB_MODEL, Quad(1, 1, 5), 40))
    @example((FIB_MODEL, Poly((0, 1), "r"), 40))
    def test_matches_scalar_route(self, case):
        model, r, n = case
        got = matrix_transform_eval(model, r, n)
        want = matrix_eval_on_scalars(model, r, n)
        assert_same_scalars([got], [want])
        assert domain_of(got) == join_domains(model.domain, domain_of(r))

    @pytest.mark.parametrize(
        "form", [FIB_FORM, MERSENNE_FORM, BinetForm([(Fraction(2, 3), Fraction(-1, 2))])]
    )
    def test_binet_eval_from_first_term(self, form):
        for n in range(6):
            assert_same_scalars([binet_eval(form, n)], [binet_eval_from_zero(form, n)])
