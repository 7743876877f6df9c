"""The shift-parameterized binomial transform on sequence prefixes."""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binshift import _kernels, exactnum, series, transform
from binshift._kernels import _difference_table
from binshift.errors import DomainMismatch, PrefixTooShort
from binshift.exactnum import (
    INT,
    RAT,
    Poly,
    Quad,
    domain_of,
    join_domains,
    promote,
    render_scalar,
)
from binshift.families import family_names, family_prefix
from binshift.recurrence import CharPoly
from binshift.series import (
    EGF,
    OGF,
    TruncSeries,
    egf_transform,
    series_compose_geometric,
    series_from_prefix,
)
from binshift.transform import (
    SequencePrefix,
    apply_transform,
    as_prefix,
    compose_transforms,
    inverse_transform,
    iterated_binomial,
)

from exact_strategies import (
    assert_same_scalars,
    double_sum,
    fractions_st,
    prefixes_st,
    shifts_st,
)

FIB = (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)
LUCAS = (2, 1, 3, 4, 7, 11, 18, 29, 47, 76)


prefix_values_st = st.lists(fractions_st, min_size=1, max_size=9)


class TestSequencePrefix:
    def test_domain_join_and_promotion(self):
        p = SequencePrefix([1, Fraction(1, 2), 3])
        assert p.domain == RAT
        assert p.values == (Fraction(1), Fraction(1, 2), Fraction(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SequencePrefix([])

    def test_value_equality_across_domains(self):
        assert SequencePrefix([0, 1, 2]) == SequencePrefix(
            [Fraction(0), Fraction(1), Fraction(2)]
        )
        assert SequencePrefix([1]) != SequencePrefix([1, 1])
        p = SequencePrefix([1, -3, 1])
        for other in (CharPoly([1, -3, 1]), TruncSeries(OGF, [1, -3, 1])):
            assert p != other and other != p

    def test_truncated(self):
        p = SequencePrefix(FIB)
        assert p.truncated(3).values == (0, 1, 1, 2)
        with pytest.raises(PrefixTooShort):
            p.truncated(10)

    def test_mixed_incompatible_domains_rejected(self):
        with pytest.raises(DomainMismatch):
            SequencePrefix([Quad(1, 1, 5), Poly((0, 1), "x")])

    def test_as_prefix_passthrough(self):
        p = SequencePrefix([1, 2])
        assert as_prefix(p) is p
        assert as_prefix([1, 2]) == p


class TestApplyTransform:
    def test_fibonacci_shift1(self):
        assert apply_transform(FIB, 1).values == (0, 1, 3, 8, 21, 55, 144, 377, 987, 2584)

    def test_fibonacci_shift2(self):
        assert apply_transform(FIB, 2).values == (
            0, 1, 5, 20, 75, 275, 1000, 3625, 13125, 47500,
        )

    def test_mersenne_shift2(self):
        mersenne = tuple(2**n - 1 for n in range(10))
        assert apply_transform(mersenne, 2).values == (
            0, 1, 7, 37, 175, 781, 3367, 14197, 58975, 242461,
        )

    def test_shift_zero_is_identity(self):
        assert apply_transform(LUCAS, 0).values == LUCAS

    def test_index_zero_is_input(self):
        assert apply_transform([7, 1, 1], 5)[0] == 7

    def test_n_max_shortens_output(self):
        assert apply_transform(FIB, 1, 4).values == (0, 1, 3, 8, 21)

    def test_n_max_beyond_prefix_rejected(self):
        with pytest.raises(PrefixTooShort):
            apply_transform([0, 1, 1], 1, 5)
        with pytest.raises(ValueError):
            apply_transform([0, 1, 1], 1, -1)

    def test_rational_shift_widens_domain(self):
        out = apply_transform([1, 0, 0], Fraction(1, 2))
        assert out.domain == RAT
        assert out.values == (1, Fraction(1, 2), Fraction(1, 4))

    def test_polynomial_shift(self):
        r = Poly.indeterminate("r")
        out = apply_transform([0, 1], r)
        assert out.values == (Poly((), "r"), Poly((1,), "r"))
        out2 = apply_transform([1, 0, 0], r)
        assert out2[2] == Poly((0, 0, 1), "r")

    def test_quad_shift_against_oracle(self):
        phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
        vals = (1, 2, 3, 4)
        assert apply_transform(vals, phi).values == double_sum(vals, phi)

    def test_incompatible_shift_rejected(self):
        w = [Poly((0, 1), "x"), Poly((1,), "x")]
        with pytest.raises(DomainMismatch):
            apply_transform(w, Quad(1, 0, 5))

    @settings(max_examples=150)
    @given(prefix_values_st, fractions_st)
    def test_matches_double_sum_oracle(self, values, r):
        assert apply_transform(values, r).values == double_sum(values, r)

    @settings(max_examples=100)
    @given(prefix_values_st, fractions_st, st.data())
    def test_triangularity(self, values, r, data):
        before = apply_transform(values, r)
        cut = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        mutated = list(values)
        for k in range(cut + 1, len(values)):
            mutated[k] += 1
        after = apply_transform(mutated, r)
        assert before.values[: cut + 1] == after.values[: cut + 1]

    @settings(max_examples=100)
    @given(prefix_values_st, prefix_values_st, fractions_st, fractions_st, fractions_st)
    def test_linearity(self, xs, ys, alpha, beta, r):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        mixed = [alpha * x + beta * y for x, y in zip(xs, ys)]
        lhs = apply_transform(mixed, r).values
        tx = apply_transform(xs, r).values
        ty = apply_transform(ys, r).values
        assert lhs == tuple(alpha * x + beta * y for x, y in zip(tx, ty))


X = Poly.indeterminate("x")


@st.composite
def transform_cases_st(draw):
    prefix = draw(prefixes_st())
    r = draw(shifts_st(prefix.domain))
    n_max = draw(st.integers(min_value=0, max_value=len(prefix) - 1))
    return prefix, r, n_max


class TestDifferentialKernel:
    """Rational shifts lower the prefix to integer columns; every result
    must equal the double sum and, value for value, what the table gives
    on the scalars themselves (the path irrational shifts take)."""

    @settings(max_examples=200, deadline=None)
    @given(transform_cases_st())
    # r = 0 and n_max = 0
    @example((SequencePrefix([Quad(1, 2, 5), Quad(3, -1, 5)]), 0, 1))
    @example((SequencePrefix([Fraction(1, 3), 2]), Fraction(1, 2), 0))
    # the b part cancels to 0
    @example((SequencePrefix([Quad(1, 1, 5), Quad(2, -1, 5)]), 1, 1))
    @example(
        (
            SequencePrefix([Quad(0, 1, 999983), Quad(1, Fraction(-1, 2), 999983)]),
            Fraction(1, 2),
            1,
        )
    )
    # poly columns cancel into trailing zeros and into the zero polynomial
    @example((SequencePrefix([X, 1 - X]), 1, 1))
    @example((SequencePrefix([2 * X, -X, Poly((0, 0, 3), "x")]), Fraction(1, 2), 1))
    @example((SequencePrefix([X, -X]), Poly((1,), "x"), 1))
    def test_matches_generic_path(self, case):
        prefix, r, n_max = case
        out = apply_transform(prefix, r, n_max)
        target = join_domains(prefix.domain, domain_of(r))
        rp = promote(r, target)
        vals = prefix.promoted(target).values[: n_max + 1]
        assert out.domain == target
        assert out.values == double_sum(vals, rp)
        generic = _difference_table(vals, rp)
        assert len(out) == n_max + 1
        assert_same_scalars(out.values, generic)


UNIT_TERMS = _kernels._UNIT_MIN_TERMS
CHUNK = _kernels._UNIT_CHUNK


def unit_bits_limit(n_last):
    """The largest bit length of an int shift for which the unit table
    runs on a column whose last index is ``n_last``."""
    return math.isqrt(_kernels._UNIT_MAX_N_BITS2 // max(n_last, 1))


@st.composite
def unit_table_cases_st(draw):
    """A prefix over any domain whose length is on either side of the unit
    table's minimum or next to a boundary of its chunks of passes (one
    short of, on or one past ``CHUNK * m``, m = 4..6), and a shift: +-1,
    +-2, +-3, a Fraction, or an int (or that int over 3) whose bit length
    is at the size limit for this length or one past it.  A long prefix
    repeats a drawn one, plus the index (drawing every term costs
    hypothesis seconds)."""
    prefix = draw(prefixes_st())
    if draw(st.booleans()):
        size = draw(
            st.integers(UNIT_TERMS - 2, UNIT_TERMS + 3)
            | st.builds(lambda m, e: CHUNK * m + e, st.integers(4, 6), st.integers(-1, 1))
        )
        base = prefix.values
        prefix = SequencePrefix(
            [base[k % len(base)] + k for k in range(size)], prefix.domain
        )
    size = len(prefix)
    kind = draw(st.sampled_from(("small", "rat", "edge")))
    if kind == "small":
        return prefix, draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
    if kind == "rat":
        return prefix, draw(fractions_st)
    bits = unit_bits_limit(size - 1) + draw(st.integers(0, 1))
    p = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) * draw(st.sampled_from((1, -1)))
    return prefix, (p if draw(st.booleans()) else Fraction(p, 3))


class TestUnitTable:
    """An int shift p of a long enough column runs the additions-only table
    of shift 1 between the scalings by p^(N-k) and p^-(N-n); every result
    must equal the double sum and, value for value, what the multiply-add
    table gives on the scalars themselves."""

    @settings(max_examples=100, deadline=None)
    @given(unit_table_cases_st())
    # N = 0
    @example((SequencePrefix([Quad(2, -1, 5)]), 7))
    # p = 1 and p = -1
    @example((SequencePrefix(list(range(-13, UNIT_TERMS))), 1))
    @example((SequencePrefix([Fraction(k, 3) for k in range(UNIT_TERMS + 1)]), -1))
    # p < 0 at odd N
    @example((SequencePrefix([k * k - 7 for k in range(UNIT_TERMS + 2)]), -3))
    # an all-zero column
    @example((SequencePrefix([0] * (UNIT_TERMS + 3)), 2))
    # the b column cancels: sum_k C(n, k) (-1)^k = 0 for n >= 1
    @example((SequencePrefix([Quad(k, (-1) ** k, 5) for k in range(UNIT_TERMS)]), 1))
    # chunk boundaries: one input short of four chunks at p = 1, one past
    # five at p = -3, and four whole chunks at the N * bit_length(p)^2 edge
    @example((SequencePrefix([k**3 % 97 - 40 for k in range(4 * CHUNK - 1)]), 1))
    @example((SequencePrefix([k * k - 7 for k in range(5 * CHUNK + 1)]), -3))
    @example(
        (
            SequencePrefix([k**3 % 97 - 40 for k in range(4 * CHUNK)]),
            1 - 2 ** unit_bits_limit(4 * CHUNK - 1),
        )
    )
    def test_matches_oracle_and_multiply_add_table(self, case):
        prefix, r = case
        out = apply_transform(prefix, r)
        target = join_domains(prefix.domain, domain_of(r))
        rp = promote(r, target)
        vals = prefix.promoted(target).values
        assert out.domain == target
        assert out.values == double_sum(vals, rp)
        assert_same_scalars(out.values, _difference_table(vals, rp))


# The transform and its OGF and EGF views, which run the same table:
# each gives the outputs of ``values`` at shift r as a tuple.
VIEWS = (
    lambda values, r: apply_transform(values, r).values,
    lambda values, r: series_compose_geometric(series_from_prefix(values), r).coeffs,
    lambda values, r: egf_transform(series_from_prefix(values, EGF), r).coeffs,
)

SHIFT_ZERO_VALUES = pytest.mark.parametrize(
    "values",
    [
        (3, -1, 0, 7),
        (Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 4)),
        (Quad(1, 2, 5), Quad(0, Fraction(-1, 2), 5), Quad(0, 0, 5), Quad(4, 0, 5)),
        (X, 1 - X, Poly((), "x"), Poly((0, 0, Fraction(3, 2)), "x")),
    ],
    ids=["int", "rat", "quad5", "polyx"],
)


class TestKernelSelection:
    """Which table runs, seen through a counting wrapper on
    ``_difference_table``: the unit table takes int shifts of long
    columns, the multiply-add table short columns, large |p| and
    irrational shifts.  The transform and both views take the same
    route, and shift 0 takes none."""

    @pytest.fixture
    def multiply_add_calls(self, monkeypatch):
        calls = [0]
        original = _kernels._difference_table

        def counted(column, p):
            calls[0] += 1
            return original(column, p)

        monkeypatch.setattr(_kernels, "_difference_table", counted)
        return calls

    @staticmethod
    def runs_per_view(calls, values, r):
        """The counter's increase in each of the ``VIEWS``, whose outputs
        are checked against ``double_sum``."""
        runs = []
        for view in VIEWS:
            before = calls[0]
            assert view(values, r) == double_sum(values, r)
            runs.append(calls[0] - before)
        return runs

    @pytest.mark.parametrize(
        "values, r",
        [
            ([k * k - 50 * k for k in range(101)], 3),
            ([Fraction(k * k - 7, 7) for k in range(101)], Fraction(1, 3)),
        ],
        ids=["int-N100-r3", "rat-N100-r1/3"],
    )
    def test_unit_table_runs(self, multiply_add_calls, values, r):
        assert self.runs_per_view(multiply_add_calls, values, r) == [0, 0, 0]

    @pytest.mark.parametrize("terms", [4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1])
    def test_unit_table_lists_once_per_chunk(self, monkeypatch, terms):
        """At p = 1 the unit table builds one list per ``CHUNK`` passes,
        the first chunk taken from the back of the column; the passes
        between stay lazy."""
        sizes = []

        def counted(items):
            out = list(items)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(_kernels, "list", counted, raising=False)
        column = [k**3 % 97 - 40 for k in range(terms)]
        assert _kernels._table(column, 1) == list(double_sum(column, 1))
        assert sizes == [*range(CHUNK, terms, CHUNK), terms]

    @pytest.mark.parametrize(
        "values, r",
        [
            (list(range(UNIT_TERMS - 1)), 3),
            ([k * k - 50 * k for k in range(101)], 10**30),
            ([Quad(k, 1, 5) for k in range(101)], Quad(1, 1, 5)),
            ([k * k - 50 * k for k in range(101)], 2**20 + 1),
        ],
        ids=["short-column", "large-p", "irrational-quad", "p-2^20+1"],
    )
    def test_multiply_add_table_runs(self, multiply_add_calls, values, r):
        runs = self.runs_per_view(multiply_add_calls, values, r)
        assert runs[0] >= 1
        assert runs == runs[:1] * 3

    @SHIFT_ZERO_VALUES
    def test_shift_zero_runs_no_table(self, monkeypatch, values):
        """Shift 0 returns the input before any table: ``_table`` needs
        p != 0."""

        def raiser(column, p):
            raise AssertionError("a table ran at shift 0")

        monkeypatch.setattr(transform, "_table", raiser)
        monkeypatch.setattr(series, "_table", raiser)
        for view in VIEWS:
            out = view(values, 0)
            assert out == double_sum(values, 0)
            assert_same_scalars(out, values)


RECURRENCE_COEFFS = (0, 1, -1, 2, -2, 2**40 + 1, -(3**25))


@st.composite
def recurrent_columns_st(draw):
    """An int column of t_k = c1 t_(k-1) + c2 t_(k-2) (c2 = 0 for order
    1, starts from -9..9, zeros included) or an all-zero column, with
    ``UNIT_TERMS - 2`` to 200 entries; and the index of one entry to
    break, or None."""
    size = draw(st.integers(UNIT_TERMS - 2, 200))
    kind = draw(st.sampled_from(("order1", "order2", "zeros")))
    if kind == "zeros":
        column = [0] * size
    else:
        c1 = draw(st.sampled_from(RECURRENCE_COEFFS))
        c2 = 0 if kind == "order1" else draw(st.sampled_from(RECURRENCE_COEFFS))
        column = [draw(st.integers(-9, 9))]
        column.append(c1 * column[0] if kind == "order1" else draw(st.integers(-9, 9)))
        for k in range(2, size):
            column.append(c1 * column[k - 1] + c2 * column[k - 2])
    broken = draw(st.one_of(st.none(), st.integers(2, size - 1)))
    return column, broken


class TestRecurrenceRoute:
    """An int column with an order-1 or order-2 int recurrence is
    transformed through the recurrence of P(X - p)
    (``_shifted_recurrence``); any other column falls back to a table.
    Both must equal the multiply-add table and the double sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        recurrent_columns_st(),
        st.sampled_from((1, -1, 2, -2, 3, -3, 7, 2**20, 10**30)),
    )
    # the break falls on the last entry
    @example((list(family_prefix("fibonacci", UNIT_TERMS - 1)), UNIT_TERMS - 1), 3)
    def test_matches_tables_and_oracle(self, case, p):
        column, broken = case
        if broken is not None:
            column = column[:]
            column[broken] += 1
        route = _kernels._shifted_recurrence(column, p)
        if broken is not None or not any(column[:2]):
            assert route is None
        else:
            assert tuple(route) == double_sum(column, p)
        out = transform._table(column, p)
        assert out == _difference_table(column, p)
        assert tuple(out) == double_sum(column, p)

    @pytest.fixture
    def route_calls(self, monkeypatch):
        """Per ``_shifted_recurrence`` call, whether it took the route."""
        calls = []
        original = _kernels._shifted_recurrence

        def counted(column, p):
            out = original(column, p)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(_kernels, "_shifted_recurrence", counted)
        return calls

    @pytest.mark.parametrize("name", family_names())
    def test_every_family_takes_it(self, route_calls, name):
        values = family_prefix(name, UNIT_TERMS + 14)
        for view in VIEWS:
            assert view(values, 2) == double_sum(values.values, 2)
        assert route_calls == [True] * len(VIEWS)

    @pytest.mark.parametrize(
        "values, r",
        [
            ([Fraction(f, 7) for f in family_prefix("fibonacci", 60)], Fraction(1, 3)),
            ([Quad(f, 0, 5) for f in family_prefix("fibonacci", 60)], 1),
            (family_prefix("wpoly", 40), 2),
            (list(range(101)), 10**30),
            (family_prefix("fibonacci", 39), 3),
        ],
        ids=[
            "fibonacci/7-r1/3",
            "quad5-fibonacci-r1",
            "wpoly-N40-r2",
            "large-p",
            "fibonacci-N40-r3",
        ],
    )
    def test_prefixes_take_it(self, route_calls, values, r):
        prefix = as_prefix(values)
        target = join_domains(prefix.domain, domain_of(r))
        want = double_sum(prefix.promoted(target).values, promote(r, target))
        for view in VIEWS:
            assert view(prefix, r) == want
        assert route_calls == [True] * len(VIEWS)

    @pytest.mark.parametrize(
        "values",
        [
            [k * k - 50 * k for k in range(101)],
            [(k * 0x9E3779B97F4A7C15) % 2**64 - 2**63 for k in range(101)],
        ],
        ids=["order-3", "random-64-bit"],
    )
    def test_other_columns_do_not(self, route_calls, values):
        for view in VIEWS:
            assert view(values, 3) == double_sum(values, 3)
        assert route_calls == [False] * len(VIEWS)


class TestOneKernelRun:
    """A quad or poly prefix, at a rational or a non-constant Poly shift,
    is packed into one int column: a counting wrapper on ``_table`` sees
    exactly one call, with int entries and an int p (one call per column
    before packing, and Poly scalars at a Poly shift).  A short prefix,
    or one that needs slots over 1,536 bits wide, at a rational shift
    still runs one int call per column."""

    @staticmethod
    def int_calls(monkeypatch, values, r):
        """Per ``_table`` call, whether its entries and p are all ints;
        the transform's values are checked against ``double_sum``."""
        calls = []
        original = transform._table

        def counted(column, p):
            calls.append(all(type(t) is int for t in [*column, p]))
            return original(column, p)

        monkeypatch.setattr(transform, "_table", counted)
        out = apply_transform(values, r)
        prefix = as_prefix(values)
        target = join_domains(prefix.domain, domain_of(r))
        assert out.values == double_sum(prefix.promoted(target).values, promote(r, target))
        return calls

    @pytest.mark.parametrize(
        "values, r",
        [
            (family_prefix("wpoly", 40), 2),
            ([Quad(k * k - 50 * k, 7 - k, 5) for k in range(101)], 1),
            (family_prefix("fibonacci", 30), Poly((0, 1), "r")),
        ],
        ids=["wpoly-N40-r2", "quad5-N100-r1", "fibonacci-N30-r"],
    )
    def test_one_int_call(self, monkeypatch, values, r):
        assert self.int_calls(monkeypatch, values, r) == [True]

    @pytest.mark.parametrize(
        "values, r, columns",
        [
            ([Quad(k * k - 50 * k, 7 - k, 5) for k in range(13)], 1, 2),
            ([Poly((k, -k, Fraction(1, 3)), "x") for k in range(13)], Fraction(-7, 4), 3),
            ([Quad(k * k - 50 * k, 7 - k, 5) for k in range(51)], 2**40, 2),
        ],
        ids=["quad5-N12-r1", "poly3-N12-r-7/4", "quad5-N50-r2^40"],
    )
    def test_runs_per_column(self, monkeypatch, values, r, columns):
        assert self.int_calls(monkeypatch, values, r) == [True] * columns


class TestShiftZero:
    """Shift 0 is the identity: the promoted prefix comes back without a
    difference table or a common denominator."""

    def test_many_large_denominators_return_at_once(self):
        prefix = SequencePrefix([Fraction(1, 10**996 + 2 * k + 1) for k in range(120)])
        t0 = time.perf_counter()
        out = apply_transform(prefix, 0)
        assert time.perf_counter() - t0 < 0.1
        assert out == prefix and out.domain == RAT

    @SHIFT_ZERO_VALUES
    def test_types_and_text_kept(self, values):
        prefix = SequencePrefix(values)
        for r in (0, exactnum.zero(prefix.domain)):
            out = apply_transform(prefix, r)
            assert out.domain == prefix.domain
            for got, want in zip(out.values, prefix.values, strict=True):
                assert type(got) is type(want)
                assert render_scalar(got) == render_scalar(want)


class TestConstructorCounts:
    """A rational shift builds its outputs without the public
    constructors: the count of checked constructions does not grow
    with N."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = Counter()

        def counted(owner, attr, name):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        counted(Quad, "__init__", "Quad.__init__")
        counted(Poly, "__init__", "Poly.__init__")
        counted(exactnum, "is_squarefree", "is_squarefree")
        return calls

    @pytest.mark.parametrize(
        "make, sizes, r",
        [
            (
                lambda n: SequencePrefix([Quad(k, 1 - k, 999983) for k in range(n)]),
                (100, 200),
                Fraction(1, 3),
            ),
            (lambda n: family_prefix("wpoly", n - 1), (31, 61), 2),
        ],
        ids=["quad999983", "wpoly"],
    )
    def test_bounded_constructor_calls(self, counts, make, sizes, r):
        seen = []
        for n in sizes:
            prefix = make(n)
            counts.clear()
            out = apply_transform(prefix, r)
            assert len(out) == n
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert sum(seen[1].values()) <= 2


class TestComposeAndInverse:
    def test_compose_literal(self):
        # applying shift 1 twice equals shift 2
        assert compose_transforms(FIB, 1, 1) == apply_transform(FIB, 2)

    def test_compose_random_rational_matches_nested_oracle(self):
        values = (Fraction(3), Fraction(-1, 2), Fraction(2, 3), Fraction(5),
                  Fraction(0), Fraction(7, 4), Fraction(-2), Fraction(1, 6))
        r, s = Fraction(1, 2), Fraction(1, 3)
        nested = double_sum(double_sum(values, s), r)
        assert compose_transforms(values, r, s).values == nested

    def test_opposite_shifts_cancel(self):
        assert compose_transforms(LUCAS, 1, -1).values == LUCAS

    def test_inverse_literal(self):
        assert inverse_transform([0, 1, 3, 8, 21], 1).values == (0, 1, 1, 2, 3)

    def test_inverse_recovers_lucas(self):
        assert inverse_transform([2, 3, 7, 18, 47], 1).values == (2, 1, 3, 4, 7)

    @settings(max_examples=150)
    @given(prefix_values_st, fractions_st)
    def test_inverse_round_trip(self, values, r):
        a = SequencePrefix(values, RAT)
        assert inverse_transform(apply_transform(a, r), r) == a

    @settings(max_examples=100)
    @given(prefix_values_st, fractions_st, fractions_st)
    def test_semigroup_law(self, values, r, s):
        nested = apply_transform(apply_transform(values, s), r)
        assert compose_transforms(values, r, s) == nested


class TestIteratedBinomial:
    def test_once_is_classical(self):
        assert iterated_binomial(FIB, 1) == apply_transform(FIB, 1)

    def test_twice_on_jacobsthal(self):
        jacobsthal = (0, 1, 1, 3, 5, 11, 21, 43, 85, 171)
        assert iterated_binomial(jacobsthal, 2).values == (
            0, 1, 5, 21, 85, 341, 1365, 5461, 21845, 87381,
        )

    def test_zero_times_is_identity(self):
        assert iterated_binomial(FIB, 0).values == FIB

    def test_keeps_integer_domain(self):
        assert iterated_binomial(FIB, 3).domain == INT

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterated_binomial(FIB, -1)
        with pytest.raises(TypeError):
            iterated_binomial(FIB, Fraction(1, 2))

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_iteration_splits(self, values, m1, m2):
        assert iterated_binomial(
            iterated_binomial(values, m1), m2
        ) == iterated_binomial(values, m1 + m2)


def test_prefix_promotion_round_trip():
    a = SequencePrefix(FIB)
    widened = a.promoted(RAT)
    assert widened.domain == RAT
    assert widened == a
    assert [promote(v, RAT) for v in FIB] == list(widened.values)
