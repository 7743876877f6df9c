"""Guards on how results are built and on what the views may call.

* Every unchecked ``_of`` constructor receives a list or tuple of values
  already in its domain: ``unify`` of them against that domain keeps the
  domain and returns the identical objects.
* The root-shift, Riordan, Binet and matrix views and verify's own
  references (the double sum and the naive substitution shift) keep
  arithmetic of their own: they give correct results with
  ``apply_transform`` and both transform tables, ``_table`` and
  ``_difference_table``, made to raise at every module binding, so
  verify's comparisons against the transform stay independent.  The OGF
  and EGF views run the transform's table, and verify checks them
  against that double sum.
* At a rational shift the OGF, Riordan and matrix views build their
  Fractions only for the results, not per term, and the matrix view
  keeps a rat model on ints.  At an irrational Quad or a non-constant
  Poly shift the matrix view promotes no more than its result.
* The Binet, matrix and Riordan views take only ints as indices, and
  every public count or index is checked at the boundary by
  ``exactnum._count``: a bool, a float or a Fraction is a ``TypeError``
  and a negative int a ``NegativeInput``, before any arithmetic.
"""

import contextlib
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binshift import _kernels, exactnum
from binshift.errors import NegativeInput
from binshift.exactnum import Poly, Quad, domain_of, join_domains, one, promote, unify
from binshift.families import family_binet_form, family_prefix, family_recurrence
from binshift.models import (
    BinetForm,
    MatrixModel,
    binet_eval,
    binet_shift,
    colored_count_bruteforce,
    matrix_transform_eval,
    model_from_recurrence,
)
from binshift.recurrence import (
    CharPoly,
    Recurrence,
    apply_char_operator,
    intertwine_residual,
    monic_normalized,
    shift_characteristic,
    transform_recurrence,
    unroll,
)
from binshift.series import (
    EGF,
    OGF,
    TruncSeries,
    egf_transform,
    prefix_from_series,
    riordan_entry,
    series_compose_geometric,
    series_from_prefix,
    series_mul,
)
from binshift.transform import SequencePrefix, apply_transform, iterated_binomial
from binshift.verify import _double_sum, _naive_substitution_shift, run_suite

from exact_strategies import double_sum, prefixes_st, shifts_st

CONTAINERS = (SequencePrefix, CharPoly, TruncSeries)


@contextlib.contextmanager
def checked_of():
    """Wrap every ``_of``: its values must already be joined into its
    domain.  Yields a Counter of calls per container class."""
    calls = Counter()

    def wrapped(cls):
        original = cls._of.__func__

        def checked(klass, *args):
            values, domain = args[-2], args[-1]
            assert isinstance(values, (list, tuple))
            dom, unified = unify(values, domain)
            assert dom == domain
            assert len(unified) == len(values)
            assert all(x is y for x, y in zip(unified, values))
            calls[cls.__name__] += 1
            return original(klass, *args)

        return classmethod(checked)

    with pytest.MonkeyPatch.context() as mp:
        for cls in CONTAINERS:
            mp.setattr(cls, "_of", wrapped(cls))
        yield calls


class TestUncheckedResultsAreJoined:
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_run_suite_all(self, seed):
        with checked_of() as calls:
            report = run_suite("all", seed=seed)
        assert report.ok
        assert set(calls) == {cls.__name__ for cls in CONTAINERS}

    @settings(max_examples=120, deadline=None)
    @given(prefixes_st(min_size=2), st.data())
    def test_views_in_every_domain(self, a, data):
        r = data.draw(shifts_st(a.domain))
        dom = a.domain
        p = CharPoly([one(dom), *a.values], dom)
        rec = Recurrence(p, a.values)
        with checked_of():
            apply_transform(a, r)
            a.truncated(0)
            f = series_from_prefix(a)
            prefix_from_series(series_compose_geometric(f, r))
            g = series_from_prefix(a, EGF)
            egf_transform(g, r)
            series_mul(g, g)
            riordan_entry(r, 4, 2)
            shift_characteristic(p, r)
            apply_char_operator(p, unroll(rec, len(a) + 3))
            transform_recurrence(rec, r)
            intertwine_residual(a, r)
            matrix_transform_eval(model_from_recurrence(rec), r, 3)
            if dom.kind != "poly" and not isinstance(r, Poly):
                form = BinetForm([(c, k) for k, c in enumerate(a.values)])
                binet_eval(binet_shift(form, r), 3)
            if dom.kind in ("rat", "quad"):
                monic_normalized(CharPoly([2, *a.values], dom))


def _binshift_bindings(*originals):
    """(module, attribute) for every binding of ``originals`` in a loaded
    binshift module."""
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "binshift" or name.startswith("binshift."))
        for attr, value in vars(mod).items()
        if any(value is o for o in originals)
    ]


SHIFTS = pytest.mark.parametrize(
    "r",
    [
        2,
        Fraction(-1, 3),
        Fraction(5, 2),
        Quad(Fraction(1, 2), 0, 5),
        Quad(1, 1, 5),
        Poly((1, 1), "x"),
    ],
    ids=["int", "rat", "rat-5/2", "quad-rational", "quad", "poly"],
)


class TestViewsDoNotCallTheKernel:
    @SHIFTS
    def test_views_without_transform(self, monkeypatch, r):
        check_views_without_transform(monkeypatch, r, 1)

    @SHIFTS
    def test_views_without_transform_rational_base(self, monkeypatch, r):
        check_views_without_transform(monkeypatch, r, Fraction(-2, 3))


def check_views_without_transform(monkeypatch, r, scale):
    """With the transform kernel made to raise, the independent views of
    ``scale`` times the Fibonacci numbers at shift ``r`` and verify's
    double sum match the test's own double sums, and
    ``shift_characteristic`` matches verify's naive substitution."""
    n_top = 10
    base = [scale * v for v in family_prefix("fibonacci", n_top)]
    fib = family_recurrence("fibonacci")
    rec = Recurrence(fib.poly, [scale * v for v in fib.init])
    fib_form = family_binet_form("fibonacci")
    weight = promote(scale, fib_form.domain)
    form = BinetForm([(weight * c, rho) for c, rho in fib_form.terms])
    values = [promote(v, rec.domain) for v in base]
    target = join_domains(rec.domain, domain_of(r))
    expected = double_sum([promote(v, target) for v in values], r)

    def raiser(*args, **kwargs):
        raise AssertionError("a view called the transform kernel")

    bindings = _binshift_bindings(
        apply_transform, _kernels._table, _kernels._difference_table
    )
    assert len(bindings) >= 5
    assert {"binshift.transform", "binshift._kernels"} <= {m.__name__ for m, _ in bindings}
    for mod, attr in bindings:
        monkeypatch.setattr(mod, attr, raiser)

    assert shift_characteristic(rec.poly, r) == _naive_substitution_shift(rec.poly, r)
    prefix = SequencePrefix(values, rec.domain)
    assert tuple([_double_sum(prefix, r, n) for n in range(n_top + 1)]) == expected
    for n in range(6):
        for k in range(n + 1):
            assert riordan_entry(r, n, k) == math.comb(n, k) * r ** (n - k)
    model = model_from_recurrence(rec)
    for n in range(n_top + 1):
        assert matrix_transform_eval(model, r, n) == expected[n]
    if not isinstance(r, Poly):
        shifted = binet_shift(form, r)
        for n in range(n_top + 1):
            assert binet_eval(shifted, n) == expected[n]


@pytest.fixture
def fractions_built(monkeypatch):
    """A one-element list counting every Fraction constructed."""
    calls = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


FIB_MODEL = model_from_recurrence(family_recurrence("fibonacci"))
JACOBSTHAL_FORM = family_binet_form("jacobsthal")


class TestRationalShiftViewsBuildFewFractions:
    """At a rational shift the OGF, Riordan and matrix views run on ints
    and build their results once: the counts below include the results."""

    def test_ogf_order_16(self, fractions_built):
        n = 16
        f = TruncSeries(OGF, [Fraction(k - 7, k % 5 + 2) for k in range(n + 1)])
        r = Fraction(1, 2)
        want = double_sum(f.coeffs, r)
        fractions_built[0] = 0
        got = series_compose_geometric(f, r)
        assert fractions_built[0] <= n + 3
        assert got.coeffs == want

    @pytest.mark.parametrize("n, k", [(12, 5), (20, 0), (9, 9)])
    def test_riordan_entry(self, fractions_built, n, k):
        r = Fraction(1, 2)
        fractions_built[0] = 0
        got = riordan_entry(r, n, k)
        assert fractions_built[0] <= 2
        assert got == Fraction(math.comb(n, k), 2 ** (n - k))

    def test_int_companion_model(self, fractions_built):
        """An int companion model, and a rat model, which is lowered to
        ints over its common denominators rather than run on Fractions."""
        rat = MatrixModel(
            [[Fraction(1, 2), Fraction(-2, 3)], [1, Fraction(3, 4)]],
            [Fraction(1, 3), 2],
            [Fraction(5, 7), -1],
        )
        for model, r, n in [(FIB_MODEL, Fraction(1, 2), 15), (rat, Fraction(-3, 5), 12)]:
            want = double_sum(_model_terms(model, n), r)[n]
            fractions_built[0] = 0
            got = matrix_transform_eval(model, r, n)
            assert fractions_built[0] <= 2
            assert got == want


def _model_terms(model, n):
    """u^T M^k v for k = 0..n, by scalar products."""
    terms, w = [], list(model.v)
    for _ in range(n + 1):
        terms.append(sum([x * y for x, y in zip(model.u, w)]))
        w = [sum([x * y for x, y in zip(row, w)]) for row in model.matrix]
    return terms


class TestMatrixViewPromotesOnce:
    """At an irrational Quad or a non-constant Poly shift the matrix view
    multiplies the int model by the shift's scalars: it promotes at most
    the result, not every entry of a widened model."""

    @pytest.mark.parametrize(
        "r", [Quad(1, 1, 5), Poly((0, 1), "r")], ids=["quad", "poly"]
    )
    def test_fibonacci_companion_model(self, monkeypatch, r):
        want = double_sum(family_prefix("fibonacci", 15), r)[15]
        calls = [0]
        original = exactnum.promote

        def counted(*args):
            calls[0] += 1
            return original(*args)

        for mod, attr in _binshift_bindings(original):
            monkeypatch.setattr(mod, attr, counted)
        got = matrix_transform_eval(FIB_MODEL, r, 15)
        assert calls[0] <= 2
        assert got == want
        assert domain_of(got) == domain_of(r)



@pytest.mark.parametrize("index", [2.0, True, Fraction(2)], ids=["float", "bool", "fraction"])
@pytest.mark.parametrize(
    "view",
    [
        lambda i: binet_eval(JACOBSTHAL_FORM, i),
        lambda i: matrix_transform_eval(FIB_MODEL, 1, i),
        lambda i: riordan_entry(2, 3, i),
        lambda i: riordan_entry(2, i, 1),
    ],
    ids=["binet", "matrix", "riordan-column", "riordan-row"],
)
def test_index_must_be_an_int(view, index):
    with pytest.raises(TypeError, match="int"):
        view(index)


FIB4 = (0, 1, 1, 2)
COUNTS = {
    "apply_transform-n_max": ("n_max", lambda i: apply_transform(FIB4, 1, i)),
    "truncated-n_max": ("n_max", lambda i: SequencePrefix(FIB4).truncated(i)),
    "iterated_binomial-m": ("iteration count", lambda i: iterated_binomial(FIB4, i)),
    "unroll-n_max": ("n_max", lambda i: unroll(family_recurrence("fibonacci"), i)),
    "binet_eval-n": ("index", lambda i: binet_eval(JACOBSTHAL_FORM, i)),
    "matrix_transform_eval-n": ("index", lambda i: matrix_transform_eval(FIB_MODEL, 1, i)),
    "riordan_entry-n": ("row", lambda i: riordan_entry(2, i, 1)),
    "riordan_entry-k": ("column", lambda i: riordan_entry(2, 3, i)),
    "colored_count-r": ("color count", lambda i: colored_count_bruteforce(FIB4, i, 2)),
    "colored_count-n": ("set size", lambda i: colored_count_bruteforce(FIB4, 2, i)),
}


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (True, TypeError, "{} must be an int"),
        (1.0, TypeError, "{} must be an int"),
        (Fraction(1), TypeError, "{} must be an int"),
        (-1, NegativeInput, "{} must be nonnegative, got -1"),
    ],
    ids=["bool", "float", "fraction", "negative"],
)
@pytest.mark.parametrize("argument", COUNTS)
def test_counts_checked_at_the_boundary(argument, bad, error, message):
    """The message is ``exactnum._count``'s: the argument is refused
    before any slicing, power or enumeration could read it."""
    what, call = COUNTS[argument]
    with pytest.raises(error) as raised:
        call(bad)
    assert str(raised.value) == message.format(what)
