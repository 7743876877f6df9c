"""Guards on how results are built and on what the views may call.

* Every unchecked ``_of`` constructor receives a list or tuple of values
  already in its domain: ``unify`` of them against that domain keeps the
  domain and returns the identical objects.
* The generating-function, root-shift, Binet and matrix views keep
  arithmetic of their own: they give correct results with
  ``apply_transform`` and ``_difference_table`` made to raise at every
  module binding, so verify's comparisons against the transform stay
  independent.
"""

import contextlib
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binshift import transform
from binshift.exactnum import Poly, Quad, one, promote, unify
from binshift.families import family_binet_form, family_prefix, family_recurrence
from binshift.models import (
    BinetForm,
    binet_eval,
    binet_shift,
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
    TruncSeries,
    egf_transform,
    prefix_from_series,
    riordan_entry,
    series_compose_geometric,
    series_from_prefix,
    series_mul,
)
from binshift.transform import SequencePrefix, apply_transform
from binshift.verify import _naive_substitution_shift, run_suite

from exact_strategies import prefixes_st, shifts_st

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


def double_sum(values, r):
    return [
        sum(math.comb(n, k) * r ** (n - k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    ]


class TestViewsDoNotCallTheKernel:
    @pytest.mark.parametrize(
        "r",
        [2, Fraction(-1, 3), Quad(Fraction(1, 2), 0, 5), Quad(1, 1, 5), Poly((1, 1), "x")],
        ids=["int", "rat", "quad-rational", "quad", "poly"],
    )
    def test_views_without_transform(self, monkeypatch, r):
        n_top = 10
        base = family_prefix("fibonacci", n_top)
        rec = family_recurrence("fibonacci")
        form = family_binet_form("fibonacci")
        values = [promote(v, rec.domain) for v in base]
        expected = double_sum(values, r)
        expected_poly = _naive_substitution_shift(rec.poly, r)

        def raiser(*args, **kwargs):
            raise AssertionError("a view called the transform kernel")

        bindings = _binshift_bindings(apply_transform, transform._difference_table)
        assert len(bindings) >= 5
        for mod, attr in bindings:
            monkeypatch.setattr(mod, attr, raiser)

        assert shift_characteristic(rec.poly, r) == expected_poly
        egf = egf_transform(TruncSeries(EGF, values), r)
        assert list(egf.coeffs) == expected
        ogf = series_compose_geometric(series_from_prefix(values), r)
        assert list(ogf.coeffs) == expected
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
