"""Hypothesis strategies and helpers shared by the differential tests:
sequences over every scalar domain, shifts that join with them, the
double-sum oracle of the transform, and a check that two results agree
scalar for scalar."""

import math
from fractions import Fraction

from hypothesis import strategies as st

from binshift.exactnum import RAT, Poly, Quad, poly_domain, render_scalar
from binshift.transform import SequencePrefix

RADICANDS = (5, -3, 999983)

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def prefixes_st(draw, min_size=1):
    """A prefix over int, rat, quad(d) for each d in RADICANDS, or poly(x)."""
    kind = draw(st.sampled_from(("int", "rat", "quad", "poly")))
    size = draw(st.integers(min_value=min_size, max_value=9))
    if kind == "int":
        ints = st.integers(min_value=-50, max_value=50)
        return SequencePrefix(draw(st.lists(ints, min_size=size, max_size=size)))
    if kind == "rat":
        return SequencePrefix(
            draw(st.lists(fractions_st, min_size=size, max_size=size)), RAT
        )
    if kind == "quad":
        d = draw(st.sampled_from(RADICANDS))
        pairs = st.tuples(fractions_st, fractions_st)
        return SequencePrefix(
            [Quad(a, b, d) for a, b in draw(st.lists(pairs, min_size=size, max_size=size))]
        )
    coeffs = st.lists(fractions_st, max_size=4)
    return SequencePrefix(
        [Poly(cs, "x") for cs in draw(st.lists(coeffs, min_size=size, max_size=size))],
        poly_domain("x"),
    )


@st.composite
def shifts_st(draw, dom):
    """An int or Fraction shift, or a Quad (b zero or not) or Poly
    (constant or not) shift that joins with ``dom``."""
    kinds = ["int", "rat"]
    if dom.kind != "poly":
        kinds.append("quad")
    if dom.kind != "quad":
        kinds.append("poly")
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return draw(st.integers(min_value=-4, max_value=4))
    if kind == "rat":
        return draw(fractions_st)
    if kind == "quad":
        d = dom.d if dom.kind == "quad" else draw(st.sampled_from(RADICANDS))
        b = draw(st.one_of(st.just(Fraction(0)), fractions_st))
        return Quad(draw(fractions_st), b, d)
    return Poly(draw(st.lists(fractions_st, max_size=3)), "x")


@st.composite
def char_coefficients_st(draw):
    """Two to six coefficients over int, rat, poly(x), poly(r) or quad(5),
    the first nonzero and often not 1: a characteristic polynomial's."""
    kind = draw(st.sampled_from(("int", "rat", "x", "r", "quad")))
    if kind == "int":
        values = st.integers(min_value=-50, max_value=50)
    elif kind == "rat":
        values = fractions_st
    elif kind == "quad":
        values = st.builds(lambda a, b: Quad(a, b, 5), fractions_st, fractions_st)
    else:
        values = st.lists(fractions_st, max_size=4).map(lambda cs: Poly(cs, kind))
    leading = draw(values.filter(lambda v: v != 0))
    return [leading, *draw(st.lists(values, min_size=1, max_size=5))]


def double_sum(values, r):
    """Direct double-sum evaluation of the shift-r transform, independent
    of the implementation: the tuple of b_n = sum_k C(n, k) r^(n-k) a_k."""
    return tuple(
        sum(math.comb(n, k) * r ** (n - k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    )


def components(v):
    if isinstance(v, Quad):
        return [v.a, v.b]
    if isinstance(v, Poly):
        return list(v.coeffs)
    return [v]


def assert_same_scalars(got, want):
    """Equal length, and per position the same type, component types and
    canonical text."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y)
        assert [type(c) for c in components(x)] == [type(c) for c in components(y)]
        assert render_scalar(x) == render_scalar(y)
