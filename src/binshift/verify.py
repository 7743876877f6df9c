"""Seeded self-verification suites exposed through the CLI.

Four suites, each a list of named properties checked over many exact
cases:

* ``semigroup``: composition, inversion, linearity, triangularity and
  iterated-transform laws of the shift operator family.
* ``rootshift``: the shifted characteristic polynomial annihilates the
  transformed sequence; shifting is additive and invertible; the
  coefficient formula agrees with naive polynomial substitution; the
  shift-operator intertwining residual vanishes; transformed recurrences
  reproduce the transform termwise.
* ``identities``: the embedded reference tables and the shift-1 special
  identities of the classical families.
* ``models``: Binet, matrix and colored-count models, plus the
  OGF/EGF/Riordan generating-function views, all against the direct
  sequence operator.  The OGF and EGF views run the transform's own
  table, so each of their cases also checks one drawn index against the
  paper's double sum, which calls no kernel.

Each property is a generator ``prop(rng, cases, depth)`` that yields one
``(inputs, holds)`` pair per case: a dict of the case's named inputs and
whether the property held.  :func:`run_suite` owns the only case loop.  It
seeds every property with its own
``random.Random(f"{seed}:{suite}.{property}")``, so a property draws the
same cases alone, in its suite or under ``"all"``, and a report is
reproducible byte for byte.  A property stops at its first case that does
not hold, with the failure text ``seed S, suite.property, case i: k=v, ...``,
which names everything needed to replay that case.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .exactnum import (
    RAT,
    domain_of,
    join_domains,
    one,
    promote,
    zero,
)
from .families import (
    INTEGER_FAMILIES,
    family_binet_form,
    family_names,
    family_prefix,
    family_recurrence,
    recurrences_table,
    special_identities_report,
    table_initial_segments,
)
from .models import (
    MatrixModel,
    binet_eval,
    binet_shift,
    colored_count_bruteforce,
    matrix_transform_eval,
    model_from_recurrence,
)
from .recurrence import (
    CharPoly,
    Recurrence,
    apply_char_operator,
    intertwine_residual,
    shift_characteristic,
    transform_recurrence,
    unroll,
)
from .series import (
    EGF,
    OGF,
    egf_transform,
    riordan_entry,
    series_compose_geometric,
    series_from_prefix,
)
from .transform import (
    SequencePrefix,
    apply_transform,
    compose_transforms,
    inverse_transform,
    iterated_binomial,
)

__all__ = ["PropertyResult", "SuiteReport", "SUITE_NAMES", "run_suite"]


class PropertyResult(
    namedtuple("PropertyResult", "name cases ok failure", defaults=(None,))
):
    """Outcome of one property: cases run and the first failure, if any."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "suite seed requested_cases properties")):
    """One suite run: seed, cases asked for and a list of PropertyResult."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)


def _rand_fraction(rng, bound: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


def _rand_rat_prefix(rng, length: int) -> SequencePrefix:
    return SequencePrefix([_rand_fraction(rng) for _ in range(length)], RAT)


def _rand_monic(rng, max_degree: int) -> CharPoly:
    d = rng.randint(1, max_degree)
    tail = [_rand_fraction(rng, 5, 4) for _ in range(d - 1)]
    # keep the constant term nonzero so unrolled sequences stay generic
    const = _rand_fraction(rng, 5, 4)
    if const == 0:
        const = Fraction(1)
    return CharPoly([Fraction(1), *tail, const])


# --- semigroup suite -------------------------------------------------------


def _prop_compose_additive(rng, cases, depth):
    for _ in range(cases):
        a = _rand_rat_prefix(rng, 12)
        r, s = _rand_fraction(rng), _rand_fraction(rng)
        nested = apply_transform(apply_transform(a, s), r)
        yield {"r": r, "s": s}, compose_transforms(a, r, s) == nested


def _prop_inverse_roundtrip(rng, cases, depth):
    for _ in range(cases):
        a = _rand_rat_prefix(rng, 12)
        r = _rand_fraction(rng)
        yield {"r": r}, inverse_transform(apply_transform(a, r), r) == a


def _prop_linearity(rng, cases, depth):
    for _ in range(cases):
        xs = _rand_rat_prefix(rng, 10)
        ys = _rand_rat_prefix(rng, 10)
        alpha, beta = _rand_fraction(rng), _rand_fraction(rng)
        r = _rand_fraction(rng)
        mixed = SequencePrefix(
            [alpha * x + beta * y for x, y in zip(xs, ys)], RAT
        )
        lhs = apply_transform(mixed, r).values
        tx, ty = apply_transform(xs, r), apply_transform(ys, r)
        rhs = tuple([alpha * x + beta * y for x, y in zip(tx, ty)])
        yield {"r": r, "alpha": alpha, "beta": beta}, lhs == rhs


def _prop_triangularity(rng, cases, depth):
    for _ in range(cases):
        vals = [_rand_fraction(rng) for _ in range(10)]
        r = _rand_fraction(rng)
        cut = rng.randrange(10)
        other = list(vals)
        for k in range(cut + 1, 10):
            other[k] = _rand_fraction(rng)
        b1 = apply_transform(SequencePrefix(vals, RAT), r)
        b2 = apply_transform(SequencePrefix(other, RAT), r)
        # outputs 0..cut must not depend on the inputs after cut
        yield {"r": r, "cut": cut}, b1.values[: cut + 1] == b2.values[: cut + 1]


def _prop_iterated_additive(rng, cases, depth):
    for _ in range(cases):
        a = SequencePrefix([rng.randint(-9, 9) for _ in range(10)])
        m1, m2 = rng.randint(0, 3), rng.randint(0, 3)
        twice = iterated_binomial(iterated_binomial(a, m1), m2)
        yield {"m1": m1, "m2": m2}, twice == iterated_binomial(a, m1 + m2)


# --- rootshift suite -------------------------------------------------------


def _prop_annihilation(rng, cases, depth):
    for _ in range(cases):
        p = _rand_monic(rng, 4)
        d = p.degree
        rec = Recurrence(p, [_rand_fraction(rng, 5, 4) for _ in range(d)])
        r = _rand_fraction(rng, 5, 4)
        b = apply_transform(unroll(rec, 20), r)
        residual = apply_char_operator(shift_characteristic(p, r), b)
        # residual indices 0..20-d cover 0..16 for every degree <= 4
        yield {"degree": d, "r": r}, all(v == 0 for v in residual)


def _prop_shift_additive(rng, cases, depth):
    for _ in range(cases):
        p = _rand_monic(rng, 5)
        r, s = _rand_fraction(rng), _rand_fraction(rng)
        twice = shift_characteristic(shift_characteristic(p, s), r)
        yield {"r": r, "s": s}, twice == shift_characteristic(p, r + s)


def _prop_shift_roundtrip(rng, cases, depth):
    for _ in range(cases):
        p = _rand_monic(rng, 5)
        r = _rand_fraction(rng)
        yield {"r": r}, shift_characteristic(shift_characteristic(p, r), -r) == p


def _double_sum(a: SequencePrefix, r, n: int):
    """Output n of the shift-r transform of ``a`` by the paper's double
    sum sum_k C(n, k) r^(n-k) a_k, on the promoted scalars: no kernel."""
    target = join_domains(a.domain, domain_of(r))
    a, r = a.promoted(target), promote(r, target)
    return sum(math.comb(n, k) * r ** (n - k) * a[k] for k in range(n + 1))


def _naive_substitution_shift(p: CharPoly, r) -> CharPoly:
    """Expand P(X - r) by Horner over explicit polynomial multiplication.

    Independent of the coefficient formula in shift_characteristic; used
    as its cross-check.
    """
    target = join_domains(p.domain, domain_of(r))
    rp = promote(r, target)
    zero_s, one_s = zero(target), one(target)

    def xmul(f, g):
        out = [zero_s] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = out[i + j] + x * y
        return out

    base = [-rp, one_s]  # X - r in ascending powers
    acc = [promote(p.coeffs[0], target)]
    for c in p.coeffs[1:]:
        acc = xmul(acc, base)
        acc[0] = acc[0] + promote(c, target)
    return CharPoly(list(reversed(acc)), target)


def _prop_shift_matches_substitution(rng, cases, depth):
    for _ in range(cases):
        p = _rand_monic(rng, 6)
        r = _rand_fraction(rng)
        holds = shift_characteristic(p, r) == _naive_substitution_shift(p, r)
        yield {"degree": p.degree, "r": r}, holds


def _prop_intertwining_zero(rng, cases, depth):
    for _ in range(cases):
        a = _rand_rat_prefix(rng, 10)
        r = _rand_fraction(rng)
        yield {"r": r}, all(v == 0 for v in intertwine_residual(a, r))


def _prop_transformed_recurrence_coherent(rng, cases, depth):
    # From 26 terms the transform kernel itself runs the root shift on
    # these prefixes, so index ``depth`` is also checked by the double sum.
    for name in INTEGER_FAMILIES:
        rec = family_recurrence(name)
        base = unroll(rec, depth)
        for r in range(-2, 3):
            rerolled = unroll(transform_recurrence(rec, r), depth)
            holds = apply_transform(base, r) == rerolled
            holds = holds and rerolled[depth] == _double_sum(base, r, depth)
            yield {"family": name, "r": r}, holds


# --- identities suite ------------------------------------------------------


def _special_identity(identity, rng, cases, depth):
    for c in special_identities_report(depth):
        if c.identity == identity:
            yield {"n": c.n, "lhs": c.lhs, "rhs": c.rhs}, c.ok


def _prop_table_segments(rng, cases, depth):
    for row in table_initial_segments():
        for n, (value, golden) in enumerate(zip(row.values, row.golden, strict=True)):
            yield {"family": row.family, "r": row.r, "n": n}, value == golden


def _prop_table_recurrences(rng, cases, depth):
    for row in recurrences_table():
        yield {"family": row.family, "b1": row.b1, "b2": row.b2}, row.ok


def _prop_wpoly_matches_operator(rng, cases, depth):
    base = family_prefix("wpoly", 10)
    for r in (0, 1, 2):
        direct = apply_transform(base, r)
        from_template = unroll(
            transform_recurrence(family_recurrence("wpoly"), r), 10
        )
        for n in range(11):
            yield {"r": r, "n": n}, direct[n] == from_template[n]


# --- models suite ----------------------------------------------------------


def _prop_binet_matches_base(rng, cases, depth):
    for name in INTEGER_FAMILIES:
        form = family_binet_form(name)
        base = family_prefix(name, depth)
        for n in range(depth + 1):
            yield {"family": name, "n": n}, binet_eval(form, n) == base[n]


def _prop_binet_shift_equivalence(rng, cases, depth):
    for name in INTEGER_FAMILIES:
        form = family_binet_form(name)
        base = family_prefix(name, depth)
        for r in (-2, -1, 1, 2):
            shifted = binet_shift(form, r)
            b = apply_transform(base, r)
            for n in range(depth + 1):
                yield {"family": name, "r": r, "n": n}, binet_eval(shifted, n) == b[n]


def _prop_matrix_shift_equivalence(rng, cases, depth):
    n_top = min(depth, 15)
    for name in INTEGER_FAMILIES:
        model = model_from_recurrence(family_recurrence(name))
        base = family_prefix(name, n_top)
        for r in (-1, 1, 2, Fraction(1, 2)):
            b = apply_transform(base, r)
            for n in range(n_top + 1):
                holds = matrix_transform_eval(model, r, n) == b[n]
                yield {"family": name, "r": r, "n": n}, holds


def _prop_matrix_shift_additive(rng, cases, depth):
    for _ in range(cases):
        dim = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        u = [rng.randint(-2, 2) for _ in range(dim)]
        v = [rng.randint(-2, 2) for _ in range(dim)]
        model = MatrixModel(rows, u, v)
        r, s = rng.randint(-2, 2), rng.randint(-2, 2)
        n = rng.randint(0, 6)
        once = matrix_transform_eval(model, r + s, n)
        shifted_rows = [
            [x + (s if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        twice = matrix_transform_eval(MatrixModel(shifted_rows, u, v), r, n)
        yield {"dim": dim, "r": r, "s": s, "n": n}, once == twice


def _prop_colored_matches_operator(rng, cases, depth):
    top = min(depth, 8)
    for _ in range(cases):
        n = rng.randint(0, top)
        values = [rng.randint(0, 6) for _ in range(n + 1)]
        r = rng.randint(0, 3)
        a = SequencePrefix(values)
        holds = colored_count_bruteforce(a, r, n) == apply_transform(a, r)[n]
        yield {"n": n, "r": r}, holds


_GF_SHIFTS = (-2, -1, 0, 1, 2, Fraction(1, 2))


def _prop_view_matches_operator(kind, rng, cases, depth):
    view = series_compose_geometric if kind == OGF else egf_transform
    for name in family_names():
        base = family_prefix(name, 16)
        f = series_from_prefix(base, kind)
        for r in _GF_SHIFTS:
            # the views run the transform's own table: index n is also
            # checked by the double sum
            n = rng.randrange(17)
            out = view(f, r).coeffs
            holds = out == apply_transform(base, r).values
            holds = holds and out[n] == _double_sum(base, r, n)
            yield {"family": name, "r": r, "n": n}, holds


def _prop_riordan_closed_form(rng, cases, depth):
    for r in _GF_SHIFTS:
        for n in range(13):
            for k in range(n + 1):
                expected = math.comb(n, k) * r ** (n - k)
                yield {"r": r, "n": n, "k": k}, riordan_entry(r, n, k) == expected
        # an entry above the diagonal
        yield {"r": r, "n": 3, "k": 7}, riordan_entry(r, 3, 7) == 0


def _prop_riordan_action(rng, cases, depth):
    for _ in range(cases):
        a = SequencePrefix([rng.randint(-9, 9) for _ in range(10)])
        r = rng.choice((-1, 1, 2))
        n = rng.randrange(10)
        acc = 0
        for k in range(n + 1):
            acc += riordan_entry(r, n, k) * a[k]
        yield {"r": r, "n": n}, acc == apply_transform(a, r)[n]


# Suite -> (property name, generator) in report order.  A generator calls
# library functions by their names in this module, so a wrapper bound over
# one of those names sees every call.
_SUITES = {
    "semigroup": (
        ("compose_additive", _prop_compose_additive),
        ("inverse_roundtrip", _prop_inverse_roundtrip),
        ("linearity", _prop_linearity),
        ("triangularity", _prop_triangularity),
        ("iterated_additive", _prop_iterated_additive),
    ),
    "rootshift": (
        ("annihilation", _prop_annihilation),
        ("shift_additive", _prop_shift_additive),
        ("shift_roundtrip", _prop_shift_roundtrip),
        ("shift_matches_substitution", _prop_shift_matches_substitution),
        ("intertwining_zero", _prop_intertwining_zero),
        ("transformed_recurrence_coherent", _prop_transformed_recurrence_coherent),
    ),
    "identities": (
        ("fibonacci_even_index", partial(_special_identity, "fibonacci_even_index")),
        ("lucas_even_index", partial(_special_identity, "lucas_even_index")),
        ("mersenne_power_gap", partial(_special_identity, "mersenne_power_gap")),
        ("jacobsthal_power", partial(_special_identity, "jacobsthal_power")),
        ("table_segments", _prop_table_segments),
        ("table_recurrences", _prop_table_recurrences),
        ("wpoly_matches_operator", _prop_wpoly_matches_operator),
    ),
    "models": (
        ("binet_matches_base", _prop_binet_matches_base),
        ("binet_shift_equivalence", _prop_binet_shift_equivalence),
        ("matrix_shift_equivalence", _prop_matrix_shift_equivalence),
        ("matrix_shift_additive", _prop_matrix_shift_additive),
        ("colored_matches_operator", _prop_colored_matches_operator),
        ("ogf_matches_operator", partial(_prop_view_matches_operator, OGF)),
        ("egf_matches_operator", partial(_prop_view_matches_operator, EGF)),
        ("riordan_closed_form", _prop_riordan_closed_form),
        ("riordan_action", _prop_riordan_action),
    ),
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(
    suite: str, seed: int = 0, cases: int = 100, depth: int = 20
) -> SuiteReport:
    """Run one named suite (or ``"all"``) and return its report.

    Every property draws from its own ``random.Random`` seeded with the
    string ``f"{seed}:{suite}.{property}"``, qualified even when one suite
    runs alone, so it meets the same cases alone or under ``"all"`` and a
    (suite, seed, cases, depth) tuple always produces the same report.  A
    property stops at its first case i that does not hold: it then reports
    i + 1 cases and the failure ``seed S, suite.property, case i: k=v, ...``
    with the case's named inputs.  A passing property's case count depends
    on ``cases`` and ``depth`` only, never on the seed.
    """
    if suite == "all":
        selected = list(_SUITES)
    elif suite in _SUITES:
        selected = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    if cases < 1:
        raise ValueError("cases must be positive")
    if depth < 1:
        raise ValueError("depth must be positive")
    import random  # here, not at the top: most CLI calls never verify

    results = []
    for name in selected:
        for prop_name, prop in _SUITES[name]:
            qualified = f"{name}.{prop_name}"
            rng = random.Random(f"{seed}:{qualified}")
            ran, failure = 0, None
            for inputs, holds in prop(rng, cases, depth):
                ran += 1
                if not holds:
                    shown = ", ".join(f"{k}={v}" for k, v in inputs.items())
                    failure = f"seed {seed}, {qualified}, case {ran - 1}: {shown}"
                    break
            label = qualified if suite == "all" else prop_name
            results.append(PropertyResult(label, ran, failure is None, failure))
    return SuiteReport(suite, seed, cases, results)
