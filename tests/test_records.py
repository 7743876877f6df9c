"""Value semantics of the record types and the public ``Scalar`` alias.

The records are immutable tuples of named fields: their ``repr`` names each
field, equal records hash equal, and no attribute can be set.
"""

from fractions import Fraction

import pytest

import binshift
from binshift.exactnum import INT, Domain, Poly, Quad, poly_domain, quad_domain
from binshift.families import (
    FamilySpec,
    IdentityCheck,
    RecurrenceRow,
    SegmentRow,
    get_family,
    recurrences_table,
    special_identities_report,
    table_initial_segments,
)
from binshift.verify import PropertyResult, SuiteReport

RECORDS = [
    (
        Domain,
        lambda: quad_domain(5),
        "Domain(kind='quad', d=5, var=None)",
    ),
    (
        FamilySpec,
        lambda: FamilySpec("wpoly", None, 3 * Poly((0, 1)), 2, (0, 1)),
        "FamilySpec(name='wpoly', oeis=None, p=Poly('3*x', var='x'), q=2, init=(0, 1))",
    ),
    (
        SegmentRow,
        lambda: table_initial_segments()[0],
        "SegmentRow(family='fibonacci', r=1, values=(0, 1, 3, 8, 21, 55, 144, 377, 987,"
        " 2584), golden=(0, 1, 3, 8, 21, 55, 144, 377, 987, 2584), ok=True)",
    ),
    (
        RecurrenceRow,
        lambda: recurrences_table()[0],
        "RecurrenceRow(family='fibonacci', b1=Poly('1 + 2*r', var='r'),"
        " b2=Poly('-1 + r + r^2', var='r'), init=(Poly('0', var='r'), Poly('1', var='r')),"
        " ok=True)",
    ),
    (
        IdentityCheck,
        lambda: special_identities_report()[0],
        "IdentityCheck(identity='fibonacci_even_index', n=0, lhs=0, rhs=0, ok=True)",
    ),
    (
        PropertyResult,
        lambda: PropertyResult("linearity", 10, True),
        "PropertyResult(name='linearity', cases=10, ok=True, failure=None)",
    ),
    (
        SuiteReport,
        lambda: SuiteReport("models", 3, 5, [PropertyResult("x", 2, False, "case 1: no")]),
        "SuiteReport(suite='models', seed=3, requested_cases=5,"
        " properties=[PropertyResult(name='x', cases=2, ok=False, failure='case 1: no')])",
    ),
]

over_records = pytest.mark.parametrize(
    "cls, make, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)


@over_records
def test_repr_names_every_field(cls, make, text):
    value = make()
    assert type(value) is cls
    assert repr(value) == text


def test_str_of_a_domain_is_its_name():
    assert [str(d) for d in (INT, quad_domain(-3), poly_domain("t"))] == [
        "int",
        "quad(-3)",
        "poly(t)",
    ]


@over_records
def test_fields_and_new_attributes_cannot_be_set(cls, make, text):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, cls.__match_args__[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1


@over_records
def test_equal_records_hash_equal(cls, make, text):
    a, b = make(), make()
    assert a == b and a is not b
    if isinstance(a, SuiteReport):  # its properties are a list
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_domain_is_a_dict_key():
    seen = {quad_domain(5): "a", Domain("poly", var="x"): "b", INT: "c"}
    assert seen[Domain("quad", d=5)] == "a"
    assert seen[poly_domain()] == "b"
    assert seen[Domain("int")] == "c"
    assert Domain("quad", 5) != quad_domain(-5)


@pytest.mark.parametrize(
    "value, is_scalar",
    [
        (7, True),
        (Fraction(-2, 3), True),
        (Poly((0, 1), "r"), True),
        (Quad(1, 1, 5), True),
        (0.5, False),
    ],
    ids=["int", "Fraction", "Poly", "Quad", "float"],
)
def test_scalar_alias_admits_the_four_scalar_types_only(value, is_scalar):
    assert isinstance(value, binshift.Scalar) is is_scalar
