"""Registry of classical second-order families and their reference data.

Every family satisfies a_n = p a_{n-1} - q a_{n-2} (characteristic
polynomial X^2 - p X + q) with two initial terms.  Five integer families
are registered (fibonacci, lucas, pell, jacobsthal, mersenne) plus the
polynomial family ``wpoly`` with W_0 = 0, W_1 = 1 and
W_n = 3x W_{n-1} - 2 W_{n-2}, the generalized-Mersenne variant whose
shift-r transform satisfies

    b_n = (2r + 3x) b_{n-1} - (r^2 + 3xr + 2) b_{n-2},  b_0 = 0, b_1 = 1.

The module also embeds two reference tables as transcribed constants (the
code under test never regenerates them):

* :data:`TABLE1_GOLDEN`: the transformed recurrence coefficients and
  initial pairs of the five integer families with the shift symbolic.
* :data:`TABLE2_GOLDEN`: the first ten transform values at shifts 1 and 2.

Shift-1 specials: the classical binomial transform sends fibonacci to its
even-indexed subsequence, lucas likewise, mersenne to 3^n - 2^n, and
jacobsthal to (0, 1, 3, 9, ...), i.e. 3^(n-1) for n >= 1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import UnknownFamily
from .exactnum import Poly, Quad, Scalar, unify
from .models import BinetForm
from .recurrence import CharPoly, Recurrence, transform_recurrence, unroll
from .transform import SequencePrefix, apply_transform

__all__ = [
    "FamilySpec",
    "INTEGER_FAMILIES",
    "TABLE1_GOLDEN",
    "TABLE2_GOLDEN",
    "SegmentRow",
    "RecurrenceRow",
    "IdentityCheck",
    "family_names",
    "get_family",
    "family_char_poly",
    "family_recurrence",
    "family_prefix",
    "transformed_family_recurrence",
    "generalized_mersenne_transformed",
    "family_binet_form",
    "segment_row",
    "table_initial_segments",
    "recurrences_table",
    "special_identities_report",
]


class FamilySpec(namedtuple("FamilySpec", "name oeis p q init")):
    """One registered family: a_n = p a_{n-1} - q a_{n-2} with initials."""

    __slots__ = ()

    @property
    def domain(self):
        return unify((self.p, self.q, *self.init))[0]


_X = Poly.indeterminate("x")

_REGISTRY: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec("fibonacci", "A000045", 1, -1, (0, 1)),
        FamilySpec("lucas", "A000032", 1, -1, (2, 1)),
        FamilySpec("pell", "A000129", 2, -1, (0, 1)),
        FamilySpec("jacobsthal", "A001045", 1, -2, (0, 1)),
        FamilySpec("mersenne", "A000225", 3, 2, (0, 1)),
        FamilySpec("wpoly", None, 3 * _X, 2, (0, 1)),
    )
}

INTEGER_FAMILIES = ("fibonacci", "lucas", "pell", "jacobsthal", "mersenne")

# Transformed recurrences of the integer families with the shift symbolic:
# (coefficient on b_{n-1}, subtracted coefficient on b_{n-2}, initial pair).
TABLE1_GOLDEN: dict[str, tuple[Poly, Poly, tuple[Scalar, Scalar]]] = {
    "fibonacci": (Poly((1, 2), "r"), Poly((-1, 1, 1), "r"), (0, 1)),
    "lucas": (Poly((1, 2), "r"), Poly((-1, 1, 1), "r"), (2, Poly((1, 2), "r"))),
    "pell": (Poly((2, 2), "r"), Poly((-1, 2, 1), "r"), (0, 1)),
    "jacobsthal": (Poly((1, 2), "r"), Poly((-2, 1, 1), "r"), (0, 1)),
    "mersenne": (Poly((3, 2), "r"), Poly((2, 3, 1), "r"), (0, 1)),
}

# First ten transform values of the integer families at shifts 1 and 2.
TABLE2_GOLDEN: dict[tuple[str, int], tuple[int, ...]] = {
    ("fibonacci", 1): (0, 1, 3, 8, 21, 55, 144, 377, 987, 2584),
    ("fibonacci", 2): (0, 1, 5, 20, 75, 275, 1000, 3625, 13125, 47500),
    ("lucas", 1): (2, 3, 7, 18, 47, 123, 322, 843, 2207, 5778),
    ("lucas", 2): (2, 5, 15, 50, 175, 625, 2250, 8125, 29375, 106250),
    ("pell", 1): (0, 1, 4, 14, 48, 164, 560, 1912, 6528, 22288),
    ("pell", 2): (0, 1, 6, 29, 132, 589, 2610, 11537, 50952, 224953),
    ("jacobsthal", 1): (0, 1, 3, 9, 27, 81, 243, 729, 2187, 6561),
    ("jacobsthal", 2): (0, 1, 5, 21, 85, 341, 1365, 5461, 21845, 87381),
    ("mersenne", 1): (0, 1, 5, 19, 65, 211, 665, 2059, 6305, 19171),
    ("mersenne", 2): (0, 1, 7, 37, 175, 781, 3367, 14197, 58975, 242461),
}


def family_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_family(name: str) -> FamilySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise UnknownFamily(f"unknown family {name!r}; known: {known}") from None


def family_char_poly(name: str) -> CharPoly:
    spec = get_family(name)
    return CharPoly((1, -spec.p, spec.q))


def family_recurrence(name: str) -> Recurrence:
    spec = get_family(name)
    return Recurrence(family_char_poly(name), spec.init)


def family_prefix(name: str, n_max: int) -> SequencePrefix:
    """The base sequence a_0..a_{n_max} of a registered family."""
    return unroll(family_recurrence(name), n_max)


def transformed_family_recurrence(name: str, r: Scalar) -> Recurrence:
    """Recurrence of the shift-r transform of a registered family.

    ``r`` may be a concrete scalar or the symbolic shift
    ``Poly.indeterminate("r")`` for the integer families; the symbolic
    shift of ``wpoly`` would need two indeterminates and is rejected as a
    DomainMismatch.
    """
    return transform_recurrence(family_recurrence(name), r)


def generalized_mersenne_transformed(r: Scalar, n_max: int) -> SequencePrefix:
    """Prefix of the transformed polynomial family W at shift ``r``.

    Unrolls b_n = (2r + 3x) b_{n-1} - (r^2 + 3xr + 2) b_{n-2} from
    b_0 = 0, b_1 = 1; termwise equal to the transform of the W prefix.
    """
    return unroll(transformed_family_recurrence("wpoly", r), n_max)


def family_binet_form(name: str) -> BinetForm:
    """Exact closed form a_n = sum c_j rho_j^n for an integer family.

    Fibonacci, lucas and pell need a quadratic field; jacobsthal and
    mersenne stay rational.  The polynomial family has no closed form
    over the supported domains.
    """
    get_family(name)
    half = Fraction(1, 2)
    if name in ("fibonacci", "lucas"):
        golden = Quad(half, half, 5)
        conj = Quad(half, -half, 5)
        if name == "fibonacci":
            c = Quad(0, Fraction(1, 5), 5)
            return BinetForm([(c, golden), (-c, conj)])
        return BinetForm([(Quad(1, 0, 5), golden), (Quad(1, 0, 5), conj)])
    if name == "pell":
        c = Quad(0, Fraction(1, 4), 2)
        return BinetForm([(c, Quad(1, 1, 2)), (-c, Quad(1, -1, 2))])
    if name == "jacobsthal":
        return BinetForm([(Fraction(1, 3), 2), (Fraction(-1, 3), -1)])
    if name == "mersenne":
        return BinetForm([(Fraction(-1), 1), (Fraction(1), 2)])
    raise UnknownFamily(f"{name!r} has no closed form over the supported domains")


class SegmentRow(namedtuple("SegmentRow", "family r values golden ok")):
    """One reference-table row: transform values vs the embedded constants."""

    __slots__ = ()


class RecurrenceRow(namedtuple("RecurrenceRow", "family b1 b2 init ok")):
    """Symbolic transformed recurrence of one family vs the embedded row."""

    __slots__ = ()


class IdentityCheck(namedtuple("IdentityCheck", "identity n lhs rhs ok")):
    """One index of one shift-1 special identity."""

    __slots__ = ()


def segment_row(name: str, r: Scalar, n_max: int = 9) -> SequencePrefix:
    """Transform values b_0..b_{n_max} of a family at any shift."""
    return apply_transform(family_prefix(name, n_max), r)


def table_initial_segments() -> list[SegmentRow]:
    """Recompute the shift-1/shift-2 table and compare with the constants."""
    rows = []
    for name in INTEGER_FAMILIES:
        for r in (1, 2):
            values = segment_row(name, r).values
            golden = TABLE2_GOLDEN[(name, r)]
            rows.append(SegmentRow(name, r, values, golden, values == golden))
    return rows


def recurrences_table() -> list[RecurrenceRow]:
    """Symbolic transformed recurrences of the integer families.

    Computes each via the root-shift machinery with the shift left as the
    indeterminate r, writes b_n = b1 * b_{n-1} - b2 * b_{n-2}, and marks
    whether coefficients and initials match the embedded reference row.
    """
    r = Poly.indeterminate("r")
    rows = []
    for name in INTEGER_FAMILIES:
        rec = transformed_family_recurrence(name, r)
        b1 = -rec.poly.coefficient_of_power(1)
        b2 = rec.poly.coefficient_of_power(0)
        g1, g2, ginit = TABLE1_GOLDEN[name]
        ok = b1 == g1 and b2 == g2 and rec.init == ginit
        rows.append(RecurrenceRow(name, b1, b2, rec.init, ok))
    return rows


def special_identities_report(n_max: int = 20) -> list[IdentityCheck]:
    """Check the four shift-1 special identities index by index.

    The right-hand sides are produced independently of the transform:
    even-indexed base values come from unrolling the base recurrence to
    2*n_max, and the power forms from integer exponentiation.
    """
    checks = []
    fib = family_prefix("fibonacci", 2 * n_max).values
    lucas = family_prefix("lucas", 2 * n_max).values
    bf = apply_transform(family_prefix("fibonacci", n_max), 1)
    bl = apply_transform(family_prefix("lucas", n_max), 1)
    bm = apply_transform(family_prefix("mersenne", n_max), 1)
    bj = apply_transform(family_prefix("jacobsthal", n_max), 1)
    for n in range(n_max + 1):
        checks.append(
            IdentityCheck("fibonacci_even_index", n, bf[n], fib[2 * n], bf[n] == fib[2 * n])
        )
        checks.append(
            IdentityCheck("lucas_even_index", n, bl[n], lucas[2 * n], bl[n] == lucas[2 * n])
        )
        rhs = 3**n - 2**n
        checks.append(IdentityCheck("mersenne_power_gap", n, bm[n], rhs, bm[n] == rhs))
        rhs = 0 if n == 0 else 3 ** (n - 1)
        checks.append(IdentityCheck("jacobsthal_power", n, bj[n], rhs, bj[n] == rhs))
    return checks
