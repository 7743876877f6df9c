"""Sequence prefixes and the shift-parameterized binomial transform.

The transform with shift ``r`` maps a prefix a = (a_0, ..., a_N) to

    b_n = sum_{k=0}^{n} C(n, k) * r**(n-k) * a_k

for each n up to the requested index.  The family composes additively in
the shift (applying s then r equals applying r + s), the inverse of shift
r is shift -r, and the classical binomial transform iterated m times is
the single transform with shift m.  Index n of the output depends only on
inputs 0..n, so a prefix of length N+1 determines outputs 0..N exactly.

The kernel is a conjugation.  For r != 0 the definition gives
b_n = r^n * sum_k C(n, k) * (r^(-k) a_k), that is T_r = D_r T_1 D_r^(-1)
with D_r = diag(r^n), so every shift can run through the table of shift
1, which needs additions only (the scaling of Shaw and Traub's Taylor
shift, JACM 21, 1974).  On OGFs T_1 maps A(z) to (1 - z)^(-1) A(u) with
u = z/(1 - z); Horner in u from the last coefficient down makes each
step "put c in front, then divide by 1 - z", and dividing by 1 - z is a
prefix sum: one ``itertools.accumulate`` per input term.

Every shift but an irrational Quad runs :func:`_table` on native ints
with an int p, lowered by ``exactnum._on_ints``, which reads an int or
rational prefix as it is and builds the outputs in the joined domain.
:func:`_table` has three routes.  A column of at least
``_UNIT_MIN_TERMS`` terms that satisfies t_k = c1 t_(k-1) + c2 t_(k-2)
with int c1, c2 is transformed by the paper's root shift: the outputs
satisfy the recurrence of P(X - p), P = X^2 - c1 X - c2, so N
multiply-adds give them all (:func:`_shifted_recurrence`).  Lowering
keeps such a recurrence: entry k of a rational prefix scaled by e^k has
c1 * e and c2 * e^2, and the packed wpoly column has c1 = 3 * 2^w.
Orders up to 2 are the order of every registered family and of its
transform, and one 3x3 Hankel determinant of five entries, taken modulo
the prime ``_HANKEL_PRIME``, rejects nearly every other column in
microseconds; longer recurrences stay on the tables.  Otherwise
:func:`_table` scales entry k by p^(N-k), runs the unit table and
divides output n exactly by p^(N-n).  Where the scaling does not pay it
runs the multiply-add table :func:`_difference_table`,
``t_k <- p*t_k + t_{k+1}`` (von zur Gathen and Gerhard, ISSAC 1997):
below ``_UNIT_MIN_TERMS`` terms, where fixed costs dominate, and when
N * bit_length(p)^2 is over ``_UNIT_MAX_N_BITS2``, where the long
scaled entries and the exact divisions cost more than the multiply-adds
save (a packed Poly-shift p is always that long).  In the int domain
and at an irrational Quad shift the table runs on the scalars
themselves.  Shift 0 is the identity and returns the promoted prefix
without running a table.

Results are built by the unchecked ``SequencePrefix._of``: their values
were computed in the already-joined domain, so the per-value join of
``unify`` that the public constructor runs is skipped.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from itertools import accumulate, repeat

from .errors import PrefixTooShort
from .exactnum import (
    Domain,
    Scalar,
    _on_ints,
    domain_of,
    join_domains,
    promote,
    unify,
)

__all__ = [
    "SequencePrefix",
    "as_prefix",
    "apply_transform",
    "compose_transforms",
    "inverse_transform",
    "iterated_binomial",
]


class SequencePrefix:
    """Finite prefix (a_0, ..., a_N) of a sequence over one scalar domain.

    The domain is the join of the domains of the given values (further
    widened by the optional ``domain`` argument) and every stored value is
    promoted into it.  Prefixes are immutable and compare by value, so a
    prefix of ``Fraction`` values equals the integer prefix it came from.
    """

    __slots__ = ("_domain", "_values")

    def __init__(self, values: Iterable[Scalar], domain: Domain | None = None):
        self._domain, self._values = unify(values, domain)
        if not self._values:
            raise ValueError("a prefix needs at least the index-0 term")

    @classmethod
    def _of(cls, values: list | tuple, domain: Domain) -> "SequencePrefix":
        """Unchecked constructor for computed results: a non-empty list (or
        tuple) of values that are all already in ``domain``.  Skips the
        per-value join of :func:`unify`; never pass a generator, so the
        tuple is allocated at its exact size."""
        self = object.__new__(cls)
        self._domain, self._values = domain, tuple(values)
        return self

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def values(self) -> tuple[Scalar, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self._values)

    def __getitem__(self, n: int) -> Scalar:
        return self._values[n]

    def truncated(self, n_max: int) -> "SequencePrefix":
        """The sub-prefix of indices 0..n_max."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max >= len(self._values):
            raise PrefixTooShort(
                f"prefix has {len(self._values)} terms, need {n_max + 1}"
            )
        return SequencePrefix._of(self._values[: n_max + 1], self._domain)

    def promoted(self, dom: Domain) -> "SequencePrefix":
        target = join_domains(self._domain, dom)
        if target == self._domain:
            return self
        return SequencePrefix(self._values, target)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SequencePrefix):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self._values[:8])
        if len(self._values) > 8:
            shown += ", ..."
        return f"SequencePrefix([{shown}], domain={self._domain})"


PrefixLike = SequencePrefix | Iterable[Scalar]


def as_prefix(values: PrefixLike, domain: Domain | None = None) -> SequencePrefix:
    """Coerce a prefix or plain iterable of scalars into a SequencePrefix."""
    if isinstance(values, SequencePrefix):
        return values if domain is None else values.promoted(domain)
    return SequencePrefix(values, domain)


def apply_transform(
    a: PrefixLike, r: Scalar, n_max: int | None = None
) -> SequencePrefix:
    """Binomial transform of ``a`` with shift ``r``, indices 0..n_max.

    ``n_max`` defaults to the last index the input prefix determines.  The
    computation happens in the join of the prefix domain and the domain of
    ``r``, so an integer prefix shifted by 1/2 yields rationals.
    """
    a = as_prefix(a)
    if n_max is None:
        n_max = len(a) - 1
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > len(a) - 1:
        raise PrefixTooShort(
            f"prefix has {len(a)} terms, need {n_max + 1} for index {n_max}"
        )
    target = join_domains(a.domain, domain_of(r))
    rp = promote(r, target)
    if rp == 0:  # the identity: no table, and no common denominator
        return SequencePrefix._of(a.promoted(target).values[: n_max + 1], target)
    vals = a.values[: n_max + 1]  # lowered as they are, built in target
    return SequencePrefix._of(_on_ints(_table, vals, rp, target), target)


# Chosen from a grid of best-of timings against _difference_table on
# columns of 64-bit ints (Python 3.11, 2-vCPU VM).  Below 26 terms the
# fixed costs make the unit table up to 1.3x slower at |p| >= 2.  With
# b = bit_length(p) its entries are N*b bits longer than the inputs
# (about half that in the multiply-add table) and the divisions by
# p^(N-n) grow as b^2 N^3: past N * b^2 = 2^14 it loses.  The
# recurrence route shares the 26-term gate: on Fibonacci columns it beats
# the multiply-add table from 12 terms (6.0 against 9.7 us at p = 1),
# but its filter adds 1-2 us, 5-25% of the table at 8-16 terms, to every
# column without such a recurrence.
_UNIT_MIN_TERMS = 26
_UNIT_MAX_N_BITS2 = 1 << 14


def _table(column: list, p) -> list:
    """Outputs sum_k C(n, k) p^(n-k) column_k for n = 0..len-1: the
    transform of ``column`` at shift p.

    ``p`` is never 0: shift 0 returns before any table, and an int p
    comes with int entries.  A scalar p or a column shorter than
    ``_UNIT_MIN_TERMS`` runs :func:`_difference_table`.  Otherwise three
    routes are tried in turn:

    1. a column with an int recurrence of order 1 or 2 runs the
       recurrence of P(X - p), N multiply-adds
       (:func:`_shifted_recurrence`);
    2. while N * bit_length(p)^2 <= ``_UNIT_MAX_N_BITS2``, D_p T_1
       D_p^(-1): entry k is scaled by p^(N-k), the unit table runs as
       Horner in u = z/(1 - z), one prefix sum per input term, and
       output n is divided exactly by p^(N-n);
    3. :func:`_difference_table`.
    """
    n = len(column) - 1
    if n < _UNIT_MIN_TERMS - 1 or not isinstance(p, int):
        return _difference_table(column, p)
    shifted = _shifted_recurrence(column, p)
    if shifted is not None:
        return shifted
    if n * abs(p).bit_length() ** 2 > _UNIT_MAX_N_BITS2:
        return _difference_table(column, p)
    if p != 1:
        scale = list(accumulate(repeat(p, n), operator.mul, initial=1))[::-1]
        column = list(map(operator.mul, column, scale))  # entry k times p^(N-k)
    g = []
    for c in reversed(column):
        g = list(accumulate(g, initial=c))
    if p != 1:
        g = list(map(operator.floordiv, g, scale))
    return g


# The largest prime below 2^30: one CPython digit, so reducing an entry
# modulo it takes time linear in the entry's length.
_HANKEL_PRIME = 1_073_741_789


def _shifted_recurrence(column: list, p: int) -> list | None:
    """The transform of the int ``column`` (five entries or more) at the
    int shift p in N multiply-adds; None when t_0 = t_1 = 0 or when no
    t_k = c1 t_(k-1) + c2 t_(k-2) with int c1, c2 holds for every k >= 2.

    By the root shift, the outputs then satisfy the recurrence of
    P(X - p) for P = X^2 - c1 X - c2: b_0 = t_0, b_1 = t_1 + p t_0 and
    b_n = (c1 + 2p) b_(n-1) + (c2 - c1 p - p^2) b_(n-2).  The 3x3 Hankel
    determinant of t_0..t_4 vanishes on such a column; one nonzero
    modulo ``_HANKEL_PRIME`` rejects it for a few microseconds.  The
    coefficients come from the 2x2 Hankel system (order 1 where its
    determinant is 0) as floor quotients, and every entry is checked
    against them, which rejects any quotient that was not exact.  One
    pass over the column checks entry k and then emits output k, both
    in two registers; the first mismatch returns None, so no partial
    output escapes.
    """
    m0, m1, m2, m3, m4 = [t % _HANKEL_PRIME for t in column[:5]]
    hankel3 = (
        m0 * (m2 * m4 - m3 * m3) - m1 * (m1 * m4 - m2 * m3) + m2 * (m1 * m3 - m2 * m2)
    )
    if hankel3 % _HANKEL_PRIME:
        return None
    t0, t1, t2, t3 = column[:4]
    hankel2 = t0 * t2 - t1 * t1
    if hankel2:
        c1 = (t0 * t3 - t1 * t2) // hankel2
        c2 = (t2 * t2 - t1 * t3) // hankel2
    elif t0:
        c1, c2 = t1 // t0, 0
    else:
        return None
    d1, d2 = c1 + 2 * p, c2 - c1 * p - p * p
    a, b = t0, t1
    u, v = t0, t1 + p * t0
    out = [u, v]
    append = out.append
    for t in column[2:]:
        if t != c1 * b + c2 * a:
            return None
        a, b = b, t
        u, v = v, d1 * v + d2 * u
        append(v)
    return out


def _difference_table(column: Iterable, p) -> list:
    """Outputs sum_k C(n, k) p^(n-k) column_k for n = 0..len-1, the
    transform of ``column`` at shift p, for any scalar p.

    One working list: pass n replaces t_k by p * t_k + t_{k+1} and drops
    the last entry, whose row is complete.
    """
    t = list(column)
    out = [t[0]]
    for m in range(len(t) - 1, 0, -1):
        for k in range(m):
            t[k] = p * t[k] + t[k + 1]
        t.pop()
        out.append(t[0])
    return out


def compose_transforms(
    a: PrefixLike, r: Scalar, s: Scalar, n_max: int | None = None
) -> SequencePrefix:
    """Apply shift ``s`` then shift ``r`` in one pass, i.e. shift r + s."""
    _, (rr, ss) = unify((r, s))
    return apply_transform(a, rr + ss, n_max)


def inverse_transform(
    b: PrefixLike, r: Scalar, n_max: int | None = None
) -> SequencePrefix:
    """Undo the shift-``r`` transform (the transform with shift ``-r``)."""
    return apply_transform(b, -r, n_max)


def iterated_binomial(
    a: PrefixLike, m: int, n_max: int | None = None
) -> SequencePrefix:
    """The classical binomial transform applied ``m`` times (shift m)."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("iteration count must be an int")
    if m < 0:
        raise ValueError("iteration count must be nonnegative")
    return apply_transform(a, m, n_max)
