"""Sequence prefixes and the shift-parameterized binomial transform.

The transform with shift ``r`` maps a prefix a = (a_0, ..., a_N) to

    b_n = sum_{k=0}^{n} C(n, k) * r**(n-k) * a_k

for each n up to the requested index.  The family composes additively in
the shift (applying s then r equals applying r + s), the inverse of shift
r is shift -r, and the classical binomial transform iterated m times is
the single transform with shift m.  Index n of the output depends only on
inputs 0..n, so a prefix of length N+1 determines outputs 0..N exactly.

Every transform runs one difference table, a Taylor-shift recurrence
(von zur Gathen and Gerhard, ISSAC 1997).  With b_n = ((r + E)^n a)_0,
where E shifts a sequence left, and r = p/q, the pass

    t_k <- p * t_k + q * t_{k+1}

turns row n of the table into row n + 1, scaled by q, so t_0 after pass
n is q^n * b_n.  A full prefix costs O(N^2) operations, and on integers
each product has the small factor p or q.
When the shift is rational (an int, a Fraction, a Quad with zero radical
part or a constant Poly) the prefix is lowered to integer columns over
one common denominator D, read directly from the integer numerators and
denominators the values store: a rational prefix is one column, a quad(d)
prefix a rational-part column and a radical-part column, a poly(x) prefix
one column per coefficient index.  Each column runs through the table on
native ints, which yields D * q^n * b_n, and each output is built from its
integer numerators over D * q^n, reduced once.  The lowering and the
rebuild are the ``exactnum`` helper pair ``_int_columns`` and
``_from_int_columns``, shared with the root shift and the EGF view of
``recurrence`` and ``series``.  An irrational Quad shift or a non-constant
Poly shift runs the same table on the scalars themselves, with q = 1.
Shift 0 is the identity and returns the promoted prefix without running
the table.

Results are built by the unchecked ``SequencePrefix._of``: their values
were computed in the already-joined domain, so the per-value join of
``unify`` that the public constructor runs is skipped.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import PrefixTooShort
from .exactnum import (
    Domain,
    Scalar,
    _from_int_columns,
    _int_columns,
    _rational_parts,
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
            if len(self._values) != len(other._values):
                return False
            return all(x == y for x, y in zip(self._values, other._values))
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
    vals = a.promoted(target).values[: n_max + 1]
    if rp == 0:  # the identity: no table, and no common denominator
        return SequencePrefix._of(vals, target)
    ratio = _rational_parts(rp)
    if ratio is None or target.kind == "int":
        return SequencePrefix._of(_difference_table(vals, rp, 1), target)
    p, q = ratio
    columns, den = _int_columns(vals, target)
    outs = [_difference_table(col, p, q) for col in columns]
    return SequencePrefix._of(_from_int_columns(outs, den, q, target), target)


def _difference_table(column: Iterable, p, q) -> list:
    """Outputs sum_k C(n, k) p^(n-k) q^k column_k for n = 0..len-1, that
    is q^n times the transform of ``column`` at shift p/q.

    One working list: pass n replaces t_k by p * t_k + q * t_{k+1} and
    drops the last entry, whose row is complete.
    """
    t = list(column)
    out = [t[0]]
    for m in range(len(t) - 1, 0, -1):
        if q == 1:
            for k in range(m):
                t[k] = p * t[k] + t[k + 1]
        else:
            for k in range(m):
                t[k] = p * t[k] + q * t[k + 1]
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
