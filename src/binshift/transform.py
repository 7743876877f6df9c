"""Sequence prefixes and the shift-parameterized binomial transform.

The transform with shift ``r`` maps a prefix a = (a_0, ..., a_N) to

    b_n = sum_{k=0}^{n} C(n, k) * r**(n-k) * a_k

for each n up to the requested index.  The family composes additively in
the shift (applying s then r equals applying r + s), the inverse of shift
r is shift -r, and the classical binomial transform iterated m times is
the single transform with shift m.  Index n of the output depends only on
inputs 0..n, so a prefix of length N+1 determines outputs 0..N exactly.

Every shift but an irrational Quad runs ``_kernels._table`` on native
ints with an int p, lowered by ``exactnum._on_ints``, which reads an int
or rational prefix as it is and builds the outputs in the joined domain.
The table first tries the paper's root shift on a column of at least
26 terms: one with an int recurrence of order 1 or 2 is transformed
through the recurrence of P(X - p) in N multiply-adds.
Lowering keeps such a recurrence: entry k of a rational prefix scaled by
e^k has c1 * e and c2 * e^2, and the packed wpoly column has
c1 = 3 * 2^w.  Orders up to 2 are the order of every registered family
and of its transform; longer recurrences stay on the tables, the unit
table conjugated by D_p = diag(p^n) or the multiply-add table.  In the
int domain and at an irrational Quad shift the table runs on the scalars
themselves.  Shift 0 is the identity and returns the promoted prefix
without running a table.

Results are built by the unchecked ``_of``: the docstring of
:class:`_OneDomain`, the core of the one-domain containers, states when
a result skips ``unify``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ._kernels import _table
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


class _OneDomain:
    """Values of one scalar domain, stored as a tuple: the core of
    :class:`SequencePrefix`, ``recurrence.CharPoly`` and
    ``series.TruncSeries``.

    The public constructor joins the domains of the given values (further
    widened by the optional ``domain`` argument) with :func:`unify` and
    promotes every value into the join.  Results of arithmetic on values
    of one joined domain are built by the unchecked :meth:`_of`, which
    skips that per-value join.  Containers are immutable and compare by
    value with their own class only, so a prefix of ``Fraction`` values
    equals the integer prefix it came from, but not a ``CharPoly`` with
    the same values.
    """

    __slots__ = ("_domain", "_values")

    def __init__(self, values: Iterable[Scalar], domain: Domain | None = None):
        self._domain, self._values = unify(values, domain)

    @classmethod
    def _of(cls, values: list | tuple, domain: Domain) -> "_OneDomain":
        """Unchecked constructor for computed results: a list (or tuple)
        of values that are all already in ``domain`` and that pass the
        checks of the public constructor.  Never pass a generator, so the
        tuple is allocated at its exact size."""
        self = object.__new__(cls)
        self._domain, self._values = domain, tuple(values)
        return self

    @property
    def domain(self) -> Domain:
        return self._domain

    def promoted(self, dom: Domain) -> "_OneDomain":
        target = join_domains(self._domain, dom)
        if target == self._domain:
            return self
        return type(self)(self._values, target)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)


class SequencePrefix(_OneDomain):
    """Finite prefix (a_0, ..., a_N) of a sequence over one scalar domain,
    the join of the domains of its values (see :class:`_OneDomain`)."""

    __slots__ = ()

    def __init__(self, values: Iterable[Scalar], domain: Domain | None = None):
        super().__init__(values, domain)
        if not self._values:
            raise ValueError("a prefix needs at least the index-0 term")

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
