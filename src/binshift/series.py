"""Truncated generating series and the transform's generating-function views.

A :class:`TruncSeries` holds coefficients c_0..c_N of an ordinary (OGF) or
exponential (EGF) generating series truncated at order N.  EGF series
store the sequence values a_n themselves, not a_n/n!, which keeps every
coefficient inside the exact scalar domains; the analytic coefficient
a_n/n! is available through :meth:`TruncSeries.analytic_coefficient`.

The shift-r binomial transform acts as:

* OGF:  A(z) -> (1 - r z)^(-1) * A(z / (1 - r z))
* EGF:  multiplication by the exponential series of r*t (coefficient-wise,
  stored form: binomial convolution with the powers of r)
* Riordan view: the lower-triangular array with entries C(n, k) r^(n-k)

In stored form the OGF and EGF actions both give coefficient n =
sum_k C(n, k) r^(n-k) c_k, the transform of the coefficients.  So both
views run ``apply_transform``'s own table, ``_kernels._table``, with its
routes (the root shift, the unit table, packing) and its shift-0 return;
``verify`` checks them against the paper's double sum, which calls no
kernel.

The Riordan view keeps arithmetic of its own, which calls no transform
table, so ``verify`` checks it against the transform.  It rests on the
scaling identity R(r) = D_r R(1) D_r^(-1), D_r = diag(r^n), the one
behind the unit table: entry (n, k) is r^(n-k) times an int, coefficient
n - k of (1 - z)^(-(k+1)), which k + 1 prefix sums of [1, 0, ..., 0]
give.  One power of r and one product by that int then serve every
shift kind: int, Fraction, Quad and Poly.

:class:`TruncSeries` keeps its coefficients in ``transform._OneDomain``,
whose docstring states when results skip ``unify``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from ._kernels import _geometric_column, _table
from .errors import KindMismatch, OrderMismatch
from .exactnum import (
    Domain,
    Scalar,
    _count,
    _on_ints,
    domain_of,
    join_domains,
    promote,
    render_scalar,
    zero,
)
from .transform import PrefixLike, SequencePrefix, _OneDomain, as_prefix

__all__ = [
    "OGF",
    "EGF",
    "TruncSeries",
    "series_from_prefix",
    "prefix_from_series",
    "series_mul",
    "series_compose_geometric",
    "egf_transform",
    "riordan_entry",
]

OGF = "ogf"
EGF = "egf"


def _check_kind(kind: str) -> None:
    if kind not in (OGF, EGF):
        raise ValueError(f"kind must be {OGF!r} or {EGF!r}, got {kind!r}")


class TruncSeries(_OneDomain):
    """Coefficients c_0..c_N of a truncated generating series.

    ``kind`` is :data:`OGF` or :data:`EGF`.  The order N is one less than
    the number of coefficients; all coefficients live in one scalar
    domain (the join of their individual domains).
    """

    __slots__ = ("_kind",)

    def __init__(
        self,
        kind: str,
        coeffs: Iterable[Scalar],
        domain: Domain | None = None,
    ):
        _check_kind(kind)
        self._kind = kind
        super().__init__(coeffs, domain)
        if not self._values:
            raise ValueError("a series needs at least the order-0 coefficient")

    @classmethod
    def _of(cls, kind: str, coeffs: list | tuple, domain: Domain) -> "TruncSeries":
        """The unchecked constructor of :class:`_OneDomain`, for a valid
        ``kind``."""
        self = super()._of(coeffs, domain)
        self._kind = kind
        return self

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def order(self) -> int:
        return len(self._values) - 1

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self._values

    def promoted(self, dom: Domain) -> "TruncSeries":
        target = join_domains(self._domain, dom)
        if target == self._domain:
            return self
        return TruncSeries(self._kind, self._values, target)

    def coefficient(self, n: int) -> Scalar:
        """Stored coefficient c_n (for EGF this is a_n, not a_n/n!)."""
        if not 0 <= n <= self.order:
            raise IndexError(f"order {self.order} series has no coefficient {n}")
        return self._values[n]

    def analytic_coefficient(self, n: int) -> Scalar:
        """The true series coefficient: c_n for OGF, a_n/n! for EGF."""
        c = self.coefficient(n)
        if self._kind == OGF:
            return c
        inv_fact = Fraction(1, math.factorial(n))
        if self._domain.kind in ("int", "rat"):
            return c * inv_fact
        return c * promote(inv_fact, self._domain)

    def text(self) -> str:
        """Human-readable rendering ending in the O() truncation marker."""
        sym = "z" if self._kind == OGF else "t"
        parts: list[str] = []
        zero_s = zero(self._domain)
        for n, c in enumerate(self._values):
            if c == zero_s and len(self._values) > 1:
                continue
            body = render_scalar(c)
            if " " in body or (body.startswith("-") and n > 0):
                body = f"({body})"
            if n == 0:
                parts.append(body)
            elif n == 1:
                parts.append(f"{body}*{sym}")
            else:
                parts.append(f"{body}*{sym}^{n}")
            if self._kind == EGF and n >= 2:
                parts[-1] += f"/{n}!"
        if not parts:
            parts.append("0")
        return " + ".join(parts) + f" + O({sym}^{self.order + 1})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries):
            return self._kind == other._kind and self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._kind, self._values))

    def __repr__(self) -> str:
        return f"TruncSeries({self._kind!r}, {self.text()!r})"


def series_from_prefix(a: PrefixLike, kind: str = OGF) -> TruncSeries:
    """View a length-(N+1) prefix as a series truncated at order N."""
    _check_kind(kind)
    a = as_prefix(a)
    return TruncSeries._of(kind, a.values, a.domain)


def prefix_from_series(f: TruncSeries) -> SequencePrefix:
    """The coefficient prefix of a truncated series."""
    return SequencePrefix._of(f.coeffs, f.domain)


def _check_compatible(f: TruncSeries, g: TruncSeries) -> None:
    if f.kind != g.kind:
        raise KindMismatch(f"cannot combine {f.kind} with {g.kind}")
    if f.order != g.order:
        raise OrderMismatch(f"orders differ: {f.order} vs {g.order}")


def _cauchy(xs: list, ys: list, order: int, zero_s: Scalar) -> list:
    out = [zero_s] * (order + 1)
    for i, x in enumerate(xs):
        if i > order or x == zero_s:
            continue
        for j, y in enumerate(ys):
            if i + j > order:
                break
            out[i + j] = out[i + j] + x * y
    return out


def series_mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Product of two same-kind, same-order series.

    OGF uses the Cauchy product; EGF (in stored a_n form) uses the
    binomial convolution sum_k C(n, k) f_k g_{n-k}.
    """
    _check_compatible(f, g)
    target = join_domains(f.domain, g.domain)
    xs = f.promoted(target).coeffs
    ys = g.promoted(target).coeffs
    zero_s = zero(target)
    if f.kind == OGF:
        out = _cauchy(xs, ys, f.order, zero_s)
    else:
        out = []
        for n in range(f.order + 1):
            acc = zero_s
            for k in range(n + 1):
                acc = acc + math.comb(n, k) * (xs[k] * ys[n - k])
            out.append(acc)
    return TruncSeries._of(f.kind, out, target)


def _transformed(f: TruncSeries, r: Scalar) -> TruncSeries:
    """The transform of the coefficients of ``f`` at shift ``r``, of the
    kind of ``f``: ``apply_transform``'s table and routes, with its
    shift-0 return before any table (``_table`` needs p != 0)."""
    target = join_domains(f.domain, domain_of(r))
    if r == 0:
        return f.promoted(target)
    return TruncSeries._of(f.kind, _on_ints(_table, f.coeffs, r, target), target)


def series_compose_geometric(f: TruncSeries, r: Scalar) -> TruncSeries:
    """OGF action of the shift-r transform:

        A(z) -> (1 - r z)^(-1) * A(z / (1 - r z))

    Coefficient n of the result is sum_k C(n, k) r^(n-k) c_k, the
    transform of the coefficients, so it runs the transform's table.
    """
    if f.kind != OGF:
        raise KindMismatch("geometric substitution acts on ogf series")
    return _transformed(f, r)


def egf_transform(f: TruncSeries, r: Scalar) -> TruncSeries:
    """EGF action of the shift-r transform: multiply by exp(r t).

    In stored a_n form the product is the binomial convolution

        b_n = sum_{k=0}^{n} C(n, k) r^(n-k) a_k,

    the transform of the coefficients, so it runs the transform's table.
    """
    if f.kind != EGF:
        raise KindMismatch("exponential multiplication acts on egf series")
    return _transformed(f, r)


def riordan_entry(r: Scalar, n: int, k: int) -> Scalar:
    """Entry (n, k) of the transform's Riordan array.

    The array is ((1 - r z)^(-1), z (1 - r z)^(-1)); entry (n, k) is the
    coefficient of z^n in (1 - r z)^(-1) * (z (1 - r z)^(-1))^k, that is
    coefficient n - k of (1 - r z)^(-(k+1)).  Substituting z -> r z gives
    the scaling identity R(r) = D_r R(1) D_r^(-1), D_r = diag(r^n): the
    entry is r^(n-k) times coefficient n - k of (1 - z)^(-(k+1)), which
    ``_kernels._geometric_column`` takes as k + 1 prefix sums of
    [1, 0, ..., 0] on ints.  So every shift kind costs one power of r and
    one product by an int.  The entry equals C(n, k) * r^(n-k) and
    vanishes for k > n.
    """
    n, k = _count(n, "row"), _count(k, "column")
    dom = domain_of(r)
    if k > n:
        return zero(dom)
    return r ** (n - k) * _geometric_column(n - k, k + 1)
