"""Linear recurrences with constant coefficients and their shift behavior.

A :class:`CharPoly` stores the characteristic polynomial

    P(X) = p_0 X^d + p_1 X^(d-1) + ... + p_d

with coefficients in descending powers, and acts on sequences through the
forward shift operator S (so (P(S) a)_n = sum_j p_{d-j} a_{n+j}).  A
sequence satisfies the recurrence exactly when P(S) annihilates it.

The central fact implemented here: if P(S) annihilates a, then the
shift-r binomial transform of a is annihilated by P(X - r).  The shift
preserves monicity, is additive in r, and undoes with -r.  In particular
P(X) = X^2 - p X + q shifts to X^2 - (p + 2r) X + (r^2 + p r + q).

P(X - r) is the Ruffini-Horner Taylor shift ``_kernels._taylor_shift``,
run on native ints at every shift but an irrational Quad, lowered by
``exactnum._on_ints``.

:func:`unroll` and :func:`apply_char_operator` run on native ints for
every recurrence whose coefficients are rational, whatever the domain
of its terms.  With p_k = P_k/E over one denominator E and the terms
lowered to int columns over one common denominator D
(``exactnum._int_columns``), alpha_n = D E^n a_n satisfies
alpha_n = -(sum_k P_k E^(k-1) alpha_{n-k}) on ints, and
D E (P(S) a)_n = sum_j P_{d-j} A_{n+j} on the numerators A; each result
is built once with ``exactnum._from_int_columns``, over D E^n and over
the one denominator D E.  Only an irrational Quad or a non-constant
Poly coefficient keeps the loops on the scalars.

:class:`CharPoly` and :class:`Recurrence` keep their values in
``transform._OneDomain``, whose docstring states the rule: the public
constructors join the domains with ``unify``, and computed results and
promotions skip it through the unchecked ``_of``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import accumulate, repeat

from ._kernels import _continued, _operator_sums, _taylor_shift
from .errors import NonInvertibleDomain, NonMonic, PrefixTooShort
from .exactnum import (
    Domain,
    Scalar,
    _count,
    _from_int_columns,
    _int_columns,
    _joined,
    _on_ints,
    _signed_text,
    _term,
    domain_of,
    join_domains,
    one,
    promote,
    render_scalar,
    scalar_inv,
    unify,
    zero,
)
from .transform import PrefixLike, SequencePrefix, _OneDomain, apply_transform, as_prefix

__all__ = [
    "CharPoly",
    "Recurrence",
    "monic_normalized",
    "apply_char_operator",
    "shift_characteristic",
    "transform_recurrence",
    "second_order_template",
    "intertwine_residual",
    "unroll",
]


class CharPoly(_OneDomain):
    """Characteristic polynomial, coefficients descending from X^d.

    Degree is at least 1 and the leading coefficient is nonzero.  The
    coefficients all live in one scalar domain (their join).
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar], domain: Domain | None = None):
        vals = list(coeffs)
        if len(vals) < 2:
            raise ValueError("characteristic polynomial needs degree at least 1")
        super().__init__(vals, domain)
        if self._values[0] == zero(self._domain):
            raise ValueError("leading coefficient must be nonzero")

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """Coefficients p_0, ..., p_d in descending powers of X."""
        return self._values

    @property
    def degree(self) -> int:
        return len(self._values) - 1

    @property
    def leading(self) -> Scalar:
        return self._values[0]

    @property
    def is_monic(self) -> bool:
        return self._values[0] == one(self._domain)

    def coefficient_of_power(self, j: int) -> Scalar:
        """Coefficient of X^j (ascending accessor)."""
        if not 0 <= j <= self.degree:
            raise IndexError(f"degree {self.degree} polynomial has no X^{j}")
        return self._values[self.degree - j]

    def text(self, var: str = "X") -> str:
        """Rendering like ``X^2 - 3*X + 1``; composite coefficients are
        parenthesized, e.g. ``X^2 - (2r+3)*X + (r^2+3r+2)``."""
        terms = []
        for power, c in zip(range(self.degree, -1, -1), self._values):
            if c != 0:
                negative, body = _signed_text(c)
                terms.append((negative, _term(body, var, power)))
        return _joined(terms)

    def __repr__(self) -> str:
        return f"CharPoly({self.text()!r}, domain={self._domain})"


def monic_normalized(p: CharPoly) -> CharPoly:
    """Divide through by the leading coefficient (field domains only)."""
    if p.is_monic:
        return p
    if p.domain.kind not in ("rat", "quad"):
        raise NonInvertibleDomain(
            f"cannot normalize over {p.domain}; promote to a field domain first"
        )
    inv = scalar_inv(p.leading)
    return CharPoly._of([inv * c for c in p.coeffs], p.domain)


class Recurrence(_OneDomain):
    """A monic characteristic polynomial with its d initial terms.

    Determines a_n for every n >= d via
    a_n = -(p_1 a_{n-1} + ... + p_d a_{n-d}).  Stored flat in
    ``transform._OneDomain`` as (p_0, ..., p_d, a_0, ..., a_(d-1)), 2d + 1
    values: ``poly`` is the first d + 1 and ``init`` the rest.
    """

    __slots__ = ()

    def __init__(self, poly: CharPoly, init: Iterable[Scalar]):
        init_vals = list(init)
        if len(init_vals) != poly.degree:
            raise ValueError(
                f"degree {poly.degree} recurrence needs exactly "
                f"{poly.degree} initial terms, got {len(init_vals)}"
            )
        dom, init_vals = unify(init_vals, poly.domain)
        poly = poly.promoted(dom)
        if not poly.is_monic:
            raise NonMonic(f"characteristic polynomial {poly.text()} is not monic")
        self._domain, self._values = dom, poly.coeffs + init_vals

    @property
    def poly(self) -> CharPoly:
        return CharPoly._of(self._values[: self.degree + 1], self._domain)

    @property
    def init(self) -> tuple[Scalar, ...]:
        return self._values[self.degree + 1 :]

    @property
    def degree(self) -> int:
        return len(self._values) // 2

    def __repr__(self) -> str:
        init = ", ".join(render_scalar(v) for v in self.init)
        return f"Recurrence({self.poly.text()!r}, init=({init}))"


def unroll(rec: Recurrence, n_max: int) -> SequencePrefix:
    """The prefix a_0..a_{n_max} determined by the recurrence.

    With rational coefficients p_k = P_k/E over one denominator E and
    initial terms lowered to int columns A over one denominator D
    (``exactnum._int_columns``), alpha_n = D E^n a_n satisfies

        alpha_n = -(sum_k P_k E^(k-1) alpha_{n-k}),  alpha_i = A_i E^i,

    on the ints of each column, and output n is built back once over
    D E^n.  Only an irrational Quad or a non-constant Poly coefficient
    keeps the loop on the scalars; the int domain runs it on its ints.
    Order 2, the order of every registered family and of its transform,
    continues in two registers (``_continued``): per term the
    interpreter's index arithmetic, not the int arithmetic, sets the
    cost there.
    """
    n_max = _count(n_max, "n_max")
    dom, d = rec.domain, rec.degree
    coeffs = rec._values[: d + 1]  # rec.poly.coeffs, with no CharPoly built
    init = list(rec._values[d + 1 : d + 2 + n_max])
    if dom.kind == "int":
        return SequencePrefix._of(_continued(coeffs, init, n_max), dom)
    (nums, *radical), e = _int_columns(coeffs, dom)
    if any(map(any, radical)):
        return SequencePrefix._of(_continued(coeffs, init, n_max, zero(dom)), dom)
    e_powers = list(accumulate(repeat(e, len(coeffs) - 1), operator.mul, initial=1))
    c = [n * ek // e for n, ek in zip(nums, e_powers)]
    columns, den = _int_columns(init, dom)
    columns = [
        _continued(c, list(map(operator.mul, col, e_powers)), n_max) for col in columns
    ]
    return SequencePrefix._of(_from_int_columns(columns, den, e, dom), dom)


def apply_char_operator(p: CharPoly, a: PrefixLike) -> SequencePrefix:
    """(P(S) a)_n = sum_j p_{d-j} a_{n+j} for n = 0..len(a)-1-d.

    The output is d terms shorter than the input; a is annihilated by P
    exactly when every output term is zero.

    With rational coefficients p_k = P_k/E over one denominator E and the
    terms of a lowered to int columns A over one denominator D
    (``exactnum._int_columns``), D E (P(S) a)_n = sum_j P_{d-j} A_{n+j}
    on the ints of each column, and every output is built back once over
    the one denominator D E.  Int and rational coefficients or terms are
    lowered as they are, not promoted into the joined domain first.
    Only an irrational Quad or a non-constant Poly coefficient keeps the
    sums on the scalars, which are promoted for it; the int domain runs
    them on its ints.
    """
    a = as_prefix(a)
    d = p.degree
    if len(a) < d + 1:
        raise PrefixTooShort(
            f"degree {d} operator needs at least {d + 1} terms, got {len(a)}"
        )
    target = join_domains(p.domain, a.domain)
    if target.kind == "int":
        return SequencePrefix._of(_operator_sums(p.coeffs, a.values), target)
    (nums, *radical), e = _int_columns(p.coeffs, target)
    if any(map(any, radical)):
        coeffs = p.promoted(target).coeffs
        vals = a.promoted(target).values
        return SequencePrefix._of(_operator_sums(coeffs, vals, zero(target)), target)
    columns, den = _int_columns(a.values, target)
    columns = [_operator_sums(nums, col) for col in columns]
    return SequencePrefix._of(_from_int_columns(columns, den * e, 1, target), target)


def shift_characteristic(p: CharPoly, r: Scalar) -> CharPoly:
    """The polynomial P(X - r) annihilating the shift-r transform.

    The Taylor shift ``_kernels._taylor_shift`` of the descending
    coefficients, d(d+1)/2 multiply-adds; ``exactnum._on_ints`` runs it
    on native ints at every shift but an irrational Quad, on the
    coefficients of ``p`` as they are.

    The input must be monic; the output is then monic of the same degree,
    and shifting is additive in r with shift by -r as inverse.
    """
    if not p.is_monic:
        raise NonMonic(
            f"root shift needs a monic polynomial, got leading "
            f"{render_scalar(p.leading)}"
        )
    target = join_domains(p.domain, domain_of(r))
    return CharPoly._of(_on_ints(_taylor_shift, p.coeffs, r, target), target)


def transform_recurrence(rec: Recurrence, r: Scalar) -> Recurrence:
    """The recurrence satisfied by the shift-r transform of ``rec``.

    The characteristic polynomial is shifted to P(X - r) and the new
    initial terms are the transform of the first d terms (output index n
    only needs inputs 0..n, so d terms suffice).
    """
    d = rec.degree
    shifted = shift_characteristic(rec.poly, r)
    base = SequencePrefix._of(rec.init, rec.domain)
    new_init = apply_transform(base, r, d - 1)
    return Recurrence(shifted, new_init.values)


def second_order_template(p: Scalar, q: Scalar, r: Scalar) -> tuple[Scalar, Scalar]:
    """Shifted coefficients for a_n = p a_{n-1} - q a_{n-2}.

    The transform satisfies b_n = (p + 2r) b_{n-1} - (r^2 + p r + q)
    b_{n-2}; returns that coefficient pair.  Matches
    :func:`shift_characteristic` on X^2 - p X + q.
    """
    _, (pp, qq, rr) = unify((p, q, r))
    return (pp + 2 * rr, rr * rr + pp * rr + qq)


def intertwine_residual(a: PrefixLike, r: Scalar) -> SequencePrefix:
    """Termwise residual of (S - r) after the transform vs the transform
    of S: entry n is ((S - r) T a)_n - (T S a)_n, which is identically
    zero.  The output has one term fewer than the input."""
    a = as_prefix(a)
    if len(a) < 2:
        raise PrefixTooShort("need at least two terms to apply the shift operator")
    b = apply_transform(a, r)
    target = b.domain
    rp = promote(r, target)
    tail = SequencePrefix._of(a.values[1:], a.domain)
    tb = apply_transform(tail, r)
    out = [b[n + 1] - rp * b[n] - tb[n] for n in range(len(a) - 1)]
    return SequencePrefix._of(out, target)
