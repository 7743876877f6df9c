"""Alternative models of recurrence sequences and how the transform acts.

Three independent views of the same sequence, each with its own image of
the shift-r binomial transform:

* Binet form a_n = sum_j c_j rho_j^n over a field domain; the transform
  keeps the weights and moves every root to rho_j + r.
* Matrix model a_n = u^T M^n v; the transform replaces M by M + r I.
* Colored-structure count: for a nonnegative integer sequence and integer
  r >= 0, the transform value b_n counts pairs (K, coloring) where K is a
  subset of an n-set carrying an a_{|K|}-structure and the remaining n-|K|
  points each get one of r colors.  A brute-force enumerator over all 2^n
  subsets provides the combinatorial ground truth for small n.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import (
    DomainMismatch,
    EnumerationTooLarge,
    NegativeInput,
    NonMonic,
    PrefixTooShort,
)
from .exactnum import (
    RAT,
    Domain,
    Scalar,
    _numerators,
    _over_common_denominator,
    domain_of,
    join_domains,
    one,
    promote,
    render_scalar,
    unify,
    zero,
)
from .recurrence import CharPoly, Recurrence
from .transform import PrefixLike, as_prefix

__all__ = [
    "BinetForm",
    "MatrixModel",
    "binet_eval",
    "binet_shift",
    "companion_matrix",
    "model_from_recurrence",
    "matrix_transform_eval",
    "colored_count_bruteforce",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 12


class BinetForm:
    """Closed form a_n = sum_j c_j * rho_j^n with pairwise distinct roots.

    Weights and roots live in one field domain (rat or quad); integer
    inputs are promoted to rationals.
    """

    __slots__ = ("_terms", "_domain")

    def __init__(self, terms: Iterable[tuple[Scalar, Scalar]]):
        pairs = [(c, rho) for c, rho in terms]
        if not pairs:
            raise ValueError("a closed form needs at least one term")
        dom, flat = unify((x for pair in pairs for x in pair), RAT)
        if dom.kind not in ("rat", "quad"):
            raise DomainMismatch(f"closed forms need a field domain, got {dom}")
        self._domain = dom
        self._terms = tuple([*zip(flat[::2], flat[1::2])])
        roots = [rho for _, rho in self._terms]
        for i, x in enumerate(roots):
            for y in roots[i + 1 :]:
                if x == y:
                    raise ValueError(f"roots must be pairwise distinct, {x} repeats")

    @property
    def terms(self) -> tuple[tuple[Scalar, Scalar], ...]:
        return self._terms

    @property
    def domain(self) -> Domain:
        return self._domain

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BinetForm):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({render_scalar(c)})*({render_scalar(rho)})^n"
            for c, rho in self._terms
        )
        return f"BinetForm({body})"


def binet_eval(form: BinetForm, n: int) -> Scalar:
    """The value a_n = sum_j c_j rho_j^n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("index must be an int")
    if n < 0:
        raise ValueError("index must be nonnegative")
    (c, rho), *rest = form.terms
    acc = c * rho**n
    for c, rho in rest:
        acc = acc + c * rho**n
    return acc


def binet_shift(form: BinetForm, r: Scalar) -> BinetForm:
    """Closed form of the shift-r transform: same weights, roots + r."""
    _, (rp, *roots) = unify((r, *(rho for _, rho in form.terms)), form.domain)
    return BinetForm([(c, rho + rp) for (c, _), rho in zip(form.terms, roots)])


class MatrixModel:
    """Sequence a_n = u^T M^n v with an exact square matrix M."""

    __slots__ = ("_matrix", "_u", "_v", "_domain")

    def __init__(
        self,
        matrix: Sequence[Sequence[Scalar]],
        u: Sequence[Scalar],
        v: Sequence[Scalar],
    ):
        rows = [list(row) for row in matrix]
        dim = len(rows)
        if dim == 0 or any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square and nonempty")
        if len(u) != dim or len(v) != dim:
            raise ValueError(f"u and v must have length {dim}")
        self._domain, flat = unify([*(x for row in rows for x in row), *u, *v])
        square = dim * dim
        self._matrix = tuple([flat[i : i + dim] for i in range(0, square, dim)])
        self._u = flat[square : square + dim]
        self._v = flat[square + dim :]

    @property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._matrix

    @property
    def u(self) -> tuple[Scalar, ...]:
        return self._u

    @property
    def v(self) -> tuple[Scalar, ...]:
        return self._v

    @property
    def dim(self) -> int:
        return len(self._matrix)

    @property
    def domain(self) -> Domain:
        return self._domain

    def __repr__(self) -> str:
        return f"MatrixModel(dim={self.dim}, domain={self._domain})"


def companion_matrix(p: CharPoly) -> tuple[tuple[Scalar, ...], ...]:
    """Companion matrix of a monic characteristic polynomial.

    Ones on the superdiagonal; the bottom row holds the negated
    coefficients in ascending power order, so the matrix satisfies P(M) = 0
    and advances state vectors (a_n, ..., a_{n+d-1}).
    """
    if not p.is_monic:
        raise NonMonic("companion matrix needs a monic polynomial")
    d = p.degree
    dom = p.domain
    zero_s, one_s = zero(dom), one(dom)
    rows = []
    for i in range(d - 1):
        rows.append(tuple([one_s if j == i + 1 else zero_s for j in range(d)]))
    rows.append(tuple([-p.coefficient_of_power(j) for j in range(d)]))
    return tuple(rows)


def model_from_recurrence(rec: Recurrence) -> MatrixModel:
    """Matrix model with M the companion matrix and v the initial terms.

    With u = e_1, the state vector M^n v starts with a_n, so
    u^T M^n v = a_n for all n; the first d values reproduce the initial
    terms exactly.
    """
    m = companion_matrix(rec.poly)
    dom = rec.domain
    u = tuple([one(dom) if j == 0 else zero(dom) for j in range(rec.degree)])
    return MatrixModel(m, u, rec.init)


def _mat_vec(m: Sequence[Sequence[Scalar]], w: Sequence[Scalar]) -> list:
    out = []
    for row in m:
        acc = 0
        for x, y in zip(row, w):
            acc = acc + x * y
        out.append(acc)
    return out


def matrix_transform_eval(model: MatrixModel, r: Scalar, n: int) -> Scalar:
    """Value b_n = u^T (M + r I)^n v of the shift-r transform.

    Write r = s/q with q > 0 an int: s is an int for a rational r, and
    r * q otherwise (a Quad or Poly over 1).  With M = M'/E, u = u'/D_u
    and v = v'/D_v, the entries of a rat model over their common
    denominators and E = D_u = D_v = 1 for any other model,
    M + (s/q) I = (q M' + s E I)/(q E), so

        b_n = u'^T (q M' + s E I)^n v' / (D_u D_v (q E)^n).

    The power runs on ints for an int or rat model at a rational shift,
    and otherwise multiplies ints by the Quads or Polys of the model or
    of s, which needs no promotion.  The quotient is built once at the
    end: an int for an int target, one Fraction for a rat target, and
    one promotion and one product for a quad or poly target.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("index must be an int")
    if n < 0:
        raise ValueError("index must be nonnegative")
    target = join_domains(model.domain, domain_of(r))
    nums, q = _numerators(r)
    s = r * q if len(nums) > 1 else sum(nums)  # sum(nums) is p at r = p/q
    flat = [x for row in model.matrix for x in row]
    u, w = model.u, model.v
    e = d_u = d_v = 1
    if model.domain.kind == "rat":
        flat, e = _over_common_denominator(flat)
        u, d_u = _over_common_denominator(u)
        w, d_v = _over_common_denominator(w)
    dim = model.dim
    shifted = [[q * x for x in flat[i : i + dim]] for i in range(0, dim * dim, dim)]
    for i, row in enumerate(shifted):
        row[i] += s * e
    for _ in range(n):
        w = _mat_vec(shifted, w)
    total = sum([x * y for x, y in zip(u, w)])
    if target.kind == "int":
        return total
    den = d_u * d_v * (q * e) ** n
    if target.kind == "rat":
        return Fraction(total, den)
    return total * promote(Fraction(1, den), target)


def colored_count_bruteforce(a: PrefixLike, r: int, n: int) -> int:
    """Count (subset, structure, coloring) triples directly.

    Every subset K of {1..n} contributes a_{|K|} structures, each
    completed by one of r^(n-|K|) colorings of the complement; the total
    is the shift-r transform value b_n.  Enumerates all 2^n subsets, so n
    is capped at :data:`ENUMERATION_LIMIT`.
    """
    a = as_prefix(a)
    if a.domain.kind != "int":
        raise DomainMismatch(f"structure counts must be integers, got {a.domain}")
    if not isinstance(r, int) or isinstance(r, bool):
        raise TypeError("color count must be an int")
    if r < 0:
        raise NegativeInput(f"color count must be nonnegative, got {r}")
    if n < 0:
        raise NegativeInput(f"set size must be nonnegative, got {n}")
    if n > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(
            f"2^{n} subsets exceed the enumeration limit 2^{ENUMERATION_LIMIT}"
        )
    if n > len(a) - 1:
        raise PrefixTooShort(f"need structure counts up to size {n}, got {len(a)}")
    values = a.values
    if any(v < 0 for v in values[: n + 1]):
        raise NegativeInput("structure counts must be nonnegative")
    total = 0
    for mask in range(1 << n):
        k = mask.bit_count()
        total += values[k] * r ** (n - k)
    return total
