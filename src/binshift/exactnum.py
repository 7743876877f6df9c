"""Exact scalar domains and their arithmetic.

Four coefficient domains are supported:

* integers, as plain ``int``
* rationals, as ``fractions.Fraction`` (kept in lowest terms by stdlib)
* dense univariate polynomials over the rationals (:class:`Poly`)
* quadratic extensions a + b*sqrt(d) with rational a, b (:class:`Quad`)

Values are immutable, arithmetic is exact, and floating point is rejected
everywhere.  Mixing domains is an error; the only promotions are the
explicit ones performed by :func:`promote`: integers into everything,
rationals into polynomials (as constants) and into quadratic fields (with
zero radical part).  :func:`join_domains` computes the common target of two
domains along those routes, or raises :class:`DomainMismatch`.  There is no
route between polynomials and quadratic fields, between quadratic fields
with different radicands, or between non-constant polynomials in different
indeterminates.

``Poly`` and ``Quad`` store int numerators over one positive common
denominator, in lowest terms, so their arithmetic runs on native ints and
builds no Fraction; the Fractions their accessors return are built when
read.

Values are validated once, by the public constructors (``Poly(...)``,
``Quad(...)``, :func:`poly_domain`, :func:`quad_domain`) and by
:func:`promote`, which calls them.  Results of arithmetic on valid values
are built by the unchecked ``_new`` constructors and skip validation:
their components are ints computed from validated operands, and their
radicand or indeterminate name comes from a validated operand.  ``_new``
is the one place that brings a result into lowest terms.  :func:`unify` is
the one place that joins the domains of a collection of values and
promotes each into the result; containers built from values already
computed in one joined domain skip it through their unchecked ``_of``.

The transform, the root shift, the EGF and the OGF views run their
kernel through ``_on_ints``, on one native-int column.  For a shift
r = S/e, with S = p and e = q for a rational p/q and S an int polynomial
for a non-constant Poly shift, a sequence of rat, quad or poly values is
lowered to int columns over one common denominator with
``_int_columns``; ints and Fractions among them are read into the
rational column as they are, so callers hand over their inputs without
promoting them into the target domain.  Several columns (the two parts
of a quad, the coefficients of a poly, or the output degree a Poly
shift adds) are packed Kronecker-style into w-bit slots of one int
column, the kernel runs once with p or S(2^w), and the slots are read
back; at a rational shift, short prefixes and very wide slots keep one
run per column.
Every result is built once with ``_from_int_columns`` over ``D * e**j``.
``_rational_parts`` reads p and q off a rational-valued scalar.  Only the
int domain and an irrational Quad shift run the kernel on the scalars,
and the latter is the one branch that promotes the values first.
``recurrence.unroll`` and ``recurrence.apply_char_operator`` call
``_int_columns`` and ``_from_int_columns`` themselves: there the
coefficients, not a shift, bring the second denominator.

Scalar text is decided here alone.  ``_joined`` writes every signed sum,
``a - b + c`` or compact ``a-b+c``, for ``Poly.text``, ``Poly.compact``,
``Quad.text`` and ``recurrence.CharPoly.text``, from terms read off the
int numerators, so rendering builds no Fraction.  :func:`parse_scalar`
reads every domain with one term grammar, ``_parse_terms``: a signed
sum of ``c``, ``c*s`` and ``c*s^k`` with c written as ``_RAT_RE``
(digits, or digits/digits) and s absent, the indeterminate or
``sqrt(d)``; the int domain takes the integral values of the rat one.
It is stricter than the CLI's literal grammar, ``Fraction``'s, which
takes decimals and exponents such as ``1e50`` and no sums.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, chain, repeat, zip_longest

from .errors import DivisionByZero, DomainMismatch, NonInvertibleDomain

__all__ = [
    "Domain",
    "INT",
    "RAT",
    "Poly",
    "Quad",
    "Scalar",
    "poly_domain",
    "quad_domain",
    "indeterminate",
    "is_squarefree",
    "domain_of",
    "join_domains",
    "promote",
    "unify",
    "zero",
    "one",
    "scalar_inv",
    "render_scalar",
    "parse_scalar",
]


def _reject_float(value: object) -> None:
    if isinstance(value, float):
        raise TypeError("floating point values are not supported; use Fraction")


def _as_fraction(value: object) -> Fraction:
    _reject_float(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _lowest(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """``nums`` and ``den > 0`` divided by their gcd: a tuple and an int."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    # Built from a list, not a generator (so are Poly.coeffs and unify's
    # tuple): a tuple built from a generator is allocated at a guessed size
    # and resized, which drains one tuple free list and fills another, and
    # only a full garbage collection, rare under int arithmetic, empties
    # them again.
    return tuple([c // g for c in nums]), den // g


def _over_common_denominator(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Int numerators of ints or Fractions over the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _stripped(nums: Sequence[int]) -> Sequence[int]:
    """``nums`` without its trailing zeros."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _power(base, n, unit, mul=operator.mul):
    """``base ** n`` by square-and-multiply with ``mul``, starting from
    ``unit``; the last, largest square is never formed."""
    if not isinstance(n, int) or isinstance(n, bool):
        return NotImplemented
    if n < 0:
        raise ValueError("negative power; use scalar_inv to invert a field element")
    result = unit
    while True:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


@functools.lru_cache(maxsize=256)
def is_squarefree(n: int) -> bool:
    """True if no square larger than 1 divides ``n`` (sign ignored).

    Zero is not squarefree.  Trial division by 2 and then by odd factors
    takes O(sqrt(n)) steps, about 5*10^5 for a prime near 10^12, so the
    result is cached per radicand: every ``Quad(...)`` checks its radicand,
    and a computation uses few.
    """
    n = abs(n)
    if n == 0 or n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 2
    return True


class Domain(namedtuple("Domain", "kind d var", defaults=(None, None))):
    """Tag naming one of the four coefficient domains.

    ``d`` is the radicand of a quadratic field, ``var`` the indeterminate
    of a polynomial domain; both are ``None`` elsewhere.
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "quad":
            return f"quad({self.d})"
        if self.kind == "poly":
            return f"poly({self.var})"
        return self.kind


INT = Domain("int")
RAT = Domain("rat")


def poly_domain(var: str = "x") -> Domain:
    """Domain of univariate rational-coefficient polynomials in ``var``."""
    if not (isinstance(var, str) and var.isidentifier()):
        raise ValueError(f"indeterminate name must be an identifier, got {var!r}")
    return Domain("poly", var=var)


def quad_domain(d: int) -> Domain:
    """Domain of values a + b*sqrt(d); ``d`` squarefree and not 0 or 1."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError("radicand must be an int")
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and not 0 or 1, got {d}")
    return Domain("quad", d=d)


class Poly:
    """Dense univariate polynomial with rational coefficients.

    Stored as a tuple of int numerators in ascending order over one
    denominator ``den > 0``: trailing zeros are stripped and the
    numerators share no factor with ``den``, so equal polynomials have
    identical numerators and denominators.  The zero polynomial is ``()``
    over 1 and has degree -1.  ``coeffs``, :meth:`coefficient` and
    :meth:`constant_value` build their Fractions when read.  Every
    polynomial remembers its indeterminate name; constants compare equal
    regardless of the name, but two non-constant polynomials in different
    indeterminates never mix.

    Arithmetic accepts ``int`` on either side (the canonical integer
    action); rationals must be promoted explicitly.
    """

    __slots__ = ("_nums", "_den", "_var")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), var: str = "x"):
        poly_domain(var)
        nums, den = _over_common_denominator([_as_fraction(c) for c in coeffs])
        self._nums, self._den = _lowest(_stripped(nums), den)
        self._var = var

    @classmethod
    def _new(cls, nums: Sequence[int], den: int, var: str) -> "Poly":
        """Unchecked constructor for arithmetic results: int ``nums`` over
        the int ``den > 0``, and ``var`` a valid name.  Strips trailing
        zeros and reduces to lowest terms."""
        self = object.__new__(cls)
        self._nums, self._den = _lowest(_stripped(nums), den)
        self._var = var
        return self

    @classmethod
    def indeterminate(cls, var: str = "x") -> "Poly":
        return cls((0, 1), var)

    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """The int numerators, ascending, and their common denominator."""
        return self._nums, self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self._den) for c in self._nums])

    @property
    def var(self) -> str:
        return self._var

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self.text()} is not a constant")
        return self.coefficient(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._nums):
            return Fraction(self._nums[k], self._den)
        return Fraction(0)

    def _merged_var(self, other: "Poly") -> str:
        if self.is_constant:
            return other._var
        if other.is_constant:
            return self._var
        if self._var != other._var:
            raise DomainMismatch(
                f"cannot mix polynomials in {self._var!r} and {other._var!r}"
            )
        return self._var

    def __add__(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            var = self._merged_var(other)
            b, other_den = other._nums, other._den
        elif isinstance(other, int) and not isinstance(other, bool):
            var, b, other_den = self._var, (other,), 1
        else:
            return NotImplemented
        a, den = self._nums, self._den
        if other_den != den:
            a, b = [c * other_den for c in a], [c * den for c in b]
            den *= other_den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly._new(out, den, var)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._new([-c for c in self._nums], self._den, self._var)

    def __sub__(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            return self.__add__(-other)
        if isinstance(other, int) and not isinstance(other, bool):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, int) and not isinstance(other, bool):
            return Poly._new([c * other for c in self._nums], self._den, self._var)
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._merged_var(other)
        a, b = self._nums, other._nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly._new(out, self._den * other._den, var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly._new((1,), 1, self._var))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            if self._nums != other._nums or self._den != other._den:
                return False
            return len(self._nums) <= 1 or self._var == other._var
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # lowest terms on both sides: compare numerator and denominator
            return (
                self.is_constant
                and other.numerator == (self._nums[0] if self._nums else 0)
                and other.denominator == self._den
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their rational value so that x == y implies
        # hash(x) == hash(y) across domains.
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self._nums, self._den))

    def text(self) -> str:
        """Canonical ascending rendering, e.g. ``1 + 2*x - x^3``."""
        return _joined(_terms(self._nums, self._den, self._var))

    def compact(self) -> str:
        """Descending space-free rendering, e.g. ``r^2+r-1``."""
        return _joined(_terms(self._nums, self._den, self._var, "")[::-1], "")

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly({self.text()!r}, var={self._var!r})"


class Quad:
    """Element a + b*sqrt(d) of a quadratic extension of the rationals.

    ``d`` must be a squarefree integer other than 0 and 1 (negative values
    are allowed).  Stored as ints ``(p, q, den)`` meaning
    (p + q*sqrt(d))/den, with ``den > 0`` and no factor common to p, q
    and den, so equal values have identical components; ``a`` and ``b``
    build their Fractions when read.  Componentwise equality; values with
    zero radical part also compare equal to the matching rational.
    Arithmetic accepts ``int`` on either side; everything else needs
    explicit promotion, and two different radicands never mix.
    """

    __slots__ = ("_p", "_q", "_den", "_d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int):
        quad_domain(d)
        nums, den = _over_common_denominator([_as_fraction(a), _as_fraction(b)])
        (self._p, self._q), self._den = _lowest(nums, den)
        self._d = d

    @classmethod
    def _new(cls, p: int, q: int, den: int, d: int) -> "Quad":
        """Unchecked constructor for arithmetic results: (p + q*sqrt(d))/den
        from ints with ``den > 0`` and ``d`` a valid radicand.  Reduces to
        lowest terms."""
        self = object.__new__(cls)
        (self._p, self._q), self._den = _lowest((p, q), den)
        self._d = d
        return self

    def _numerators(self) -> tuple[tuple[int, int], int]:
        """The int numerators ``(p, q)`` and their common denominator."""
        return (self._p, self._q), self._den

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._den)

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def rational_value(self) -> Fraction:
        if self._q != 0:
            raise ValueError(f"{self.text()} has a nonzero radical part")
        return self.a

    def conjugate(self) -> "Quad":
        return Quad._new(self._p, -self._q, self._den, self._d)

    def _norm_numerator(self) -> int:
        return self._p * self._p - self._d * self._q * self._q

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2; zero only for the zero element."""
        return Fraction(self._norm_numerator(), self._den * self._den)

    def inverse(self) -> "Quad":
        if self._p == 0 and self._q == 0:
            raise DivisionByZero("cannot invert zero")
        # den/(p + q*sqrt(d)) = den*(p - q*sqrt(d))/n; keep the new
        # denominator |n| positive by moving the sign of n upstairs
        n = self._norm_numerator()
        s = self._den if n > 0 else -self._den
        return Quad._new(s * self._p, -s * self._q, abs(n), self._d)

    def _parts(self, other: object) -> tuple[int, int, int] | None:
        """``(p, q, den)`` of an int or a same-field Quad, else None."""
        if isinstance(other, int) and not isinstance(other, bool):
            return other, 0, 1
        if isinstance(other, Quad):
            if other._d != self._d:
                raise DomainMismatch(
                    f"cannot mix sqrt({self._d}) and sqrt({other._d}) values"
                )
            return other._p, other._q, other._den
        return None

    def _plus(self, p: int, q: int, den: int) -> "Quad":
        return Quad._new(
            self._p * den + p * self._den,
            self._q * den + q * self._den,
            self._den * den,
            self._d,
        )

    def __add__(self, other: object) -> "Quad":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._plus(*o)

    __radd__ = __add__

    def __neg__(self) -> "Quad":
        return Quad._new(-self._p, -self._q, self._den, self._d)

    def __sub__(self, other: object) -> "Quad":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, den = o
        return self._plus(-p, -q, den)

    def __rsub__(self, other: object) -> "Quad":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "Quad":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, den = o
        return Quad._new(
            self._p * p + self._d * self._q * q,
            self._p * q + self._q * p,
            self._den * den,
            self._d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Quad":
        """Square-and-multiply on the raw numerator pairs (p, q), then one
        ``_new`` over ``den ** n``: a single reduction to lowest terms
        instead of one per product."""
        d = self._d

        def mul(x, y):
            return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        pair = _power((self._p, self._q), n, (1, 0), mul)
        if pair is NotImplemented:
            return pair
        return Quad._new(*pair, self._den**n, d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quad):
            if (self._p, self._q, self._den) != (other._p, other._q, other._den):
                return False
            return self._d == other._d or self._q == 0
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # lowest terms on both sides: compare numerator and denominator
            return (
                self._q == 0
                and other.numerator == self._p
                and other.denominator == self._den
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(self.a)
        return hash((self._p, self._q, self._den, self._d))

    def text(self) -> str:
        """Rendering like ``1/2 - 3/2*sqrt(5)``, the radical part last."""
        return _joined(_terms((self._p, self._q), self._den, f"sqrt({self._d})"))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Quad({self.a}, {self.b}, d={self._d})"


Scalar = int | Fraction | Poly | Quad


def indeterminate(var: str = "x") -> Poly:
    """The polynomial ``var`` itself, the generator of poly(var)."""
    return Poly.indeterminate(var)


def domain_of(x: Scalar) -> Domain:
    _reject_float(x)
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return INT
    if isinstance(x, Fraction):
        return RAT
    if isinstance(x, Poly):
        return Domain("poly", var=x.var)
    if isinstance(x, Quad):
        return Domain("quad", d=x.d)
    raise TypeError(f"not a scalar: {type(x).__name__}")


def join_domains(a: Domain, b: Domain) -> Domain:
    """Smallest domain both arguments promote into.

    The routes are int -> rat -> poly(var) and int -> rat -> quad(d).
    Everything else (poly vs quad, different radicands, different
    indeterminates) raises :class:`DomainMismatch`.
    """
    if a == b:
        return a
    if a.kind == "int":
        return b
    if b.kind == "int":
        return a
    if a.kind == "rat" and b.kind in ("poly", "quad"):
        return b
    if b.kind == "rat" and a.kind in ("poly", "quad"):
        return a
    raise DomainMismatch(f"cannot mix {a} and {b}")


def promote(x: Scalar, dom: Domain) -> Scalar:
    """Embed ``x`` into ``dom`` along the explicit promotion routes."""
    cur = domain_of(x)
    if cur == dom:
        return x
    if dom.kind == "rat" and cur.kind == "int":
        return Fraction(x)
    if dom.kind == "poly":
        if cur.kind in ("int", "rat"):
            return Poly((x,), dom.var)
        if cur.kind == "poly" and x.is_constant:
            return Poly(x.coeffs, dom.var)
    if dom.kind == "quad" and cur.kind in ("int", "rat"):
        return Quad(x, 0, dom.d)
    raise DomainMismatch(f"cannot promote {cur} value into {dom}")


def unify(
    values: Iterable[Scalar], domain: Domain | None = None
) -> tuple[Domain | None, tuple[Scalar, ...]]:
    """Join the domains of ``values`` (and ``domain``, if given) and
    promote every value into the result.

    Values already in the joined domain are kept as they are.  The domain
    is ``None`` only when ``values`` is empty and no ``domain`` is given.
    """
    vals = list(values)
    doms = [domain_of(v) for v in vals]
    dom = domain
    for dv in doms:
        dom = dv if dom is None else join_domains(dom, dv)
    return dom, tuple(
        [v if dv == dom else promote(v, dom) for v, dv in zip(vals, doms)]
    )


def _rational_parts(x: Scalar) -> tuple[int, int] | None:
    """``(p, q)`` with x == p/q and q > 0 for an int, a Fraction, a Quad
    with zero radical part or a constant Poly; None for an irrational
    Quad or a non-constant Poly.  Builds no Fraction."""
    if isinstance(x, Quad):
        return None if x._q else (x._p, x._den)
    if isinstance(x, Poly):
        if len(x._nums) > 1:
            return None
        return (x._nums[0] if x._nums else 0), x._den
    return x.numerator, x.denominator


def _int_columns(
    values: Sequence[Scalar], dom: Domain
) -> tuple[list[list[int]], int]:
    """Lower non-empty rat, quad(d) or poly(x) ``values`` to int columns
    over one common denominator D; returns the columns and D.

    A rat sequence is one column, a quad(d) sequence a rational-part and
    a radical-part column, a poly(x) sequence one column per coefficient
    index (at least one, so all-zero polynomials still yield rows).
    Each row is scaled once to D, skipped where its denominator is D
    already, as in every wpoly prefix, and the rows are transposed with
    ``zip_longest``, which pads short poly rows with zeros.
    ``values`` may also hold ints and Fractions that promote into ``dom``:
    each is read into the rational column as it is (the radical column
    of a quad gets a zero), so nothing is promoted first.
    :func:`_from_int_columns` builds scalars back from such columns.
    """
    if dom.kind == "rat":
        nums, den = _over_common_denominator(values)
        return [nums], den
    pad = (0,) if dom.kind == "quad" else ()
    parts = [
        v._numerators()
        if isinstance(v, (Poly, Quad))
        else ((v.numerator, *pad), v.denominator)
        for v in values
    ]
    den = math.lcm(*[d for _, d in parts])
    rows = [nums if d == den else [x * (den // d) for x in nums] for nums, d in parts]
    columns = list(map(list, zip_longest(*rows, fillvalue=0)))
    return columns or [[0] * len(rows)], den


def _from_int_columns(
    columns: Sequence[Sequence[int]], den: int, q: int, dom: Domain
) -> list:
    """The ``dom`` scalars, one per index j, whose int numerators are the
    entries j of ``columns`` (laid out as :func:`_int_columns` makes them)
    over ``den * q**j``; each is brought into lowest terms once."""
    dens = list(accumulate(repeat(q, len(columns[0]) - 1), operator.mul, initial=den))
    if dom.kind == "rat":
        return [Fraction(t, d_n) for t, d_n in zip(columns[0], dens)]
    if dom.kind == "quad":
        return [Quad._new(x, y, d_n, dom.d) for x, y, d_n in zip(*columns, dens)]
    return [Poly._new(row, d_n, dom.var) for row, d_n in zip(zip(*columns), dens)]


# Outside these sizes a rational shift runs the kernel once per int
# column.  On short prefixes the bit-length pass, the pack and the unpack
# cost more than the kernel runs they save: on quad(5) and poly(x)
# prefixes of C = 2, 3, 4, 6, 8 and 12 columns packing first wins at
# N = 24, 16, 12, 10-12, 10 and 10 (N + 1 terms), and at N = 4 it is
# 1.2-1.5x slower.  Past a slot width of about 1,500 bits the long-int
# work outweighs the interpreter work saved, since a packed entry carries
# every slot at full width from the first pass: at w = 1,767-4,011 bits
# packing took 0.96-1.49x the per-column time (quad(5) and wpoly at
# |p| = 1000 to 2^40), at w <= 1,494 bits 0.37-1.04x.  Best-of timings of
# both routes, Python 3.11, 2-vCPU VM.
_PACK_MIN_N = 10
_PACK_MIN_CN = 48
_PACK_MAX_W = 1536


def _on_ints(kernel, values: Sequence[Scalar], r: Scalar, dom: Domain) -> list:
    """``kernel(list(values), r)``, run on native ints: once, on one
    packed column, wherever that pays.

    The contract of ``kernel(t, r)``: it returns a list as long as ``t``
    whose entry n is sum_k c_nk r^(n-k) t_k, where the c_nk are ints that
    depend on neither t nor r and sum_k |c_nk| x^(n-k) <= (x + 1)^N for
    every x >= 0 and every n (N + 1 the length of t), and it computes
    that sum exactly for int t and r.  Its four callers are the
    transform's table (c_nk = C(n, k), a sum of (x + 1)^n), the EGF
    convolution and the OGF substitution (the same c_nk), and the Taylor
    shift of the root shift (|c_nk| = C(N-k, n-k) <= C(N, n-k), a sum of
    at most (x + 1)^N; at N = 2, n = 1 it is 2x + 1, above (x + 1)^n).

    ``values`` are in ``dom``, or are ints and Fractions that promote
    into it, read by :func:`_int_columns` as they are; ``r`` joins with
    ``dom``.  Write r = S/e with e > 0 an int and S an int polynomial:
    S = p and e = q for a rational r = p/q, the numerators of r over
    their denominator for a non-constant Poly.  ``values`` are lowered
    to C int columns over one common denominator D
    (:func:`_int_columns`), entry k of each scaled by e^k (skipped when
    e is 1), so that the kernel run with S gives D * e^n times output n.
    At a rational shift one column, the C columns of a short prefix
    (N < 10 or C * N < 48) and those that need a slot width w (below)
    over 1,536 bits run the kernel with p one column at a time.
    Otherwise entry k is read as the int polynomial t'_k(x) =
    sum_j col_j[k] x^j (x a formal variable for the two parts
    of a quad, the indeterminate itself for a poly) and packed
    Kronecker-style as its value at x = 2^w; the kernel runs once, with
    the int p = S(2^w).  Evaluation at 2^w is a ring map from Z[x] to Z,
    so output n is the value at 2^w of sum_k c_nk S^(n-k) t'_k, a
    polynomial of degree below C + N * deg(S) (N + 1 the number of
    values) each of whose coefficients is at most
    max|t'| * sum_k |c_nk| ||S||_1^(n-k) <= max|t'| * (||S||_1 + 1)^N in
    absolute value.  With max|t'| <= 2^b - 1 (b the largest bit length of
    an entry) the slot width

        w = bit_length((2^b - 1) * (||S||_1 + 1)^N) + 1

    keeps every output coefficient inside +-2^(w-1), and
    :func:`_unpacked` reads the C + N * deg(S) slots back.  Slots may
    overflow inside the kernel, since only the outputs must fit (the
    transform table's exact division by p^(N-n) is an integer identity).
    Every output n is built back over D * e^n, in ``dom``.  In the int
    domain everything is an int already, and an irrational Quad shift has
    no int image: there the kernel runs on the scalars, and that branch
    alone promotes ``values`` into ``dom`` (a Quad times a Fraction is
    not defined).
    """
    if dom.kind == "int":
        return kernel(list(values), r)
    ratio = _rational_parts(r)
    if ratio is not None:
        (p, e), deg = ratio, 0
        norm = abs(p)
    elif dom.kind == "poly":
        shift_nums, e = r._numerators()
        deg, norm = len(shift_nums) - 1, sum(map(abs, shift_nums))
    else:
        return kernel([promote(v, dom) for v in values], r)
    columns, den = _int_columns(values, dom)
    n = len(values) - 1
    if e != 1:
        scale = list(accumulate(repeat(e, n), operator.mul, initial=1))
        columns = [list(map(operator.mul, col, scale)) for col in columns]
    if not deg and (
        len(columns) == 1 or n < _PACK_MIN_N or len(columns) * n < _PACK_MIN_CN
    ):
        return _from_int_columns([kernel(col, p) for col in columns], den, e, dom)
    top = (1 << max(map(int.bit_length, chain.from_iterable(columns)))) - 1
    w = (top * (norm + 1) ** n).bit_length() + 1
    if deg:
        p = sum([s << (i * w) for i, s in enumerate(shift_nums)])
    elif w > _PACK_MAX_W:
        return _from_int_columns([kernel(col, p) for col in columns], den, e, dom)
    out = kernel(_packed(columns, w), p)
    return _from_int_columns(_unpacked(out, len(columns) + n * deg, w), den, e, dom)


def _packed(columns: list[list[int]], w: int) -> list[int]:
    """Entry k is sum_j columns[j][k] * 2^(j*w), for entries of any sign.

    Neighbouring columns merge pairwise, log2(C) passes for C columns:
    pass i shifts by w * 2^i, and an odd last group, never longer than
    the others, is carried up as the high end of the next pass."""
    shift = w
    while len(columns) > 1:
        merged = [
            [x + (y << shift) for x, y in zip(lo, hi)]
            for lo, hi in zip(columns[::2], columns[1::2])
        ]
        if len(columns) % 2:
            merged.append(columns[-1])
        columns = merged
        shift *= 2
    return columns[0]


def _unpacked(packed: list[int], slots: int, w: int) -> list[list[int]]:
    """The ``slots`` columns of w-bit signed slots that :func:`_packed`
    would pack into ``packed``; every slot must lie inside +-2^(w-1).

    Adding 2^(w-1) to every slot at once, before any split, makes each
    slot a w-bit unsigned field with no borrow between them, so low and
    high halves split off by masks and shifts, log2(slots) passes, and
    the bias comes off each field once it stands alone.  Two slots need
    no bias pass: the high slot is (v + 2^(w-1)) >> w."""
    half = 1 << (w - 1)
    if slots == 2:
        hi = [(v + half) >> w for v in packed]
        return [[v - (y << w) for v, y in zip(packed, hi)], hi]
    bias = half * (((1 << (slots * w)) - 1) // ((1 << w) - 1))
    return _split([v + bias for v in packed], slots, w, half)


def _split(biased: list[int], slots: int, w: int, half: int) -> list[list[int]]:
    """The ``slots`` w-bit fields of the ints ``biased``, column by
    column, each less ``half``."""
    if slots == 1:
        return [[v - half for v in biased]]
    if slots == 2:
        mask = (1 << w) - 1
        return [[(v & mask) - half for v in biased], [(v >> w) - half for v in biased]]
    low = slots // 2
    cut = low * w
    mask = (1 << cut) - 1
    return _split([v & mask for v in biased], low, w, half) + _split(
        [v >> cut for v in biased], slots - low, w, half
    )


def zero(dom: Domain) -> Scalar:
    if dom.kind == "int":
        return 0
    if dom.kind == "rat":
        return Fraction(0)
    if dom.kind == "poly":
        return Poly((), dom.var)
    return Quad(0, 0, dom.d)


def one(dom: Domain) -> Scalar:
    if dom.kind == "int":
        return 1
    if dom.kind == "rat":
        return Fraction(1)
    if dom.kind == "poly":
        return Poly((1,), dom.var)
    return Quad(1, 0, dom.d)


def scalar_inv(x: Scalar) -> Scalar:
    """Exact multiplicative inverse in a field domain (rat or quad)."""
    dom = domain_of(x)
    if dom.kind == "rat":
        if x == 0:
            raise DivisionByZero("cannot invert zero")
        return Fraction(1) / x
    if dom.kind == "quad":
        return x.inverse()
    raise NonInvertibleDomain(f"{dom} is not a field; promote to rat or quad first")


def _ratio_text(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` writes it, for ``d > 0``: ``n/d``
    in lowest terms, or the integer alone."""
    if d == 1:
        return str(n)
    g = math.gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def _term(body: str, symbol: str, k: int, star: str = "*") -> str:
    """The coefficient text ``body`` times symbol^k: ``body`` alone at
    k = 0, the power alone when ``body`` is 1, else ``body``, ``star``,
    power."""
    if not k:
        return body
    power = symbol if k == 1 else f"{symbol}^{k}"
    return power if body == "1" else f"{body}{star}{power}"


def _terms(
    nums: Sequence[int], den: int, symbol: str, star: str = "*"
) -> list[tuple[bool, str]]:
    """``(negative, body)`` per nonzero coefficient ``nums[k]/den`` of
    symbol^k, ascending: the terms of a Poly, or of a Quad in sqrt(d)."""
    return [
        (c < 0, _term(_ratio_text(abs(c), den), symbol, k, star))
        for k, c in enumerate(nums)
        if c
    ]


def _signed_text(c: Scalar) -> tuple[bool, str]:
    """``(negative, body)`` of a nonzero scalar written as a coefficient: a
    rational's magnitude; ``(compact)`` of a non-constant Poly, negated
    when its leading coefficient is negative; ``(text)`` of an irrational
    Quad."""
    ratio = _rational_parts(c)
    if ratio is not None:
        return ratio[0] < 0, _ratio_text(abs(ratio[0]), ratio[1])
    if isinstance(c, Quad):
        return False, f"({c.text()})"
    negative = c._nums[-1] < 0
    return negative, f"({(-c if negative else c).compact()})"


def _joined(terms: list[tuple[bool, str]], space: str = " ") -> str:
    """The sum of ``(negative, body)`` terms, e.g. ``a - b + c``: the first
    term carries ``-`` alone, later ones `` - `` or `` + ``, without the
    spaces when ``space`` is empty; ``0`` when there are no terms."""
    if not terms:
        return "0"
    (negative, first), rest = terms[0], terms[1:]
    signs = (f"{space}+{space}", f"{space}-{space}")
    return ("-" if negative else "") + first + "".join([signs[n] + b for n, b in rest])


def render_scalar(x: Scalar) -> str:
    """Canonical text form, parseable back by :func:`parse_scalar`."""
    dom = domain_of(x)
    if dom.kind in ("int", "rat"):
        return str(x)
    return x.text()


_RAT_RE = r"\d+(?:/\d+)?"
# Highest power of the indeterminate that parse_scalar reads; see there.
_MAX_PARSE_DEGREE = 10_000


def _parse_terms(text: str, symbol: str | None, degree: int | None = None) -> list:
    """Ascending coefficients of ``text``, a signed sum of terms ``c``,
    ``c*s`` and ``c*s^k`` in the symbol ``s`` (constants only when
    ``symbol`` is None), padded to ``degree + 1`` entries when a degree
    is given and never longer; without one, a power above
    ``_MAX_PARSE_DEGREE`` raises ``ValueError`` before any list is built.

    c is written as ``_RAT_RE``, digits or digits/digits; before s it may
    be left out (c = 1) or joined to s without ``*``.  Only the first term
    may go without a sign; ``text`` comes stripped, and whitespace may
    stand around the signs and at the end only.  Terms of the same power
    add up.
    """
    sym = "(?!)" if symbol is None else re.escape(symbol)  # (?!) never matches
    term_re = re.compile(
        rf"([+-]?)\s*(?:({_RAT_RE})(?:\*(?={sym}))?)?(?:({sym})(?:\^(\d+))?)?\s*"
    )
    top = _MAX_PARSE_DEGREE if degree is None else degree
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text) or not coeffs:
        m = term_re.match(text, pos)
        sign, c, s, k = m.groups()
        if not (c or s) or (pos and not sign):
            raise ValueError(f"cannot parse term {text[pos:]!r} of {text!r}")
        power = (int(k) if k else 1) if s else 0
        if power > top:
            raise ValueError(f"power {power} of {symbol} above {top} in {text!r}")
        try:
            value = Fraction(c) if c else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"cannot parse rational {c!r}") from None
        coeffs[power] = coeffs.get(power, 0) + (-value if sign == "-" else value)
        pos = m.end()
    size = max(coeffs) + 1 if degree is None else degree + 1
    return [coeffs.get(k, Fraction(0)) for k in range(size)]


def parse_scalar(text: str, dom: Domain) -> Scalar:
    """Parse the text form of a scalar in ``dom``: a sum of terms
    (:func:`_parse_terms`) in no symbol (int and rat, the int domain
    rejecting a value that is not an integer), the indeterminate (poly)
    or ``sqrt(d)`` (quad).

    A poly text may name powers up to ``_MAX_PARSE_DEGREE`` = 10,000; a
    higher one raises ``ValueError`` before the dense coefficient list is
    built, so a short text cannot ask for millions of coefficients.  The
    cap is far above the degrees that CLI output renders to: at most 149,
    term 150 of wpoly (``cli.MAX_POLY_INDEX``).
    """
    text = text.strip()
    if dom.kind in ("int", "rat"):
        value = _parse_terms(text, None, 0)[0]
        if dom.kind == "rat":
            return value
        if value.denominator != 1:
            raise ValueError(f"cannot parse integer {text!r}")
        return value.numerator
    if dom.kind == "poly":
        return Poly(_parse_terms(text, dom.var), dom.var)
    return Quad(*_parse_terms(text, f"sqrt({dom.d})", 1), dom.d)
