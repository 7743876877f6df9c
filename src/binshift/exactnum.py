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

``Poly`` and ``Quad`` share one core, ``_IntNumerators``: int numerators
of the powers of a symbol s, ascending and without trailing zeros, over
one positive common denominator, in lowest terms.  s is the indeterminate
of a Poly and sqrt(d) of a Quad, whose products reduce s^2 to d; a value
is rational exactly when it has at most one numerator.  Arithmetic runs
on native ints and builds no Fraction; the Fractions the accessors
return are built when read.

Values are validated once, by the public constructors (``Poly(...)``,
``Quad(...)``, :func:`poly_domain`, :func:`quad_domain`) and by
:func:`promote`, which calls them.  Results of arithmetic on valid values
are built by the unchecked ``_new`` constructor and skip validation:
their components are ints computed from validated operands, and their
radicand or indeterminate name comes from a validated operand.  ``_new``
is the one place that brings a result into lowest terms.  :func:`unify` is
the one place that joins the domains of a collection of values and
promotes each into the result; containers built from values already
computed in one joined domain skip it through their unchecked ``_of``.

The transform, the root shift, the EGF and the OGF views run their
kernel through ``_on_ints``, on one native-int column.  For a shift
r = S/e, S the int polynomial of the numerators of r and e their
denominator (a rational p/q is the degree-0 case, S = p and e = q), a
sequence of rat, quad or poly values is lowered to int columns over
one common denominator with ``_int_columns``; ints and Fractions among
them are read into the rational column as they are, so callers hand
over their inputs without promoting them into the target domain.
Several columns (the two parts of a quad, the coefficients of a poly,
or the output degree a Poly shift adds) are packed Kronecker-style into
w-bit slots of one int column, the kernel runs once with S(2^w), and
the slots are read back; at a rational shift, short prefixes and very
wide slots keep one run per column.
Every result is built once with ``_from_int_columns`` over ``D * e**j``,
by one row comprehension for quad and poly values.  A quad prefix of
rational values lowers to one column, as a rat prefix does.
``_numerators`` is the one reader, outside ``Poly`` and ``Quad``, of the
int numerators and the denominator of a scalar, and ``_rational_parts``
reads p and q off a rational-valued scalar through it.  Only the int
domain and an irrational Quad shift run the kernel on the scalars, and
the latter is the one branch that promotes the values first.
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


def _power(base, n, unit, mul):
    """``base ** n`` by square-and-multiply with ``mul``: ``unit`` at
    n = 0, else never a product by ``unit``, and the last, largest
    square is never formed."""
    if not isinstance(n, int) or isinstance(n, bool):
        return NotImplemented
    if n < 0:
        raise ValueError("negative power; use scalar_inv to invert a field element")
    if not n:
        return unit
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    result = base
    while n := n >> 1:
        base = mul(base, base)
        if n & 1:
            result = mul(result, base)
    return result


# Largest |radicand| that is_squarefree accepts.  Its search runs to the
# cube root, so a prime just below a power of ten is the slowest input
# there: 0.001 s at 10^12, 0.011 s at 10^15, 0.10 s at 10^18, 0.33 s at
# 10^20 and 0.78 s at 10^21 (best of 3, Python 3.11, 2-vCPU VM).  The
# cap keeps the worst case near what the square-root search took at 10^12.
_MAX_RADICAND = 10**18


@functools.lru_cache(maxsize=256)
def is_squarefree(n: int) -> bool:
    """True if no square larger than 1 divides ``n`` (sign ignored).

    Zero is not squarefree, and ``|n|`` above ``_MAX_RADICAND`` = 10^18
    raises ``ValueError``.  Every prime factor f with f^3 <= m, m what is
    left of ``|n|``, is divided out, and a second f means a square.  The
    cofactor m then has no prime factor below its cube root, so it is 1,
    a prime, p*q or p^2: squarefree exactly when it is 1 or not a perfect
    square.  At most about 5*10^5 trial divisors, near the cap; the
    result is cached per radicand, since every ``Quad(...)`` checks its
    radicand and a computation uses few.
    """
    m = abs(n)
    if m > _MAX_RADICAND:
        raise ValueError("radicand above the cap: |d| <= 10^18")
    if m == 0:
        return False
    f, step = 2, 1  # f runs 2, 3, 5, 7, 9, ...
    while f * f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f, step = f + step, 2
    root = math.isqrt(m)
    return m == 1 or root * root != m


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


class _IntNumerators:
    """Int numerators over one denominator: the core shared by Poly and Quad.

    A value is sum_k ``_nums[k]`` * s^k / ``_den`` in a symbol s that
    ``_tag`` names: the indeterminate of a Poly, sqrt(d) of a Quad whose
    radicand is the tag.  ``_nums`` is a tuple of ints, ascending, with
    no trailing zeros, sharing no factor with ``_den > 0``; so equal
    values have identical numerators and denominators, and a value is
    rational exactly when it has at most one numerator.  Rational values
    compare and hash like their Fraction, whatever the tag.

    Each subclass supplies ``_join_tag`` (the tag of a result, or
    :class:`DomainMismatch`), ``_symbol`` (the s its text writes) and, if
    s^2 reduces, ``_times``.  Operands are tested with
    ``isinstance(other, type(self))``, so a Poly and a Quad never mix.
    Arithmetic accepts ``int`` on either side; rationals must be promoted
    explicitly.
    """

    __slots__ = ("_nums", "_den", "_tag")

    def _store(self, values: Iterable[int | Fraction], tag: str | int) -> None:
        nums, den = _over_common_denominator([_as_fraction(v) for v in values])
        self._nums, self._den = _lowest(_stripped(nums), den)
        self._tag = tag

    @classmethod
    def _new(cls, nums: Sequence[int], den: int, tag: str | int):
        """Unchecked constructor for arithmetic results: int ``nums`` over
        the int ``den > 0``, and ``tag`` a valid one.  Strips trailing
        zeros and reduces to lowest terms."""
        if nums and not nums[-1]:
            nums = _stripped(nums)
        self = object.__new__(cls)
        self._nums, self._den = _lowest(nums, den)
        self._tag = tag
        return self

    def _times(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """The product of raw numerator tuples: their convolution."""
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return out

    def __add__(self, other: object, sign: int = 1):
        """``self + sign * other``; :meth:`__sub__` passes ``sign = -1``."""
        a, den = self._nums, self._den
        if isinstance(other, type(self)):
            tag = self._tag if self._tag == other._tag else self._join_tag(other)
            b, b_den = other._nums, other._den
        elif isinstance(other, int) and not isinstance(other, bool):
            tag, b, b_den = self._tag, (other * den,), den
        else:
            return NotImplemented
        if b_den == den:
            nums, scale = list(a), sign
        else:
            nums, scale, den = [c * b_den for c in a], sign * den, den * b_den
        nums += [0] * (len(b) - len(nums))
        for k, c in enumerate(b):
            nums[k] += c * scale
        return self._new(nums, den, tag)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self._nums], self._den, self._tag)

    def __sub__(self, other: object):
        return self.__add__(other, -1)

    def __rsub__(self, other: object):
        return (-self).__add__(other)

    def __mul__(self, other: object):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._new([c * other for c in self._nums], self._den, self._tag)
        if not isinstance(other, type(self)):
            return NotImplemented
        tag = self._tag if self._tag == other._tag else self._join_tag(other)
        nums = self._times(self._nums, other._nums)
        return self._new(nums, self._den * other._den, tag)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Square-and-multiply on the raw numerators, then one ``_new``
        over ``den ** n``: a single reduction to lowest terms instead of
        one per product."""
        nums = _power(self._nums, n, (1,), self._times)
        if nums is NotImplemented:
            return nums
        return self._new(nums, self._den**n, self._tag)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            if self._nums != other._nums or self._den != other._den:
                return False
            return len(self._nums) <= 1 or self._tag == other._tag
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # lowest terms on both sides: compare numerator and denominator
            return _rational_parts(self) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # Rational values hash like their Fraction so that x == y implies
        # hash(x) == hash(y) across domains; an irrational value hashes
        # without its tag, which equal values share.
        ratio = _rational_parts(self)
        if ratio is None:
            return hash((self._nums, self._den))
        return hash(Fraction(*ratio))

    def text(self) -> str:
        """Ascending rendering in the symbol, e.g. ``1 + 2*x - x^3`` or
        ``1/2 - 3/2*sqrt(5)``."""
        return _joined(_terms(self._nums, self._den, self._symbol()))

    def __str__(self) -> str:
        return self.text()


class Poly(_IntNumerators):
    """Dense univariate polynomial with rational coefficients.

    Stored as :class:`_IntNumerators` in the indeterminate ``var``: the
    zero polynomial is ``()`` over 1 and has degree -1.  ``coeffs``,
    :meth:`coefficient` and :meth:`constant_value` build their Fractions
    when read.  Constants compare equal regardless of the name, but two
    non-constant polynomials in different indeterminates never mix.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int | Fraction] = (), var: str = "x"):
        poly_domain(var)
        self._store(coeffs, var)

    @classmethod
    def indeterminate(cls, var: str = "x") -> "Poly":
        return cls((0, 1), var)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self._den) for c in self._nums])

    @property
    def var(self) -> str:
        return self._tag

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

    def _join_tag(self, other: "Poly") -> str:
        if self.is_constant:
            return other._tag
        if other.is_constant:
            return self._tag
        if self._tag != other._tag:
            raise DomainMismatch(
                f"cannot mix polynomials in {self._tag!r} and {other._tag!r}"
            )
        return self._tag

    def _symbol(self) -> str:
        return self._tag

    def compact(self) -> str:
        """Descending space-free rendering, e.g. ``r^2+r-1``."""
        return _joined(_terms(self._nums, self._den, self._tag, "")[::-1], "")

    def __repr__(self) -> str:
        return f"Poly({self.text()!r}, var={self._tag!r})"


class Quad(_IntNumerators):
    """Element a + b*sqrt(d) of a quadratic extension of the rationals.

    ``d`` must be a squarefree integer other than 0 and 1 (negative values
    are allowed).  Stored as :class:`_IntNumerators` in t = sqrt(d),
    products reduced by t^2 = d: numerators ``(p, q)``, or fewer once the
    trailing zeros are stripped, meaning (p + q*sqrt(d))/den.  ``a`` and
    ``b`` build their Fractions when read.  Values with zero radical part
    compare equal to the matching rational whatever their radicand, but
    two different radicands never mix in arithmetic.
    """

    __slots__ = ()

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int):
        quad_domain(d)
        self._store((a, b), d)

    def _pair(self) -> tuple[int, int]:
        """The numerators ``(p, q)``, zeros included."""
        return (self._nums + (0, 0))[:2]

    @property
    def a(self) -> Fraction:
        return Fraction(self._pair()[0], self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._pair()[1], self._den)

    @property
    def d(self) -> int:
        return self._tag

    @property
    def is_rational(self) -> bool:
        return len(self._nums) <= 1

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self.text()} has a nonzero radical part")
        return self.a

    def conjugate(self) -> "Quad":
        p, q = self._pair()
        return self._new((p, -q), self._den, self._tag)

    def _norm_numerator(self) -> int:
        p, q = self._pair()
        return p * p - self._tag * q * q

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2; zero only for the zero element."""
        return Fraction(self._norm_numerator(), self._den * self._den)

    def inverse(self) -> "Quad":
        if not self._nums:
            raise DivisionByZero("cannot invert zero")
        # den/(p + q*sqrt(d)) = den*(p - q*sqrt(d))/n; keep the new
        # denominator |n| positive by moving the sign of n upstairs
        p, q = self._pair()
        n = self._norm_numerator()
        s = self._den if n > 0 else -self._den
        return self._new((s * p, -s * q), abs(n), self._tag)

    def _join_tag(self, other: "Quad") -> int:
        if self._tag != other._tag:
            raise DomainMismatch(
                f"cannot mix sqrt({self._tag}) and sqrt({other._tag}) values"
            )
        return self._tag

    def _symbol(self) -> str:
        return f"sqrt({self._tag})"

    def _times(self, x: Sequence[int], y: Sequence[int]) -> Sequence[int]:
        """(a + b*t)(c + e*t) with t^2 = d; the convolution when a factor
        has fewer than two numerators, where nothing needs reducing."""
        if len(x) < 2 or len(y) < 2:
            return _IntNumerators._times(self, x, y)
        (a, b), (c, e) = x, y
        return a * c + self._tag * b * e, a * e + b * c

    def __repr__(self) -> str:
        return f"Quad({self.a}, {self.b}, d={self._tag})"


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


def _numerators(x: Scalar) -> tuple[tuple[int, ...], int]:
    """The int numerators of ``x`` in ascending powers of its symbol, with
    no trailing zeros (``()`` for zero), and their positive common
    denominator: the stored ones of a Quad or Poly, and ``(p,)`` over q
    for an int or a Fraction p/q.  Builds no Fraction."""
    if isinstance(x, _IntNumerators):
        return x._nums, x._den
    return ((x.numerator,) if x else ()), x.denominator


def _rational_parts(x: Scalar) -> tuple[int, int] | None:
    """``(p, q)`` with x == p/q and q > 0 for an int, a Fraction, a Quad
    with zero radical part or a constant Poly; None for an irrational
    Quad or a non-constant Poly.  Read off :func:`_numerators`."""
    nums, den = _numerators(x)
    if len(nums) > 1:
        return None
    return (nums[0] if nums else 0), den


def _int_columns(
    values: Sequence[Scalar], dom: Domain
) -> tuple[list[list[int]], int]:
    """Lower non-empty rat, quad(d) or poly(x) ``values`` to int columns
    over one common denominator D; returns the columns and D.

    A row is what :func:`_numerators` reads off a value: the stored
    numerators of a Quad or Poly, or those of an int or a Fraction that
    promotes into ``dom``, so nothing is promoted first.  Column j holds
    the numerators of s^j, s the indeterminate or sqrt(d): one column per
    coefficient index up to the longest row, and at least one, so a
    prefix of zeros still yields rows.  A quad(d) prefix has a radical
    column only when some value has a radical part; a rational one is a
    single column, as a rat sequence is.  Each row is scaled once to D,
    skipped where its denominator is D already, as in every wpoly
    prefix, and the rows are transposed with ``zip_longest``, which pads
    short rows with zeros.  :func:`_from_int_columns` builds scalars
    back from such columns.
    """
    if dom.kind == "rat":
        nums, den = _over_common_denominator(values)
        return [nums], den
    parts = [_numerators(v) for v in values]
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
    cls, tag = (Quad, dom.d) if dom.kind == "quad" else (Poly, dom.var)
    return [cls._new(row, d_n, tag) for row, d_n in zip(zip(*columns), dens)]


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

    ``kernel`` meets the contract in the ``_kernels`` docstring: entry n
    is sum_k c_nk r^(n-k) t_k, with sum_k |c_nk| x^(n-k) <= (x + 1)^N.

    ``values`` are in ``dom``, or are ints and Fractions that promote
    into it, read by :func:`_int_columns` as they are; ``r`` joins with
    ``dom``.  Write r = S/e, S the int polynomial of the numerators that
    :func:`_numerators` reads off r and e > 0 their denominator.  A
    rational r = p/q is the degree-0 case, S = p (0 at a zero shift) and
    e = q, so it takes the route of a Poly shift with one reading of r,
    one norm ||S||_1 and one packed p = S(2^w).  ``values`` are lowered
    to C int columns over one common denominator D
    (:func:`_int_columns`), entry k of each scaled by e^k (skipped when
    e is 1), so that the kernel run with S gives D * e^n times output n.
    At a rational shift one column (a rat prefix, or a quad prefix with
    no radical part), the C columns of a short prefix (N < 10 or
    C * N < 48) and those that need a slot width w (below) over 1,536
    bits run the kernel with p one column at a time.
    Otherwise entry k is read as the int polynomial t'_k(x) =
    sum_j col_j[k] x^j (x a formal variable standing for sqrt(d) in a
    quad, the indeterminate itself for a poly) and packed
    Kronecker-style as its value at x = 2^w; the kernel runs once, with
    the int p = S(2^w), which is p itself at degree 0.  Evaluation at
    2^w is a ring map from Z[x] to Z, so output n is the value at 2^w of
    sum_k c_nk S^(n-k) t'_k, a polynomial of degree below C + N * deg(S)
    (N + 1 the number of values) each of whose coefficients is at most
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
    shift, e = _numerators(r)
    deg = max(len(shift) - 1, 0)
    if deg and dom.kind == "quad":
        return kernel([promote(v, dom) for v in values], r)
    p = shift[0] if shift else 0
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
    w = (top * (sum(map(abs, shift)) + 1) ** n).bit_length() + 1
    if not deg and w > _PACK_MAX_W:
        return _from_int_columns([kernel(col, p) for col in columns], den, e, dom)
    p = sum([s << (i * w) for i, s in enumerate(shift)])  # S(2^w)
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
    return promote(0, dom)


def one(dom: Domain) -> Scalar:
    return promote(1, dom)


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
    domain_of(x)  # rejects a float, a bool or a non-scalar
    return str(x)


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
