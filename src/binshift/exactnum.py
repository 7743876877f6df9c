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

Values are validated once, by the public constructors (``Poly(...)``,
``Quad(...)``, :func:`poly_domain`, :func:`quad_domain`) and by
:func:`promote`, which calls them.  Results of arithmetic on valid values
are built by the unchecked ``_new`` constructors and skip validation: their
components are already Fractions and their radicand or indeterminate name
comes from a validated operand.  :func:`unify` is the one place that joins
the domains of a collection of values and promotes each into the result.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _power(base, n, unit):
    """``base ** n`` by square-and-multiply, starting from ``unit``."""
    if not isinstance(n, int) or isinstance(n, bool):
        return NotImplemented
    if n < 0:
        raise ValueError("negative power; use scalar_inv to invert a field element")
    result = unit
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


@functools.lru_cache(maxsize=256)
def is_squarefree(n: int) -> bool:
    """True if no square larger than 1 divides ``n`` (sign ignored).

    Zero is not squarefree.  Trial division takes O(sqrt(n)) steps, about
    10^6 for a prime near 10^12, so the result is cached per radicand:
    every ``Quad(...)`` checks its radicand, and a computation uses few.
    """
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


@dataclass(frozen=True)
class Domain:
    """Tag naming one of the four coefficient domains.

    ``d`` is the radicand of a quadratic field, ``var`` the indeterminate
    of a polynomial domain; both are ``None`` elsewhere.
    """

    kind: str
    d: int | None = None
    var: str | None = None

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

    Coefficients are stored in ascending order with trailing zeros
    stripped, so equal polynomials have identical coefficient tuples.  The
    zero polynomial has an empty tuple and degree -1.  Every polynomial
    remembers its indeterminate name; constants compare equal regardless
    of the name, but two non-constant polynomials in different
    indeterminates never mix.

    Arithmetic accepts ``int`` on either side (the canonical integer
    action); rationals must be promoted explicitly.
    """

    __slots__ = ("_coeffs", "_var")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), var: str = "x"):
        poly_domain(var)
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._var = var

    @classmethod
    def _new(cls, coeffs: Iterable[Fraction], var: str) -> "Poly":
        """Unchecked constructor for arithmetic results: ``coeffs`` are
        Fractions without trailing zeros and ``var`` is a valid name."""
        self = object.__new__(cls)
        self._coeffs = tuple(coeffs)
        self._var = var
        return self

    @classmethod
    def indeterminate(cls, var: str = "x") -> "Poly":
        return cls((0, 1), var)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def var(self) -> str:
        return self._var

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self.text()} is not a constant")
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
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
        if isinstance(other, int) and not isinstance(other, bool):
            other = Poly._new((Fraction(other),), self._var)
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._merged_var(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        while out and out[-1] == 0:
            out.pop()
        return Poly._new(out, var)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._new([-c for c in self._coeffs], self._var)

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
            if other == 0:
                return Poly._new((), self._var)
            return Poly._new([c * other for c in self._coeffs], self._var)
        if not isinstance(other, Poly):
            return NotImplemented
        var = self._merged_var(other)
        if self.is_zero or other.is_zero:
            return Poly._new((), var)
        a, b = self._coeffs, other._coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly._new(out, var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly._new((Fraction(1),), self._var))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            if self._coeffs != other._coeffs:
                return False
            return len(self._coeffs) <= 1 or self._var == other._var
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like their rational value so that x == y implies
        # hash(x) == hash(y) across domains.
        if self.is_constant:
            return hash(self.constant_value())
        return hash(self._coeffs)

    def text(self) -> str:
        """Canonical ascending rendering, e.g. ``1 + 2*x - x^3``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{self._var}" if k == 1 else f"{head}{self._var}^{k}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def compact(self) -> str:
        """Descending space-free rendering, e.g. ``r^2+r-1``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k] if k < len(self._coeffs) else Fraction(0)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{self._var}" if k == 1 else f"{head}{self._var}^{k}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"-{body}" if c < 0 else f"+{body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly({self.text()!r}, var={self._var!r})"


class Quad:
    """Element a + b*sqrt(d) of a quadratic extension of the rationals.

    ``d`` must be a squarefree integer other than 0 and 1 (negative values
    are allowed).  Componentwise equality; values with zero radical part
    also compare equal to the matching rational.  Arithmetic accepts
    ``int`` on either side; everything else needs explicit promotion, and
    two different radicands never mix.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int):
        quad_domain(d)
        self._a = _as_fraction(a)
        self._b = _as_fraction(b)
        self._d = d

    @classmethod
    def _new(cls, a: Fraction, b: Fraction, d: int) -> "Quad":
        """Unchecked constructor for arithmetic results: ``a`` and ``b``
        are Fractions and ``d`` is a valid radicand."""
        self = object.__new__(cls)
        self._a = a
        self._b = b
        self._d = d
        return self

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def rational_value(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self.text()} has a nonzero radical part")
        return self._a

    def conjugate(self) -> "Quad":
        return Quad._new(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2; zero only for the zero element."""
        return self._a * self._a - self._d * self._b * self._b

    def inverse(self) -> "Quad":
        if self._a == 0 and self._b == 0:
            raise DivisionByZero("cannot invert zero")
        n = self.norm()
        return Quad._new(self._a / n, -self._b / n, self._d)

    def _coerced(self, other: object) -> "Quad | None":
        if isinstance(other, int) and not isinstance(other, bool):
            return Quad._new(Fraction(other), Fraction(0), self._d)
        if isinstance(other, Quad):
            if other._d != self._d:
                raise DomainMismatch(
                    f"cannot mix sqrt({self._d}) and sqrt({other._d}) values"
                )
            return other
        return None

    def __add__(self, other: object) -> "Quad":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Quad._new(self._a + o._a, self._b + o._b, self._d)

    __radd__ = __add__

    def __neg__(self) -> "Quad":
        return Quad._new(-self._a, -self._b, self._d)

    def __sub__(self, other: object) -> "Quad":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Quad._new(self._a - o._a, self._b - o._b, self._d)

    def __rsub__(self, other: object) -> "Quad":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Quad._new(o._a - self._a, o._b - self._b, self._d)

    def __mul__(self, other: object) -> "Quad":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Quad._new(
            self._a * o._a + self._d * self._b * o._b,
            self._a * o._b + self._b * o._a,
            self._d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Quad":
        return _power(self, n, Quad._new(Fraction(1), Fraction(0), self._d))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quad):
            if self._d == other._d:
                return self._a == other._a and self._b == other._b
            return self._b == 0 == other._b and self._a == other._a
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def text(self) -> str:
        if self._b == 0:
            return str(self._a)
        mag = abs(self._b)
        radical = f"sqrt({self._d})" if mag == 1 else f"{mag}*sqrt({self._d})"
        sign = "-" if self._b < 0 else ""
        if self._a == 0:
            return f"{sign}{radical}"
        joiner = " - " if self._b < 0 else " + "
        return f"{self._a}{joiner}{radical}"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Quad({self._a}, {self._b}, d={self._d})"


Scalar = Union[int, Fraction, Poly, Quad]


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
        v if dv == dom else promote(v, dom) for v, dv in zip(vals, doms)
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


def render_scalar(x: Scalar) -> str:
    """Canonical text form, parseable back by :func:`parse_scalar`."""
    dom = domain_of(x)
    if dom.kind in ("int", "rat"):
        return str(x)
    return x.text()


def _split_signed_terms(s: str) -> list[str]:
    """Split on top-level + and -, keeping signs attached to terms."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty scalar text")
    terms: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    return [t for t in terms if t not in ("", "+")]


_RAT_RE = r"\d+(?:/\d+)?"


def _parse_poly(text: str, var: str) -> Poly:
    term_re = re.compile(
        rf"^([+-]?)({_RAT_RE})?(?:\*?{re.escape(var)}(?:\^(\d+))?)?$"
    )
    coeffs: dict[int, Fraction] = {}
    saw_term = False
    for term in _split_signed_terms(text):
        m = term_re.match(term)
        if not m or (m.group(2) is None and var not in term):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if var in term:
            power = int(m.group(3)) if m.group(3) else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
        saw_term = True
    if not saw_term:
        raise ValueError(f"cannot parse polynomial {text!r}")
    size = max(coeffs) + 1 if coeffs else 0
    dense = [coeffs.get(k, Fraction(0)) for k in range(size)]
    return Poly(dense, var)


def _parse_quad(text: str, d: int) -> Quad:
    radical_re = re.compile(rf"^([+-]?)({_RAT_RE})?\*?sqrt\((-?\d+)\)$")
    rational_re = re.compile(rf"^([+-]?{_RAT_RE})$")
    a = Fraction(0)
    b = Fraction(0)
    for term in _split_signed_terms(text):
        m = radical_re.match(term)
        if m:
            if int(m.group(3)) != d:
                raise ValueError(f"radicand {m.group(3)} does not match sqrt({d})")
            sign = -1 if m.group(1) == "-" else 1
            b += sign * (Fraction(m.group(2)) if m.group(2) else Fraction(1))
            continue
        m = rational_re.match(term)
        if m:
            a += Fraction(m.group(1))
            continue
        raise ValueError(f"cannot parse quadratic term {term!r}")
    return Quad(a, b, d)


def parse_scalar(text: str, dom: Domain) -> Scalar:
    """Parse the canonical text form of a scalar in the given domain."""
    text = text.strip()
    if dom.kind == "int":
        try:
            return int(text, 10)
        except ValueError:
            raise ValueError(f"cannot parse integer {text!r}") from None
    if dom.kind == "rat":
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse rational {text!r}") from None
    if dom.kind == "poly":
        return _parse_poly(text, dom.var)
    return _parse_quad(text, dom.d)
