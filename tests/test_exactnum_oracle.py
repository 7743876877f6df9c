"""Poly and Quad against reference classes with Fraction components.

``FracPoly`` and ``FracQuad`` keep every coefficient as a Fraction, the
representation binshift used before it stored int numerators over one
denominator.  Their arithmetic is the schoolbook form on Fractions, and
powers are repeated products, so they share no code with the library.
Every operator of the library classes must give the value, the text and
the exception the reference gives.  ``CharPoly.text`` is checked against
``charpoly_text``, its one-branch-per-coefficient-kind form on the
reference classes.
"""

from fractions import Fraction

from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from binshift.errors import DivisionByZero, DomainMismatch
from binshift.exactnum import Poly, Quad, render_scalar
from binshift.recurrence import CharPoly

from exact_strategies import char_coefficients_st


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


class FracPoly:
    """Dense polynomial with a tuple of Fraction coefficients, ascending,
    trailing zeros stripped."""

    def __init__(self, coeffs, var):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_value(self):
        return self.coefficient(0)

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _merged_var(self, other):
        if self.is_constant:
            return other.var
        if other.is_constant:
            return self.var
        if self.var != other.var:
            raise DomainMismatch("different indeterminates")
        return self.var

    def __add__(self, other):
        if _is_int(other):
            other = FracPoly((other,), self.var)
        if not isinstance(other, FracPoly):
            return NotImplemented
        var = self._merged_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return FracPoly(out, var)

    __radd__ = __add__

    def __neg__(self):
        return FracPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if isinstance(other, FracPoly) or _is_int(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_int(other):
            return FracPoly([c * other for c in self.coeffs], self.var)
        if not isinstance(other, FracPoly):
            return NotImplemented
        var = self._merged_var(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FracPoly((), var)
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FracPoly(out, var)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = FracPoly((1,), self.var)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, FracPoly):
            if self.coeffs != other.coeffs:
                return False
            return self.is_constant or self.var == other.var
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{self.var}" if k == 1 else f"{head}{self.var}^{k}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def compact(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{self.var}" if k == 1 else f"{head}{self.var}^{k}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"-{body}" if c < 0 else f"+{body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.text()!r}, var={self.var!r})"


class FracQuad:
    """a + b*sqrt(d) with Fraction components a and b."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def conjugate(self):
        return FracQuad(self.a, -self.b, self.d)

    def norm(self):
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self):
        if self.a == 0 and self.b == 0:
            raise DivisionByZero("cannot invert zero")
        n = self.norm()
        return FracQuad(self.a / n, -self.b / n, self.d)

    def _coerced(self, other):
        if _is_int(other):
            return FracQuad(other, 0, self.d)
        if isinstance(other, FracQuad):
            if other.d != self.d:
                raise DomainMismatch("different radicands")
            return other
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FracQuad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return FracQuad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FracQuad(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FracQuad(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FracQuad(
            self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        result = FracQuad(1, 0, self.d)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, FracQuad):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 == other.b and self.a == other.a
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def text(self):
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        radical = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        sign = "-" if self.b < 0 else ""
        if self.a == 0:
            return f"{sign}{radical}"
        joiner = " - " if self.b < 0 else " + "
        return f"{self.a}{joiner}{radical}"

    def __repr__(self):
        return f"Quad({self.a}, {self.b}, d={self.d})"


# A value spec names how to build one value on both sides:
# ("int", n), ("rat", q), ("quad", d, a, b) or ("poly", var, coeffs).
def build(spec, quad_cls, poly_cls):
    if spec[0] in ("int", "rat"):
        return spec[1]
    if spec[0] == "quad":
        _, d, a, b = spec
        return quad_cls(a, b, d)
    _, var, coeffs = spec
    return poly_cls(coeffs, var)


fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
FAMILIES = ("int", "rat", "quad5", "quad-3", "quad999983", "poly")
RADICANDS = {"quad5": 5, "quad-3": -3, "quad999983": 999983}


@st.composite
def spec_st(draw, family):
    # ints and rationals mix into every family; the family's own values
    # come three times as often
    kind = draw(st.sampled_from(("int", "rat", family, family, family)))
    if kind == "int":
        return ("int", draw(st.integers(-30, 30)))
    if kind == "rat":
        return ("rat", draw(fractions_st))
    if kind == "poly":
        var = draw(st.sampled_from(("x", "x", "r")))
        return ("poly", var, tuple(draw(st.lists(fractions_st, max_size=5))))
    return ("quad", RADICANDS[kind], draw(fractions_st), draw(fractions_st))


@st.composite
def pair_st(draw):
    family = draw(st.sampled_from(FAMILIES))
    return draw(spec_st(family)), draw(spec_st(family))


def outcome(fn, *args):
    """The value ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, DivisionByZero, DomainMismatch, TypeError) as exc:
        return type(exc)


def rational_of(o):
    """The rational value of a reference constant, else None."""
    if isinstance(o, FracQuad):
        return o.a if o.b == 0 else None
    if isinstance(o, FracPoly):
        return o.constant_value() if o.is_constant else None
    return o


def assert_same(v, o):
    """Library value ``v`` equals reference value ``o``: same components,
    all read back as Fractions, same text, same repr, canonical form."""
    if isinstance(o, type) or isinstance(v, type):
        assert v is o
        return
    if isinstance(o, FracQuad):
        assert type(v) is Quad and v.d == o.d
        assert type(v.a) is Fraction and type(v.b) is Fraction
        assert (v.a, v.b) == (o.a, o.b)
        assert v.is_rational == (o.b == 0)
        assert Quad(v.a, v.b, v.d) == v
        assert render_scalar(v) == o.text()
    elif isinstance(o, FracPoly):
        assert type(v) is Poly and v.var == o.var
        assert v.coeffs == o.coeffs
        assert all(type(c) is Fraction for c in v.coeffs)
        for j in range(-1, len(o.coeffs) + 2):
            assert type(v.coefficient(j)) is Fraction
            assert v.coefficient(j) == o.coefficient(j)
        if o.is_constant:
            assert type(v.constant_value()) is Fraction
            assert v.constant_value() == o.constant_value()
        assert Poly(v.coeffs, v.var) == v
        assert render_scalar(v) == o.text()
        assert v.compact() == o.compact()
    else:
        assert type(v) is type(o) and v == o
        assert render_scalar(v) == str(o)
    assert repr(v) == repr(o)
    value = rational_of(o)
    if value is not None:
        assert v == value and hash(v) == hash(value)


BINARY = {
    "x + y": lambda x, y: x + y,
    "x - y": lambda x, y: x - y,
    "x * y": lambda x, y: x * y,
}
WITH_INT = {
    "-x": lambda x, n, k: -x,
    "x ** k": lambda x, n, k: x**k,
    "n + x": lambda x, n, k: n + x,
    "x + n": lambda x, n, k: x + n,
    "n - x": lambda x, n, k: n - x,
    "x - n": lambda x, n, k: x - n,
    "n * x": lambda x, n, k: n * x,
    "x * n": lambda x, n, k: x * n,
    "x * 0": lambda x, n, k: x * 0,
}
QUAD_ONLY = {
    "inverse": lambda x: x.inverse(),
    "conjugate": lambda x: x.conjugate(),
    "norm": lambda x: x.norm(),
}

PHI = ("quad", 5, Fraction(1, 2), Fraction(1, 2))


class TestAgainstFractionReference:
    @settings(max_examples=400, deadline=None)
    @given(pair_st(), st.integers(-20, 20), st.integers(0, 6))
    # an inverse with negative norm: phi has norm -1
    @example((PHI, PHI), 2, 3)
    @example((("quad", -3, 0, 1), ("quad", -3, Fraction(-1, 2), Fraction(3, 2))), 1, 2)
    # the Gaussian rationals, d = -1: i * i = -1
    @example((("quad", -1, 0, 1), ("quad", -1, Fraction(1, 2), -1)), 1, 2)
    # sums that cancel to zero
    @example((("quad", 5, Fraction(1, 2), Fraction(-1, 3)),
              ("quad", 5, Fraction(-1, 2), Fraction(1, 3))), 0, 0)
    @example((("poly", "x", (1, Fraction(1, 2))), ("poly", "x", (-1, Fraction(-1, 2)))), 0, 1)
    # coefficients that cancel into trailing zeros
    @example((("poly", "x", (1, 2, Fraction(1, 3))), ("poly", "x", (0, 1, Fraction(-1, 3)))), 3, 2)
    # results whose denominator reduces to 1
    @example((("quad", 999983, Fraction(1, 6), Fraction(5, 6)),
              ("quad", 999983, Fraction(5, 6), Fraction(-5, 6))), 6, 2)
    @example((("poly", "x", (Fraction(1, 2), Fraction(1, 3))), ("rat", Fraction(1, 6))), 6, 1)
    # equal numerators over different denominators
    @example((("quad", -3, Fraction(1, 2), Fraction(1, 2)),
              ("quad", -3, Fraction(1, 3), Fraction(1, 3))), 1, 1)
    @example((("poly", "x", (Fraction(1, 2), Fraction(1, 2))),
              ("poly", "x", (Fraction(1, 3), Fraction(1, 3)))), 1, 1)
    # constants in different indeterminates
    @example((("poly", "x", (3,)), ("poly", "r", (3,))), 3, 2)
    @example((("poly", "x", (Fraction(2, 3),)), ("poly", "r", (0, 1))), -1, 2)
    def test_every_operator(self, pair, n, k):
        x, y = (build(s, Quad, Poly) for s in pair)
        ox, oy = (build(s, FracQuad, FracPoly) for s in pair)
        assert_same(x, ox)
        assert_same(y, oy)
        for name, op in BINARY.items():
            note(name)
            assert_same(outcome(op, x, y), outcome(op, ox, oy))
        for name, op in WITH_INT.items():
            note(name)
            assert_same(outcome(op, x, n, k), outcome(op, ox, n, k))
        if isinstance(x, Quad):
            for name, op in QUAD_ONLY.items():
                note(name)
                assert_same(outcome(op, x), outcome(op, ox))
        assert (x == y) is (ox == oy)
        assert (x == n) is (ox == n)
        assert (x == Fraction(n, 7)) is (ox == Fraction(n, 7))
        if x == y:
            assert hash(x) == hash(y)


def reference(c):
    """The reference value of a library scalar."""
    if isinstance(c, Poly):
        return FracPoly(c.coeffs, c.var)
    if isinstance(c, Quad):
        return FracQuad(c.a, c.b, c.d)
    return c


def charpoly_text(coeffs, var="X"):
    """``CharPoly.text`` of the descending ``coeffs``, written with one
    branch per coefficient kind and its own sign loop, on the reference
    classes."""
    parts = []
    d = len(coeffs) - 1
    for i, c in enumerate(map(reference, coeffs)):
        power = d - i
        if c == 0:
            continue
        if power == 0:
            xpart = ""
        elif power == 1:
            xpart = var
        else:
            xpart = f"{var}^{power}"
        if isinstance(c, FracPoly) and not c.is_constant:
            if c.coeffs[-1] < 0:
                sign, body = "-", f"({(-c).compact()})"
            else:
                sign, body = "+", f"({c.compact()})"
        elif isinstance(c, FracQuad) and c.b != 0:
            sign, body = "+", f"({c.text()})"
        else:
            if isinstance(c, FracPoly):
                c = c.constant_value()
            elif isinstance(c, FracQuad):
                c = c.a
            sign = "-" if c < 0 else "+"
            body = str(abs(c))
        if xpart:
            body = xpart if body == "1" else f"{body}*{xpart}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    if not parts:
        return "0"
    return " ".join(parts)


class TestCharPolyText:
    @settings(max_examples=200, deadline=None)
    @given(char_coefficients_st(), st.sampled_from(("X", "Y")))
    @example([1, Poly((-1, -2), "r"), Poly((-1, 1, 1), "r")], "X")
    @example([Fraction(-2, 3), Quad(1, -1, 5), 0, Quad(Fraction(1, 2), 0, 5)], "Y")
    @example([Poly((0, Fraction(-3, 2)), "x"), Poly((4,), "x"), Poly((), "x")], "Y")
    def test_matches_reference(self, coeffs, var):
        p = CharPoly(coeffs)
        assert p.text(var) == charpoly_text(p.coeffs, var)
