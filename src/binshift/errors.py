"""Exception types shared across the library."""

__all__ = [
    "BinshiftError",
    "DivisionByZero",
    "DomainMismatch",
    "EnumerationTooLarge",
    "KindMismatch",
    "NegativeInput",
    "NonInvertibleDomain",
    "NonMonic",
    "OrderMismatch",
    "PrefixTooShort",
    "UnknownFamily",
]


class BinshiftError(Exception):
    """Base class for every error raised by this package."""


class DomainMismatch(BinshiftError):
    """Scalars from incompatible domains were mixed without promotion."""


class DivisionByZero(BinshiftError, ZeroDivisionError):
    """Exact inversion or division of zero."""


class NonInvertibleDomain(BinshiftError):
    """Inversion was requested in a domain that is not a field."""


class PrefixTooShort(BinshiftError):
    """A sequence prefix has fewer terms than the operation needs."""


class KindMismatch(BinshiftError):
    """Ordinary and exponential generating series were mixed."""


class OrderMismatch(BinshiftError):
    """Series with different truncation orders were combined."""


class NonMonic(BinshiftError):
    """A monic characteristic polynomial was required."""


class UnknownFamily(BinshiftError):
    """The requested name is not in the family registry."""


class EnumerationTooLarge(BinshiftError):
    """A brute-force enumeration would exceed the supported bound."""


class NegativeInput(BinshiftError):
    """A count that must be nonnegative was negative."""
