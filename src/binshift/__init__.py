"""Exact shift-parameterized binomial transforms of integer, rational,
polynomial and quadratic-field sequences.

The central operator maps a prefix (a_0, ..., a_N) to

    b_n = sum_{k=0}^{n} C(n, k) * r**(n-k) * a_k

for a shift r.  Shifts compose additively, invert at -r, and tie together
several views of the same sequence: root-shifted recurrences, moved Binet
roots, matrices shifted by r*I, generating-function substitution, and a
colored-subset count.  Everything is computed exactly; floating point is
rejected throughout.

Quick start::

    from binshift import apply_transform, family_prefix

    fib = family_prefix("fibonacci", 9)
    print(apply_transform(fib, 1).values)   # (0, 1, 3, 8, 21, ...)
"""

from . import errors, exactnum, families, models, recurrence, series, transform, verify
from .errors import *
from .exactnum import *
from .families import *
from .models import *
from .recurrence import *
from .series import *
from .transform import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *exactnum.__all__,
    *families.__all__,
    *models.__all__,
    *recurrence.__all__,
    *series.__all__,
    *transform.__all__,
    *verify.__all__,
]
