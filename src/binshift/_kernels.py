"""The ring loops behind the transform, the recurrences and the views.

Each loop runs on plain ring elements: native ints where the public
modules lower to them, the exact scalars otherwise.  Nothing here knows
a domain, and this module imports only the standard library.

The contract of a kernel ``kernel(t, r)`` run by ``_on_ints``: it
returns a list as long as ``t`` whose entry n is sum_k c_nk r^(n-k) t_k,
where the c_nk are ints that depend on neither t nor r and
sum_k |c_nk| x^(n-k) <= (x + 1)^N for every x >= 0 and every n (N + 1
the length of t), and it computes that sum exactly for int t and r.  The
two kernels are the transform's :func:`_table` (c_nk = C(n, k), a sum of
(x + 1)^n), which also serves the OGF and EGF views, and
:func:`_taylor_shift` (|c_nk| = C(N-k, n-k) <= C(N, n-k), a sum of at
most (x + 1)^N; at N = 2, n = 1 it is 2x + 1, above (x + 1)^n).

The transform's :func:`_table` first tries the paper's root shift: if
P(E) a = 0 then P(E - p) T_p a = 0, because E T_p = T_p (E + p), so a
column with an int recurrence of order 2 or less gets its outputs from
the recurrence of P(X - p) in N multiply-adds.  P(X - p) is the
Ruffini-Horner :func:`_taylor_shift` of von zur Gathen and Gerhard
(ISSAC 1997).  Otherwise the table conjugates the unit table,
T_p = D_p T_1 D_p^(-1) with D_p = diag(p^n) (the scaling of Shaw and
Traub's Taylor shift, JACM 21, 1974), or runs the multiply-add table.
The unit table is N^2/2 additions, one prefix sum per input term; the
sums nest as lazy ``accumulate`` passes and are listed once per
``_UNIT_CHUNK`` terms, so one list is built per chunk, not per pass.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import accumulate, repeat

# Chosen from a grid of best-of timings against _difference_table on
# columns of 64-bit ints (Python 3.11, 2-vCPU VM), where the unit table
# lost below 26 terms and past N * b^2 = 2^14, b = bit_length(p).  On
# the pipelined unit table, recurrence filter included (best of 15, p =
# +-1, +-2, 3, 9), it takes 1.1-1.8x the multiply-add table's time at 8
# terms, 0.7-1.2x at 12-16, 0.6-0.9x at 20-24 and 0.5-0.85x from 26 on,
# and p = 1 wins from about 10 terms.  Its entries are N*b bits longer
# than the inputs (about half that in the multiply-add table) and the
# divisions by p^(N-n) grow as b^2 N^3, yet at N * b^2 = 2^14 it takes
# 0.61-0.64x at N = 64, 256 and 1,024, 0.78-0.91x at 2^16, and it loses
# by 2^17.  Both gates stay as first chosen.  The
# recurrence route shares the 26-term gate: on Fibonacci columns it beats
# the multiply-add table from 12 terms (6.0 against 9.7 us at p = 1),
# but its filter adds 1-2 us, 5-25% of the table at 8-16 terms, to every
# column without such a recurrence.
_UNIT_MIN_TERMS = 26
_UNIT_MAX_N_BITS2 = 1 << 14

# The unit table nests this many passes as lazy ``accumulate`` iterators
# and lists them once: the same additions in the same order, but one list
# built and freed per chunk instead of one per pass.  Chosen from a grid
# on random 64-bit columns at N = 375-875 and p = -2..3, best of 15:
# the table took 0.96x the time of one list per pass at 4, 0.93x at 8,
# 0.90x at 10, 0.89x at 12, 0.96x at 16 and 1.00x at 24.
_UNIT_CHUNK = 12


def _table(column: list, p) -> list:
    """Outputs sum_k C(n, k) p^(n-k) column_k for n = 0..len-1: the
    transform of ``column`` at shift p.

    ``p`` is never 0: shift 0 returns before any table, and an int p
    comes with int entries.  A scalar p or a column shorter than
    ``_UNIT_MIN_TERMS`` runs :func:`_difference_table`.  Otherwise three
    routes are tried in turn:

    1. a column with an int recurrence of order 1 or 2 runs the
       recurrence of P(X - p), N multiply-adds
       (:func:`_shifted_recurrence`);
    2. while N * bit_length(p)^2 <= ``_UNIT_MAX_N_BITS2``, D_p T_1
       D_p^(-1): entry k is scaled by p^(N-k), the unit table runs as
       Horner in u = z/(1 - z), one prefix sum per input term from the
       last, and output n is divided exactly by p^(N-n).  The prefix
       sums run in chunks of ``_UNIT_CHUNK`` terms: each sum of a chunk
       is an ``accumulate`` over the one before, and listing the last
       runs them all, element by element;
    3. :func:`_difference_table`.
    """
    n = len(column) - 1
    if n < _UNIT_MIN_TERMS - 1 or not isinstance(p, int):
        return _difference_table(column, p)
    shifted = _shifted_recurrence(column, p)
    if shifted is not None:
        return shifted
    if n * abs(p).bit_length() ** 2 > _UNIT_MAX_N_BITS2:
        return _difference_table(column, p)
    if p != 1:
        scale = list(accumulate(repeat(p, n), operator.mul, initial=1))[::-1]
        column = list(map(operator.mul, column, scale))  # entry k times p^(N-k)
    g = []
    for end in range(len(column), 0, -_UNIT_CHUNK):
        for c in reversed(column[max(end - _UNIT_CHUNK, 0) : end]):
            g = accumulate(g, initial=c)  # a pass, run when g is listed
        g = list(g)
    if p != 1:
        g = list(map(operator.floordiv, g, scale))
    return g


# The largest prime below 2^30: one CPython digit, so reducing an entry
# modulo it takes time linear in the entry's length.
_HANKEL_PRIME = 1_073_741_789


def _shifted_recurrence(column: list, p: int) -> list | None:
    """The transform of the int ``column`` (five entries or more) at the
    int shift p in N multiply-adds; None when t_0 = t_1 = 0 or when no
    t_k = c1 t_(k-1) + c2 t_(k-2) with int c1, c2 holds for every k >= 2.

    By the root shift, the outputs then satisfy the recurrence of
    P(X - p) for P = X^2 - c1 X - c2: b_0 = t_0, b_1 = t_1 + p t_0 and
    b_n = d1 b_(n-1) + d2 b_(n-2), where -P(X - p) = -X^2 + d1 X + d2
    is the Taylor shift of -P.  The 3x3 Hankel determinant of t_0..t_4
    vanishes on such a column; one nonzero modulo ``_HANKEL_PRIME``
    rejects it for a few microseconds.  The coefficients come from the
    2x2 Hankel system (order 1 where its determinant is 0) as floor
    quotients, and every entry is checked against them, which rejects
    any quotient that was not exact.  One pass over the column checks
    entry k and then emits output k, both in two registers; the first
    mismatch returns None, so no partial output escapes.
    """
    m0, m1, m2, m3, m4 = [t % _HANKEL_PRIME for t in column[:5]]
    hankel3 = (
        m0 * (m2 * m4 - m3 * m3) - m1 * (m1 * m4 - m2 * m3) + m2 * (m1 * m3 - m2 * m2)
    )
    if hankel3 % _HANKEL_PRIME:
        return None
    t0, t1, t2, t3 = column[:4]
    hankel2 = t0 * t2 - t1 * t1
    if hankel2:
        c1 = (t0 * t3 - t1 * t2) // hankel2
        c2 = (t2 * t2 - t1 * t3) // hankel2
    elif t0:
        c1, c2 = t1 // t0, 0
    else:
        return None
    _, d1, d2 = _taylor_shift([-1, c1, c2], p)
    a, b = t0, t1
    u, v = t0, t1 + p * t0
    out = [u, v]
    append = out.append
    for t in column[2:]:
        if t != c1 * b + c2 * a:
            return None
        a, b = b, t
        u, v = v, d1 * v + d2 * u
        append(v)
    return out


def _difference_table(column: Iterable, p) -> list:
    """Outputs sum_k C(n, k) p^(n-k) column_k for n = 0..len-1, the
    transform of ``column`` at shift p, for any scalar p.

    One working list: pass n replaces t_k by p * t_k + t_{k+1} and drops
    the last entry, whose row is complete.
    """
    t = list(column)
    out = [t[0]]
    for m in range(len(t) - 1, 0, -1):
        for k in range(m):
            t[k] = p * t[k] + t[k + 1]
        t.pop()
        out.append(t[0])
    return out


def _taylor_shift(t: list, r) -> list:
    """Descending coefficients of P(X - r), from those of P in ``t``
    (overwritten): d passes of synthetic division by X + r, each
    t_j <- t_j - r * t_{j-1}, d(d+1)/2 multiply-adds in all."""
    for m in range(len(t) - 1, 0, -1):
        for j in range(1, m + 1):
            t[j] = t[j] - r * t[j - 1]
    return t


def _continued(c, vals: list, n_max: int, acc0=0) -> list:
    """``vals`` (d initial terms or fewer, extended in place) continued to
    n_max by vals_n = -(sum_k c_k vals_{n-k}) for k = 1..d, each sum
    started from ``acc0``; d + 1 is the length of ``c``.

    Order 2 with both start values continues in two registers, in the
    generic loop's order of operations: per term the interpreter's index
    arithmetic and inner loop, not the arithmetic, set the cost there.
    """
    d = len(c) - 1
    if d == 2 and len(vals) == 2:
        _, c1, c2 = c
        a, b = vals
        append = vals.append
        for _ in range(n_max - 1):
            a, b = b, acc0 - c1 * b - c2 * a
            append(b)
        return vals
    for n in range(d, n_max + 1):
        acc = acc0
        for k in range(1, d + 1):
            acc = acc - c[k] * vals[n - k]
        vals.append(acc)
    return vals


def _operator_sums(c, vals, acc0=0) -> list:
    """Entry n is sum_j c_{d-j} vals_{n+j} for j = 0..d, started from
    ``acc0``, for n = 0..len(vals)-1-d; d + 1 is the length of ``c``."""
    d = len(c) - 1
    out = []
    for n in range(len(vals) - d):
        acc = acc0
        for j in range(d + 1):
            acc = acc + c[d - j] * vals[n + j]
        out.append(acc)
    return out


def _geometric_column(order: int, times: int) -> int:
    """Coefficient ``order`` of 1 / (1 - z)^times, C(order + times - 1,
    order): ``times`` prefix sums of [1, 0, ..., 0].  The Riordan view
    scales it by a power of the shift, whatever the shift's kind."""
    column = [1] + [0] * order
    for _ in range(times):
        column = list(accumulate(column))
    return column[-1]
