"""Exact primal simplex with Bland's rule on an integer-preserving tableau.

Solves   max c.x  s.t.  A x <= b,  x >= 0   with b >= 0, so the all-slack
basis is feasible and no phase-1 is needed.

The tableau holds integers T and one positive common denominator D: the
rational tableau of the textbook method is T / D.  A pivot on p = T[r][e] > 0
replaces every other row (the objective row included) by
(T[i]*p - T[i][e]*T[r]) // D, keeps row r as it is, and sets D = p.  The
division is exact: every entry of T is, up to sign, a minor of the integer
input matrix, which is the fraction-free elimination of Edmonds (1967) and
Bareiss (1968).  No gcd is ever taken inside the loop.

Because D > 0, T and T / D have the same signs, so Bland's entering rule
(first column with a positive reduced cost) reads the same column, and the
ratio test compares b_i / a_i by cross-multiplying, which picks the same row
under the same tie-break.  The pivot sequence, the final basis and hence the
returned (value, x, y) are exactly those of the rational tableau.

Rational input is brought to integers by scaling row i by the lcm L_i of its
denominators and the objective by L_c.  Positive scaling keeps every sign
and every ratio comparison, so the pivots are again unchanged; the duals come
back as y_i = y'_i * L_i / L_c and the value as value' / L_c.

The result is checked explicitly before it is returned (x, y >= 0 and
c.x == value == b.y), with InvariantError on failure, so the checks also run
under `python -O`.  The packing LPs this package builds are always bounded
(every variable appears in at least one constraint with coefficient 1 and
rhs 1), so an unbounded ray signals a construction bug and raises
InfeasibleModelError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InfeasibleModelError, InvariantError


def _bland(c, rows, b):
    """Integer Bland simplex on max c.x s.t. rows.x <= b, x >= 0, with every
    input an int and b >= 0.  Returns (value, x, y) as Fractions."""
    m = len(rows)
    n = len(c)
    width = n + m + 1
    tab = []
    for i in range(m):
        row = list(rows[i]) + [0] * m + [b[i]]
        row[n + i] = 1
        tab.append(row)
    obj = list(c) + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    den = 1

    while True:
        enter = -1
        for j in range(width - 1):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # min b_i / a_i over a_i > 0, compared as b_i * a_best < b_best * a_i
        leave = -1
        best_b = best_a = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                bi = tab[i][-1]
                if leave < 0:
                    better = True
                else:
                    lhs, rhs = bi * best_a, best_b * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leave])
                if better:
                    leave, best_b, best_a = i, bi, a
        if leave < 0:
            raise InfeasibleModelError("LP is unbounded")
        piv = tab[leave]
        p = piv[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _eliminate(tab[i], piv, p, den, enter)
        obj = _eliminate(obj, piv, p, den, enter)
        den = p
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], den)
    y = [Fraction(-obj[n + i], den) for i in range(m)]
    return Fraction(-obj[-1], den), x, y


def _eliminate(row, piv, p, den, enter):
    """One fraction-free row update: (row*p - row[enter]*piv) // den."""
    f = row[enter]
    if f:
        return [(a * p - f * q) // den for a, q in zip(row, piv)]
    if p == den:
        return row
    return [a * p // den for a in row]


def _check_optimal(c, b, value, x, y) -> None:
    """Nonnegativity, primal objective and strong duality, exactly."""
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise InvariantError("simplex returned a negative primal or dual entry")
    if sum(ci * xi for ci, xi in zip(c, x)) != value:
        raise InvariantError("simplex primal objective differs from its value")
    if sum(bi * yi for bi, yi in zip(b, y)) != value:
        raise InvariantError("simplex strong duality broke")


def simplex_max(c, rows, b):
    """max c.x s.t. rows[i].x <= b[i], x >= 0.  Returns (value, x, y) exact.

    `rows` is a dense list of coefficient lists of ints or Fractions.
    Requires b[i] >= 0.
    """
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    for bi in b:
        if bi < 0:
            raise InfeasibleModelError("rhs must be nonnegative for the slack basis")
    scales = []
    int_rows = []
    int_b = []
    for row, bi in zip(rows, b):
        row = [Fraction(v) for v in row]
        s = lcm(bi.denominator, *(v.denominator for v in row))
        scales.append(s)
        int_rows.append([v.numerator * (s // v.denominator) for v in row])
        int_b.append(bi.numerator * (s // bi.denominator))
    sc = lcm(1, *(v.denominator for v in c))
    int_c = [v.numerator * (sc // v.denominator) for v in c]
    value, x, y = _bland(int_c, int_rows, int_b)
    value /= sc
    y = [yi * s / sc for yi, s in zip(y, scales)]
    _check_optimal(c, b, value, x, y)
    return value, x, y


def solve_packing_lp(n_vars: int, row_masks):
    """max sum(x) s.t. sum_{j in mask} x_j <= 1 per mask, x >= 0.

    Returns (value, primal, dual) with dual parallel to row_masks.
    """
    c = [1] * n_vars
    rows = [[(mask >> j) & 1 for j in range(n_vars)] for mask in row_masks]
    b = [1] * len(row_masks)
    value, x, y = _bland(c, rows, b)
    _check_optimal(c, b, value, x, y)
    return value, x, y
