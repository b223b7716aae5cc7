"""Exact primal simplex with Bland's rule on an integer-preserving tableau.

Solves the packing LP   max sum(x)  s.t.  sum_{j in V} x_j <= 1 for each
row set V,  x >= 0.  The rhs is all ones, so the all-slack basis is feasible
and no phase-1 is needed.

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

The result is checked explicitly before it is returned (x, y >= 0 and
sum(x) == value == sum(y)), with InvariantError on failure, so the checks
also run under `python -O`.  The packing LPs this package builds are always
bounded (every variable lies in at least one row set), so an unbounded ray
signals a construction bug and raises InfeasibleModelError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleModelError, InvariantError


def _bland(n, rows):
    """Integer Bland simplex on max sum(x) s.t. rows.x <= 1, x >= 0, with
    `rows` 0/1 lists of length n.  Returns (value, x, y) as Fractions."""
    m = len(rows)
    width = n + m + 1
    tab = []
    for i in range(m):
        row = list(rows[i]) + [0] * m + [1]
        row[n + i] = 1
        tab.append(row)
    obj = [1] * n + [0] * (m + 1)
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


def _check_optimal(value, x, y) -> None:
    """Nonnegativity, primal objective and strong duality, exactly."""
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise InvariantError("simplex returned a negative primal or dual entry")
    if sum(x) != value:
        raise InvariantError("simplex primal objective differs from its value")
    if sum(y) != value:
        raise InvariantError("simplex strong duality broke")


def solve_packing_lp(n_vars: int, row_masks):
    """max sum(x) s.t. sum_{j in mask} x_j <= 1 per mask, x >= 0.

    Returns (value, primal, dual) with dual parallel to row_masks.
    """
    rows = [[(mask >> j) & 1 for j in range(n_vars)] for mask in row_masks]
    value, x, y = _bland(n_vars, rows)
    _check_optimal(value, x, y)
    return value, x, y
