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

The whole tableau, objective row last, is one numpy array, and a pivot is
one vectorised update; it skips the multiplication when p = 1 and the
division when D = 1.  While every entry M satisfies |M| < 2^31 the array
is int64: then |T[i]*p - T[i][e]*T[r]| <= 2 * (2^31 - 1)^2 < 2^63, so no
intermediate overflows.  A running bound B >= max |M| starts at 1 (the
input is 0/1) and becomes 2B^2 // D + 1 after each pivot, since a new
entry is at most 2B^2 / D in absolute value.  Only once B reaches 2^31 is
the array itself read, by one pass each for its maximum and minimum: it
switches to dtype=object (Python integers) if an entry has reached 2^31,
and B drops to the true maximum otherwise.  So the
switch comes before exactly the pivot that a check before every pivot would
make it at, and the same expression keeps running.  Either way every entry
is the same integer, so the dtype changes no pivot.

The result is checked explicitly before it is returned (x, y >= 0 and
sum(x) == value == sum(y)), with InvariantError on failure, so the checks
also run under `python -O`.  The packing LPs this package builds are always
bounded (every variable lies in at least one row set), so an unbounded ray
signals a construction bug and raises InfeasibleModelError.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InfeasibleModelError, InvalidParamsError, InvariantError

# Entries below this bound in absolute value keep a pivot's products and
# differences inside int64 (see the module docstring).
INT64_ENTRY_LIMIT = 1 << 31


def _tableau(n, row_masks):
    """[A | I | 1] over the objective row [1 ... 1 | 0 ... 0 | 0], as int64."""
    m = len(row_masks)
    tab = np.zeros((m + 1, n + m + 1), dtype=np.int64)
    nbytes = (n + 7) // 8
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in row_masks)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(m, nbytes)
    tab[:m, :n] = np.unpackbits(bits, axis=1, count=n, bitorder="little")
    tab[np.arange(m), n + np.arange(m)] = 1
    tab[:m, -1] = 1
    tab[m, :n] = 1
    return tab


def _widened(tab):
    """(tab, bound) for an int64 tableau, from one read of its extremes:
    `tab` itself and bound = max |entry|, or a dtype=object copy and None
    once an entry reaches INT64_ENTRY_LIMIT in absolute value."""
    bound = max(int(tab.max()), -int(tab.min()))
    if bound >= INT64_ENTRY_LIMIT:
        return tab.astype(object), None
    return tab, bound


def _bland(n, row_masks):
    """Integer Bland simplex on max sum(x) s.t. rows.x <= 1, x >= 0.
    Returns (den, value, x, y) as Python integers over the common
    denominator den > 0."""
    m = len(row_masks)
    tab = _tableau(n, row_masks)
    basis = list(range(n, n + m))
    den = 1
    bound = 1  # >= every |entry| while the tableau is int64, None after

    while True:
        positive = tab[m, :-1] > 0
        enter = int(positive.argmax())
        if not positive[enter]:
            break
        # min b_i / a_i over a_i > 0, compared as b_i * a_best < b_best * a_i
        col, rhs_col = tab[:m, enter].tolist(), tab[:m, -1].tolist()
        leave = -1
        best_b = best_a = 0
        for i, a in enumerate(col):
            if a > 0:
                bi = rhs_col[i]
                if leave < 0:
                    better = True
                else:
                    lhs, rhs = bi * best_a, best_b * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leave])
                if better:
                    leave, best_b, best_a = i, bi, a
        if leave < 0:
            raise InfeasibleModelError("LP is unbounded")
        if bound is not None and bound >= INT64_ENTRY_LIMIT:
            tab, bound = _widened(tab)
        piv = tab[leave].copy()
        p = best_a
        update = tab[:, enter, None].copy() * piv
        if p != 1:
            tab *= p
        tab -= update
        if den != 1:
            tab //= den
        tab[leave] = piv
        if bound is not None:
            bound = 2 * bound * bound // den + 1
        den = p
        basis[leave] = enter

    rhs_col = tab[:m, -1].tolist()
    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs_col[i]
    y = [-v for v in tab[m, n:n + m].tolist()]
    return den, -int(tab[m, -1]), x, y


def _check_optimal(den, value, x, y) -> None:
    """Nonnegativity, primal objective and strong duality, exactly, on the
    integer numerators over the common denominator den."""
    if den <= 0:
        raise InvariantError("simplex tableau denominator is not positive")
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise InvariantError("simplex returned a negative primal or dual entry")
    if sum(x) != value:
        raise InvariantError("simplex primal objective differs from its value")
    if sum(y) != value:
        raise InvariantError("simplex strong duality broke")


def solve_packing_lp(n_vars: int, row_masks):
    """max sum(x) s.t. sum_{j in mask} x_j <= 1 per mask, x >= 0.

    Returns (value, primal, dual) as Fractions, with dual parallel to
    row_masks.  A negative n_vars, or a mask that is negative or names a
    variable at or past n_vars, raises InvalidParamsError.  With no
    variables and no rows the optimum is 0.
    """
    if n_vars < 0:
        raise InvalidParamsError(f"the LP needs n_vars >= 0, got {n_vars}")
    for mask in row_masks:
        if mask < 0 or mask >> n_vars:
            raise InvalidParamsError(f"row mask {mask} is not a set of the variables 0..{n_vars - 1}")
    if not n_vars and not row_masks:
        return Fraction(0), [], []
    den, value, x, y = _bland(n_vars, row_masks)
    _check_optimal(den, value, x, y)
    zero = Fraction(0)
    return (
        Fraction(value, den),
        [Fraction(v, den) if v else zero for v in x],
        [Fraction(v, den) if v else zero for v in y],
    )
