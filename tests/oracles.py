"""Independent oracles the tests check the library against.

Everything here is deliberately written with different algorithms than the
package: maximal-clique enumeration instead of branch-and-bound, literal
subset search, basic-feasible-solution enumeration and a textbook Fraction
tableau instead of the integer-preserving simplex, and itertools-based
dataset enumeration instead of the DFS the graph builder uses.  Slow is
fine; these run on tiny instances only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cliquedim import (
    DEFAULT_CAPS,
    ConceptClass,
    InvalidParamsError,
    NotRealizableDistributionError,
    cached_omega_star,
    coloring_to_distribution,
)


def enumerate_realizable_multisets(cls: ConceptClass, m: int) -> list:
    """All realizable size-m multisets as sorted tuples of (point, label)."""
    n = cls.universe_size
    pairs = [(p, l) for p in range(n) for l in (0, 1)]
    out = []
    for combo in itertools.combinations_with_replacement(pairs, m):
        ok = False
        for rm in cls.row_masks:
            if all(((rm >> p) & 1) == l for p, l in combo):
                ok = True
                break
        if ok:
            out.append(combo)
    return out


def contradicts(a, b) -> bool:
    """Two example collections contradict iff some point carries label 0 in
    one and label 1 in the other."""
    pts_a = {}
    for p, l in a:
        pts_a.setdefault(p, set()).add(l)
    for p, l in b:
        if p in pts_a and (1 - l) in pts_a[p]:
            return True
    return False


def adjacency_from_collections(items: list) -> list:
    """Bitmask adjacency under the contradiction relation."""
    n = len(items)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if contradicts(items[i], items[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def bron_kerbosch_maximal_cliques(adj: list) -> list:
    """All maximal cliques (as bitmasks), pivotless Bron-Kerbosch."""
    n = len(adj)
    out = []

    def extend(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        cand = p
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    extend(0, (1 << n) - 1, 0)
    return out


def max_clique_size_bk(adj: list) -> int:
    if not adj:
        return 0
    return max(c.bit_count() for c in bron_kerbosch_maximal_cliques(adj))


def max_clique_size_subsets(adj: list) -> int:
    """Literal exhaustive search over all vertex subsets; n <= 14 only."""
    n = len(adj)
    assert n <= 14, "subset oracle limited to 14 vertices"
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        rest = mask
        while rest and ok:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (mask & ~(1 << v)) & ~adj[v]:
                ok = False
        if ok:
            best = size
    return best


def packing_constraints(cls: ConceptClass, items: list) -> list:
    """Deduplicated inclusion-maximal consistency-set masks over the given
    vertex collections (each a tuple of (point, label) pairs)."""
    n = cls.universe_size
    seen = set()
    for hm in range(1 << n):
        vm = 0
        for i, item in enumerate(items):
            if all(((hm >> p) & 1) == l for p, l in item):
                vm |= 1 << i
        if vm:
            seen.add(vm)
    return [vm for vm in seen if not any(o != vm and vm & ~o == 0 for o in seen)]


def bfs_packing_value(n_vars: int, row_masks: list) -> Fraction:
    """Optimum of max sum(x) s.t. Ax <= 1, x >= 0 by enumerating every basis
    of the slack form Ax + s = 1.  The feasible region is bounded (every
    variable appears in some constraint), so the optimum sits at a basic
    feasible solution."""
    c = len(row_masks)
    cols = n_vars + c
    covered = 0
    for vm in row_masks:
        covered |= vm
    assert covered == (1 << n_vars) - 1, "unbounded packing instance"

    def column(j: int) -> list:
        if j < n_vars:
            return [Fraction(int((row_masks[i] >> j) & 1)) for i in range(c)]
        return [Fraction(1 if i == j - n_vars else 0) for i in range(c)]

    best = Fraction(0)  # x = 0 is always feasible
    for basis in itertools.combinations(range(cols), c):
        mat = [column(j) for j in basis]  # column-major
        # solve sum_j mat[j] * x_j = 1 by Gaussian elimination
        a = [[mat[j][i] for j in range(c)] + [Fraction(1)] for i in range(c)]
        ok = True
        for col in range(c):
            piv = next((r for r in range(col, c) if a[r][col] != 0), None)
            if piv is None:
                ok = False
                break
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [v * inv for v in a[col]]
            for r in range(c):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        if not ok:
            continue
        xb = [a[i][c] for i in range(c)]
        if any(v < 0 for v in xb):
            continue
        value = sum(
            (xb[i] for i in range(c) if basis[i] < n_vars), Fraction(0)
        )
        if value > best:
            best = value
    return best


def reference_simplex(n_vars: int, row_masks: list) -> tuple:
    """Textbook Bland simplex on a Fraction tableau for the packing LP
    max sum(x) s.t. sum_{j in mask} x_j <= 1 per mask, x >= 0: the pivot
    rule the integer tableau must follow step for step.  Returns
    (value, x, y); raises ValueError on an unbounded LP."""
    m, n = len(row_masks), n_vars
    width = n + m + 1
    tab = []
    for i, mask in enumerate(row_masks):
        row = [Fraction((mask >> j) & 1) for j in range(n)] + [Fraction(0)] * m + [Fraction(1)]
        row[n + i] = Fraction(1)
        tab.append(row)
    obj = [Fraction(1)] * n + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(width - 1) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise ValueError("LP is unbounded")
        piv = [v / tab[leave][enter] for v in tab[leave]]
        tab[leave] = piv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [tab[i][j] - f * piv[j] for j in range(width)]
        f = obj[enter]
        obj = [obj[j] - f * piv[j] for j in range(width)]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return -obj[-1], x, [-obj[n + i] for i in range(m)]


def reference_littlestone(cls: ConceptClass) -> int:
    """ld by the textbook recursion on row masks: 0 on a single row, else
    the max over points x splitting the rows of 1 + min(ld(H0), ld(H1)).
    Restrictions are frozensets of masks, tabulated in a local dict."""
    n = cls.universe_size
    table = {}

    def ld(rows: frozenset) -> int:
        if rows not in table:
            best = 0
            for x in range(n):
                h1 = frozenset(r for r in rows if (r >> x) & 1)
                h0 = rows - h1
                if h0 and h1:
                    best = max(best, 1 + min(ld(h0), ld(h1)))
            table[rows] = best
        return table[rows]

    return ld(frozenset(cls.row_masks))


def sequence_vertices(cls: ConceptClass, m: int) -> list:
    """All realizable ORDERED length-m example sequences (repeats allowed).
    The quotient guard compares clique quantities on this construction with
    the canonical multiset construction."""
    n = cls.universe_size
    pairs = [(p, l) for p in range(n) for l in (0, 1)]
    out = []
    for seq in itertools.product(pairs, repeat=m):
        for rm in cls.row_masks:
            if all(((rm >> p) & 1) == l for p, l in seq):
                out.append(seq)
                break
    return out


def sequence_omega(cls: ConceptClass, m: int) -> int:
    return max_clique_size_bk(adjacency_from_collections(sequence_vertices(cls, m)))


def sequence_omega_star(cls: ConceptClass, m: int) -> Fraction:
    items = sequence_vertices(cls, m)
    masks = packing_constraints(cls, items)
    value, _, _ = reference_simplex(len(items), masks)
    return value


def reference_small_pop_err_check(cls: ConceptClass, m: int, dist: dict, caps=DEFAULT_CAPS) -> list:
    """The small-population check pattern by pattern in Fractions:
    Pr_{h~mu*}[loss_D(h) <= theta] against 1/omega*_m - (1-theta)^m, with
    mu* normalized from the cached certificate's coloring on every call.
    Returns [(theta, probability, bound, passed)]."""
    total = sum(dist.values(), Fraction(0))
    if total != 1:
        raise InvalidParamsError(f"distribution weights sum to {total}, not 1")
    for (p, l), w in dist.items():
        if w < 0 or l not in (0, 1) or not 0 <= p < cls.universe_size:
            raise InvalidParamsError(f"bad distribution entry {(p, l)}: {w}")
    support = [(p, l) for (p, l), w in dist.items() if w > 0]
    realizable = any(
        all(row[p] == l for p, l in support) for row in cls.hypotheses
    )
    if not realizable:
        raise NotRealizableDistributionError(
            "no hypothesis has zero loss on the distribution"
        )
    cert = cached_omega_star(cls, m, caps)
    mu = coloring_to_distribution(cert.coloring)
    losses = {}
    for h, w in mu.items():
        loss = sum(
            dw for (p, l), dw in dist.items() if h[p] != l
        )
        losses[h] = Fraction(loss)
    out = []
    for theta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        prob = sum((w for h, w in mu.items() if losses[h] <= theta), Fraction(0))
        bound = Fraction(1) / cert.value - (1 - theta) ** m
        out.append((theta, prob, bound, prob >= bound))
    return out
