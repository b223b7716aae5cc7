"""Exact clique search and clique/mistake-tree conversions.

The maximum-clique solver is a deterministic branch-and-bound over bitmask
candidate sets with two upper bounds.  Vertices are ordered by descending
degree (ties by index), and the search renames each vertex by its rank in
that order, so the next candidate in the order is the lowest set bit of a
mask.  The graph's builders make the rank-space adjacency and sets V_h
from its 2|X| example-holder masks, each relabelled once, and a search holds
one n^2/8-byte table at a time.  Each node first counts the
rows of the class that realize some candidate: adjacent vertices share no
realizing row, so a clique among the candidates has at most that many
members.  It then color-sorts its candidates (greedy coloring, Tomita &
Seki's MCQ) and prunes when the current clique plus the candidate's color
cannot beat the incumbent (or reach the decision target).  The coloring is
built one class at a time with bit operations (San Segundo et al.'s BBMC):
a class takes the lowest uncolored candidate, drops its neighbours, and
repeats, which gives exactly the classes of first-fit over the order.
Classes too low to be branched on are colored but not listed.  Both prunes
only cut branches that cannot beat the incumbent, which changes only on a
strictly larger clique, so the row count changes the work and never the
members returned.  A node budget caps the search; exhaustion raises
ResourceLimitError carrying the best clique found, which remains a
certified lower bound.

The search stops as soon as the incumbent reaches the ceiling
min(2^m, |H|), since no clique of G_m is larger.  2^m: a dataset of m
examples agrees with a uniformly random labeling of the universe with
probability at least 2^-m, and two adjacent datasets never agree with the
same labeling, so a clique's members are disjoint events.  |H|: every
vertex has a realizing row and adjacent vertices share none.  Stopping there
cuts only the proof that nothing larger exists, so the members returned are
the same.

`find_balanced_point` runs the elimination loop that powers the conversion
of large cliques into shattered mistake trees: repeatedly delete a labeled
example that under 1/(2m)-fraction of the other members contradict, until
every example held by a surviving member is contradicted often enough.  The
loop deletes at most |C|*m examples, drops fewer than C(|C|,2) edges in
total (fewer than (|C|-1)/(2m) per iteration), and therefore always leaves
an edge; the contradiction point of a surviving edge is balanced.  Its only
state is each member's ones/zeros masks: a deletion clears one bit (and
counts every copy of the example), and since examples are only ever
deleted, an edge survives exactly when its two members still contradict at
the end, so no edge is tracked along the way.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .concepts import Dataset
from .errors import (
    ContradictoryDatasetError,
    DegenerateCliqueError,
    InvariantError,
    NotCompleteError,
    NotShatteredError,
    ResourceLimitError,
)
from .graph import Caps, ContradictionGraph, DEFAULT_CAPS, consistency_mask, neighbour_rows
from .trees import MistakeLeaf, MistakeNode, MistakeTree, branches, is_complete


@dataclass(frozen=True)
class Clique:
    """Pairwise-adjacent vertex indices, sorted."""

    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def _check_range(g: ContradictionGraph, members) -> None:
    """Refuse a member that is not a vertex index of `g`."""
    n = g.num_vertices
    for i in members:
        if not 0 <= i < n:
            raise IndexError(f"vertex index {i} out of range")


def validate_clique(g: ContradictionGraph, members) -> Clique:
    """`members` as a Clique, each pair checked on its ones/zeros masks."""
    members = tuple(sorted(members))
    _check_range(g, members)
    if len(set(members)) != len(members):
        raise ValueError("duplicate vertex in clique")
    for a, u in enumerate(members):
        for v in members[a + 1 :]:
            if not (g.ones[u] & g.zeros[v] or g.zeros[u] & g.ones[v]):
                raise ValueError(f"vertices {u} and {v} are not adjacent")
    return Clique(members)


def _greedy_start(g: ContradictionGraph) -> tuple:
    """(order, best): the vertices by descending degree, ties by index, and
    the ranks in it of the clique that takes each vertex of the order that
    is adjacent to all it took before.  Its neighbour rows die on return."""
    adj = neighbour_rows(g.holders, g.vertices)
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    best = []
    p = (1 << len(adj)) - 1
    for i, v in enumerate(order):
        if (p >> v) & 1:
            best.append(i)
            p &= adj[v]
    return order, best


def clique_ceiling(g: ContradictionGraph) -> int:
    """min(2^m, |H|), which no clique of G_m exceeds (module docstring)."""
    return min(1 << g.m, len(g.cls.hypotheses))


def _rank_space(g: ContradictionGraph, order: list, candidates=None):
    """`g` with vertex `order[i]` renamed i: (apart, covers, start).

    `apart[i]` masks the vertices other than i that are not adjacent to it,
    `covers` holds V_h for each row h of the class, and `start` is the
    candidate mask (every vertex when `candidates` is None).  Each holder
    mask is relabelled once, as a permutation of its binary digits, for the
    graph's builders; rows are complemented in place, so the search holds
    one n^2/8-byte table."""
    n = len(order)
    full = (1 << n) - 1
    # digit j of a mask's n-digit binary string is bit n - 1 - j
    digits = operator.itemgetter(*[n - 1 - v for v in reversed(order)])

    def relabel(mask: int) -> int:
        return int("".join(digits(format(mask, "b").zfill(n))), 2)

    holders = [relabel(h) for h in g.holders]
    apart = neighbour_rows(holders, map(g.vertices.__getitem__, order))
    for i, row in enumerate(apart):
        apart[i] = full ^ row ^ (1 << i)
    covers = [consistency_mask(holders, hm, full) for hm in g.cls.row_masks]
    return apart, covers, full if candidates is None else relabel(candidates)


def _search(g: ContradictionGraph, node_budget: int, target=None, ceiling=None, candidates=None):
    """Core branch-and-bound.  Returns (best_members, nodes_used), the
    members in the order the search added them.

    With `target` set, stops as soon as a clique of that size is found and
    prunes branches that cannot reach it.  `ceiling`, when given, must bound
    the clique number; the search stops once the incumbent reaches it.
    `candidates`, when given, is a vertex mask that must hold every clique
    the search has to find; the branching starts from it.  Raises
    ResourceLimitError carrying the incumbent when the budget runs out
    before the answer is certain.

    The search runs in rank space (`_rank_space`): vertex i is the i-th of
    the static order, so the next candidate in the order is the lowest set
    bit of a mask.  The members, and the incumbent a ResourceLimitError
    carries, are mapped back through the order.  It holds one n^2/8-byte
    table: `_greedy_start`'s rows die before the rank space is built.

    A node colors its candidates one class at a time: class k starts from
    the candidates no lower class took, and takes the lowest one left, drops
    its neighbours, and repeats.  By induction over the order, a vertex
    joins the first class that holds none of its earlier neighbours, which
    is first-fit over the static order, so the classes, the branches, the
    node count and the members are those of the first-fit loop.  The node
    then branches from the highest color down, and stops at the first
    vertex whose color cannot lift the current clique past the bound.  The
    bound only rises, so a class whose color is at most `bound - len(r)` on
    entry is never branched on: it is colored, since its vertices must not
    join a later class, but not listed.
    """
    stop = min(k for k in (target, ceiling, g.num_vertices) if k is not None)
    order, best = _greedy_start(g)
    if len(best) >= stop:
        return [order[i] for i in best], 0
    apart, covers, start = _rank_space(g, order, candidates)
    nodes = 0

    def expand(r: list, p: int) -> bool:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                "node-budget",
                f"clique search exceeded {node_budget} nodes",
                best=[order[i] for i in best],
            )
        bound = len(best) if target is None else max(len(best), target - 1)
        if len(r) + sum(1 for c in covers if c & p) <= bound:
            return False  # one vertex per realizing row: nothing larger below
        low = bound - len(r)
        classes = []  # the listed classes, colors low + 1 up to `color`
        color = 0
        uncolored = p
        while uncolored:
            color += 1
            q = uncolored
            if color > low:
                members = []
                while q:
                    b = q & -q
                    v = b.bit_length() - 1
                    members.append(v)
                    uncolored ^= b
                    q &= apart[v]
                classes.append(members)
            else:
                while q:
                    b = q & -q
                    uncolored ^= b
                    q &= apart[b.bit_length() - 1]
        local = p
        for members in reversed(classes):
            for v in reversed(members):
                bound = len(best) if target is None else max(len(best), target - 1)
                if len(r) + color <= bound:
                    return False  # earlier entries have lower colors: all pruned
                r.append(v)
                if len(r) > len(best):
                    best = list(r)
                    if len(best) >= stop:
                        r.pop()
                        return True
                local ^= 1 << v
                nxt = local - (local & apart[v])  # the neighbours of v in local
                if nxt and expand(r, nxt):
                    r.pop()
                    return True
                r.pop()
            color -= 1
        return False

    try:
        if start:
            expand([], start)
    finally:
        # expand's closure holds expand: without this the tables stay
        # alive until the next cyclic collection
        del expand
    return [order[i] for i in best], nodes


def max_clique(g: ContradictionGraph, caps: Caps = DEFAULT_CAPS) -> Clique:
    """Exact maximum clique (deterministic membership)."""
    best, _ = _search(g, caps.node_budget, ceiling=clique_ceiling(g))
    return Clique(tuple(sorted(best)))


def has_clique_of_size(g: ContradictionGraph, k: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Decision variant with early exit.  Budget exhaustion raises (the
    tri-state 'unknown'); a normal return is a certain yes/no.

    The members of a k-clique have pairwise disjoint, nonempty sets of
    realizing rows, so each has at most |H| - k + 1 of them; the search
    branches only on such vertices."""
    if k <= 0:
        return True
    if k > min(g.num_vertices, clique_ceiling(g)):
        return False
    room = len(g.cls.hypotheses) - k + 1
    candidates = 0
    for v, rows in enumerate(g.realizers):
        if rows.bit_count() <= room:
            candidates |= 1 << v
    best, _ = _search(g, caps.node_budget, target=k, candidates=candidates)
    return len(best) >= k


@dataclass(frozen=True)
class BalancedPointReport:
    """Output of the elimination loop plus its accounting, so callers can
    audit the invariants the proof promises."""

    point: int
    count_zero: int  # original members containing (point, 0)
    count_one: int  # original members containing (point, 1)
    threshold: Fraction  # (|C|-1) / (2m)
    clique_size: int
    iterations: int
    deletions: int  # labeled-example copies removed
    edges_dropped: int
    surviving_edges: int


def find_balanced_point(g: ContradictionGraph, clique: Clique) -> BalancedPointReport:
    members = clique.members
    c = len(members)
    if c < 2:
        raise DegenerateCliqueError("balanced point needs a clique of size >= 2")
    _check_range(g, members)
    m = g.m
    threshold = Fraction(c - 1, 2 * m)
    # the members' examples as working masks: deleting (p, l) clears bit p
    ones = [g.ones[idx] for idx in members]
    zeros = [g.zeros[idx] for idx in members]

    def conflicts():
        """(i, j, the points where members i < j disagree), pairs in order."""
        for i in range(c):
            for j in range(i + 1, c):
                yield i, j, (ones[i] & zeros[j]) | (zeros[i] & ones[j])

    for a, b, conflict in conflicts():
        if not conflict:
            raise ValueError(f"input is not a clique: members {a} and {b}")

    def weak_example():
        """(i, bit of p, l) for the first example (p, l), members in order
        and points ascending, that under `threshold` members contradict."""
        for i in range(c):
            held = ones[i] | zeros[i]
            while held:
                bit = held & -held
                held ^= bit
                label = 1 if ones[i] & bit else 0
                against = sum(1 for mask in (zeros if label else ones) if mask & bit)
                if 2 * m * against < c - 1:  # against < threshold, in integers
                    return i, bit, label
        return None

    iterations = 0
    deletions = 0
    while (hit := weak_example()) is not None:
        i, bit, label = hit
        iterations += 1
        # the deletion removes every copy of the example the member holds
        deletions += g.vertices[members[i]].examples.count((bit.bit_length() - 1, label))
        ones[i] &= ~bit
        zeros[i] &= ~bit

    # deletions only end contradictions, so the pairs that still contradict
    # are exactly the surviving edges
    surviving = [conflict for _, _, conflict in conflicts() if conflict]
    edges_dropped = c * (c - 1) // 2 - len(surviving)
    if deletions > c * m:
        raise InvariantError("elimination deleted more than |C|*m examples")
    if not surviving:
        raise InvariantError("no surviving edge after elimination")

    # least contradiction point of the first surviving edge
    x = (surviving[0] & -surviving[0]).bit_length() - 1

    count_zero = sum(1 for idx in members if (g.zeros[idx] >> x) & 1)
    count_one = sum(1 for idx in members if (g.ones[idx] >> x) & 1)
    if count_zero < threshold or count_one < threshold:
        raise InvariantError(
            f"point {x} is not balanced: counts {count_zero}/{count_one} below {threshold}"
        )
    return BalancedPointReport(
        point=x,
        count_zero=count_zero,
        count_one=count_one,
        threshold=threshold,
        clique_size=c,
        iterations=iterations,
        deletions=deletions,
        edges_dropped=edges_dropped,
        surviving_edges=len(surviving),
    )


def tree_from_clique(g: ContradictionGraph, clique: Clique) -> MistakeTree:
    """Convert a clique into a complete shattered mistake tree.

    Recursion: a balanced point x of the current sub-clique splits it into
    the members containing (x,0) and those containing (x,1) (membership in
    the original datasets); both parts are nonempty because both counts reach
    (|C|-1)/(2m) > 0.  The raw tree is cut to its minimum leaf depth T, which
    satisfies |clique| <= (2m+1)^T: along any root-to-leaf path the sizes
    obey size(parent) <= 2m*size(child) + 1 <= (2m+1)*size(child).
    Leaves carry the surviving member indices.
    """
    if clique.size < 1:
        raise DegenerateCliqueError("tree extraction needs a nonempty clique")
    _check_range(g, clique.members)

    @functools.cache
    def split(indices: tuple):
        x = find_balanced_point(g, Clique(indices)).point
        left = tuple(i for i in indices if (g.zeros[i] >> x) & 1)
        right = tuple(i for i in indices if (g.ones[i] >> x) & 1)
        if not (left and right):
            raise InvariantError(f"balanced point {x} leaves one side of the split empty")
        return x, left, right

    def depth_of(indices: tuple) -> int:
        if len(indices) == 1:
            return 0
        _, left, right = split(indices)
        return 1 + min(depth_of(left), depth_of(right))

    def build(indices: tuple, remaining: int) -> MistakeTree:
        if remaining == 0:
            return MistakeLeaf(members=indices)
        x, left, right = split(indices)
        return MistakeNode(x, build(left, remaining - 1), build(right, remaining - 1))

    cut = depth_of(clique.members)
    return build(clique.members, cut)


def clique_from_tree(g: ContradictionGraph, tree: MistakeTree) -> Clique:
    """Map a complete depth-m shattered tree to a 2^m-clique of G_m.

    Every branch spells a dataset; realizability of each branch is exactly
    membership in the vertex set.  Any two branches contradict at the point
    of their least common ancestor, so the image is a clique.  A point
    outside the universe is refused before any dataset is built, so its
    size costs nothing.
    """
    if not is_complete(tree, g.m):
        raise NotCompleteError(f"tree is not complete at depth m={g.m}")
    paths = branches(tree)
    n = g.cls.universe_size
    for path in paths:
        if any(p >= n for p, _ in path):
            raise NotShatteredError(f"branch {path} queries a point outside the universe of {n} points")
    indices = []
    for path in paths:
        try:
            ds = Dataset(path)
        except ContradictoryDatasetError as exc:
            raise NotShatteredError(
                f"branch {path} repeats a point with both labels"
            ) from exc
        idx = g.index_of(ds)
        if idx is None:
            raise NotShatteredError(f"branch dataset {ds.render()} is not realizable")
        indices.append(idx)
    return validate_clique(g, indices)
