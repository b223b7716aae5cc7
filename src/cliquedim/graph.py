"""Contradiction graphs of finite concept classes.

G_m(H): vertices are the realizable m-example datasets of H (canonical
multisets), and two datasets are adjacent iff some point appears with label 0
in one and label 1 in the other.  Independent sets of interest are the
consistency sets V_h = {S : h consistent with S} for full labelings h of the
universe; each is independent.  The sets V_h for the rows h of H already
cover the vertex set, since a dataset is a vertex exactly when some row
realizes it.  A clique uses at most one vertex from each, so omega_m <= |H|,
and weight 1 on each is a fractional coloring, so omega*_m <= |H| too.
`build_graph` keeps each vertex's realizing rows as `realizers`; the clique
search applies the same bound to every candidate set.

Both relations come from one example-incidence table, whose one reader is
two builders: `holders[2p + l]` masks the vertices holding (p, l).  In
`neighbour_rows` a vertex is adjacent to each holder of (p, 1 - l) for its
examples (p, l); in `consistency_mask` V_h drops each holder of (p, 1 - h(p)).

The core of G_m, for m <= |X|, is its set of vertices with m distinct
points, one example at each, and `build_core` builds it as a graph of its
own.  It has the clique number and the fractional clique number of G_m.
Take a vertex S with fewer than m distinct points and a row h realizing
it, and replace repeated copies in S by examples (x, h(x)) at points x
outside S until S' has m distinct points.  Then S' is realized by h and
holds every example of S, so S' contradicts every vertex S does, and every
labeling consistent with S' is consistent with S.
  * A clique maps to a clique of the core of the same size: two members
    contradict, so their images contradict, and so differ.
  * A fractional clique of G_m moves its weight from each S to its S',
    and any V_h holding S' holds S, so each V_h keeps its total at most 1.
    A fractional clique of the core is one of G_m already, since the
    core's V_h are those of G_m cut to the core.
So omega_m and omega*_m are the same on both.  A certificate of the core
is one of G_m: its primal, indexed by the same datasets in G_m, meets every
V_h of G_m (its weights lie on the core), and its dual coloring covers
every S of G_m at least as much as it covers S'.

From m = |X| on, the class alone fixes both values.  At m >= |X| the same
argument maps G_m onto its vertices holding all |X| points.  Each of them
labels the whole universe, so exactly one row realizes it, and two of them
contradict exactly when their rows differ: they form the complete
|H|-partite graph, whose parts are the rows.  A vertex from each part is a
clique of |H|, and the |H| parts are a coloring, so omega_m = omega*_m =
|H|.  `dimensions` reads these values off the class and builds no core
there, and `build_core` refuses m > |X|.

`count_vertices` gives |V(G_m)| without listing a vertex.  A vertex is a
realizable set of j labeled distinct points with m copies spread over them,
each point at least once, in C(m - 1, j - 1) ways.  So |V(G_m)| is the sum
over j <= min(m, |X|) of C(m - 1, j - 1) times N_j, the number of
realizable labeled j-point sets, which one pass over the points counts for
every j at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields

from .concepts import ConceptClass, Dataset, LabeledExample, mask_to_pattern
from .errors import InvalidParamsError, InvariantError, ResourceLimitError


@dataclass(frozen=True)
class Caps:
    """Resource guards.  Exceeding one raises ResourceLimitError naming the
    dimension; nothing is silently truncated."""

    max_vertices: int = 10**6
    max_pattern_universe: int = 20  # 2^|X| pattern enumerations beyond this refuse
    node_budget: int = 10**8  # branch-and-bound expansion budget

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise InvalidParamsError(f"{field.name} must be >= 0, got {value}")

    def check_vertices(self, count: int, m: int) -> None:
        if count > self.max_vertices:
            raise ResourceLimitError(
                "vertex-cap",
                f"more than {self.max_vertices} realizable datasets at m={m}",
            )

    def check_universe(self, n: int) -> None:
        if n > self.max_pattern_universe:
            raise ResourceLimitError(
                "pattern-cap",
                f"universe size {n} exceeds pattern enumeration cap "
                f"{self.max_pattern_universe}",
            )


DEFAULT_CAPS = Caps()


class ContradictionGraph:
    """Vertices in canonical dataset order.  `holders[2p + l]` masks the
    vertices that hold the example (p, l); the two builders make `adj` and
    the V_h of `consistent` from it.  `adj` is built on its first read: the
    LP path and the clique search never read it.  `realizers[i]` has bit k
    set iff row k of the class is consistent with vertex i."""

    def __init__(self, cls: ConceptClass, m: int, vertices: tuple, realizers: tuple):
        self.cls = cls
        self.m = m
        self.vertices = vertices
        self.realizers = realizers
        self.ones = tuple(v.ones_mask for v in vertices)
        self.zeros = tuple(v.zeros_mask for v in vertices)
        holders = [0] * (2 * cls.universe_size)
        for i, v in enumerate(vertices):
            for p, l in v.examples:
                holders[2 * p + l] |= 1 << i
        self.holders = tuple(holders)

    @functools.cached_property
    def adj(self) -> tuple:
        """`adj[i]` masks the neighbours of vertex i."""
        return tuple(neighbour_rows(self.holders, self.vertices))

    def consistent(self, hm: int) -> int:
        """V_h as a vertex mask, h(p) = bit p of `hm`."""
        return consistency_mask(self.holders, hm, (1 << len(self.vertices)) - 1)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def index_of(self, dataset: Dataset):
        """Vertex index of a dataset, or None if it is not a vertex."""
        return self._index.get(dataset)

    @functools.cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def __repr__(self) -> str:
        # no edge count: it would build and cache `adj`, about n^2/8 bytes
        return f"ContradictionGraph(m={self.m}, vertices={self.num_vertices})"


def neighbour_rows(holders, datasets) -> list:
    """Each dataset's neighbour mask, in the vertex labelling of `holders`."""
    rows = []
    for v in datasets:
        row = 0
        for p, l in v.examples:
            row |= holders[2 * p + 1 - l]
        rows.append(row)
    return rows


def consistency_mask(holders, hm: int, full: int) -> int:
    """V_h within `full`, h(p) = bit p of `hm`, labelled as `holders` is."""
    clash = 0
    for p in range(len(holders) // 2):
        clash |= holders[2 * p + 1 - ((hm >> p) & 1)]
    return full & ~clash


def _pair_masks(cls: ConceptClass, m: int) -> list:
    """`masks[k]`: the rows consistent with the example (k // 2, k % 2),
    after the checks every G_m shares."""
    cls.require_nonempty()
    if m < 1:
        raise ValueError("m must be >= 1")
    if cls.universe_size < 1:
        raise ValueError("universe must contain at least one point")
    every = (1 << len(cls.hypotheses)) - 1
    masks = []
    for ones in cls.point_masks:
        masks += [every & ~ones, ones]
    return masks


def count_vertices(cls: ConceptClass, m: int, caps: Caps = DEFAULT_CAPS) -> int:
    """|V(G_m)|, counted without listing a vertex (module docstring).  The
    vertex cap applies while counting, so an oversized G_m is refused after
    bounded work: each key of the table but the full row mask stands for at
    least one realizable labeled set of at most m points, which is a vertex
    of G_m once its first example is repeated, so the table never holds
    more than 1 + |V(G_m)| keys.  The caller checks the count itself."""
    pair_masks = _pair_masks(cls, m)
    n = cls.universe_size
    most = min(m, n)
    # ways[alive] holds, for each j, how many labeled j-point sets over the
    # points passed so far have exactly the rows `alive` consistent with
    # them, as digit j of one int in base 2^width; a digit, and any sum of
    # them, is at most C(n, j) * |H| < 2^width, so none carries
    width = n + len(cls.hypotheses).bit_length()
    keep = (1 << width * (most + 1)) - 1  # the digits j <= most
    ways = {(1 << len(cls.hypotheses)) - 1: 1}
    for k in range(0, 2 * n, 2):
        grown = dict(ways)  # point k // 2 left out
        for alive, sizes in ways.items():
            more = (sizes << width) & keep
            if more:
                for mask in pair_masks[k : k + 2]:
                    rows = alive & mask
                    if rows:
                        grown[rows] = grown.get(rows, 0) + more
        caps.check_vertices(len(grown) - 1, m)
        ways = grown
    sizes = sum(ways.values())
    digit = (1 << width) - 1
    return sum(((sizes >> width * j) & digit) * math.comb(m - 1, j - 1) for j in range(1, most + 1))


def build_graph(cls: ConceptClass, m: int, caps: Caps = DEFAULT_CAPS) -> ContradictionGraph:
    """Enumerate realizable size-m datasets in canonical order and assemble
    the graph."""
    return _enumerate(cls, m, caps, False)


def build_core(cls: ConceptClass, m: int) -> ContradictionGraph:
    """The core of G_m for m <= |X|: the vertices with m distinct points, in
    canonical order (module docstring).  Never larger than G_m, whose
    vertex cap the caller checks on `count_vertices`."""
    if m > cls.universe_size:
        raise ValueError(f"the core is built only for m <= |X| = {cls.universe_size}, got m={m}")
    return _enumerate(cls, m, Caps(max_vertices=math.inf), True)


def _enumerate(cls: ConceptClass, m: int, caps: Caps, core: bool) -> ContradictionGraph:
    """G_m, or with `core` set its core (m <= |X|).  DFS over labeled pairs
    in (point, label) order with the set of still-consistent hypotheses as
    a prune mask, which each leaf keeps as its vertex's realizer mask;
    nondecreasing pair sequences enumerate each multiset exactly once,
    already sorted and free of conflicts, so each leaf becomes a vertex by
    `Dataset.from_canonical` with the ones/zeros masks its frames carried
    down.  With `core` set, each example goes at a new point after the last
    one, leaving one point for each example still to come."""
    pair_masks = _pair_masks(cls, m)
    n = cls.universe_size
    # pair k is the example (k // 2, k % 2), made once and shared by every
    # vertex holding it
    pairs = [LabeledExample(p, l) for p in range(n) for l in (0, 1)]
    vertices: list[Dataset] = []
    realizers: list[int] = []
    prefix: list[LabeledExample] = []
    # explicit DFS stack, so no m is too deep for it: one [next pair index,
    # rows consistent with the prefix, its ones mask, its zeros mask, end of
    # the pairs to scan] frame per prefix length below m
    stack = [[0, (1 << len(cls.hypotheses)) - 1, 0, 0, 2 * (n - m + 1) if core else 2 * n]]
    while stack:
        frame = stack[-1]
        k, alive, ones, zeros, end = frame
        nxt = 0
        while k < end:
            # skip (x,1) when (x,0) is already in the prefix; pairs are
            # point-major, so that is the only conflict a next pair can make
            if not (k & 1 and (zeros >> (k >> 1)) & 1):
                nxt = alive & pair_masks[k]
                if nxt:
                    break
            k += 1
        if not nxt:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        frame[0] = k + 1
        bit = 1 << (k >> 1)
        if k & 1:
            ones |= bit
        else:
            zeros |= bit
        prefix.append(pairs[k])
        if len(prefix) < m:
            start, end = ((k | 1) + 1, 2 * (n - m + len(prefix) + 1)) if core else (k, 2 * n)
            stack.append([start, nxt, ones, zeros, end])
            continue
        if len(vertices) >= caps.max_vertices:
            caps.check_vertices(len(vertices) + 1, m)
        vertices.append(Dataset.from_canonical(tuple(prefix), ones, zeros))
        realizers.append(nxt)
        prefix.pop()
    return ContradictionGraph(cls, m, tuple(vertices), tuple(realizers))


@dataclass(frozen=True)
class IndependentSetFamily:
    """Deduplicated consistency sets V_h, keyed by the witness pattern (the
    lexicographically least h producing each vertex set).  `masks[k]` is a
    bitmask over vertex indices.  The family always covers the vertices."""

    patterns: tuple  # tuple[HypothesisPattern, ...]
    masks: tuple  # tuple[int, ...], parallel to patterns

    def __len__(self) -> int:
        return len(self.masks)


def independent_sets(
    g: ContradictionGraph, maximal_only: bool = False, caps: Caps = DEFAULT_CAPS
) -> IndependentSetFamily:
    """All distinct V_h over h in {0,1}^X (first witness kept), optionally
    pruned to inclusion-maximal sets.  Every realizable dataset lies in the
    V_h of its realizing row, so coverage holds even after pruning.

    The prune tests each set only against the strictly larger sets kept
    before it, largest first: a distinct set holding another is larger, and
    a set that is not maximal lies in a maximal one, which comes earlier and
    is kept.  The kept sets stay in witness order."""
    n = g.cls.universe_size
    caps.check_universe(n)
    seen: dict[int, int] = {}  # vertex-mask -> witness pattern mask
    order: list[int] = []
    for hm in range(1 << n):
        vm = g.consistent(hm)
        if vm and vm not in seen:
            seen[vm] = hm
            order.append(vm)
    if maximal_only:
        kept: set[int] = set()
        by_size = itertools.groupby(sorted(order, key=int.bit_count, reverse=True), int.bit_count)
        for _, same_size in by_size:
            kept |= {vm for vm in same_size if all(vm & o != vm for o in kept)}
        order = [vm for vm in order if vm in kept]
    full = (1 << g.num_vertices) - 1
    covered = 0
    for vm in order:
        covered |= vm
    if covered != full:
        raise InvariantError("consistency sets failed to cover the vertices")
    return IndependentSetFamily(
        patterns=tuple(mask_to_pattern(seen[vm], n) for vm in order),
        masks=tuple(order),
    )


WL_ROUNDS = 3


def wl_fingerprint(g: ContradictionGraph) -> str:
    """Deterministic isomorphism-invariant fingerprint (color refinement).

    Starts from degrees and refines each vertex color by the sorted multiset
    of neighbor colors for WL_ROUNDS rounds, then hashes the sorted
    final color multiset together with the vertex and edge counts.  Equal
    fingerprints do not prove isomorphism; distinct ones refute it.
    """
    import hashlib

    n = g.num_vertices
    colors = [g.adj[i].bit_count() for i in range(n)]
    for _ in range(WL_ROUNDS):
        signatures = []
        for i in range(n):
            nb = []
            rest = g.adj[i]
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nb.append(colors[j])
            signatures.append((colors[i], tuple(sorted(nb))))
        palette = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
    blob = repr((n, g.num_edges, sorted(colors))).encode()
    return hashlib.sha256(blob).hexdigest()


def export_edge_list(g: ContradictionGraph, verbose: bool = False) -> str:
    """Deterministic text form:

        p <num_vertices> <num_edges>
        e <i> <j>        (i < j, sorted)
        v <i> <rendering>  (only with verbose)
    """
    lines = [f"p {g.num_vertices} {g.num_edges}"]
    for i in range(g.num_vertices):
        rest = g.adj[i] >> (i + 1)
        j = i + 1
        while rest:
            if rest & 1:
                lines.append(f"e {i} {j}")
            rest >>= 1
            j += 1
    if verbose:
        for i, v in enumerate(g.vertices):
            lines.append(f"v {i} {v.render()}")
    return "\n".join(lines) + "\n"
