"""Exact clique search, balanced-example elimination, and tree conversions."""

import ast
import gc
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cliquedim import (
    BalancedPointReport,
    Caps,
    Clique,
    ConceptClass,
    DegenerateCliqueError,
    InvalidParamsError,
    NotCompleteError,
    NotShatteredError,
    ResourceLimitError,
    build_graph,
    clique_from_tree,
    example_red_clique_datasets,
    find_balanced_point,
    generate,
    has_clique_of_size,
    max_clique,
    parse_dataset,
    tree_from_clique,
    validate_clique,
)
import cliquedim.cliques as cliques
from cliquedim.cliques import _greedy_start, _rank_space, _search, clique_ceiling
from cliquedim.graph import build_core
from cliquedim.trees import (
    MistakeLeaf,
    MistakeNode,
    branches,
    is_complete,
    min_depth,
    parse_tree,
    serialize_tree,
)


def oracle_omega(g):
    adj = oracles.adjacency_from_collections(
        [tuple(v.examples) for v in g.vertices]
    )
    return oracles.max_clique_size_bk(adj)


# ─── exact clique numbers ──────────────────────────────────────────────────


@pytest.mark.parametrize(
    "family,universe,m,expected",
    [
        ("paper_example_sec6", 4, 1, 2),
        ("paper_example_sec6", 4, 2, 4),
        ("paper_example_sec6", 4, 3, 8),
        ("disjoint_pairs", 2, 2, 2),
        ("full", 2, 2, 4),
        ("full", 3, 2, 4),
        ("singleton", 3, 2, 1),
        ("thresholds", 3, 2, 4),
    ],
)
def test_omega_frozen_values(family, universe, m, expected):
    g = build_graph(generate(family, universe=universe), m)
    clique = max_clique(g)
    assert clique.size == expected
    assert oracle_omega(g) == expected
    validate_clique(g, clique.members)  # pairwise adjacency certified


def test_example_class_m4_stays_at_8():
    g = build_graph(generate("paper_example_sec6"), 4)
    assert g.num_vertices == 157
    assert max_clique(g).size == 8


def test_has_clique_of_size_is_monotone():
    g = build_graph(generate("paper_example_sec6"), 2)
    assert has_clique_of_size(g, 0)
    assert has_clique_of_size(g, 1)
    assert has_clique_of_size(g, 4)
    assert not has_clique_of_size(g, 5)


def test_red_clique_is_a_clique_of_g3():
    g = build_graph(generate("paper_example_sec6"), 3)
    idx = [g.index_of(d) for d in example_red_clique_datasets()]
    assert None not in idx
    clique = validate_clique(g, idx)
    assert clique.size == 8


def test_validate_clique_rejections():
    g = build_graph(generate("full", universe=2), 2)
    i = g.index_of(parse_dataset("(0:0);(1:0)"))
    j = g.index_of(parse_dataset("(0:0);(1:1)"))
    k = g.index_of(parse_dataset("(0:0);(0:0)"))
    assert (g.adj[i] >> j) & 1
    validate_clique(g, [i, j])
    with pytest.raises(ValueError):
        validate_clique(g, [i, k])  # agree at point 0: not adjacent
    with pytest.raises(ValueError):
        validate_clique(g, [i, i])
    with pytest.raises(IndexError):
        validate_clique(g, [i, g.num_vertices])


def test_node_budget_carries_best_found():
    g = build_graph(generate("paper_example_sec6"), 3)
    with pytest.raises(ResourceLimitError) as exc:
        max_clique(g, Caps(node_budget=1))
    assert exc.value.dimension == "node-budget"
    assert exc.value.best is not None
    assert validate_clique(g, tuple(exc.value.best)).size >= 1


def test_random_graphs_match_both_oracles():
    import random

    rng = random.Random(11)
    for trial in range(30):
        n = rng.randrange(2, 5)
        rows = {
            tuple(rng.randrange(2) for _ in range(n))
            for _ in range(rng.randrange(1, 6))
        }
        cls = ConceptClass(n, rows)
        m = rng.randrange(1, 3)
        g = build_graph(cls, m)
        if g.num_vertices > 14:
            continue
        found = max_clique(g).size
        adj = oracles.adjacency_from_collections(
            [tuple(v.examples) for v in g.vertices]
        )
        assert found == oracles.max_clique_size_bk(adj)
        assert found == oracles.max_clique_size_subsets(adj)


def first_fit_search(adj, covers, node_budget, target=None, ceiling=None, candidates=None):
    """The clique search over vertex indices, coloring each node first-fit
    with a loop over the color classes: the search whose members, branch
    order and node count the rank-space search must keep."""
    n = len(adj)
    stop = min(k for k in (target, ceiling, n) if k is not None)
    degs = [a.bit_count() for a in adj]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    best = []
    p = (1 << n) - 1
    for v in order:
        if (p >> v) & 1:
            best.append(v)
            p &= adj[v]
    nodes = 0
    if len(best) >= stop:
        return best, nodes

    def expand(r, p):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError("node-budget", "budget", best=list(best))
        bound = len(best) if target is None else max(len(best), target - 1)
        if len(r) + sum(1 for c in covers if c & p) <= bound:
            return False
        class_masks, class_verts = [], []
        for v in order:
            if not (p >> v) & 1:
                continue
            for ci in range(len(class_masks)):
                if not (adj[v] & class_masks[ci]):
                    class_masks[ci] |= 1 << v
                    class_verts[ci].append(v)
                    break
            else:
                class_masks.append(1 << v)
                class_verts.append([v])
        seq = [(v, ci + 1) for ci, vs in enumerate(class_verts) for v in vs]
        local = p
        for v, color in reversed(seq):
            bound = len(best) if target is None else max(len(best), target - 1)
            if len(r) + color <= bound:
                return False
            r.append(v)
            if len(r) > len(best):
                best = list(r)
                if len(best) >= stop:
                    r.pop()
                    return True
            nxt = local & adj[v]
            if nxt and expand(r, nxt):
                r.pop()
                return True
            r.pop()
            local &= ~(1 << v)
        return False

    start = (1 << n) - 1 if candidates is None else candidates
    if start:
        expand([], start)
    return best, nodes


def reference_search(adj, node_budget, target=None):
    """Branch-and-bound with the coloring bound alone, without the bound by
    realizing rows: the search whose members the clique solver must keep.
    n + 1 rows realizing every vertex bound no clique below n + 1."""
    n = len(adj)
    return first_fit_search(adj, [(1 << n) - 1] * (n + 1), node_budget, target=target)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12))
    return build_graph(ConceptClass(n, rows), draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_row_bound_keeps_the_members_of_the_coloring_search(g):
    budget = 10**6
    best, nodes = reference_search(g.adj, budget)
    assert max_clique(g).members == tuple(sorted(best))
    got, got_nodes = _search(g, budget)
    assert got == best and got_nodes <= nodes  # the bound only prunes
    # the ceiling only stops the proof that nothing larger exists
    got, got_nodes = _search(g, budget, ceiling=clique_ceiling(g))
    assert got == best and got_nodes <= nodes
    for k in range(1, len(best) + 2):
        expected, _ = reference_search(g.adj, budget, target=k)
        assert _search(g, budget, target=k)[0] == expected
        assert has_clique_of_size(g, k) == (len(expected) >= k)


def first_fit(g, node_budget, **kw):
    covers = [g.consistent(rm) for rm in g.cls.row_masks]
    return first_fit_search(g.adj, covers, node_budget, **kw)


def decision_candidates(g, k):
    """The vertices `has_clique_of_size` branches on: at most |H| - k + 1
    realizing rows."""
    room = len(g.cls.hypotheses) - k + 1
    return sum(1 << v for v, rows in enumerate(g.realizers) if rows.bit_count() <= room)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_rank_space_search_does_the_work_of_first_fit(g):
    budget = 10**6
    assert _search(g, budget) == first_fit(g, budget)
    ceiling = clique_ceiling(g)
    assert _search(g, budget, ceiling=ceiling) == first_fit(g, budget, ceiling=ceiling)
    for k in range(1, g.num_vertices + 2):
        assert _search(g, budget, target=k) == first_fit(g, budget, target=k)
        cand = decision_candidates(g, k)
        got = _search(g, budget, target=k, candidates=cand)
        assert got == first_fit(g, budget, target=k, candidates=cand)
        if k <= min(g.num_vertices, ceiling):
            assert has_clique_of_size(g, k) == (len(got[0]) >= k)


def test_search_work_is_pinned_on_the_clique_workload_graphs():
    # the omega_3 query of the clique benchmark, and the core of G_4 of
    # random(6,16,1), whose search proves that no 16-clique exists
    g = build_graph(generate("random", universe=6, count=8, seed=2), 3)
    best, nodes = _search(g, 10**6, ceiling=clique_ceiling(g))
    assert (best, nodes) == first_fit(g, 10**6, ceiling=clique_ceiling(g))
    assert nodes == 86
    assert ",".join(map(str, sorted(best))) == "116,117,119,150,158,159,177,199"
    core = build_core(generate("random", universe=6, count=16, seed=1), 4)
    best, nodes = _search(core, 10**6, ceiling=clique_ceiling(core))
    assert (len(best), nodes) == (15, 37334)
    with pytest.raises(ResourceLimitError) as got:
        max_clique(core, Caps(node_budget=1000))
    with pytest.raises(ResourceLimitError) as expected:
        first_fit(core, 1000, ceiling=clique_ceiling(core))
    assert got.value.best == expected.value.best


def test_the_search_frees_its_tables_on_return():
    # the rank-space tables are the size of g.adj; no cycle may hold them
    g = build_graph(generate("random", universe=6, count=8, seed=2), 3)
    g.adj
    gc.collect()
    gc.disable()
    try:
        max_clique(g)
        with pytest.raises(ResourceLimitError):
            max_clique(g, Caps(node_budget=10))
        assert gc.collect() == 0
    finally:
        gc.enable()


def moved(mask, rank):
    """`mask` with bit v moved to bit rank[v]."""
    return sum(1 << rank[v] for v in range(mask.bit_length()) if (mask >> v) & 1)


@pytest.mark.parametrize("family,universe,m", [
    ("paper_example_sec6", 4, 3), ("thresholds", 5, 2), ("full", 1, 1), ("singleton", 3, 2),
])
def test_rank_space_is_the_graph_relabelled_by_the_order(family, universe, m):
    g = build_graph(generate(family, universe=universe), m)
    order = _greedy_start(g)[0]
    rank = {v: i for i, v in enumerate(order)}
    n = g.num_vertices
    cand = decision_candidates(g, 2)
    apart, covers, start = _rank_space(g, order, cand)
    for i, v in enumerate(order):
        assert ((1 << n) - 1) ^ apart[i] ^ (1 << i) == moved(g.adj[v], rank)
    assert covers == [moved(g.consistent(rm), rank) for rm in g.cls.row_masks]
    assert start == moved(cand, rank)
    assert _rank_space(g, order)[2] == (1 << n) - 1


def test_the_clique_module_does_not_import_numpy():
    with open(cliques.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(name.split(".")[0] == "numpy" for name in names)


def test_row_bound_settles_g4_of_random_6_12_1():
    # 12 rows bound every clique by 12, which the search reaches and proves
    # in about 200 nodes; the coloring bound alone ran past 2*10^6 nodes here
    cls = generate("random", universe=6, count=12, seed=1)
    g = build_graph(cls, 4)
    clique = max_clique(g, Caps(node_budget=10**4))
    assert validate_clique(g, clique.members).size == 12 == len(cls.hypotheses)


def test_ceiling_ends_the_search_at_the_greedy_start():
    # greedy finds 8 = 2^3 members on G_3 of random(6,12,1), so no node is
    # expanded; without the ceiling, proving there is no 9-clique took 9320
    cls = generate("random", universe=6, count=12, seed=1)
    g = build_graph(cls, 3)
    assert clique_ceiling(g) == 8
    clique = max_clique(g, Caps(node_budget=1))
    assert validate_clique(g, clique.members).size == 8


def test_no_search_above_the_ceiling(monkeypatch):
    graphs = [
        build_graph(generate("paper_example_sec6"), 2),  # ceiling 2^2
        build_graph(generate("thresholds", universe=5), 3),  # ceiling |H| = 6
    ]
    monkeypatch.setattr(cliques, "_search", lambda *a, **k: pytest.fail("searched"))
    for g in graphs:
        assert not has_clique_of_size(g, clique_ceiling(g) + 1)


def test_realizers_are_the_consistent_rows():
    cls = generate("paper_example_sec6")
    g = build_graph(cls, 2)
    for v, rows in zip(g.vertices, g.realizers):
        expected = sum(
            1 << k for k, r in enumerate(cls.row_masks)
            if (v.ones_mask & ~r) == 0 and (v.zeros_mask & r) == 0
        )
        assert rows == expected != 0


# ─── balanced-example elimination ──────────────────────────────────────────


def test_balanced_point_tiny_edge():
    g = build_graph(generate("full", universe=1), 1)
    rep = find_balanced_point(g, max_clique(g))
    assert rep.point == 0
    assert (rep.count_zero, rep.count_one) == (1, 1)
    assert rep.threshold == 0.5
    assert rep.iterations == 0
    assert rep.surviving_edges == 1


def test_balanced_point_full_class_4_clique():
    g = build_graph(generate("full", universe=2), 2)
    members = [
        g.index_of(parse_dataset(s))
        for s in ["(0:0);(1:0)", "(0:1);(1:0)", "(0:0);(1:1)", "(0:1);(1:1)"]
    ]
    rep = find_balanced_point(g, validate_clique(g, members))
    assert rep.clique_size == 4
    assert rep.threshold == 0.75
    assert (rep.count_zero, rep.count_one) == (2, 2)
    assert rep.iterations == 0
    assert rep.surviving_edges == 6


def test_balanced_point_red_clique():
    g = build_graph(generate("paper_example_sec6"), 3)
    idx = [g.index_of(d) for d in example_red_clique_datasets()]
    rep = find_balanced_point(g, validate_clique(g, idx))
    assert rep.point == 1
    assert (rep.count_zero, rep.count_one) == (3, 3)
    assert rep.threshold == pytest.approx(7 / 6)
    assert rep.iterations == 0
    assert rep.surviving_edges == 28
    assert min(rep.count_zero, rep.count_one) >= rep.threshold


def test_elimination_actually_deletes():
    # third member contradicts the others at point 1 only; its (2,0) example
    # has no opposing copy, so one elimination round must fire
    cls = ConceptClass(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    g = build_graph(cls, 2)
    members = [
        g.index_of(parse_dataset(s))
        for s in ["(0:0);(1:0)", "(0:1);(1:0)", "(1:1);(2:0)"]
    ]
    rep = find_balanced_point(g, validate_clique(g, members))
    assert rep.iterations == 1
    assert rep.deletions == 1
    assert rep.edges_dropped == 0
    assert rep.surviving_edges == 3
    assert rep.point == 0
    assert (rep.count_zero, rep.count_one) == (1, 1)
    assert rep.threshold == 0.5


def test_balanced_point_accounting_on_max_cliques():
    for family, universe, m in [
        ("paper_example_sec6", 4, 2),
        ("full", 3, 2),
        ("thresholds", 4, 2),
        ("parities", 3, 2),
    ]:
        g = build_graph(generate(family, universe=universe), m)
        clique = max_clique(g)
        if clique.size < 2:
            continue
        rep = find_balanced_point(g, clique)
        c = rep.clique_size
        assert rep.deletions <= c * m
        assert rep.edges_dropped < c * (c - 1) // 2
        assert rep.surviving_edges >= 1
        assert min(rep.count_zero, rep.count_one) >= rep.threshold
        assert 0 <= rep.point < g.cls.universe_size


def reference_balanced_point(g, clique):
    """The elimination loop as first written: each member's examples as a
    {(p, l): copies} dict beside its masks, and each member's surviving
    edges as a mask updated after every deletion."""
    members = clique.members
    c = len(members)
    if c < 2:
        raise DegenerateCliqueError("balanced point needs a clique of size >= 2")
    m = g.m
    threshold = Fraction(c - 1, 2 * m)
    work, ones, zeros = [], [], []
    for idx in members:
        d = {}
        for ex in g.vertices[idx]:
            d[(ex.point, ex.label)] = d.get((ex.point, ex.label), 0) + 1
        work.append(d)
        ones.append(g.ones[idx])
        zeros.append(g.zeros[idx])
    alive = [((1 << c) - 1) & ~(1 << i) for i in range(c)]

    def contradicts(i, j):
        return bool((ones[i] & zeros[j]) or (zeros[i] & ones[j]))

    for a in range(c):
        for b in range(a + 1, c):
            if not contradicts(a, b):
                raise ValueError(f"input is not a clique: members {a} and {b}")
    iterations = deletions = edges_dropped = 0
    while True:
        hit = None
        for i in range(c):
            for (p, l) in sorted(work[i]):
                if sum(1 for j in range(c) if (p, 1 - l) in work[j]) < threshold:
                    hit = (i, p, l)
                    break
            if hit:
                break
        if hit is None:
            break
        iterations += 1
        i, p, l = hit
        deletions += work[i].pop((p, l))
        if l:
            ones[i] &= ~(1 << p)
        else:
            zeros[i] &= ~(1 << p)
        rest = alive[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not contradicts(i, j):
                alive[i] &= ~(1 << j)
                alive[j] &= ~(1 << i)
                edges_dropped += 1
    ei = next(i for i in range(c) if alive[i])
    ej = (alive[ei] & -alive[ei]).bit_length() - 1
    conflict = (ones[ei] & zeros[ej]) | (zeros[ei] & ones[ej])
    x = (conflict & -conflict).bit_length() - 1
    return BalancedPointReport(
        point=x,
        count_zero=sum(1 for idx in members if (g.zeros[idx] >> x) & 1),
        count_one=sum(1 for idx in members if (g.ones[idx] >> x) & 1),
        threshold=threshold,
        clique_size=c,
        iterations=iterations,
        deletions=deletions,
        edges_dropped=edges_dropped,
        surviving_edges=sum(a.bit_count() for a in alive) // 2,
    )


def balanced_point_outcome(find, g, members):
    """The report of `find`, or the type and text of what it raised."""
    try:
        return find(g, Clique(members))
    except ValueError as exc:
        return type(exc), str(exc)


def maximal_clique(g, order):
    members = []
    for v in order:
        if all((g.adj[v] >> u) & 1 for u in members):
            members.append(v)
    return tuple(sorted(members))


@st.composite
def balanced_point_inputs(draw):
    """A random class, 2 <= m <= 4, and a maximal clique of G_m grown in a
    random order, sometimes with an extra vertex that may break the clique.
    About a third of the cliques drawn make the loop delete examples."""
    n = draw(st.integers(3, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=3, max_size=12))
    g = build_graph(ConceptClass(n, rows), draw(st.integers(2, 4)))
    order = draw(st.permutations(range(g.num_vertices)))
    extra = draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=1))
    return g, tuple(sorted(set(maximal_clique(g, order)) | set(extra)))


@settings(max_examples=200, deadline=None)
@given(balanced_point_inputs())
def test_balanced_point_matches_the_reference_loop(case):
    g, members = case
    got = balanced_point_outcome(find_balanced_point, g, members)
    assert got == balanced_point_outcome(reference_balanced_point, g, members)


# 2^m-cliques of G_3 whose elimination drops edges, rare in random draws:
# (rows, members, edges dropped)
EDGE_DROPPING_CLIQUES = [
    (
        ["00111", "01000", "01011", "01111", "10100", "11001", "11010", "11100"],
        ["(0:0);(2:0);(4:0)", "(0:1);(2:0);(4:0)", "(1:0);(2:1);(4:0)", "(1:0);(2:1);(4:1)",
         "(1:1);(2:1);(4:0)", "(1:1);(2:1);(4:1)", "(2:0);(3:0);(4:1)", "(2:0);(3:1);(4:1)"],
        2,
    ),
    (
        ["00011", "00100", "01000", "01010", "01111", "10011", "10100", "11001"],
        ["(0:0);(1:0);(3:1)", "(0:0);(2:1);(3:0)", "(0:1);(1:0);(3:1)", "(0:1);(2:1);(3:0)",
         "(1:1);(2:0);(3:1)", "(1:1);(2:1);(3:1)", "(2:0);(3:0);(4:0)", "(2:0);(3:0);(4:1)"],
        1,
    ),
    (
        ["0000", "0010", "0011", "0100", "0110", "0111", "1000", "1001", "1010", "1110"],
        ["(0:0);(1:0);(2:0)", "(0:0);(1:0);(2:1)", "(0:0);(1:1);(2:0)", "(0:0);(1:1);(2:1)",
         "(0:1);(1:0);(2:1)", "(0:1);(1:1);(2:1)", "(0:1);(2:0);(3:0)", "(0:1);(2:0);(3:1)"],
        1,
    ),
]


@pytest.mark.parametrize("rows,members,dropped", EDGE_DROPPING_CLIQUES)
def test_elimination_drops_edges_as_the_reference_loop_does(rows, members, dropped):
    cls = ConceptClass(len(rows[0]), [tuple(map(int, r)) for r in rows])
    g = build_graph(cls, 3)
    clique = validate_clique(g, [g.index_of(parse_dataset(d)) for d in members])
    rep = find_balanced_point(g, clique)
    assert rep == reference_balanced_point(g, clique)
    assert (rep.edges_dropped, rep.surviving_edges) == (dropped, 28 - dropped)


def test_balanced_point_needs_two_members():
    g = build_graph(generate("full", universe=2), 1)
    with pytest.raises(DegenerateCliqueError):
        find_balanced_point(g, Clique((0,)))
    with pytest.raises(DegenerateCliqueError, match="^tree extraction needs a nonempty clique$"):
        tree_from_clique(g, Clique(()))


def test_balanced_point_rejects_non_clique():
    g = build_graph(generate("full", universe=2), 2)
    i = g.index_of(parse_dataset("(0:0);(1:0)"))
    k = g.index_of(parse_dataset("(0:0);(0:0)"))
    with pytest.raises(ValueError):
        find_balanced_point(g, Clique((i, k)))
    # members outside 0..n-1 are refused, not read from the end of the
    # tables or carried into a leaf: -16 is vertex 62 of these 78
    g = build_graph(generate("paper_example_sec6"), 3)
    wraps = (8, 12, 18, 29, 36, 42, 53, -16)
    for extract, members, bad in (
        (find_balanced_point, wraps, -16), (tree_from_clique, wraps, -16),
        (find_balanced_point, (8, 10**6), 10**6), (tree_from_clique, (10**6,), 10**6),
    ):
        with pytest.raises(IndexError, match=f"^vertex index {bad} out of range$"):
            extract(g, Clique(members))


# ─── clique <-> mistake tree ───────────────────────────────────────────────


def test_tree_from_red_clique_is_complete_and_deep_enough():
    g = build_graph(generate("paper_example_sec6"), 3)
    idx = [g.index_of(d) for d in example_red_clique_datasets()]
    clique = validate_clique(g, idx)
    tree = tree_from_clique(g, clique)
    t = min_depth(tree)
    assert is_complete(tree, t)
    # size <= (2m+1)^T is the depth guarantee the construction promises
    assert (2 * g.m + 1) ** t >= clique.size
    for path in branches(tree):
        assert len(path) == t


def test_tree_walks_keep_their_order_at_any_depth():
    leaf = MistakeLeaf()
    tree = MistakeNode(0, MistakeNode(1, leaf, leaf), leaf)
    assert serialize_tree(tree) == "n 0\nn 1\nl\nl\nl\n"
    assert branches(tree) == [[(0, 0), (1, 0)], [(0, 0), (1, 1)], [(0, 1)]]
    # a 3000-deep spine is past the default recursion limit
    text = "n 0\n" * 3000 + "l\n" * 3001
    deep = parse_tree(text)
    assert serialize_tree(deep) == text
    paths = branches(deep)
    assert len(paths) == 3001
    assert paths[0] == [(0, 0)] * 3000 and paths[-1] == [(0, 1)]


def test_parse_tree_takes_only_nonnegative_decimal_points():
    assert parse_tree("n  7 # note\nl\nl\n") == MistakeNode(7, MistakeLeaf(), MistakeLeaf())
    # the last line has more digits than int() reads
    for line in ("n -1", "n x", "n 1 2", "n", "n " + "7" * 5000):
        with pytest.raises(InvalidParamsError, match=f"^bad tree line: {re.escape(repr(line))}$"):
            parse_tree(f"{line}\nl\nl\n")


# tree lines and their near misses
TREE_LINES = st.one_of(
    st.sampled_from(["l", "l", "n 0", "n 1", "n 12", "n  3 # c", "# c", "", "n", "n -1", "n 1 2", "n +1", "n ٣"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.lists(TREE_LINES, max_size=12).map("\n".join))
@example("n " + "9" * 4301 + "\nl\nl\n")
def test_parse_tree_returns_or_raises_invalid_params(text):
    try:
        tree = parse_tree(text)
    except InvalidParamsError:
        return
    assert parse_tree(serialize_tree(tree)) == tree


def test_tree_from_clique_leaves_carry_members():
    g = build_graph(generate("full", universe=2), 2)
    clique = max_clique(g)
    tree = tree_from_clique(g, clique)
    seen = set()

    def walk(node):
        if isinstance(node, MistakeLeaf):
            assert node.members
            seen.update(node.members)
        else:
            walk(node.zero)
            walk(node.one)

    walk(tree)
    assert seen <= set(clique.members)


def test_clique_from_tree_round_trip_through_full_class():
    g = build_graph(generate("full", universe=2), 2)
    tree = MistakeNode(
        0,
        MistakeNode(1, MistakeLeaf(), MistakeLeaf()),
        MistakeNode(1, MistakeLeaf(), MistakeLeaf()),
    )
    clique = clique_from_tree(g, tree)
    assert clique.size == 4


def test_clique_from_tree_rejects_shallow_tree():
    g = build_graph(generate("full", universe=2), 2)
    tree = MistakeNode(0, MistakeLeaf(), MistakeLeaf())
    with pytest.raises(NotCompleteError):
        clique_from_tree(g, tree)


def test_clique_from_tree_rejects_repeated_point():
    g = build_graph(generate("full", universe=2), 2)
    tree = MistakeNode(
        0,
        MistakeNode(0, MistakeLeaf(), MistakeLeaf()),
        MistakeNode(1, MistakeLeaf(), MistakeLeaf()),
    )
    with pytest.raises(NotShatteredError, match=r"^branch \[\(0, 0\), \(0, 1\)\] repeats a point"):
        clique_from_tree(g, tree)


def test_clique_from_tree_names_a_negative_point():
    # a negative point is its own error, not a repeat
    g = build_graph(generate("disjoint_pairs", universe=2), 1)
    with pytest.raises(InvalidParamsError, match="^negative point index -1$"):
        clique_from_tree(g, MistakeNode(-1, MistakeLeaf(), MistakeLeaf()))


def test_clique_from_tree_refuses_a_point_outside_the_universe_before_any_dataset():
    # the bit masks of a dataset holding point 10^8 alone take 12.5 MB
    g = build_graph(generate("disjoint_pairs", universe=2), 1)
    tree = MistakeNode(10**8, MistakeLeaf(), MistakeLeaf())
    tracemalloc.start()
    try:
        with pytest.raises(NotShatteredError, match=r"queries a point outside the universe of 2 points$"):
            clique_from_tree(g, tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_clique_from_tree_rejects_unrealizable_branch():
    # thresholds cannot label point 0 zero and point 1 one
    g = build_graph(generate("thresholds", universe=2), 2)
    tree = MistakeNode(
        0,
        MistakeNode(1, MistakeLeaf(), MistakeLeaf()),
        MistakeNode(1, MistakeLeaf(), MistakeLeaf()),
    )
    with pytest.raises(NotShatteredError):
        clique_from_tree(g, tree)


def test_tree_round_trip_preserves_clique_size():
    # clique -> tree -> clique certifies 2^T <= omega
    for family, universe in [("paper_example_sec6", 4), ("full", 3)]:
        cls = generate(family, universe=universe)
        g = build_graph(cls, 2)
        clique = max_clique(g)
        tree = tree_from_clique(g, clique)
        t = min_depth(tree)
        if t < 1:
            continue
        g_t = build_graph(cls, t)
        back = clique_from_tree(g_t, tree)
        assert back.size == 2**t
