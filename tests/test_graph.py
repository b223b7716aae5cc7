"""Contradiction-graph construction checked against independent enumeration."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cliquedim import (
    ContradictionGraph,
    Caps,
    ConceptClass,
    Dataset,
    FractionalClique,
    InvalidParamsError,
    LabeledExample,
    clear_caches,
    fractional_clique_dimension,
    ResourceLimitError,
    build_graph,
    clique_from_tree,
    dimension_report,
    export_edge_list,
    generate,
    has_clique_of_size,
    independent_sets,
    is_consistent,
    littlestone_witness,
    max_clique,
    omega_star,
    parse_class_text,
    parse_dataset,
    validate_clique,
    validate_cover,
    validate_packing,
    wl_fingerprint,
)
from cliquedim import dimensions
from cliquedim.concepts import mask_to_pattern
from cliquedim.graph import build_core, count_vertices


def oracle_graph(cls, m):
    items = oracles.enumerate_realizable_multisets(cls, m)
    return items, oracles.adjacency_from_collections(items)


def test_full_universe_1_m_1():
    g = build_graph(generate("full", universe=1), 1)
    assert g.num_vertices == 2
    assert g.num_edges == 1


def test_example_class_m1_counts():
    g = build_graph(generate("paper_example_sec6"), 1)
    assert g.num_vertices == 8
    assert g.num_edges == 4


def test_example_class_m3_vertex_count():
    g = build_graph(generate("paper_example_sec6"), 3)
    assert g.num_vertices == 78


def test_anchor_m2_structure():
    g = build_graph(generate("disjoint_pairs", universe=2), 2)
    assert g.num_vertices == 6
    assert g.num_edges == 7
    # same-label datasets on distinct points never contradict
    i = g.index_of(parse_dataset("(0:0);(0:0)"))
    j = g.index_of(parse_dataset("(1:1);(1:1)"))
    assert not (g.adj[i] >> j) & 1


@pytest.mark.parametrize(
    "family,universe,m",
    [
        ("full", 2, 2),
        ("full", 3, 2),
        ("thresholds", 3, 2),
        ("parities", 3, 2),
        ("disjoint_pairs", 2, 3),
        ("paper_example_sec6", 4, 2),
    ],
)
def test_graph_matches_enumeration_oracle(family, universe, m):
    cls = generate(family, universe=universe)
    g = build_graph(cls, m)
    items, adj = oracle_graph(cls, m)
    assert g.num_vertices == len(items)
    # same vertex set and same adjacency, keyed by rendering
    rendered = [v.render() for v in g.vertices]
    oracle_rendered = [
        ";".join(f"({p}:{l})" for p, l in item) for item in items
    ]
    assert sorted(rendered) == sorted(oracle_rendered)
    pos = {r: k for k, r in enumerate(oracle_rendered)}
    for i in range(g.num_vertices):
        for j in range(i + 1, g.num_vertices):
            oi, oj = pos[rendered[i]], pos[rendered[j]]
            assert (g.adj[i] >> j) & 1 == (adj[oi] >> oj) & 1


def test_vertices_are_canonically_sorted():
    g = build_graph(generate("full", universe=2), 2)
    assert list(g.vertices) == sorted(g.vertices)
    for v, idx in ((v, g.index_of(v)) for v in g.vertices):
        assert g.vertices[idx] == v


def test_adjacency_is_symmetric_and_irreflexive():
    g = build_graph(generate("parities", universe=3), 2)
    for i in range(g.num_vertices):
        assert not (g.adj[i] >> i) & 1
        rest = g.adj[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            assert (g.adj[j] >> i) & 1


def test_build_graph_rejects_bad_m():
    with pytest.raises(ValueError):
        build_graph(generate("full", universe=2), 0)


def test_vertex_cap_enforced():
    caps = Caps(max_vertices=5)
    with pytest.raises(ResourceLimitError) as exc:
        build_graph(generate("paper_example_sec6"), 3, caps)
    assert exc.value.dimension == "vertex-cap"


def test_universe_cap_enforced():
    with pytest.raises(ResourceLimitError):
        Caps(max_pattern_universe=3).check_universe(4)


@pytest.mark.parametrize("field", ["max_vertices", "max_pattern_universe", "node_budget"])
def test_negative_caps_are_invalid_params(field):
    assert getattr(Caps(**{field: 0}), field) == 0
    with pytest.raises(InvalidParamsError, match=f"{field} must be >= 0"):
        Caps(**{field: -1})


# ─── consistency-set families ──────────────────────────────────────────────


def test_independent_sets_are_independent_and_cover():
    g = build_graph(generate("paper_example_sec6"), 2)
    fam = independent_sets(g)
    covered = 0
    for vm in fam.masks:
        covered |= vm
        members = [i for i in range(g.num_vertices) if (vm >> i) & 1]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                assert not (g.adj[members[a]] >> members[b]) & 1
    assert covered == (1 << g.num_vertices) - 1


def test_independent_sets_match_anchor_hand_count():
    g = build_graph(generate("disjoint_pairs", universe=2), 2)
    fam = independent_sets(g, maximal_only=True)
    sets = {vm for vm in fam.masks}
    by_render = {v.render(): i for i, v in enumerate(g.vertices)}

    def mask(*renders):
        out = 0
        for r in renders:
            out |= 1 << by_render[r]
        return out

    assert sets == {
        mask("(0:0);(0:0)", "(0:0);(1:0)", "(1:0);(1:0)"),
        mask("(0:1);(0:1)", "(0:1);(1:1)", "(1:1);(1:1)"),
        mask("(0:0);(0:0)", "(1:1);(1:1)"),
        mask("(0:1);(0:1)", "(1:0);(1:0)"),
    }


def test_maximal_only_prunes_subsets():
    g = build_graph(generate("full", universe=2), 2)
    full_fam = independent_sets(g)
    pruned = independent_sets(g, maximal_only=True)
    assert set(pruned.masks) <= set(full_fam.masks)
    for vm in pruned.masks:
        assert not any(o != vm and vm & ~o == 0 for o in pruned.masks)


def maximal_by_pairs(g):
    """Referee: the inclusion-maximal V_h by testing every pair of distinct
    sets, in witness order."""
    fam = independent_sets(g)
    keep = [
        k for k, vm in enumerate(fam.masks) if not any(o != vm and vm & ~o == 0 for o in fam.masks)
    ]
    return tuple(fam.patterns[k] for k in keep), tuple(fam.masks[k] for k in keep)


@st.composite
def full_graphs_and_cores(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12))
    build = draw(st.sampled_from([build_graph, build_core]))
    # the core is built only for m <= |X|
    most = 4 if build is build_graph else min(n, 4)
    return build(ConceptClass(n, rows), draw(st.integers(1, most)))


@settings(max_examples=150, deadline=None)
@given(full_graphs_and_cores())
def test_sorted_prune_keeps_the_pairwise_maximal_sets(g):
    fam = independent_sets(g, maximal_only=True)
    assert (fam.patterns, fam.masks) == maximal_by_pairs(g)


def test_sorted_prune_drops_the_sets_inside_another():
    # the one row 10 at m = 1: V_h for h = 00, 10, 11 are {(1:0)},
    # {(0:1), (1:0)} and {(0:1)}, and only the middle one is maximal
    g = build_graph(parse_class_text("points 2\nhypotheses 1\n10\n"), 1)
    assert len(independent_sets(g)) == 3
    fam = independent_sets(g, maximal_only=True)
    assert len(fam) == 1
    assert (fam.patterns, fam.masks) == maximal_by_pairs(g)


@pytest.fixture
def adjacency_builds(monkeypatch):
    """The graphs whose `adj` gets built while the test runs."""
    built = []
    build = ContradictionGraph.adj.func

    def spy(g):
        built.append(g)
        return build(g)

    lazy = functools.cached_property(spy)
    lazy.__set_name__(ContradictionGraph, "adj")
    monkeypatch.setattr(ContradictionGraph, "adj", lazy)
    return built


def test_the_lp_path_never_builds_the_adjacency(adjacency_builds):
    omega_star(build_graph(generate("thresholds", universe=5), 3))
    clear_caches()
    fractional_clique_dimension(generate("random", universe=5, count=8, seed=2), 3)
    assert adjacency_builds == []


def test_no_clique_entry_point_builds_the_adjacency(adjacency_builds, monkeypatch):
    cls = generate("thresholds", universe=4)
    g = build_graph(cls, 2)
    clique = max_clique(g)
    assert has_clique_of_size(g, clique.size) and not has_clique_of_size(g, clique.size + 1)
    assert validate_clique(g, clique.members) == clique
    assert clique_from_tree(g, littlestone_witness(cls)).size == 4
    # the report must reach its ceiling check: omega_3 of the core is |H| = 5
    checked = []
    validate = dimensions.validate_clique
    monkeypatch.setattr(
        dimensions, "validate_clique", lambda g, members: checked.append(g.m) or validate(g, members)
    )
    clear_caches()
    dimension_report(cls, m_max_clique=3, m_max_lp=3)
    assert checked == [3]
    assert adjacency_builds == []


def test_repr_leaves_the_adjacency_unbuilt():
    g = build_graph(generate("paper_example_sec6"), 3)
    assert repr(g) == "ContradictionGraph(m=3, vertices=78)"
    assert "adj" not in vars(g)


def test_witness_patterns_are_consistent_with_members():
    g = build_graph(generate("thresholds", universe=3), 2)
    fam = independent_sets(g, maximal_only=True)
    for pat, vm in zip(fam.patterns, fam.masks):
        for i in range(g.num_vertices):
            if (vm >> i) & 1:
                assert is_consistent(pat, g.vertices[i])


# ─── the incidence table against the pairwise definitions ────────────────


def reference_adjacency(g):
    """Edges by testing every pair of vertices for a contradicting point."""
    n = g.num_vertices
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (g.ones[i] & g.zeros[j]) or (g.zeros[i] & g.ones[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def reference_consistent(g, hm):
    """V_h by testing every vertex against the labeling."""
    vm = 0
    for v in range(g.num_vertices):
        if (g.ones[v] & ~hm) == 0 and (g.zeros[v] & hm) == 0:
            vm |= 1 << v
    return vm


def reference_row_covers(realizers):
    """covers[k] = the vertices whose realizer mask has row k."""
    covers = {}
    for v, rows in enumerate(realizers):
        while rows:
            k = (rows & -rows).bit_length() - 1
            rows &= rows - 1
            covers[k] = covers.get(k, 0) | (1 << v)
    return list(covers.values())


def reference_independent_sets(g, maximal_only):
    n = g.cls.universe_size
    seen = {}
    order = []
    for hm in range(1 << n):
        vm = reference_consistent(g, hm)
        if vm and vm not in seen:
            seen[vm] = hm
            order.append(vm)
    if maximal_only:
        order = [vm for vm in order if not any(o != vm and vm & ~o == 0 for o in order)]
    return tuple(mask_to_pattern(seen[vm], n) for vm in order), tuple(order)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12))
    return build_graph(ConceptClass(n, rows), draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_incidence_table_matches_the_pairwise_definitions(g):
    assert g.adj == reference_adjacency(g)
    for hm in range(1 << g.cls.universe_size):
        assert g.consistent(hm) == reference_consistent(g, hm)
    covers = [g.consistent(rm) for rm in g.cls.row_masks]
    assert sorted(covers) == sorted(reference_row_covers(g.realizers))
    for maximal_only in (False, True):
        fam = independent_sets(g, maximal_only=maximal_only)
        assert (fam.patterns, fam.masks) == reference_independent_sets(g, maximal_only)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_vertices_equal_datasets_built_by_the_full_constructor(g):
    assert [v.examples for v in g.vertices] == oracles.enumerate_realizable_multisets(g.cls, g.m)
    for v in g.vertices:
        full = Dataset(v.examples)
        assert v == full
        assert hash(v) == hash(full)
        assert (v.ones_mask, v.zeros_mask) == (full.ones_mask, full.zeros_mask)
        assert all(type(ex) is LabeledExample for ex in v.examples)


@st.composite
def graphs_and_member_lists(draw):
    g = draw(small_graphs())
    members = draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=6))
    return g, members


@settings(max_examples=200, deadline=None)
@given(graphs_and_member_lists())
def test_validate_clique_decides_as_the_adjacency_bits_do(case):
    g, members = case
    # a repeated member pairs with itself, and no vertex is its own neighbour
    pairwise = all((g.adj[u] >> v) & 1 for u, v in itertools.combinations(members, 2))
    try:
        validate_clique(g, members)
    except ValueError:
        assert not pairwise
    else:
        assert pairwise


@st.composite
def classes_and_lengths(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8))
    return ConceptClass(n, rows), draw(st.integers(1, n + 2))


@settings(max_examples=120, deadline=None)
@given(classes_and_lengths())
def test_the_count_and_the_core_agree_with_the_full_graph(case):
    # the core keeps omega_m and omega*_m, and its LP certificate is one of
    # the full G_m; the full searches and LPs run only where they are small.
    # The count is checked at every m, the core only for m <= |X|
    cls, m = case
    g = build_graph(cls, m)
    assert count_vertices(cls, m) == g.num_vertices
    if m > cls.universe_size:
        return
    core = build_core(cls, m)
    kept = [i for i, v in enumerate(g.vertices) if (v.ones_mask | v.zeros_mask).bit_count() == m]
    assert core.vertices == tuple(g.vertices[i] for i in kept)
    assert core.realizers == tuple(g.realizers[i] for i in kept)
    omega, cert = max_clique(core).size, omega_star(core)
    if g.num_vertices <= 400:
        assert omega == max_clique(g).size
    if g.num_vertices <= 150:
        assert cert.value == omega_star(g).value
    if (2 * cls.universe_size) ** m <= 64:
        assert (omega, cert.value) == (oracles.sequence_omega(cls, m), oracles.sequence_omega_star(cls, m))
    primal = {kept[i]: w for i, w in cert.clique.weights.items()}
    validate_packing(g, FractionalClique(primal, cert.clique.size))
    validate_cover(g, cert.coloring)


# ─── rendering ─────────────────────────────────────────────────────────────


def test_edge_list_header_and_shape():
    g = build_graph(generate("disjoint_pairs", universe=2), 2)
    text = export_edge_list(g)
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "p 6 7"
    e_lines = [l for l in lines if l.startswith("e ")]
    assert len(e_lines) == 7
    for line in e_lines:
        _, i, j = line.split()
        assert (g.adj[int(i)] >> int(j)) & 1


def test_edge_list_verbose_vertices_parse_back():
    g = build_graph(generate("full", universe=2), 1)
    text = export_edge_list(g, verbose=True)
    v_lines = [l for l in text.splitlines() if l.startswith("v ")]
    assert len(v_lines) == g.num_vertices
    for line in v_lines:
        _, idx, render = line.split(maxsplit=2)
        assert parse_dataset(render) == g.vertices[int(idx)]


def test_fingerprint_is_deterministic_and_discriminates():
    cls = generate("paper_example_sec6")
    a = wl_fingerprint(build_graph(cls, 2))
    b = wl_fingerprint(build_graph(cls, 2))
    c = wl_fingerprint(build_graph(cls, 1))
    assert a == b
    assert a != c
    assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


def test_fingerprint_invariant_under_vertex_relabeling():
    # two structurally identical graphs built from relabeled points
    a = ConceptClass(2, [(0, 0), (1, 1)])
    b = ConceptClass(2, [(0, 1), (1, 0)])  # swap labels at point 1
    ga = build_graph(a, 2)
    gb = build_graph(b, 2)
    assert ga.num_vertices == gb.num_vertices
    assert ga.num_edges == gb.num_edges
    assert wl_fingerprint(ga) == wl_fingerprint(gb)
