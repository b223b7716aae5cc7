"""Dimension computations: frozen values, exactness flags, and inequalities."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cliquedim import (
    DEFAULT_CAPS,
    Caps,
    ConceptClass,
    Dataset,
    EmptyClassError,
    FractionalClique,
    FractionalColoring,
    InvariantError,
    build_graph,
    cached_omega_star,
    check_inequalities,
    clear_caches,
    clique_dimension,
    clique_from_tree,
    dimension_report,
    fcd_alpha_cutoff,
    fractional_clique_dimension,
    generate,
    littlestone_dimension,
    littlestone_witness,
    max_clique,
    omega_star,
    smallest_separating_m0,
    tech_cd_cutoff,
    validate_clique,
    validate_cover,
    validate_packing,
    vc_dimension,
)
from cliquedim.cli import corpus
from cliquedim.cliques import clique_ceiling
from cliquedim.dimensions import EXACT, LOWER_BOUND, DimensionValue, _sweep
from cliquedim.trees import branches, is_complete, min_depth


# ─── VC and mistake-bound dimensions ───────────────────────────────────────


@pytest.mark.parametrize(
    "family,universe,vc,ld",
    [
        ("full", 1, 1, 1),
        ("full", 2, 2, 2),
        ("full", 3, 3, 3),
        ("singleton", 3, 0, 0),
        ("thresholds", 3, 1, 2),
        ("disjoint_pairs", 2, 1, 1),
        ("paper_example_sec6", 4, 2, 2),
    ],
)
def test_vc_and_ld_frozen(family, universe, vc, ld):
    cls = generate(family, universe=universe)
    assert vc_dimension(cls) == vc
    assert littlestone_dimension(cls) == ld


def exhaustive_vc(cls):
    """The size of the largest shattered point set, over every subset."""
    n = cls.universe_size
    best = 0
    for mask in range(1 << n):
        pts = [p for p in range(n) if (mask >> p) & 1]
        if len({tuple(row[p] for p in pts) for row in cls.hypotheses}) == 1 << len(pts):
            best = max(best, len(pts))
    return best


def test_vc_by_exhaustive_shattering():
    # independent check: enumerate all point subsets directly
    cls = generate("paper_example_sec6")
    assert vc_dimension(cls) == exhaustive_vc(cls) == 2


@st.composite
def dense_classes(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=40))
    return ConceptClass(n, rows)


@settings(max_examples=300, deadline=None)
@given(dense_classes())
def test_vc_equals_exhaustive_shattering_on_random_classes(cls):
    assert vc_dimension(cls) == exhaustive_vc(cls)


def test_vc_of_the_point_functions_is_quick():
    # the zero row and every unit row over 300 points: no point takes label 1
    # on two rows, so no pair of points is tried; the size bound log2 |H|
    # alone would leave C(300, 8) ≈ 1.5e15 point sets to try first
    n = 300
    rows = [tuple(int(p == q) for p in range(n)) for q in range(-1, n)]
    cls = ConceptClass(n, rows)
    t0 = time.monotonic()
    assert vc_dimension(cls) == 1
    assert time.monotonic() - t0 < 1.0


def test_dimensions_reject_empty_class():
    empty = ConceptClass(2, [])
    with pytest.raises(EmptyClassError):
        vc_dimension(empty)
    with pytest.raises(EmptyClassError):
        littlestone_dimension(empty)


def test_littlestone_witness_is_complete_and_realizable():
    for family, universe in [("paper_example_sec6", 4), ("thresholds", 3), ("full", 2)]:
        cls = generate(family, universe=universe)
        d = littlestone_dimension(cls)
        if d == 0:
            continue
        tree = littlestone_witness(cls)
        assert is_complete(tree, d)
        g = build_graph(cls, d)
        clique = clique_from_tree(g, tree)  # realizability + pairwise checks
        assert clique.size == 2**d


def test_example_class_witness_maps_to_known_clique():
    cls = generate("paper_example_sec6")
    g = build_graph(cls, 2)
    clique = clique_from_tree(g, littlestone_witness(cls))
    assert clique.members == (1, 2, 8, 9)


@st.composite
def small_classes(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=min(24, 1 << n)))
    return ConceptClass(n, rows)


@settings(max_examples=150, deadline=None)
@given(small_classes())
@example(generate("thresholds", universe=5))
@example(generate("paper_example_sec6"))
def test_ld_and_witness_match_the_reference_recursion(cls):
    d = oracles.reference_littlestone(cls)
    assert littlestone_dimension(cls) == d
    tree = littlestone_witness(cls)
    assert is_complete(tree, d)
    if d:
        assert clique_from_tree(build_graph(cls, d), tree).size == 1 << d


def lines(p: int) -> ConceptClass:
    """The p^2 + p lines of the affine plane F_p^2, point (a, b) at index
    a*p + b, one row per line with 1 on its p points."""
    plane = [(a, b) for a in range(p) for b in range(p)]
    slopes = [tuple(int(b == (s * a + c) % p) for a, b in plane) for s in range(p) for c in range(p)]
    verticals = [tuple(int(a == c) for a, _ in plane) for c in range(p)]
    return ConceptClass(p * p, slopes + verticals)


@pytest.mark.parametrize("p", [5, 7])
def test_ld_of_lines_is_two_with_a_four_clique_witness(p):
    # two lines meet in at most one point, so the p + 1 lines through a
    # point split off one at a time: no depth-3 tree.  Splits that peel off
    # few lines reach exponentially many restrictions unless those under
    # 2^d rows are refused at once
    cls = lines(p)
    assert len(cls.hypotheses) == p * p + p
    assert littlestone_dimension(cls) == 2
    clique = clique_from_tree(build_graph(cls, 2), littlestone_witness(cls))
    assert clique.size == 4


# ─── analytic cutoffs ──────────────────────────────────────────────────────


def test_tech_cutoff_frozen_and_minimal():
    assert tech_cd_cutoff(2) == 9
    assert tech_cd_cutoff(3) == 15

    def holds(m, d):
        return (2 * m + 1) ** d < 2**m and m * 693147 >= d * 10**6

    for d in (2, 3, 4):
        c = tech_cd_cutoff(d)
        assert holds(c, d)
        assert not holds(c - 1, d)


def test_fcd_cutoff_properties():
    c = fcd_alpha_cutoff(Fraction(1, 2))
    assert c is not None and c > 3
    # past the cutoff the packing bound m^alpha beats 2^m for the implied
    # alpha, so separation is automatic; spot-check the defining inequality
    # at the cutoff using the conservative alpha it certifies
    assert fcd_alpha_cutoff(Fraction(1, 4)) > c
    assert fcd_alpha_cutoff(Fraction(10**-7)) is None


def test_fcd_cutoff_never_binds_below_the_pattern_cap():
    # cd* skips this cutoff because it is never below 97 for a margin in
    # (0, 1), while |X| stays within the pattern cap
    from cliquedim import DEFAULT_CAPS

    cutoffs = [fcd_alpha_cutoff(Fraction(p, q)) for q in range(2, 17) for p in range(1, q)]
    assert len(cutoffs) == 120
    assert all(c is None or c >= 97 for c in cutoffs)
    assert DEFAULT_CAPS.max_pattern_universe < 97


# ─── clique dimension ──────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "family,universe,m_max,value,exactness",
    [
        ("paper_example_sec6", 4, 4, 3, EXACT),
        ("paper_example_sec6", 4, 3, 3, EXACT),
        ("full", 2, 3, 2, EXACT),
        ("full", 3, 3, 3, EXACT),
        ("full", 4, 3, 3, LOWER_BOUND),
        ("singleton", 2, 3, 0, EXACT),
        ("disjoint_pairs", 2, 3, 1, EXACT),
    ],
)
def test_clique_dimension_frozen(family, universe, m_max, value, exactness):
    got = clique_dimension(generate(family, universe=universe), m_max)
    assert (got.value, got.exactness) == (value, exactness)


@pytest.mark.parametrize(
    "family,universe,m_max,value,exactness",
    [
        ("paper_example_sec6", 4, 3, 3, EXACT),
        ("full", 2, 3, 2, EXACT),
        ("full", 3, 3, 3, EXACT),
        ("full", 4, 3, 3, LOWER_BOUND),
        ("singleton", 2, 3, 0, EXACT),
        ("disjoint_pairs", 2, 3, 1, EXACT),
        # corpus classes whose exactness extension runs past m_max
        ("thresholds", 4, 3, 2, EXACT),
        ("random-5", 4, 3, 1, EXACT),
        ("random-7", 4, 3, 2, EXACT),
        # benchmark classes whose extension the row bound 2^m <= |H| ends
        ("random-5-8-2", 5, 3, 2, EXACT),
        ("random-6-8-2", 6, 3, 3, EXACT),
        # ld = 3 and |H| = 16: the extension solves omega*_4 = 47/3 < 16 on
        # the core of G_4 (166 of its 802 vertices)
        ("random-6-16-1", 6, 3, 3, EXACT),
    ],
)
def test_fractional_clique_dimension_frozen(family, universe, m_max, value, exactness):
    named = dict(corpus())
    named["random-5-8-2"] = generate("random", universe=5, count=8, seed=2)
    named["random-6-8-2"] = generate("random", universe=6, count=8, seed=2)
    named["random-6-16-1"] = generate("random", universe=6, count=16, seed=1)
    cls = named[family] if family in named else generate(family, universe=universe)
    assert cls.universe_size == universe
    got = fractional_clique_dimension(cls, m_max)
    assert (got.value, got.exactness) == (value, exactness)


def test_memo_applies_caps_on_every_call():
    # a graph cached under large caps still refuses a smaller vertex cap,
    # and a cached certificate a smaller pattern cap
    from cliquedim import Caps, ResourceLimitError, cached_graph, cached_omega_star, clear_caches

    cls = generate("thresholds", universe=5)
    clear_caches()
    g = cached_graph(cls, 3, Caps())
    with pytest.raises(ResourceLimitError) as exc:
        cached_omega_star(cls, 3, Caps(max_vertices=g.num_vertices - 1))
    assert exc.value.dimension == "vertex-cap"
    assert cached_graph(cls, 3, Caps(max_vertices=g.num_vertices)) is g
    with pytest.raises(ResourceLimitError) as exc:
        cached_omega_star(cls, 3, Caps(max_pattern_universe=4))
    assert exc.value.dimension == "pattern-cap"
    clear_caches()


def test_memo_evicts_its_oldest_record_at_memo_size(monkeypatch):
    # with room for two records, reading m = 3 drops m = 1, the oldest: its
    # next read counts G_1 again, while m = 3 stays
    import cliquedim.dimensions as dims
    from cliquedim import Caps, cached_graph

    counted = []
    count = dims.count_vertices
    monkeypatch.setattr(dims, "MEMO_SIZE", 2)
    monkeypatch.setattr(dims, "count_vertices", lambda cls, m, caps: counted.append(m) or count(cls, m, caps))
    cls = generate("thresholds", universe=3)
    clear_caches()
    try:
        for m in (1, 2, 3):
            cached_graph(cls, m, Caps())
        assert counted == [1, 2, 3]
        g3 = cached_graph(cls, 3, Caps())
        assert counted == [1, 2, 3]
        cached_graph(cls, 1, Caps())
        assert counted == [1, 2, 3, 1]
        assert cached_graph(cls, 3, Caps()) is g3 and counted == [1, 2, 3, 1]
    finally:
        clear_caches()


def test_clique_dimension_needs_no_graph_when_ld_reaches_log2_rows(monkeypatch):
    # ld = 3 = floor(log2 12): m <= 3 pass by the mistake tree, m >= 4 fail
    # by the row bound omega_m <= |H| = 12 < 16, so no G_m is built
    import cliquedim.dimensions as dims
    from cliquedim import clear_caches

    built = []
    monkeypatch.setattr(dims, "build_graph", lambda *a: built.append(a[1]))
    clear_caches()
    got = clique_dimension(generate("random", universe=6, count=12, seed=1), 3)
    clear_caches()
    assert (got.value, got.exactness) == (3, EXACT)
    assert built == []


def test_clique_dimension_refutes_a_budget_hit_with_omega_star():
    # ld = 3 and |H| = 16 = 2^4, so m = 4 needs a proof that G_4 has no
    # 16-clique, which runs past 10^3 nodes on G_4 and on its core alike;
    # omega*_4 = 47/3 < 16 settles it
    from cliquedim import Caps, ResourceLimitError, cached_omega_star, clear_caches
    from cliquedim.cliques import has_clique_of_size
    from cliquedim.graph import build_core

    cls = generate("random", universe=6, count=16, seed=1)
    caps = Caps(node_budget=10**3)
    clear_caches()
    got = clique_dimension(cls, 3, caps)
    assert (got.value, got.exactness) == (3, EXACT)
    assert cached_omega_star(cls, 4, caps).value == Fraction(47, 3)
    for g in (build_graph(cls, 4), build_core(cls, 4)):
        with pytest.raises(ResourceLimitError):
            has_clique_of_size(g, 16, caps)
    clear_caches()


def test_clique_dimension_refutes_m4_by_omega_star_without_search(monkeypatch):
    # random(6,16,1): ld = 3 and |H| = 16 = 2^4, and omega*_4 = 47/3 < 16
    # fails m = 4 before any clique search (the search takes 6,549 nodes)
    import cliquedim.dimensions as dims
    from cliquedim import clear_caches

    cls = generate("random", universe=6, count=16, seed=1)
    clear_caches()
    monkeypatch.setattr(dims, "has_clique_of_size", lambda *a: pytest.fail("searched"))
    got = clique_dimension(cls, 4)
    clear_caches()
    assert (got.value, got.exactness) == (3, EXACT)


def test_cached_omega_star_below_two_pow_m_fails_m_without_search(monkeypatch):
    # random(5,8,2): ld = 2 < 3 = floor(log2 8), and omega*_3 = 7 < 8
    import cliquedim.dimensions as dims
    from cliquedim import cached_omega_star, clear_caches

    cls = generate("random", universe=5, count=8, seed=2)
    clear_caches()
    assert (littlestone_dimension(cls), cached_omega_star(cls, 3, dims.DEFAULT_CAPS).value) == (2, 7)
    monkeypatch.setattr(dims, "has_clique_of_size", lambda *a: pytest.fail("searched"))
    got = clique_dimension(cls, 4)
    clear_caches()
    assert (got.value, got.exactness) == (2, EXACT)


@pytest.mark.parametrize(
    "caps, expected",
    [
        # G_3 has more than 60 vertices, so cd under that cap stops at a
        # lower bound, and an omega*_3 = 7 cached under the default caps
        # must not read past the cap to make it exact
        (Caps(max_vertices=60), DimensionValue(2, LOWER_BOUND)),
        # under a pattern cap below |X| = 5 no LP runs, so the search
        # refutes m = 3, and an omega*_3 cached without the cap must not
        # be read in its place
        (Caps(max_pattern_universe=0), DimensionValue(2, EXACT)),
    ],
    ids=["vertex-cap", "pattern-cap"],
)
def test_clique_dimension_answers_the_same_with_or_without_a_cached_omega_star(caps, expected):
    # random(5,8,2): ld = 2 < 3 = floor(log2 8)
    cls = generate("random", universe=5, count=8, seed=2)
    clear_caches()
    fresh = clique_dimension(cls, 4, caps)
    clear_caches()
    cached_omega_star(cls, 3, Caps())
    after = clique_dimension(cls, 4, caps)
    clear_caches()
    assert fresh == after == expected


def test_fractional_clique_dimension_needs_no_lp_when_ld_reaches_log2_rows(monkeypatch):
    # thresholds(5): ld = 2 = floor(log2 6), so m <= 2 pass by the mistake
    # tree and m >= 3 fail by the row bound
    import cliquedim.dimensions as dims
    import cliquedim.simplex as simplex
    from cliquedim import clear_caches

    solves, built = [], []
    solve = simplex.solve_packing_lp
    monkeypatch.setattr(simplex, "solve_packing_lp", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(dims, "build_graph", lambda *a: built.append(a[1]))
    clear_caches()
    got = fractional_clique_dimension(generate("thresholds", universe=5), 3)
    clear_caches()
    assert (got.value, got.exactness) == (2, EXACT)
    assert (solves, built) == ([], [])


@st.composite
def classes_with_two_rows(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=2, max_size=1 << n))
    return ConceptClass(n, rows)


@settings(max_examples=100, deadline=None)
@given(classes_with_two_rows())
def test_omega_star_is_at_least_two_with_two_rows(cls):
    # two rows differ at some x, so m copies of (x,0) and m copies of (x,1)
    # are adjacent: omega*_m = 1 happens only for |H| = 1, where the sweep
    # runs no m at all
    for m in (1, 2, 3):
        assert omega_star(build_graph(cls, m)).value >= 2


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_report_dimensions_equal_the_standalone_sweeps(name):
    from cliquedim import clear_caches

    cls = dict(corpus())[name]
    clear_caches()
    rep = dimension_report(cls)
    clear_caches()
    assert rep.cd == clique_dimension(cls, 4)
    assert rep.cd_star == fractional_clique_dimension(cls, 3)
    # rows settled by the ceiling agree with the LP
    for row in rep.rows[:3]:
        assert row.omega_star == omega_star(build_graph(cls, row.m)).value


def test_sweep_tries_no_m_past_its_upper_bound():
    tried = []

    def passes(m):
        if m > 3:
            pytest.fail(f"tried m={m} past the upper bound 3")
        tried.append(m)
        return m <= 2

    assert _sweep(10**18, 3, passes) == DimensionValue(2, EXACT)
    assert _sweep(2, 3, passes) == DimensionValue(2, EXACT)
    assert tried == [1, 2, 3, 1, 2, 3]


def test_report_runs_no_max_clique_up_to_ld(monkeypatch):
    # a complete shattered tree of depth ld settles omega_m = omega*_m = 2^m
    # for every m <= ld, and the record of every m >= |X| holds |H|
    import cliquedim.dimensions as dims
    from cliquedim import clear_caches

    searched = []
    real = dims.max_clique
    monkeypatch.setattr(dims, "max_clique", lambda g, caps: searched.append(g.m) or real(g, caps))
    for name, cls in corpus():
        searched.clear()
        clear_caches()
        rep = dimension_report(cls)
        assert searched == list(range(rep.ld + 1, min(5, cls.universe_size))), name
        for row in rep.rows[: rep.ld]:
            two = 1 << row.m
            assert (row.omega, row.omega_exact, row.omega_star) == (two, True, two), name
        for row in rep.rows[cls.universe_size - 1 :]:
            assert (row.omega, row.omega_exact) == (len(cls.hypotheses), True), name
    clear_caches()


def test_a_second_settled_value_must_agree(monkeypatch):
    # the report of paper_example_sec6 settles omega*_2 = 4 by ld = 2 and
    # omega*_3 = 8 by a clique at the ceiling; an LP that disagrees fails
    import cliquedim.dimensions as dims
    from cliquedim import clear_caches

    cls = generate("paper_example_sec6")
    clear_caches()
    try:
        dimension_report(cls)
        real = dims.omega_star
        monkeypatch.setattr(
            dims, "omega_star", lambda g, caps: dataclasses.replace(real(g, caps), value=Fraction(7))
        )
        for m in (2, 3):
            with pytest.raises(InvariantError, match=f"^omega_star of G_{m} settled as {1 << m} and as 7$"):
                cached_omega_star(cls, m, DEFAULT_CAPS)
        monkeypatch.setattr(dims, "omega_star", real)
        assert cached_omega_star(cls, 3, DEFAULT_CAPS).value == 8
    finally:
        clear_caches()


def test_a_core_lp_the_full_lp_contradicts_is_an_internal_error(monkeypatch, capsys):
    # random(5,8,2): ld = 2 and omega*_3 = 7 < 8 = 2^3, so the report
    # solves the LP of G_3's core; a wrong value there must clash with the
    # full LP that cached_omega_star and `omega-star` solve.  boost's m0
    # search solves the full LP only, the one boost reads
    import io

    import cliquedim.dimensions as dims
    from cliquedim import cli, format_class_text

    cls = generate("random", universe=5, count=8, seed=2)
    real = dims.omega_star
    solved = []

    def wrong_on_the_core(g, caps):
        cert = real(g, caps)
        solved.append(g.num_vertices)
        if g.num_vertices < build_graph(g.cls, g.m).num_vertices:
            return dataclasses.replace(cert, value=Fraction(15, 2))
        return cert

    def main(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
        return cli.main(list(argv)), capsys.readouterr()

    monkeypatch.setattr(dims, "omega_star", wrong_on_the_core)
    clash = "omega_star of G_3 settled as 15/2 and as 7"
    clear_caches()
    try:
        assert dimension_report(cls).rows[2].omega_star == Fraction(15, 2)
        with pytest.raises(InvariantError, match=f"^{clash}$"):
            smallest_separating_m0(cls)
        with pytest.raises(InvariantError, match=f"^{clash}$"):
            cached_omega_star(cls, 3, DEFAULT_CAPS)
        clear_caches()
        capsys.readouterr()
        assert main("curves", "-")[0] == 0
        assert main("omega-star", "-", "--m", "3") == (1, ("", f"internal error: {clash}\n"))
        clear_caches()
        solved.clear()
        assert main("boost", "-", "--trials", "10")[0] == 0
    finally:
        clear_caches()
    assert solved == [build_graph(cls, 3).num_vertices]


def test_settled_values_are_read_without_the_lps_pattern_cap():
    # omega*_1..3 of paper_example_sec6 are settled by ld = 2 and by the
    # 8-clique at the ceiling, so no LP and its pattern cap stand between
    # the report and cd* = 3; the LP itself still refuses the cap
    from cliquedim import Caps, ResourceLimitError, clear_caches

    cls = generate("paper_example_sec6")
    caps = Caps(max_pattern_universe=2)
    clear_caches()
    try:
        rep = dimension_report(cls, caps=caps)
        assert [row.omega_star for row in rep.rows] == [2, 4, 8, None]
        assert rep.cd_star == DimensionValue(3, EXACT)
        with pytest.raises(ResourceLimitError) as exc:
            cached_omega_star(cls, 3, caps)
        assert exc.value.dimension == "pattern-cap"
    finally:
        clear_caches()


@st.composite
def classes_and_cached_lengths(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8))
    return ConceptClass(n, rows), draw(st.integers(1, n + 1))


def _report_or_refusal(cls, caps):
    from cliquedim import ResourceLimitError

    try:
        rep = dimension_report(cls, caps=caps)
    except ResourceLimitError as exc:
        return exc.dimension
    return rep.rows, rep.cd, rep.cd_star


@settings(max_examples=100, deadline=None)
@given(classes_and_cached_lengths())
# omega*_1 = 2 is settled by ld = 2; a full LP that only confirms it must
# not make the report refuse the pattern cap a fresh report passes
@example((generate("paper_example_sec6"), 1))
def test_a_cached_certificate_leaves_a_capped_report_as_a_fresh_one(case):
    # a certificate cached under the default caps is read with the LP's
    # pattern cap exactly when a fresh report would solve an LP for omega*_m
    cls, m = case
    try:
        for cap in (0, cls.universe_size - 1):
            caps = Caps(max_pattern_universe=cap)
            clear_caches()
            fresh = _report_or_refusal(cls, caps)
            clear_caches()
            cached_omega_star(cls, m, Caps())
            assert _report_or_refusal(cls, caps) == fresh
    finally:
        clear_caches()


@st.composite
def classes_and_lengths_past_the_universe(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8))
    return ConceptClass(n, rows), n + draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(classes_and_lengths_past_the_universe())
def test_records_from_the_universe_on_read_the_row_count(case):
    # at m >= |X| the core of G_m is the complete |H|-partite graph, so the
    # record reads omega_m = omega*_m = |H| off the class and builds no
    # core; the full G_m's clique search and LP are the referee
    import cliquedim.dimensions as dims
    from cliquedim.graph import build_core

    cls, m = case
    n, rows = cls.universe_size, len(cls.hypotheses)
    g = build_graph(cls, m)
    assert (max_clique(g).size, omega_star(g).value) == (rows, rows)

    def below_the_universe(c, k):
        if k >= c.universe_size:
            pytest.fail(f"built the core of G_{k}")
        return build_core(c, k)

    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dims, "build_core", below_the_universe)
            report = dimension_report(cls, m_max_clique=m, m_max_lp=m)
            for row in report.rows[n - 1 :]:
                assert (row.omega, row.omega_exact, row.omega_star) == (rows, True, rows)
            assert cached_omega_star(cls, m, DEFAULT_CAPS).value == rows
    finally:
        clear_caches()
    with pytest.raises(ValueError, match=f"^the core is built only for m <= [|]X[|] = {n}, got m={n + 1}$"):
        build_core(cls, n + 1)


@st.composite
def small_classes(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8))
    return ConceptClass(n, rows)


def oracle_omega_star(cls, m):
    items = oracles.enumerate_realizable_multisets(cls, m)
    value, _, _ = oracles.reference_simplex(len(items), oracles.packing_constraints(cls, items))
    return value


@settings(max_examples=60, deadline=None)
@given(small_classes())
# ld = 1 < 2 = floor(log2 |H|), omega_2 = 3 and omega*_2 < 4: cd and m0 are
# decided at m = ld + 1
@example(ConceptClass(3, {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}))
# ld = 2 < 3 = floor(log2 |H|) and omega_3 = 6: without omega*_3 in the
# report, cd reads the report's own omega_3
@example(ConceptClass(4, {
    (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1),
}))
def test_settled_values_agree_with_the_oracles(cls):
    from cliquedim import clear_caches

    omegas, stars = {}, {}
    for m in (1, 2, 3):
        items = oracles.enumerate_realizable_multisets(cls, m)
        omegas[m] = oracles.max_clique_size_bk(oracles.adjacency_from_collections(items))
        stars[m] = oracle_omega_star(cls, m)
    first = next(
        m for m in itertools.count(1)
        if (stars[m] if m in stars else oracle_omega_star(cls, m)) < 1 << m
    )
    try:
        for m_max_lp in (3, 2):
            clear_caches()
            rep = dimension_report(cls, m_max_clique=3, m_max_lp=m_max_lp)
            assert smallest_separating_m0(cls) == first
            assert [(row.omega, row.omega_exact, row.omega_star) for row in rep.rows] == [
                (omegas[m], True, stars[m] if m <= m_max_lp else None) for m in (1, 2, 3)
            ]
            clear_caches()
            assert rep.cd == clique_dimension(cls, 3)
            clear_caches()
            assert rep.cd_star == fractional_clique_dimension(cls, m_max_lp)
            clear_caches()
            assert smallest_separating_m0(cls) == first
    finally:
        clear_caches()


def _value_or_refusal(query):
    from cliquedim import ResourceLimitError

    try:
        return query()
    except ResourceLimitError as exc:
        return exc.dimension


@settings(max_examples=100, deadline=None)
@given(small_classes())
# a default report settles omega*_3 = 8 by the 8-clique at the ceiling;
# under pattern cap 0 a fresh cd*, m0 search and report searching only up
# to m = 2 each need an LP for omega*_3, so each refuses or stops there.
# With room for one record, a default-range report under pattern cap 0
# reads omega*_3 = 8 off its own clique after the record of G_3 has gone
@example(generate("paper_example_sec6"))
# under node budget 0 a fresh report reads row 3 as omega = 6, inexact; a
# default report's search finds omega_3 = 7, which must not be read back
@example(generate("random", universe=5, count=8, seed=2))
def test_a_memo_read_takes_the_pattern_cap_of_the_reading_calls_fresh_run(cls):
    # every answer is the one a fresh run of the reading call gives, whatever
    # other calls left in the memo and whatever it has evicted: a value
    # another call's search settled is read with the LP's pattern cap, and
    # the node budget applies to every search the reading call makes
    import cliquedim.dimensions as dims

    try:
        for caps in (
            Caps(max_pattern_universe=0),
            Caps(max_pattern_universe=cls.universe_size - 1),
            Caps(node_budget=0),
            Caps(node_budget=5),
        ):
            for query in (
                lambda: fractional_clique_dimension(cls, 3, caps),
                lambda: smallest_separating_m0(cls, caps),
                lambda: dimension_report(cls, m_max_clique=2, m_max_lp=3, caps=caps),
                lambda: clique_dimension(cls, 4, caps),
                lambda: dimension_report(cls, caps=caps),
            ):
                clear_caches()
                fresh = _value_or_refusal(query)
                # after a default report, and with room for one record
                for room, report_first in ((dims.MEMO_SIZE, True), (1, False)):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(dims, "MEMO_SIZE", room)
                        clear_caches()
                        if report_first:
                            dimension_report(cls)
                        assert _value_or_refusal(query) == fresh, room
    finally:
        clear_caches()


def test_dimension_value_rendering():
    assert str(DimensionValue(3, EXACT)) == "=3 exact"
    assert str(DimensionValue(2, LOWER_BOUND)) == ">=2 lower-bound-at-m-max"


# ─── reports and inequalities ──────────────────────────────────────────────


def test_report_rows_shape():
    rep = dimension_report(generate("paper_example_sec6"))
    assert rep.vc == 2 and rep.ld == 2
    assert (rep.cd.value, rep.cd.exactness) == (3, EXACT)
    assert (rep.cd_star.value, rep.cd_star.exactness) == (3, EXACT)
    ms = [row.m for row in rep.rows]
    assert ms == [1, 2, 3, 4]
    by_m = {row.m: row for row in rep.rows}
    assert by_m[3].num_vertices == 78
    assert by_m[3].omega == 8 and by_m[3].omega_exact
    assert by_m[3].omega_star == 8
    assert by_m[4].omega_star is None  # beyond the LP horizon
    assert by_m[4].two_pow_m == 16


def test_sweeps_and_reports_refuse_an_m_max_below_one():
    cls = generate("paper_example_sec6")
    for call in (
        lambda: clique_dimension(cls, 0),
        lambda: fractional_clique_dimension(cls, 0),
        lambda: dimension_report(cls, m_max_clique=0),
        lambda: dimension_report(cls, m_max_lp=0),
    ):
        with pytest.raises(ValueError, match="^m_max must be >= 1$"):
            call()


def test_report_survives_node_budget_exhaustion():
    from cliquedim import Caps, clear_caches

    clear_caches()  # records key on (cls, m) alone, so start from an empty memo
    caps = Caps(node_budget=1)
    rep = dimension_report(generate("paper_example_sec6"), caps=caps)
    assert rep.cd.exactness == LOWER_BOUND
    for row in rep.rows:
        if row.omega is not None and not row.omega_exact:
            assert row.omega >= 1  # best-found clique is still reported
    clear_caches()


def test_report_revalidates_the_ceiling_certificate(monkeypatch):
    # omega*_m taken from a clique at the ceiling rests on the clique and,
    # at |H|, on every vertex of the core it was found in having a realizing
    # row; both are checked
    import cliquedim.dimensions as dims
    from cliquedim import Clique, InvariantError, clear_caches

    cls = generate("thresholds", universe=5)  # omega_3 = 6 = |H| < 8
    build_core = dims.build_core

    def rowless_first_vertex(cls, m):
        g = build_core(cls, m)
        g.realizers = (0,) + g.realizers[1:]
        return g

    monkeypatch.setattr(dims, "build_core", rowless_first_vertex)
    clear_caches()
    with pytest.raises(InvariantError, match="no realizing row"):
        dimension_report(cls)
    monkeypatch.setattr(dims, "build_core", build_core)
    clear_caches()
    monkeypatch.setattr(dims, "max_clique", lambda g, caps: Clique(tuple(range(clique_ceiling(g)))))
    with pytest.raises(InvariantError, match="not a clique"):
        dimension_report(cls)
    clear_caches()


def test_report_inequality_audit_is_clean():
    for family, universe in [
        ("paper_example_sec6", 4),
        ("full", 2),
        ("thresholds", 3),
        ("disjoint_pairs", 2),
    ]:
        rep = dimension_report(generate(family, universe=universe))
        failures = [line for line in check_inequalities(rep) if not line[1]]
        assert failures == []


def test_chain_relations_on_small_classes():
    # vc <= ld and, on the per-m table, omega_m <= omega*_m <= 2^m
    for family, universe in [("paper_example_sec6", 4), ("parities", 3), ("full", 3)]:
        cls = generate(family, universe=universe)
        rep = dimension_report(cls)
        assert vc_dimension(cls) <= littlestone_dimension(cls)
        for row in rep.rows:
            if row.omega is not None and row.omega_exact and row.omega_star is not None:
                assert row.omega <= row.omega_star <= row.two_pow_m


# ─── the census of the classes on 4 points ───────────────────────────────

# A symmetry of {0,1}^4 permutes the points and flips labels point by
# point: 4! * 2^4 = 384 of them.  Each acts on the 16 rows, written as
# 4-bit masks, and so on the classes, written as 16-bit masks over rows.
CUBE_SYMMETRIES = [
    tuple(
        sum((((row >> p) & 1) ^ flip[p]) << perm[p] for p in range(4))
        for row in range(16)
    )
    for perm in itertools.permutations(range(4))
    for flip in itertools.product((0, 1), repeat=4)
]


def class_image(rows_mask, symmetry):
    return sum(1 << symmetry[row] for row in range(16) if (rows_mask >> row) & 1)


def orbit_representatives():
    """The least class mask of each orbit of the nonempty classes."""
    seen = bytearray(1 << 16)
    reps = []
    for rows_mask in range(1, 1 << 16):
        if not seen[rows_mask]:
            reps.append(rows_mask)
            for symmetry in CUBE_SYMMETRIES:
                seen[class_image(rows_mask, symmetry)] = 1
    return reps


def class_of(rows_mask):
    return ConceptClass(4, [
        tuple((row >> p) & 1 for p in range(4)) for row in range(16) if (rows_mask >> row) & 1
    ])


def test_census_of_the_classes_on_four_points():
    reps = orbit_representatives()
    assert len(reps) == 401
    rng = random.Random(4)
    counts = {}
    gaps = set()
    try:
        for rows_mask in reps:
            image = class_image(rows_mask, rng.choice(CUBE_SYMMETRIES))
            values = []
            for cls in (class_of(rows_mask), class_of(image)):
                cd = clique_dimension(cls, m_max=4)
                cd_star = fractional_clique_dimension(cls, m_max=4)
                assert cd.exactness == cd_star.exactness == EXACT
                values.append((vc_dimension(cls), littlestone_dimension(cls), cd.value, cd_star.value))
            # every dimension is invariant under the symmetries
            assert values[0] == values[1], rows_mask
            ld, cd, cd_star = values[0][1:]
            counts[ld, cd, cd_star] = counts.get((ld, cd, cd_star), 0) + 1
            if cd > ld:
                gaps.add(rows_mask)
    finally:
        clear_caches()
    assert counts == {
        (0, 0, 0): 1,
        (1, 1, 1): 14,
        (2, 2, 2): 185,
        (2, 3, 3): 4,
        (3, 3, 3): 196,
        (4, 4, 4): 1,
    }
    # paper_example_sec6 is one of the four classes with cd > ld
    example = sum(1 << sum(b << p for p, b in enumerate(row)) for row in generate("paper_example_sec6").hypotheses)
    assert any(class_image(example, symmetry) in gaps for symmetry in CUBE_SYMMETRIES)


def point_map(symmetry):
    """(q, f) per point p: the symmetry sends point p to q and flips its
    label iff f = 1."""
    flips = symmetry[0]
    targets = [(symmetry[1 << p] ^ flips).bit_length() - 1 for p in range(4)]
    return [(q, (flips >> q) & 1) for q in targets]


def test_census_omega_and_certificates_follow_the_symmetries():
    # on a seeded sample of orbits, omega_m and omega*_m at m = 2, 3 equal
    # those of a random symmetry image, and the maximum clique and both LP
    # certificates, mapped through the symmetry, validate on the image's G_m
    rng = random.Random(20)
    for rows_mask in rng.sample(orbit_representatives(), 100):
        symmetry = rng.choice(CUBE_SYMMETRIES)
        points = point_map(symmetry)

        def image_of(dataset):
            return Dataset((points[p][0], l ^ points[p][1]) for p, l in dataset)

        def pattern_image(h):
            out = [0] * 4
            for p, (q, f) in enumerate(points):
                out[q] = h[p] ^ f
            return tuple(out)

        cls, image = class_of(rows_mask), class_of(class_image(rows_mask, symmetry))
        assert image == ConceptClass(4, [pattern_image(h) for h in cls.hypotheses])
        for m in (2, 3):
            g, gi = build_graph(cls, m), build_graph(image, m)
            index = [gi.index_of(image_of(v)) for v in g.vertices]
            assert None not in index and len(set(index)) == gi.num_vertices
            clique = max_clique(g)
            assert max_clique(gi).size == clique.size, (rows_mask, m)
            assert validate_clique(gi, [index[v] for v in clique.members]).size == clique.size
            cert = omega_star(g)
            assert omega_star(gi).value == cert.value, (rows_mask, m)
            validate_packing(gi, FractionalClique(
                {index[v]: w for v, w in cert.clique.weights.items()}, cert.clique.size
            ))
            validate_cover(gi, FractionalColoring(
                {pattern_image(h): w for h, w in cert.coloring.weights.items()}, cert.coloring.colors
            ))
