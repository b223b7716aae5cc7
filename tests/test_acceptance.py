"""Release acceptance suite.

One test per acceptance criterion.  Each test prints a single PASS/FAIL line
(the pytest -v status line per test doubles as the machine-readable verdict)
and enforces its stated wall-clock budget.  Comparisons are exact rational
equalities unless the criterion itself is statistical.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from cliquedim import (
    ConceptClass,
    Dataset,
    boost_config,
    build_graph,
    clique_dimension,
    draw_patterns,
    example_red_clique_datasets,
    find_balanced_point,
    forced_gamma_good_check,
    generate,
    is_realizable,
    littlestone_dimension,
    max_clique,
    omega_star,
    run_expert_game,
    tree_from_clique,
    validate_clique,
    verify_sspfcd_bound,
)
from cliquedim.boosting import numeric_lemma_checks, small_pop_err_check
from cliquedim.cli import corpus
from cliquedim.dimensions import EXACT
from cliquedim.trees import branches, is_complete, min_depth

M_SWEEP = (1, 2, 3)


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_runs():
    """(elapsed_seconds, [(name, cls, m, graph, max_clique, certificate)]).

    Built once; criteria 2-5 and 7 all sweep the same instances, so the
    sweep cost is charged to the criterion-2 budget below.
    """
    t0 = time.monotonic()
    runs = []
    for name, cls in corpus(0):
        for m in M_SWEEP:
            g = build_graph(cls, m)
            runs.append((name, cls, m, g, max_clique(g), omega_star(g)))
    return time.monotonic() - t0, runs


def test_c01_worked_example_class_dimensions_and_eight_clique():
    t0 = time.monotonic()
    cls = generate("paper_example_sec6")
    ld = littlestone_dimension(cls)
    cd = clique_dimension(cls, m_max=4)
    g3 = build_graph(cls, 3)
    members = tuple(sorted(g3.index_of(ds) for ds in example_red_clique_datasets()))
    assert None not in members
    red = validate_clique(g3, members)
    elapsed = time.monotonic() - t0
    ok = (
        ld == 2
        and cd.value == 3
        and cd.exactness == EXACT
        and red.size == 8
        and elapsed < 10.0
    )
    _emit(
        "criterion-01 worked example",
        ok,
        f"ld={ld} cd={cd} red_clique={red.size} elapsed={elapsed:.2f}s",
    )


def test_c02_clique_number_sandwich_on_corpus(corpus_runs):
    build_s, runs = corpus_runs
    t0 = time.monotonic()
    for name, _, m, _, w, cert in runs:
        assert Fraction(w.size) <= cert.value, f"{name} m={m}: omega above omega*"
        assert cert.value <= Fraction(2) ** m, f"{name} m={m}: omega* above 2^m"
    elapsed = build_s + (time.monotonic() - t0)
    ok = elapsed < 300.0
    _emit(
        "criterion-02 omega <= omega* <= 2^m",
        ok,
        f"{len(runs)} corpus instances, elapsed={elapsed:.2f}s",
    )


def test_c03_duality_certificates_revalidated(corpus_runs):
    _, runs = corpus_runs
    for name, cls, m, g, _, cert in runs:
        tag = f"{name} m={m}"
        primal_total = sum(cert.clique.weights.values(), Fraction(0))
        dual_total = sum(cert.coloring.weights.values(), Fraction(0))
        assert primal_total == cert.value == dual_total, tag
        # primal feasibility against the oracle-built maximal family
        items = [v.examples for v in g.vertices]
        for mask in oracles.packing_constraints(cls, items):
            load = sum(
                (w for v, w in cert.clique.weights.items() if (mask >> v) & 1),
                Fraction(0),
            )
            assert load <= 1, f"{tag}: packing constraint overloaded"
        # dual covers every vertex with total weight >= 1
        for v, ds in enumerate(g.vertices):
            cover = sum(
                (
                    w
                    for pattern, w in cert.coloring.weights.items()
                    if all(pattern[p] == l for p, l in ds.examples)
                ),
                Fraction(0),
            )
            assert cover >= 1, f"{tag}: vertex {v} uncovered"
    _emit(
        "criterion-03 duality certificates",
        True,
        f"{len(runs)} certificates revalidated against the full family",
    )


def test_c04_clique_number_versus_online_dimension(corpus_runs):
    _, runs = corpus_runs
    lds = {name: littlestone_dimension(cls) for name, cls in corpus(0)}
    trees = 0
    for name, cls, m, g, w, _ in runs:
        assert w.size <= (2 * m + 1) ** lds[name], f"{name} m={m}"
        if w.size >= 2:
            tree = tree_from_clique(g, w)
            depth = min_depth(tree)
            assert (2 * m + 1) ** depth >= w.size, f"{name} m={m}: tree too shallow"
            assert is_complete(tree, depth), f"{name} m={m}"
            for branch in branches(tree):
                assert is_realizable(cls, Dataset(branch)), f"{name} m={m}: {branch}"
            trees += 1
    _emit(
        "criterion-04 omega <= (2m+1)^ld",
        True,
        f"{len(runs)} bounds, {trees} shattered trees certified",
    )


def test_c05_balanced_point_on_every_maximal_clique(corpus_runs):
    _, runs = corpus_runs
    checked = 0
    for name, _, m, g, _, _ in runs:
        for mask in oracles.bron_kerbosch_maximal_cliques(list(g.adj)):
            members = tuple(i for i in range(g.num_vertices) if (mask >> i) & 1)
            if len(members) < 2:
                continue  # single vertices have threshold 0, nothing to find
            c = validate_clique(g, members)
            rep = find_balanced_point(g, c)
            tag = f"{name} m={m} clique={members}"
            assert rep.threshold == Fraction(c.size - 1, 2 * m), tag
            assert rep.count_zero >= rep.threshold, tag
            assert rep.count_one >= rep.threshold, tag
            assert rep.deletions <= c.size * m, tag
            assert rep.edges_dropped < c.size * (c.size - 1) // 2, tag
            assert rep.surviving_edges >= 1, tag
            checked += 1
    _emit(
        "criterion-05 balanced point",
        checked > 0,
        f"{checked} maximal cliques across {len(runs)} corpus graphs",
    )


def _exists_clique_exhaustive(adj: list, k: int) -> bool:
    n = len(adj)
    if k <= 0:
        return True
    if k > n:
        return False
    for combo in itertools.combinations(range(n), k):
        if all(
            (adj[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)
        ):
            return True
    return False


def test_c06_random_instance_oracle_equivalence():
    t0 = time.monotonic()
    checked_clique = 0
    checked_lp = 0
    for s in range(140):
        universe = 2 + s % 3
        count = 2 + (s // 3) % min(5, (1 << universe) - 1)
        cls = generate("random", universe=universe, count=count, seed=1000 + s)
        m = 1 + s % 2
        g = build_graph(cls, m)
        n = g.num_vertices
        if n > 20:
            continue
        w = max_clique(g)
        adj = list(g.adj)
        tag = f"seed={1000 + s} m={m}"
        assert w.size == oracles.max_clique_size_bk(adj), tag
        assert not _exists_clique_exhaustive(adj, w.size + 1), tag
        if n <= 13:
            assert w.size == oracles.max_clique_size_subsets(adj), tag
        checked_clique += 1
        fam = oracles.packing_constraints(cls, [v.examples for v in g.vertices])
        if n <= 12 and len(fam) <= 4 and checked_lp < 20:
            assert omega_star(g).value == oracles.bfs_packing_value(n, fam), tag
            checked_lp += 1
    elapsed = time.monotonic() - t0
    ok = checked_clique >= 50 and checked_lp >= 15 and elapsed < 120.0
    _emit(
        "criterion-06 oracle equivalence",
        ok,
        f"clique={checked_clique} lp={checked_lp} elapsed={elapsed:.2f}s",
    )


def test_c07_low_error_mass_bound_exact(corpus_runs):
    _, runs = corpus_runs
    checks = 0
    for name, cls, m, g, _, _ in runs:
        for ds in g.vertices:
            weights = Counter(ds.examples)
            dist = {ex: Fraction(k, m) for ex, k in weights.items()}
            for theta, prob, bound, passed in small_pop_err_check(cls, m, dist):
                assert passed, (
                    f"{name} m={m} dataset={ds.render()} theta={theta}: "
                    f"{prob} < {bound}"
                )
                checks += 1
    _emit(
        "criterion-07 low-error mass bound",
        checks > 0,
        f"{checks} exact theta checks across all corpus datasets",
    )


def test_c08_boosting_pipeline_end_to_end():
    t0 = time.monotonic()
    cls = generate("disjoint_pairs", universe=2)
    config = boost_config(cls, 2, 3)
    assert config.epsilon == Fraction(1, 4)
    assert config.gamma == Fraction(1, 16)
    g = build_graph(cls, 3)
    assert g.num_vertices == 8

    # (a) Hedge regret bound on every generated transcript
    transcripts = 0
    for i, ds in enumerate(g.vertices):
        for s in range(1250):
            rng = random.Random(10_000 * i + s)
            tr = run_expert_game(ds, draw_patterns(config.mu, config.T, rng))
            assert tr.regret <= tr.regret_bound, f"dataset={ds.render()} seed={s}"
            transcripts += 1

    # (b) all rounds gamma-good forces a consistent majority vote
    forced = 0
    for i, ds in enumerate(g.vertices):
        violations, ran = forced_gamma_good_check(ds, 2, config, 1250, seed=i)
        assert violations == 0, f"dataset={ds.render()}"
        forced += ran

    # (c) Monte Carlo consistency rate vs the m^-alpha floor
    rep = verify_sspfcd_bound(cls, config, trials=10**5, master_seed=0)
    assert rep.all_pass and not rep.sampled and len(rep.rows) == 8

    elapsed = time.monotonic() - t0
    ok = transcripts >= 10**4 and forced >= 10**4 and elapsed < 600.0
    _emit(
        "criterion-08 boosting pipeline",
        ok,
        f"T={config.T} regret_transcripts={transcripts} forced={forced} "
        f"mc_trials=100000 elapsed={elapsed:.2f}s",
    )


def test_c09_integer_certified_numeric_checks():
    t0 = time.monotonic()
    checks = numeric_lemma_checks()
    names = {name for name, _, _ in checks}
    failures = [name for name, passed, _ in checks if not passed]
    for alpha in range(2, 13):
        assert f"pop-survival alpha={alpha}" in names
    for d in range(30, 41):
        assert f"growth-threshold d={d}" in names
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    _emit(
        "criterion-09 numeric checks",
        ok,
        f"{len(checks)} checks, failures={failures}, elapsed={elapsed:.2f}s",
    )


def test_c10_sequence_multiset_quotient_guard():
    checked = 0
    for n in (1, 2, 3):
        patterns = list(itertools.product((0, 1), repeat=n))
        for bits in range(1, 1 << len(patterns)):
            rows = [patterns[i] for i in range(len(patterns)) if (bits >> i) & 1]
            cls = ConceptClass(n, rows)
            for m in (1, 2):
                g = build_graph(cls, m)
                tag = f"universe={n} rows={rows} m={m}"
                assert max_clique(g).size == oracles.sequence_omega(cls, m), tag
                assert omega_star(g).value == oracles.sequence_omega_star(cls, m), tag
                checked += 1
    _emit(
        "criterion-10 sequence/multiset quotient",
        checked == 273 * 2,
        f"{checked} instance pairs agree on omega and omega*",
    )
