"""Exact LP duality certificates for the fractional clique number."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cliquedim import (
    DualityCertificate,
    InvariantError,
    ZeroColoringError,
    build_graph,
    coloring_to_distribution,
    format_certificate,
    generate,
    is_consistent,
    mask_to_pattern,
    max_clique,
    omega_star,
    parse_certificate,
    uniform_coloring_witness,
    validate_cover,
    validate_packing,
)
from cliquedim.fractional import FractionalClique, FractionalColoring, frac_str, parse_frac

F = Fraction


@pytest.mark.parametrize(
    "family,universe,m,expected",
    [
        ("disjoint_pairs", 2, 1, F(2)),
        ("disjoint_pairs", 2, 2, F(2)),
        ("disjoint_pairs", 2, 3, F(2)),
        ("full", 2, 1, F(2)),
        ("full", 2, 2, F(4)),
        ("full", 2, 3, F(4)),
        ("singleton", 2, 1, F(1)),
        ("singleton", 2, 2, F(1)),
        ("paper_example_sec6", 4, 1, F(2)),
        ("paper_example_sec6", 4, 2, F(4)),
        ("paper_example_sec6", 4, 3, F(8)),
    ],
)
def test_omega_star_frozen_values(family, universe, m, expected):
    g = build_graph(generate(family, universe=universe), m)
    cert = omega_star(g)
    assert cert.value == expected
    assert cert.clique.size == expected
    assert cert.coloring.colors == expected


def test_omega_star_matches_basis_enumeration_oracle():
    # small instances only: the oracle enumerates every basis
    checked = 0
    for family, universe, m in [
        ("disjoint_pairs", 2, 1),
        ("disjoint_pairs", 2, 2),
        ("full", 2, 1),
        ("singleton", 2, 2),
        ("thresholds", 2, 2),
    ]:
        cls = generate(family, universe=universe)
        g = build_graph(cls, m)
        items = [tuple(v.examples) for v in g.vertices]
        masks = oracles.packing_constraints(cls, items)
        if g.num_vertices > 12 or len(masks) > 5:
            continue
        assert omega_star(g).value == oracles.bfs_packing_value(
            g.num_vertices, masks
        )
        checked += 1
    assert checked >= 4


def test_omega_star_sandwich_on_corpus_slices():
    for family, universe, m in [
        ("thresholds", 4, 2),
        ("parities", 3, 2),
        ("paper_example_sec6", 4, 2),
    ]:
        g = build_graph(generate(family, universe=universe), m)
        cert = omega_star(g)
        assert max_clique(g).size <= cert.value <= 1 << m


def test_certificate_sides_validate():
    g = build_graph(generate("paper_example_sec6"), 2)
    cert = omega_star(g)
    validate_packing(g, cert.clique)  # raises on any violated constraint
    validate_cover(g, cert.coloring)
    assert cert.clique.size == cert.coloring.colors


def test_omega_star_enumerates_the_labelings_once(monkeypatch):
    # the primal is checked against the family the LP was built from
    import cliquedim.fractional as fractional

    calls = []
    sets = fractional.independent_sets
    monkeypatch.setattr(fractional, "independent_sets", lambda *a, **k: calls.append(a) or sets(*a, **k))
    cert = omega_star(build_graph(generate("thresholds", universe=4), 3))
    assert cert.value == 5
    assert len(calls) == 1


def test_validate_packing_rejects_overload():
    g = build_graph(generate("full", universe=2), 1)
    bad = FractionalClique(weights={0: F(2)}, size=F(2))
    with pytest.raises(ValueError):
        validate_packing(g, bad)


def test_validate_packing_rejects_wrong_total():
    g = build_graph(generate("full", universe=2), 1)
    bad = FractionalClique(weights={0: F(1, 2)}, size=F(1))
    with pytest.raises(ValueError):
        validate_packing(g, bad)


def test_validate_cover_rejects_uncovered_vertex():
    g = build_graph(generate("full", universe=2), 1)
    bad = FractionalColoring(weights={}, colors=F(0))
    with pytest.raises(ValueError):
        validate_cover(g, bad)


def test_validate_cover_rejects_entries_other_than_0_or_1():
    # pattern_to_mask((2, 0)) is 2, the mask of (0, 1): without the entry
    # check this total-2 "coloring" of G_1 of thresholds(2) passed
    g = build_graph(generate("thresholds", universe=2), 1)
    bad = FractionalColoring(weights={(2, 0): F(1), (1, 0): F(1)}, colors=F(2))
    with pytest.raises(ValueError, match=r"^pattern \(2, 0\) has an entry other than 0 or 1$"):
        validate_cover(g, bad)


@pytest.mark.parametrize(
    "weights, message",
    [
        # G_1 of full(2) has 4 vertices, so vertex 4 is not one of them
        ({4: F(1)}, r"^weight on unknown vertex 4$"),
        ({0: F(-1), 1: F(2)}, r"^negative weight on vertex 0$"),
    ],
    ids=["unknown-vertex", "negative-weight"],
)
def test_validate_packing_refuses_a_weight_it_cannot_place(weights, message):
    g = build_graph(generate("full", universe=2), 1)
    assert g.num_vertices == 4
    bad = FractionalClique(weights=weights, size=sum(weights.values()))
    with pytest.raises(ValueError, match=message):
        validate_packing(g, bad)


@pytest.mark.parametrize(
    "weights, message",
    [
        ({(0, 0): F(-1), (1, 1): F(2)}, r"^negative weight on pattern \(0, 0\)$"),
        ({(0,): F(1)}, r"^pattern \(0,\) has wrong length$"),
    ],
    ids=["negative-weight", "short-pattern"],
)
def test_validate_cover_refuses_a_weight_it_cannot_place(weights, message):
    g = build_graph(generate("full", universe=2), 1)
    bad = FractionalColoring(weights=weights, colors=sum(weights.values()))
    with pytest.raises(ValueError, match=message):
        validate_cover(g, bad)


def test_certificate_errors_show_the_exact_shortfall():
    g = build_graph(generate("full", universe=2), 1)
    half = FractionalColoring(weights={(0, 0): F(1, 2), (1, 1): F(1, 3)}, colors=F(5, 6))
    with pytest.raises(ValueError, match=r"^cover constraint violated at vertex 0 \(.*\): 1/2 < 1$"):
        validate_cover(g, half)
    over = FractionalClique(weights={0: F(2, 3), 2: F(2, 3)}, size=F(4, 3))
    with pytest.raises(ValueError, match=r"^packing constraint violated on V_h for h=.*: 4/3 > 1$"):
        validate_packing(g, over)
    with pytest.raises(ValueError, match="^declared size differs"):
        validate_packing(g, FractionalClique(weights={0: F(1, 3)}, size=F(1, 2)))
    with pytest.raises(ValueError, match="^declared color total differs"):
        validate_cover(g, FractionalColoring(weights={(0, 0): F(1, 3)}, colors=F(1, 2)))


@pytest.mark.parametrize(
    "text,line",
    [
        ("value 1/0\n", "value 1/0"),
        ("value 1/1\nprimal\n0 1/0\n", "0 1/0"),
        ("value 1/1\ndual\n01 1/0\n", "01 1/0"),
        ("value 1/1\ndual\n12 1/1\n", "12 1/1"),
        ("value 1/1\nprimal\n0 1/2 3\n", "0 1/2 3"),
        # trailing fields, a second value line and a repeated key are
        # ambiguous: no last line wins
        ("value 1/2 junk\nprimal\n0 1/2\n0 1/3\ndual\n01 1/2\n01 9/1\nvalue 7/1\n", "value 1/2 junk"),
        ("value 1/1\nprimal\n0 1/2\nvalue 7/1\n", "value 7/1"),
        ("value 1/1\nprimal\n0 1/2\n0 1/3\n", "0 1/3"),
        ("value 1/1\nprimal\n0 1/2\n00 1/2\n", "00 1/2"),
        ("value 1/1\ndual\n01 1/2\n01 9/1\n", "01 9/1"),
        ("value 1/1\nprimal\n0\n", "0"),
        # a vertex is written in the digits 0-9 and patterns share one length
        ("value 1/1\nprimal\n-3 1/2\ndual\n0 1/2\n0110 1/2\n", "-3 1/2"),
        ("value 1/1\nprimal\n+3 1/2\n", "+3 1/2"),
        ("value 1/1\nprimal\n0_0 1/2\n", "0_0 1/2"),
        ("value 1/1\nprimal\n٣ 1/2\n", "٣ 1/2"),
        ("value 1/1\ndual\n0 1/2\n0110 1/2\n", "0110 1/2"),
        # a weight is -?[0-9]+/[0-9]+
        ("value ٣/1\n", "value ٣/1"),
        ("value 1/1\nprimal\n0 +3/1\n", "0 +3/1"),
        ("value 1/1\ndual\n01 1_0/3\n", "01 1_0/3"),
        ("value 1/1\nprimal\n0 3/4/5\n", "0 3/4/5"),
    ],
)
def test_parse_certificate_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=f"^bad certificate line {re.escape(repr(line))}: "):
        parse_certificate(text)


# near-certificate lines: sections, key/weight pairs (some malformed,
# some repeated), stray fields and arbitrary text
CERTIFICATE_LINES = st.one_of(
    st.sampled_from(["primal", "dual", "value 1/2", "value 3/1", "# note", ""]),
    st.lists(st.sampled_from(["0", "1", "01", "10", "00", "value", "x", "1/2", "3/1", "1/0"]), max_size=3).map(" ".join),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.lists(CERTIFICATE_LINES, max_size=8).map("\n".join))
def test_parse_certificate_returns_or_raises_value_error(text):
    try:
        cert = parse_certificate(text)
    except ValueError:
        return
    assert isinstance(cert, DualityCertificate)
    assert parse_certificate(format_certificate(cert)) == cert


def test_anchor_certificate_structure():
    g = build_graph(generate("disjoint_pairs", universe=2), 2)
    cert = omega_star(g)
    assert cert.value == 2
    # optimal cover uses the two hypothesis labelings, weight 1 each
    cover = {pat: w for pat, w in cert.coloring.weights.items() if w > 0}
    assert set(cover) == {(0, 0), (1, 1)}
    assert all(w == 1 for w in cover.values())


def test_uniform_coloring_witness_when_tight():
    # full class: omega*_m = 2^m and the uniform witness certifies it
    g = build_graph(generate("full", universe=2), 2)
    col = uniform_coloring_witness(g)
    validate_cover(g, col)
    assert col.colors == 4
    assert all(w == 1 for w in col.weights.values())


def test_a_certificate_failing_its_check_is_an_internal_error(monkeypatch):
    # the checks run where each certificate is made: a failure is a bug
    import cliquedim.fractional as fractional

    def refuse(g, col):
        raise ValueError("cover constraint violated")

    monkeypatch.setattr(fractional, "validate_cover", refuse)
    g = build_graph(generate("full", universe=2), 2)
    with pytest.raises(InvariantError, match="^LP certificate at m=2 fails its check: cover constraint violated$"):
        omega_star(g)
    with pytest.raises(InvariantError, match="^uniform coloring at m=2 fails its check: cover constraint violated$"):
        uniform_coloring_witness(g)


def test_coloring_to_distribution_normalizes():
    g = build_graph(generate("paper_example_sec6"), 2)
    cert = omega_star(g)
    dist = coloring_to_distribution(cert.coloring)
    assert sum(dist.values()) == 1
    assert all(w > 0 for w in dist.values())


def test_coloring_to_distribution_refuses_a_zero_coloring():
    with pytest.raises(ZeroColoringError, match="^cannot normalize a zero-weight coloring$"):
        coloring_to_distribution(FractionalColoring(weights={(0, 1): F(0)}, colors=F(0)))


def test_coloring_distribution_covers_every_vertex():
    # defining property: each realizable dataset is consistent with a
    # dist-random pattern with probability at least 1/omega*
    for family, universe, m in [
        ("disjoint_pairs", 2, 2),
        ("paper_example_sec6", 4, 2),
        ("thresholds", 3, 2),
    ]:
        g = build_graph(generate(family, universe=universe), m)
        cert = omega_star(g)
        dist = coloring_to_distribution(cert.coloring)
        for v in g.vertices:
            hit = sum(
                (p for h, p in dist.items() if is_consistent(h, v)), F(0)
            )
            assert hit >= 1 / cert.value


def test_clique_distribution_caps_every_pattern():
    # the packing condition behind the pure-DP lower bound, against every
    # labeling h and not only the maximal family the LP was solved on
    for family, universe, m in [
        ("full", 2, 2),
        ("disjoint_pairs", 2, 2),
        ("paper_example_sec6", 4, 2),
        ("thresholds", 3, 2),
    ]:
        g = build_graph(generate(family, universe=universe), m)
        cert = omega_star(g)
        assert sum(cert.clique.weights.values()) == cert.value
        for hm in range(1 << universe):
            h = mask_to_pattern(hm, universe)
            hit = sum(
                (w for v, w in cert.clique.weights.items() if is_consistent(h, g.vertices[v])), F(0)
            )
            assert hit <= 1


def test_certificate_text_round_trip():
    g = build_graph(generate("paper_example_sec6"), 2)
    cert = omega_star(g)
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back.value == cert.value
    assert back.clique.weights == cert.clique.weights
    assert back.coloring.weights == cert.coloring.weights
    assert back.clique.size == cert.value


def test_certificate_text_tolerates_comments():
    g = build_graph(generate("full", universe=2), 1)
    text = format_certificate(omega_star(g))
    commented = "# preamble\n" + text.replace("\nprimal\n", "\nprimal\n# noise\n")
    assert parse_certificate(commented).value == 2


def test_parse_certificate_rejects_stray_lines():
    with pytest.raises(ValueError):
        parse_certificate("garbage 1/2\n")


@given(st.fractions())
@example(F(0))
@example(F(1))
@example(F(3, 2))
@example(F(-7, 6))
def test_frac_str_round_trip(f):
    assert parse_frac(frac_str(f)) == f


@pytest.mark.parametrize("text", ["٣/1", "+3/1", "1_0/3", " 3/4", "3/4 ", "3/4/5", "3", "-/2", "1/-2"])
def test_parse_frac_reads_only_signed_digit_fractions(text):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not a fraction"):
        parse_frac(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123456789-+/_ ٣²")) | st.text())
def test_parse_frac_returns_or_raises_value_error(text):
    try:
        f = parse_frac(text)
    except ValueError:
        return
    assert re.fullmatch("-?[0-9]+/[0-9]+", text)
    assert f == F(*map(int, text.split("/")))


OPTIMIZED_DUALITY_PROBE = """
import cliquedim.simplex as simplex
from cliquedim import InvariantError, build_graph, generate, omega_star

assert False, "asserts must be stripped in this process"
solve = simplex.solve_packing_lp
simplex.solve_packing_lp = lambda n, masks: (lambda v, x, y: (v, x, [2 * w for w in y]))(*solve(n, masks))
try:
    omega_star(build_graph(generate("thresholds", universe=3), 2))
except InvariantError as exc:
    print("raised:", exc)
"""


def test_duality_check_survives_python_O():
    # a dual whose total differs from the value must be refused even with
    # asserts compiled out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_DUALITY_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: strong duality mismatch")
