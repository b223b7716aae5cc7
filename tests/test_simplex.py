"""Packing-LP spot checks, a basis-enumeration cross-check, and pivot-path
checks against the Fraction-tableau reference in `oracles`."""

import hashlib
import io
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import cliquedim.simplex as simplex
from cliquedim import build_graph, format_class_text, generate
from cliquedim.cli import corpus, main
from cliquedim.errors import InfeasibleModelError, InvalidParamsError
from cliquedim.graph import independent_sets
from cliquedim.simplex import solve_packing_lp

F = Fraction


def test_two_variable_box():
    value, x, y = solve_packing_lp(2, [0b01, 0b10])
    assert value == 2
    assert x == [F(1), F(1)]
    assert y == [F(1), F(1)]


def test_fractional_optimum_stays_exact():
    # max x1+x2+x3 s.t. pairwise sums <= 1: optimum 3/2 at (1/2,1/2,1/2)
    value, x, y = solve_packing_lp(3, [0b011, 0b110, 0b101])
    assert value == F(3, 2)
    assert x == [F(1, 2)] * 3


@pytest.mark.parametrize("mask", [0b111, -1])
def test_masks_outside_the_variables_are_refused(mask):
    # a bit at position n_vars or above, or a negative mask, names no
    # variable of the LP; cutting it down would answer another LP
    with pytest.raises(InvalidParamsError):
        solve_packing_lp(2, [mask])


@pytest.mark.parametrize("masks", [[], [0]])
def test_a_negative_variable_count_is_refused(masks):
    with pytest.raises(InvalidParamsError, match="n_vars >= 0"):
        solve_packing_lp(-1, masks)


def test_the_empty_lp_has_optimum_zero():
    assert solve_packing_lp(0, []) == (0, [], [])
    # no variables but a row: the pivot loop finds no entering column
    assert solve_packing_lp(0, [0]) == (0, [], [0])


def test_unbounded_detected():
    # x_1 lies in no row set, so it can grow without bound
    with pytest.raises(InfeasibleModelError):
        solve_packing_lp(2, [0b01])


def test_degenerate_ties_terminate():
    # several constraints active at the same vertex
    masks = [0b01, 0b01, 0b11, 0b10]
    value, x, y = solve_packing_lp(2, masks)
    assert value == 1
    assert x[0] + x[1] == 1
    assert sum(y) == 1


def test_dual_is_feasible():
    masks = [0b1011, 0b0110, 0b1101]
    value, x, y = solve_packing_lp(4, masks)
    for j in range(4):
        assert sum(y[i] for i, vm in enumerate(masks) if (vm >> j) & 1) >= 1
    assert sum(y) == value  # strong duality with all-ones rhs


def test_packing_helper_shapes():
    value, primal, dual = solve_packing_lp(3, [0b011, 0b110, 0b101])
    assert value == F(3, 2)
    assert len(primal) == 3 and len(dual) == 3


def test_packing_against_basis_enumeration():
    rng = random.Random(20240817)
    for _ in range(10):
        n = rng.randrange(3, 9)
        c = rng.randrange(2, 5)
        masks = []
        for _ in range(c):
            masks.append(rng.randrange(1, 1 << n))
        covered = 0
        for vm in masks:
            covered |= vm
        missing = ((1 << n) - 1) & ~covered
        if missing:
            masks.append(missing)  # keep the region bounded
        value, primal, dual = solve_packing_lp(n, masks)
        assert value == oracles.bfs_packing_value(n, masks)
        # primal feasibility, exact
        for vm in masks:
            assert sum(primal[j] for j in range(n) if (vm >> j) & 1) <= 1
        # dual covering feasibility, exact
        for j in range(n):
            assert sum(dual[i] for i, vm in enumerate(masks) if (vm >> j) & 1) >= 1


# ─── pivot path: same (value, x, y) as the Fraction tableau ─────────────────


@st.composite
def packing_lps(draw):
    n = draw(st.integers(1, 16))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=9))
    covered = 0
    for vm in masks:
        covered |= vm
    missing = ((1 << n) - 1) & ~covered
    if missing:
        masks.append(missing)  # every variable bounded
    return n, masks


@settings(max_examples=300, deadline=None)
@given(packing_lps())
def test_packing_lp_matches_fraction_tableau(lp):
    n, masks = lp
    assert solve_packing_lp(n, masks) == oracles.reference_simplex(n, masks)


# ─── int64 tableau: promotion to Python integers ────────────────────────────


def widened_dtypes(monkeypatch, limit):
    """Set the int64 entry limit to `limit` and record the dtype that each
    read of the tableau's entries leaves it in.  The solver reads them only
    once its running bound on |entry| reaches the limit, so there is one
    record per such check, not one per pivot."""
    dtypes = []
    widened = simplex._widened

    def recording(tab):
        tab, bound = widened(tab)
        dtypes.append(tab.dtype)
        return tab, bound

    monkeypatch.setattr(simplex, "INT64_ENTRY_LIMIT", limit)
    monkeypatch.setattr(simplex, "_widened", recording)
    return dtypes


@settings(max_examples=150, deadline=None)
@given(packing_lps(), st.integers(2, 4))
def test_promotion_mid_solve_keeps_the_pivot_path(lp, limit):
    # a limit this low switches the tableau to Python integers mid-solve,
    # before the first pivot that runs on an entry of at least `limit`
    n, masks = lp
    with mock.patch.object(simplex, "INT64_ENTRY_LIMIT", limit):
        assert solve_packing_lp(n, masks) == oracles.reference_simplex(n, masks)


class PivotDtypes(np.ndarray):
    """A tableau that records the dtype of each pivot it runs: a pivot
    subtracts its update from the whole tableau exactly once."""

    dtypes: list = []

    def __isub__(self, other):
        PivotDtypes.dtypes.append(self.dtype)
        return super().__isub__(other)


def int64_pivots_checking_every_pivot(n, masks, limit):
    """Referee: the pivots that Bland's rule runs on int64 when max |entry|
    is read before every pivot, and the tableau switches to Python integers
    once it reaches `limit`.  Returns (int64 pivots, all pivots)."""
    m = len(masks)
    tab = simplex._tableau(n, masks)
    basis = list(range(n, n + m))
    den = 1
    int64_pivots = pivots = 0
    while True:
        positive = np.flatnonzero(tab[m, :-1] > 0)
        if not positive.size:
            return int64_pivots, pivots
        enter = int(positive[0])
        rows = [i for i in range(m) if tab[i, enter] > 0]
        leave = min(rows, key=lambda i: (F(int(tab[i, -1]), int(tab[i, enter])), basis[i]))
        if tab.dtype != object and max(tab.max(), -tab.min()) >= limit:
            tab = tab.astype(object)
        int64_pivots += tab.dtype != object
        pivots += 1
        p, piv = int(tab[leave, enter]), tab[leave].copy()
        tab = (tab * p - np.outer(tab[:, enter], piv)) // den
        tab[leave] = piv
        den, basis[leave] = p, enter


@settings(max_examples=150, deadline=None)
@given(packing_lps(), st.integers(2, 4))
def test_the_bound_gated_check_widens_at_the_same_pivot(lp, limit):
    n, masks = lp
    build = simplex._tableau
    PivotDtypes.dtypes = []
    with mock.patch.object(simplex, "INT64_ENTRY_LIMIT", limit), mock.patch.object(
        simplex, "_tableau", lambda n, masks: build(n, masks).view(PivotDtypes)
    ):
        solve_packing_lp(n, masks)
    int64_pivots = sum(dt == np.int64 for dt in PivotDtypes.dtypes)
    assert (int64_pivots, len(PivotDtypes.dtypes)) == int64_pivots_checking_every_pivot(n, masks, limit)


def test_lp_crossing_the_limit_ends_on_python_integers(monkeypatch):
    g = build_graph(generate("thresholds", universe=4), 3)
    masks = list(independent_sets(g, maximal_only=True).masks)
    expected = oracles.reference_simplex(g.num_vertices, masks)
    dtypes = widened_dtypes(monkeypatch, 4)
    assert solve_packing_lp(g.num_vertices, masks) == expected
    assert dtypes[0] == np.int64 and dtypes[-1] == object


class ExtremeReads(np.ndarray):
    """A tableau that counts the reads of its maximum and minimum."""

    reads: list = []

    def max(self, *args, **kwargs):
        ExtremeReads.reads.append("max")
        return super().max(*args, **kwargs)

    def min(self, *args, **kwargs):
        ExtremeReads.reads.append("min")
        return super().min(*args, **kwargs)


def test_each_gated_check_reads_the_extremes_once(monkeypatch):
    g = build_graph(generate("thresholds", universe=4), 3)
    masks = list(independent_sets(g, maximal_only=True).masks)
    build = simplex._tableau
    monkeypatch.setattr(simplex, "_tableau", lambda n, masks: build(n, masks).view(ExtremeReads))
    dtypes = widened_dtypes(monkeypatch, 4)
    ExtremeReads.reads = []
    assert solve_packing_lp(g.num_vertices, masks) == oracles.reference_simplex(g.num_vertices, masks)
    assert len(dtypes) > 1
    assert ExtremeReads.reads == ["max", "min"] * len(dtypes)


def test_default_limit_keeps_entries_int64(monkeypatch):
    # |a*p - f*q| <= 2 * (limit - 1)^2 must stay below 2^63
    assert 2 * (simplex.INT64_ENTRY_LIMIT - 1) ** 2 < 1 << 63
    dtypes = widened_dtypes(monkeypatch, simplex.INT64_ENTRY_LIMIT)
    g = build_graph(generate("thresholds", universe=4), 3)
    solve_packing_lp(g.num_vertices, list(independent_sets(g, maximal_only=True).masks))
    assert dtypes and all(dt == np.int64 for dt in dtypes)


# sha256 of `omega-star --verbose` stdout, m = 1..3 over the 20 corpus
# classes in corpus order, as produced by the Fraction-tableau solver
OMEGA_STAR_CERTIFICATES_SHA256 = "39fd2d7720e717e24edb0a297ff21afd627210a650cd92e6f5675f5434656031"


def test_corpus_certificates_are_frozen(capsys, monkeypatch):
    digest = hashlib.sha256()
    for _, cls in corpus():
        text = format_class_text(cls)
        for m in (1, 2, 3):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["omega-star", "-", "--m", str(m), "--verbose"]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == OMEGA_STAR_CERTIFICATES_SHA256
