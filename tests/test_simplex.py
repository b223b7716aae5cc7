"""Exact-rational simplex spot checks, a basis-enumeration cross-check, and
pivot-path checks against a Fraction-tableau reference."""

import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cliquedim import format_class_text
from cliquedim.cli import corpus, main
from cliquedim.errors import InfeasibleModelError
from cliquedim.simplex import simplex_max, solve_packing_lp

F = Fraction


def reference_simplex(c, rows, b):
    """Textbook Bland simplex on a Fraction tableau: the pivot rule the
    integer tableau must follow step for step."""
    m, n = len(rows), len(c)
    if any(bi < 0 for bi in b):
        raise InfeasibleModelError("rhs must be nonnegative for the slack basis")
    width = n + m + 1
    tab = []
    for i in range(m):
        row = [F(v) for v in rows[i]] + [F(0)] * m + [F(b[i])]
        row[n + i] = F(1)
        tab.append(row)
    obj = [F(v) for v in c] + [F(0)] * (m + 1)
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
            raise InfeasibleModelError("LP is unbounded")
        piv = [v / tab[leave][enter] for v in tab[leave]]
        tab[leave] = piv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [tab[i][j] - f * piv[j] for j in range(width)]
        f = obj[enter]
        obj = [obj[j] - f * piv[j] for j in range(width)]
        basis[leave] = enter
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return -obj[-1], x, [-obj[n + i] for i in range(m)]


def test_two_variable_box():
    value, x, y = simplex_max([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert value == 2
    assert x == [F(1), F(1)]
    assert y == [F(1), F(1)]


def test_scaled_single_constraint():
    value, x, y = simplex_max([F(3)], [[F(1)]], [F(5)])
    assert value == 15
    assert x == [F(5)]


def test_fractional_optimum_stays_exact():
    # max x1+x2+x3 s.t. pairwise sums <= 1: optimum 3/2 at (1/2,1/2,1/2)
    rows = [
        [F(1), F(1), F(0)],
        [F(0), F(1), F(1)],
        [F(1), F(0), F(1)],
    ]
    value, x, y = simplex_max([F(1)] * 3, rows, [F(1)] * 3)
    assert value == F(3, 2)
    assert x == [F(1, 2)] * 3


def test_zero_objective():
    value, x, _ = simplex_max([F(0), F(0)], [[F(1), F(1)]], [F(1)])
    assert value == 0


def test_negative_rhs_rejected():
    with pytest.raises(InfeasibleModelError):
        simplex_max([F(1)], [[F(1)]], [F(-1)])


def test_unbounded_detected():
    with pytest.raises(InfeasibleModelError):
        simplex_max([F(1), F(1)], [[F(1), F(0)]], [F(1)])


def test_degenerate_ties_terminate():
    # many constraints active at the origin-adjacent corner
    rows = [
        [F(1), F(0)],
        [F(1), F(0)],
        [F(1), F(1)],
        [F(0), F(1)],
    ]
    value, x, y = simplex_max([F(2), F(1)], rows, [F(1), F(1), F(1), F(1)])
    assert value == 2
    assert sum(r[0] * x[0] + r[1] * x[1] for r in rows) <= 4


def test_dual_is_feasible():
    rows = [
        [F(1), F(1), F(0), F(1)],
        [F(0), F(1), F(1), F(0)],
        [F(1), F(0), F(1), F(1)],
    ]
    c = [F(1)] * 4
    value, x, y = simplex_max(c, rows, [F(1)] * 3)
    for j in range(4):
        assert sum(rows[i][j] * y[i] for i in range(3)) >= c[j]
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
    n = draw(st.integers(1, 10))
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
    rows = [[(vm >> j) & 1 for j in range(n)] for vm in masks]
    expected = reference_simplex([1] * n, rows, [1] * len(masks))
    assert solve_packing_lp(n, masks) == expected


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_lps(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rationals.map(abs), min_size=m, max_size=m))
    return c, rows, b


@settings(max_examples=300, deadline=None)
@given(rational_lps())
def test_rational_lp_matches_fraction_tableau(lp):
    c, rows, b = lp
    try:
        expected = reference_simplex(c, rows, b)
    except InfeasibleModelError:
        with pytest.raises(InfeasibleModelError):
            simplex_max(c, rows, b)
        return
    assert simplex_max(c, rows, b) == expected


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
