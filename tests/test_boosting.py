"""Hedge game, boosted sampling, and the consistency-rate verifier."""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cliquedim import boosting
from cliquedim import (
    DEFAULT_CAPS,
    ConceptClass,
    Dataset,
    InvalidParamsError,
    InvariantError,
    LengthMismatchError,
    NoSeparationError,
    NotRealizableDistributionError,
    ResourceLimitError,
    boost_config,
    build_graph,
    cached_omega_star,
    clear_caches,
    coloring_to_distribution,
    draw_patterns,
    forced_gamma_good_check,
    generate,
    mask_to_pattern,
    mu_tilde,
    omega_star,
    run_expert_game,
    smallest_separating_m0,
    verify_sspfcd_bound,
)
from cliquedim.boosting import (
    _DRAW_BLOCK,
    _PCG_MULT,
    MuTilde,
    _example_losses,
    _floor_bracketed,
    _pcg64_set_seed,
    _pcg64_words,
    clopper_pearson,
    format_boost_report,
    numeric_lemma_checks,
    small_pop_err_check,
    small_pop_verdicts,
)

F = Fraction

ANCHOR = generate("disjoint_pairs", universe=2)


# ─── sampling distribution ─────────────────────────────────────────────────


def test_mu_tilde_anchor_is_uniform_on_the_class():
    mu = mu_tilde(ANCHOR, 2)
    assert mu.omega_star == 2
    assert mu.epsilon == F(1, 4)
    assert mu.patterns == ((0, 0), (1, 1))
    assert mu.probs == (F(1, 2), F(1, 2))


def test_mu_tilde_requires_separation():
    with pytest.raises(NoSeparationError):
        mu_tilde(generate("full", universe=2), 2)


def test_smallest_separating_m0():
    assert smallest_separating_m0(ANCHOR) == 2
    assert smallest_separating_m0(generate("paper_example_sec6")) == 4
    assert smallest_separating_m0(generate("singleton", universe=2)) == 1


def test_draw_patterns_is_seeded_and_supported():
    mu = mu_tilde(ANCHOR, 2)
    a = draw_patterns(mu, 50, random.Random(3))
    b = draw_patterns(mu, 50, random.Random(3))
    assert a == b
    assert set(a) <= set(mu.patterns)
    assert len(a) == 50


def reference_draw_patterns(mu, count, rng):
    """The linear scan `draw_patterns` replaced: each draw is compared with
    the exact cumulative Fractions in order."""
    cum = []
    acc = F(0)
    for p in mu.probs:
        acc += p
        cum.append(acc)
    draws = []
    for _ in range(count):
        u = rng.random()
        k = 0
        while k < len(cum) - 1 and u >= cum[k]:
            k += 1
        draws.append(mu.patterns[k])
    return draws


def distribution(weights) -> MuTilde:
    """A MuTilde over distinct patterns with probabilities proportional to
    the rational `weights`; only `patterns` and `probs` matter to draws."""
    total = sum(weights, F(0))
    width = max(1, (len(weights) - 1).bit_length())
    return MuTilde(
        m0=1, omega_star=F(1), epsilon=F(0),
        patterns=tuple(mask_to_pattern(i, width) for i in range(len(weights))),
        probs=tuple(F(w) / total for w in weights),
    )


weight_vectors = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=1, max_denominator=10**6)),
    min_size=1, max_size=8,
).filter(lambda ws: sum(ws) > 0)


@settings(max_examples=300, deadline=None)
@given(weight_vectors, st.integers(min_value=0, max_value=2**64))
def test_draw_patterns_equals_the_fraction_scan(weights, seed):
    mu = distribution(weights)
    assert draw_patterns(mu, 200, random.Random(seed)) == reference_draw_patterns(
        mu, 200, random.Random(seed)
    )


def untemper(y):
    """The Mersenne Twister word whose tempered output is `y`."""
    y ^= y >> 18
    x = y
    for _ in range(2):
        x = y ^ ((x << 15) & 0xEFC60000)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def emitting(outputs, start):
    """A plain random.Random whose next 32-bit outputs are `outputs`: their
    untempered words sit in its state from buffer index `start` < 624, so no
    twist comes between them."""
    words = list(random.Random(0).getstate()[1][:624])
    words[start:start + len(outputs)] = map(untemper, outputs)
    rng = random.Random()
    rng.setstate((3, tuple(words) + (start,), None))
    return rng


@settings(max_examples=100, deadline=None)
@given(
    weight_vectors,
    st.sampled_from([1, 2, 3, 5, _DRAW_BLOCK]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=12),
)
@example([F(1)], 1, 63, 0, 12)
def test_block_draws_equal_the_reference_at_every_threshold(weights, block, low, spare, extra):
    # random() makes j = (a >> 5) 2^26 + (b >> 6) from outputs a, b: load
    # outputs giving j at, just below and just above every threshold, with
    # `low` in the dropped bits, then `extra` draws from the twisted state
    mu = distribution(weights)
    js = [0, 2**53 - 1]
    acc = F(0)
    for p in mu.probs[:-1]:
        acc += p
        t = -(-acc.numerator * 2**53 // acc.denominator)
        js += [j for j in (t - 1, t, t + 1) if 0 <= j < 2**53]
    outputs = []
    for j in js:
        outputs += [(j >> 26) << 5 | low & 31, (j & (1 << 26) - 1) << 6 | low]
    start = 624 - len(outputs) - spare
    probe = emitting(outputs, start)
    assert [probe.getrandbits(32) for _ in outputs] == outputs
    probe = emitting(outputs, start)
    assert [probe.random() * 2**53 for _ in js] == js
    rng, ref = emitting(outputs, start), emitting(outputs, start)
    count = len(js) + extra
    with pytest.MonkeyPatch.context() as patch:
        # a block smaller than the draws crosses block boundaries
        patch.setattr(boosting, "_DRAW_BLOCK", block)
        got = draw_patterns(mu, count, rng)
    assert got == reference_draw_patterns(mu, count, ref)
    assert rng.getstate() == ref.getstate()


class Squared(random.Random):
    """Overrides only random(), which draws never call."""

    def random(self):
        return super().random() ** 2


@settings(max_examples=60, deadline=None)
@given(
    weight_vectors,
    st.integers(min_value=0, max_value=2**64),
    st.sampled_from([0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3]),
    st.sampled_from([random.Random, Squared]),
)
@example([F(1, 3), F(2, 3)], 5, 0, random.Random)
@example([F(1)], 5, _DRAW_BLOCK + 1, random.Random)
@example([F(1, 3), F(0), F(2, 3)], 7, _DRAW_BLOCK + 1, Squared)
def test_draw_patterns_equals_the_reference_across_blocks_and_generators(weights, seed, count, kind):
    mu = distribution(weights)
    rng, ref = kind(seed), random.Random(seed)
    assert draw_patterns(mu, count, rng) == reference_draw_patterns(mu, count, ref)
    assert rng.getstate() == ref.getstate()


# ─── configuration ─────────────────────────────────────────────────────────


def test_boost_config_anchor_frozen_values():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    assert cfg.epsilon == F(1, 4)
    assert cfg.gamma == F(1, 16)
    assert cfg.T == 563
    assert cfg.T % 2 == 1
    assert cfg.eta == math.sqrt(2 * math.log(3) / 563)
    # the expert game over a dataset of the target length runs at the same
    # rate: (0, 1) agrees with the two (0:0) experts and not with (1:0), so
    # one round scales their weight against its weight by exp(-eta)
    game = run_expert_game(Dataset([(0, 0), (1, 0), (0, 0)]), [(0, 1)] * cfg.T)
    assert game.weights[1, 0] / game.weights[1, 2] == pytest.approx(math.exp(-cfg.eta), rel=1e-12)
    assert cfg.alpha == pytest.approx(512 * math.log(8), rel=1e-12)


def test_boost_config_m1_degenerates_cleanly():
    cfg = boost_config(ANCHOR, m0=2, m=1)
    assert cfg.T == 1
    assert cfg.eta == 0.0
    # one round needs no gamma^2; one that underflows leaves alpha unbounded
    cfg = boost_config(ANCHOR, m0=2, m=1, gamma=F(1, 10**162))
    assert (cfg.T, cfg.alpha) == (1, math.inf)


def test_boost_config_rejects_bad_gamma():
    with pytest.raises(InvalidParamsError):
        boost_config(ANCHOR, m0=2, m=3, gamma=F(1, 8))  # = epsilon/2
    with pytest.raises(InvalidParamsError):
        boost_config(ANCHOR, m0=2, m=3, gamma=F(0))
    with pytest.raises(InvalidParamsError):
        boost_config(ANCHOR, m0=2, m=0)
    with pytest.raises(InvalidParamsError, match="^m0 must be >= 1, got 0$"):
        boost_config(ANCHOR, m0=0, m=3)
    # T = ceil(2 ln 3 / gamma^2) must be below 2^63: about 2.2e20 is not
    with pytest.raises(InvalidParamsError, match="^gamma is too small"):
        boost_config(ANCHOR, m0=2, m=3, gamma=F(1, 10**10))
    assert boost_config(ANCHOR, m0=2, m=3, gamma=F(1, 10**9)).T == 2197224577336219393


def test_boost_config_refuses_gamma_too_long_to_print():
    # the report prints gamma with str(), which Python refuses past its
    # limit on integer digits; the range error names the range instead
    digits = sys.get_int_max_str_digits()
    with pytest.raises(InvalidParamsError) as exc:
        boost_config(ANCHOR, m0=2, m=3, gamma=F(9 * 10**digits))
    assert str(exc.value) == "gamma must lie in (0, epsilon/2) = (0, 1/8); got a value too long to print"
    for m in (1, 3):
        with pytest.raises(InvalidParamsError) as exc:
            boost_config(ANCHOR, m0=2, m=m, gamma=F(1, 100) + F(1, 10**digits))
        assert str(exc.value) == (
            f"gamma must lie in (0, epsilon/2) = (0, 1/8) with a numerator "
            f"and denominator of at most {digits} digits"
        )
    # one digit fewer still prints
    assert boost_config(ANCHOR, m0=2, m=3, gamma=F(1, 100) + F(1, 10 ** (digits - 1))).T == 21973


# ─── the expert game ───────────────────────────────────────────────────────


def test_expert_game_starts_uniform_and_stays_normalized():
    ds = Dataset([(0, 1), (1, 0), (1, 0)])
    instances = [(1, 1), (0, 0), (1, 0), (0, 1), (1, 1)]
    tr = run_expert_game(ds, instances)
    assert np.allclose(tr.weights[0], 1 / 3)
    assert np.allclose(tr.weights.sum(axis=1), 1.0)
    assert tr.losses.shape == (5, 3)


def test_expert_game_losses_are_agreements():
    ds = Dataset([(0, 1), (1, 0)])
    tr = run_expert_game(ds, [(1, 1)])
    # instance labels point 0 with 1 (agrees with expert 0) and point 1
    # with 1 (disagrees with expert 1)
    assert tr.losses[0].tolist() == [1.0, 0.0]
    assert tr.learner[0] == pytest.approx(0.5)


def test_expert_game_regret_identity_on_consistent_instances():
    ds = Dataset([(0, 0), (1, 1)])
    tr = run_expert_game(ds, [(0, 1)] * 9)
    assert tr.regret == pytest.approx(0.0)
    assert tr.regret_bound == pytest.approx(math.sqrt(2 * 9 * math.log(2)))


def test_expert_game_regret_bound_holds_on_adversarial_streams():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(1, 4)
        pairs = [(p, rng.randrange(2)) for p in range(n)]
        ds = Dataset(pairs * rng.randrange(1, 3))
        t_rounds = rng.randrange(1, 40)
        instances = [
            tuple(rng.randrange(2) for _ in range(n)) for _ in range(t_rounds)
        ]
        tr = run_expert_game(ds, instances)
        assert tr.regret <= tr.regret_bound + 1e-9


def test_expert_game_weights_depend_only_on_past():
    ds = Dataset([(0, 0), (1, 1)])
    a = run_expert_game(ds, [(0, 0), (1, 1), (0, 1)])
    b = run_expert_game(ds, [(0, 0), (1, 1), (1, 0)])
    # final instance differs: everything up to the last weight row agrees
    assert np.array_equal(a.weights[:3], b.weights[:3])
    assert np.array_equal(a.losses[:2], b.losses[:2])


def test_expert_game_rejects_short_instance():
    with pytest.raises(LengthMismatchError):
        run_expert_game(Dataset([(2, 1)]), [(0, 1)])
    with pytest.raises(InvalidParamsError, match="^expert game needs a nonempty dataset$"):
        run_expert_game(Dataset([]), [(0, 1)])
    with pytest.raises(InvalidParamsError, match="^expert game needs at least one round$"):
        run_expert_game(Dataset([(1, 1)]), [])


def reference_example_losses(dataset, instances):
    """The per-instance loop `_example_losses` replaced."""
    m = len(dataset)
    if m < 1:
        raise InvalidParamsError("expert game needs a nonempty dataset")
    top = max(ex.point for ex in dataset)
    arr = np.zeros((len(instances), m), dtype=np.float64)
    for t, h in enumerate(instances):
        if len(h) <= top:
            raise LengthMismatchError(
                f"instance {t} has length {len(h)}, dataset uses point {top}"
            )
        for j, ex in enumerate(dataset):
            arr[t, j] = 1.0 if h[ex.point] == ex.label else 0.0
    return arr


def test_example_losses_equal_the_per_instance_loop():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 5)
        truth = [rng.randrange(2) for _ in range(n)]
        ds = Dataset([(p, truth[p]) for p in (rng.randrange(n) for _ in range(rng.randrange(1, 5)))])
        instances = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(rng.randrange(0, 30))]
        got = _example_losses(ds, instances)  # expert-major
        want = reference_example_losses(ds, instances)
        assert got.dtype == want.dtype and got.shape == want.T.shape
        assert got.flags.c_contiguous and np.array_equal(got, want.T)
    # the first short instance is named, after good and repeated ones, also
    # where its pattern is not the first short one to appear
    ds = Dataset([(0, 1), (2, 0)])
    for instances, first in (
        ([(0, 1, 1), (0, 1, 1), (1, 1), (1, 0, 0), (1,)], "instance 2 has length 2"),
        ([(0, 1, 1), (1,), (0, 1), (1,)], "instance 1 has length 1"),
    ):
        for losses in (_example_losses, reference_example_losses):
            with pytest.raises(LengthMismatchError, match=rf"^{first}, dataset uses point 2$"):
                losses(ds, instances)



def test_draws_are_a_read_only_sequence_of_mu_tildes_tuples():
    mu = distribution([F(1, 3), F(0), F(1, 2), F(1, 6)])
    draws = draw_patterns(mu, 40, random.Random(8))
    want = reference_draw_patterns(mu, 40, random.Random(8))
    assert len(draws) == 40 and draws == want and want == draws
    assert draws != want[:-1] and draws != want[::-1] and draws != tuple(want)
    assert draws == draw_patterns(mu, 40, random.Random(8))
    assert [draws[t] for t in range(-40, 40)] == want + want
    with pytest.raises(IndexError):
        draws[40]
    for cut in (slice(3, 17), slice(None, None, -3), slice(-5, None), slice(9, 2)):
        part = draws[cut]
        assert part == want[cut] and len(part) == len(want[cut])
        assert part.patterns is mu.patterns and not part.index.flags.writeable
    # every pattern yielded, by iteration or by index, is mu~'s own tuple
    assert all(h is mu.patterns[k] for h, k in zip(draws, draws.index))
    assert all(draws[t] is mu.patterns[draws.index[t]] for t in range(40))
    assert draws.index.dtype == np.intp and not draws.index.flags.writeable
    with pytest.raises(ValueError):
        draws.index[0] = 1
    with pytest.raises(ValueError):
        draws[2:5].index[0] = 1
    custom = draw_patterns(mu, 40, Squared(8))
    assert custom == want
    assert custom.index.dtype == np.intp and not custom.index.flags.writeable


def transcripts_equal(a, b) -> bool:
    return (
        np.array_equal(a.weights, b.weights) and np.array_equal(a.losses, b.losses)
        and np.array_equal(a.learner, b.learner) and a.regret == b.regret
        and a.regret_bound == b.regret_bound
    )


@settings(max_examples=60, deadline=None)
@given(
    weight_vectors,
    st.integers(min_value=0, max_value=2**64),
    st.sampled_from([1, 2, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3]),
    st.sampled_from([random.Random, Squared]),
    st.data(),
)
@example([F(1, 3), F(0), F(2, 3)], 7, _DRAW_BLOCK + 1, Squared, None)
def test_the_game_on_draws_equals_the_game_on_their_list(weights, seed, count, kind, data):
    mu = distribution(weights)
    width = len(mu.patterns[0])
    if data is None:
        ds = Dataset([(0, 1), (width - 1, 1)])
    else:
        # repeated points, labeled by one full labeling
        labeling = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        points = data.draw(st.lists(st.integers(min_value=0, max_value=width - 1), min_size=1, max_size=9))
        ds = Dataset([(x, labeling >> x & 1) for x in points])
    draws = draw_patterns(mu, count, kind(seed))
    assert transcripts_equal(run_expert_game(ds, draws), run_expert_game(ds, list(draws)))


def test_only_drawn_patterns_are_checked_for_length():
    ds = Dataset([(0, 1), (2, 0)])
    full, shorter, short = (1, 0, 0), (1,), (0, 1)
    never = MuTilde(
        m0=1, omega_star=F(1), epsilon=F(0), patterns=(full, shorter, short), probs=(F(1), F(0), F(0))
    )
    draws = draw_patterns(never, 30, random.Random(4))
    assert set(draws) == {full}
    assert transcripts_equal(run_expert_game(ds, draws), run_expert_game(ds, list(draws)))
    # both short patterns drawn: the error names the first short draw, as
    # the list's does, whichever of them it is
    drawn = dataclasses.replace(never, probs=(F(1, 2), F(1, 4), F(1, 4)))
    for kind, seed in itertools.product((random.Random, Squared), (1, 3)):
        draws = draw_patterns(drawn, 30, kind(seed))
        first = next(t for t, h in enumerate(draws) if h != full)
        assert first > 0 and {shorter, short} <= set(draws)
        for instances in (draws, list(draws)):
            with pytest.raises(
                LengthMismatchError,
                match=rf"^instance {first} has length {len(draws[first])}, dataset uses point 2$",
            ):
                run_expert_game(ds, instances)


def test_the_game_reads_draws_without_the_tuple_map(monkeypatch):
    built = []

    def spy(factory):
        built.append(factory)
        return defaultdict(factory)

    monkeypatch.setattr(boosting, "defaultdict", spy)
    ds = Dataset([(0, 1), (1, 0)])
    mu = mu_tilde(ANCHOR, 2)
    for kind in (random.Random, Squared):
        draws = draw_patterns(mu, 2 * _DRAW_BLOCK + 1, kind(5))
        run_expert_game(ds, draws)
        run_expert_game(ds, draws[5:])
    assert built == []
    run_expert_game(ds, list(draws))
    assert len(built) == 1


def reference_expert_game(dataset, instances):
    """The row-major game `run_expert_game` replaced: (T, m) losses from
    the per-instance loop, and per-round reductions along rows of m."""
    instances = tuple(tuple(h) for h in instances)
    t_rounds = len(instances)
    m = len(dataset)
    eta = boosting._hedge_rate(m, t_rounds)
    losses = reference_example_losses(dataset, instances)
    z = np.zeros((t_rounds + 1, m))
    np.cumsum(losses, axis=0, out=z[1:])
    z *= -eta
    z -= z.max(axis=1, keepdims=True)
    weights = np.exp(z, out=z)
    weights /= weights.sum(axis=1, keepdims=True)
    learner = (weights[:-1] * losses).sum(axis=1)
    regret = float(learner.sum() - losses.sum(axis=0).min())
    return weights, losses, learner, regret


@st.composite
def expert_games(draw):
    """A dataset of 1-12 examples on |X| <= 4 points, labeled by one full
    labeling, and 1-80 instances over |X| + 1 points, drawn from a few
    patterns so most repeat, each given as a tuple, a list or a numpy row."""
    universe = draw(st.integers(min_value=1, max_value=4))
    labeling = draw(st.integers(min_value=0, max_value=(1 << universe) - 1))
    points = draw(st.lists(st.integers(min_value=0, max_value=universe - 1), min_size=1, max_size=12))
    dataset = Dataset([(x, labeling >> x & 1) for x in points])
    pattern = st.tuples(*[st.integers(0, 1)] * (universe + 1))
    patterns = draw(st.lists(pattern, min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=80))
    forms = draw(st.lists(st.sampled_from((tuple, list, np.array)), min_size=len(picks), max_size=len(picks)))
    return dataset, [form(h) for form, h in zip(forms, picks)]


@settings(max_examples=200, deadline=None)
@given(expert_games())
@example((Dataset([(0, 1)]), [(1, 0)]))  # T = 1, one expert
@example((Dataset([(0, 1), (1, 0)] * 4), [np.array([1, 1])] * 3 + [[0, 0]]))  # m = 8
def test_expert_game_equals_the_row_major_game(game):
    """The losses equal the row-major game's, and up to 7 experts so do the
    weights, the learner's losses and the regret, bit for bit.

    From 8 experts on, numpy sums a row of m values pairwise where the
    expert-major game adds the m rows in order.  Both orders sum positive
    terms within (m - 1) units of roundoff u = 2^-53 of the exact sum, so a
    weight e_j / sum differs by at most 2m u relative, which is 2m ulp, and
    the learner's loss, a sum of up to m such weights, by at most (4m - 2) u,
    which is 4m ulp.  Random games of 8-12 experts and up to 80 rounds came
    within 8 and 10 ulp.  The regret is then the learner's losses summed
    minus the best expert's total, computed as the row-major game does."""
    dataset, instances = game
    m = len(dataset)
    got = run_expert_game(dataset, instances)
    weights, losses, learner, regret = reference_expert_game(dataset, instances)
    assert got.weights.shape == weights.shape and got.learner.shape == learner.shape
    assert np.array_equal(got.losses, losses)
    assert got.regret == float(got.learner.sum() - losses.sum(axis=0).min())
    if m <= 7:
        assert np.array_equal(got.weights, weights)
        assert np.array_equal(got.learner, learner)
        assert got.regret == regret
    else:
        np.testing.assert_array_max_ulp(got.weights, weights, maxulp=2 * m)
        np.testing.assert_array_max_ulp(got.learner, learner, maxulp=4 * m)


def test_expert_game_label_distribution_sums_to_one():
    ds = Dataset([(0, 1), (0, 1), (1, 0)])
    tr = run_expert_game(ds, [(1, 1), (0, 0)])
    assert tr.weights.shape == (3, 3)
    for row in tr.weights:
        assert row.sum() == pytest.approx(1.0)


def test_expert_game_majority_consistency_under_gamma_goodness():
    # every-round gamma-goodness forces a consistent majority; checked in
    # bulk by the forced driver, spot-checked here on one transcript
    cfg = boost_config(ANCHOR, m0=2, m=3)
    ds = Dataset([(0, 0), (0, 0), (1, 0)])
    violations, total = forced_gamma_good_check(ds, 2, cfg, transcripts=64, seed=1)
    assert total == 64
    assert violations == 0


def test_forced_check_is_deterministic():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    ds = Dataset([(0, 1), (1, 1), (1, 1)])
    assert forced_gamma_good_check(ds, 2, cfg, 32, seed=9) == forced_gamma_good_check(
        ds, 2, cfg, 32, seed=9
    )


def reference_forced_violations(dataset, universe, config, transcripts, seed):
    """The per-round loop `forced_gamma_good_check` replaced."""
    m = len(dataset)
    rng = np.random.default_rng(seed)
    pats = [mask_to_pattern(hm, universe) for hm in range(1 << universe)]
    agree = reference_example_losses(dataset, pats)
    gamma_f = float(config.gamma)
    w = np.full((transcripts, m), 1.0 / m)
    correct = np.zeros((transcripts, m))
    for _ in range(config.T):
        mass = w @ agree.T
        good = mass >= 0.5 + gamma_f - 1e-12
        assert good.any(axis=1).all()
        r = rng.random(transcripts)
        counts = good.sum(axis=1)
        ranks = np.floor(r * counts).astype(np.int64)
        order = np.cumsum(good, axis=1) - 1
        pick = (order == ranks[:, None]) & good
        chosen = pick.argmax(axis=1)
        loss = agree[chosen]
        correct += loss
        w = w * np.exp(-config.eta * loss)
        w /= w.sum(axis=1, keepdims=True)
    return int((correct <= config.T / 2).any(axis=1).sum()), transcripts


def test_forced_check_equals_the_per_round_loop():
    # at the configured T no run violates; nine rounds with a margin of
    # -3/8 .. 1/16 let majorities fail, so the counts depend on every pick
    anchor = boost_config(ANCHOR, m0=2, m=3)
    sec6 = boost_config(generate("paper_example_sec6"), m0=4, m=2)
    cases = [
        (anchor, Dataset([(0, 0), (0, 0), (1, 0)]), 2),
        (anchor, Dataset([(0, 1), (1, 1), (1, 1)]), 2),
        (sec6, Dataset([(1, 0), (3, 1)]), 4),
    ]
    violations = []
    for cfg, ds, universe in cases:
        for gamma in (F(-3, 8), F(-1, 8), F(1, 32), F(1, 16)):
            for rounds, seeds in ((cfg.T, (0,)), (9, (0, 7))):
                run = dataclasses.replace(cfg, gamma=gamma, T=rounds)
                for seed in seeds:
                    got = forced_gamma_good_check(ds, universe, run, 40, seed)
                    assert got == reference_forced_violations(ds, universe, run, 40, seed)
                    violations.append(got[0])
    assert any(0 < v < 40 for v in violations)


@st.composite
def forced_runs(draw):
    """A dataset on |X| <= 4 labeled by one full labeling, so a gamma-good
    pattern always exists, with a margin and a short round count of either
    parity (at an even T a count of exactly T/2 is a violation)."""
    universe = draw(st.integers(min_value=1, max_value=4))
    labeling = draw(st.integers(min_value=0, max_value=(1 << universe) - 1))
    points = draw(st.lists(st.integers(min_value=0, max_value=universe - 1), min_size=1, max_size=5))
    dataset = Dataset([(x, labeling >> x & 1) for x in points])
    gamma = draw(st.sampled_from((F(-3, 8), F(-1, 8), F(1, 32), F(1, 16))))
    rounds = draw(st.integers(min_value=1, max_value=41))
    return dataset, universe, gamma, rounds


@settings(max_examples=60, deadline=None)
@given(
    forced_runs(),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**64),
)
# 300 transcripts draw _DRAW_BLOCK // 300 rounds per block: cross a block
@example((Dataset([(0, 1), (1, 0), (1, 0)]), 2, F(-1, 8), 2 * (_DRAW_BLOCK // 300) + 1), 300, 3)
# an even T past the first block: a count of exactly T/2 there decides nothing
@example((Dataset([(0, 1), (1, 0)]), 2, F(-3, 8), _DRAW_BLOCK // 300 + 2), 300, 0)
def test_forced_check_equals_the_loop_on_random_datasets(run, transcripts, seed):
    dataset, universe, gamma, rounds = run
    cfg = dataclasses.replace(boost_config(ANCHOR, m0=2, m=3), gamma=gamma, T=rounds)
    got = forced_gamma_good_check(dataset, universe, cfg, transcripts, seed)
    assert got == reference_forced_violations(dataset, universe, cfg, transcripts, seed)


def test_settled_runs_equal_the_loop_at_the_configured_rounds():
    # 250 runs take blocks of 8 rounds: at seed 1 every run on a constant-label
    # vertex settles after the first block, and on the others after blocks 2-5
    cfg = boost_config(ANCHOR, m0=2, m=3)
    g = build_graph(ANCHOR, 3)
    assert cfg.T == 563 and g.num_vertices == 8
    for ds in g.vertices:
        got = forced_gamma_good_check(ds, 2, cfg, 250, seed=1)
        assert got == reference_forced_violations(ds, 2, cfg, 250, seed=1) == (0, 250)


def test_unsettled_runs_equal_the_loop():
    # on this vertex the good set always holds inconsistent labelings, so none
    # of the 100 runs settles; 94 are decided after round 200, the rest after 220
    cfg = dataclasses.replace(boost_config(generate("paper_example_sec6"), m0=4, m=4), T=301)
    ds = Dataset([(0, 1), (1, 0), (2, 1), (3, 0)])
    got = forced_gamma_good_check(ds, 4, cfg, 100, seed=1)
    assert got == reference_forced_violations(ds, 4, cfg, 100, seed=1)


def test_runs_settling_partway_equal_the_loop():
    # 300 runs take blocks of 6 rounds: after round 24, 18 runs settle and 28
    # more are decided; after round 30, 101 settle and 94 more are decided; 59
    # are still live at round 31, and 156 runs violate
    cfg = dataclasses.replace(boost_config(ANCHOR, m0=2, m=3), gamma=F(1, 32), T=31)
    ds = Dataset([(1, 0), (2, 1), (2, 1), (2, 1)])
    got = forced_gamma_good_check(ds, 4, cfg, 300, seed=78)
    assert got == reference_forced_violations(ds, 4, cfg, 300, seed=78) == (156, 300)


def test_forced_runs_leaving_in_two_blocks_shrink_their_buffers(monkeypatch):
    # 200 runs take blocks of 10 rounds: 34 runs leave after one block and 146
    # after a later one, and the last 20 play all 51 rounds.  Each product
    # writes into a buffer with one column per live run
    cfg = dataclasses.replace(boost_config(ANCHOR, m0=2, m=3), gamma=F(-1, 8), T=51)
    ds = Dataset([(0, 0), (1, 0), (1, 0), (1, 0)])
    outs = defaultdict(list)
    dot = np.dot

    def spy(a, b, out=None):
        if out is None:
            return dot(a, b)
        outs[a.shape].append(out)
        return dot(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "dot", spy)
        got = forced_gamma_good_check(ds, 3, cfg, 200, seed=17)
    assert got == reference_forced_violations(ds, 3, cfg, 200, seed=17) == (17, 200)
    assert sorted(outs) == [(8, 4), (8, 8)]  # mass, then prefix counts
    for written in outs.values():
        assert len(written) == 51
        assert sorted({out.shape[1] for out in written}, reverse=True) == [200, 166, 20]


@pytest.mark.parametrize("transcripts", [0, 1, 2])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_forced_check_with_few_runs_and_rounds_equals_the_loop(transcripts, rounds):
    # no run, or one or two runs; one round, an even round count, and three
    for gamma in (F(-3, 8), F(1, 16)):
        cfg = dataclasses.replace(boost_config(ANCHOR, m0=2, m=3), gamma=gamma, T=rounds)
        for ds in (Dataset([(0, 1), (1, 0), (1, 0)]), Dataset([(0, 0)])):
            for seed in range(4):
                got = forced_gamma_good_check(ds, 2, cfg, transcripts, seed)
                assert got == reference_forced_violations(ds, 2, cfg, transcripts, seed)
                assert got[1] == transcripts


def test_forced_check_from_eight_examples_equals_the_loop():
    # from 8 examples the normalizing sum over the examples may differ from
    # the row-major loop's pairwise sum in the last ulp; the margin of 1e-12
    # on gamma-goodness keeps the picks equal on these seeded datasets
    base = boost_config(ANCHOR, m0=2, m=3)
    violated = 0
    for case in range(40):
        rnd = random.Random(case)
        universe = rnd.randint(1, 4)
        labeling = rnd.getrandbits(universe)
        dataset = Dataset([(x, labeling >> x & 1) for x in (rnd.randrange(universe) for _ in range(rnd.randint(8, 12)))])
        gamma = rnd.choice((F(-3, 8), F(-1, 8), F(1, 32), F(1, 16)))
        cfg = dataclasses.replace(base, gamma=gamma, T=rnd.randint(1, 41))
        transcripts = rnd.randint(1, 300)
        got = forced_gamma_good_check(dataset, universe, cfg, transcripts, case)
        assert got == reference_forced_violations(dataset, universe, cfg, transcripts, case)
        violated += 0 < got[0] < transcripts
    assert violated > 10


def test_decided_runs_equal_the_loop_at_the_configured_rounds(monkeypatch):
    # at least two labelings are always good on this vertex and at most one is
    # consistent, so no run settles; every run is decided before 0.7 T rounds
    cfg = boost_config(generate("paper_example_sec6"), m0=4, m=4)
    ds = Dataset([(0, 1), (1, 0), (2, 1), (3, 0)])
    assert cfg.T == 11357
    drawn = []
    make = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = make(seed)

        def random(self, size):
            drawn.append(size[0])
            return self.rng.random(size)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", Spy)
        got = forced_gamma_good_check(ds, 4, cfg, 100, seed=1)
    assert got == reference_forced_violations(ds, 4, cfg, 100, seed=1) == (0, 100)
    assert 0 < sum(drawn) < 0.7 * cfg.T


def test_forced_check_raises_when_no_labeling_is_gamma_good():
    # gamma = 3/4 asks for mass >= 5/4, which no labeling has
    cfg = dataclasses.replace(boost_config(ANCHOR, m0=2, m=3), gamma=F(3, 4))
    with pytest.raises(InvariantError, match="^no gamma-good labeling available$"):
        forced_gamma_good_check(Dataset([(0, 0), (1, 0)]), 2, cfg, 4, seed=0)


def test_forced_check_refuses_a_universe_above_the_pattern_cap(monkeypatch):
    # 2^21 labelings and an 8 * 4^21-byte prefix matrix: refused by the
    # pattern cap before the first labeling is listed
    def listed(*_):
        raise AssertionError("a labeling was listed")

    monkeypatch.setattr(boosting, "mask_to_pattern", listed)
    cfg = boost_config(ANCHOR, m0=2, m=3)
    assert DEFAULT_CAPS.max_pattern_universe == 20
    refused = r"^resource limit \(pattern-cap\): universe size 21 exceeds pattern enumeration cap 20$"
    with pytest.raises(ResourceLimitError, match=refused):
        forced_gamma_good_check(Dataset([(0, 0)]), 21, cfg, 1, seed=0)
    # within the pattern cap, a universe of 13 would need a 2 GiB prefix
    # matrix, above the forced check's own cap of 12 (128 MiB)
    refused = r"^resource limit \(prefix-matrix\): universe size 13 exceeds the forced check's cap 12 "
    with pytest.raises(ResourceLimitError, match=refused):
        forced_gamma_good_check(Dataset([(0, 0)]), 13, cfg, 1, seed=0)


@pytest.mark.parametrize(
    "dataset, refused",
    [
        (Dataset([]), "^the forced check needs a nonempty dataset$"),
        (Dataset([(0, 0), (3, 1)]), r"^dataset \(0:0\);\(3:1\) has a point outside the universe of 2 points$"),
        (Dataset([(2, 1)]), r"^dataset \(2:1\) has a point outside the universe of 2 points$"),
    ],
    ids=["empty", "past-the-universe", "at-the-universe"],
)
def test_forced_check_refuses_a_dataset_it_cannot_play_before_listing(monkeypatch, dataset, refused):
    def listed(*_):
        raise AssertionError("a labeling was listed")

    monkeypatch.setattr(boosting, "mask_to_pattern", listed)
    cfg = boost_config(generate("paper_example_sec6"), 4, 2)
    with pytest.raises(InvalidParamsError, match=refused):
        forced_gamma_good_check(dataset, 2, cfg, 4, seed=0)


def test_boosting_rejects_negative_counts_and_seeds():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    ds = Dataset([(0, 1), (1, 1), (1, 1)])
    with pytest.raises(InvalidParamsError, match="transcripts must be >= 0, got -1"):
        forced_gamma_good_check(ds, 2, cfg, transcripts=-1, seed=0)
    with pytest.raises(InvalidParamsError, match="seed must be >= 0, got -1"):
        forced_gamma_good_check(ds, 2, cfg, transcripts=4, seed=-1)
    with pytest.raises(InvalidParamsError, match="seed must be >= 0, got -1"):
        verify_sspfcd_bound(ANCHOR, cfg, trials=4, master_seed=-1)
    with pytest.raises(InvalidParamsError, match="count must be >= 0, got -5"):
        draw_patterns(cfg.mu, -5, random.Random(0))


# ─── the consistency-rate verifier ─────────────────────────────────────────


def test_clopper_pearson_brackets_the_truth():
    lo, hi = clopper_pearson(50, 100)
    assert lo < 0.5 < hi
    assert clopper_pearson(0, 100)[0] == 0.0
    assert clopper_pearson(100, 100)[1] == 1.0
    tight_lo, tight_hi = clopper_pearson(50, 100, confidence=0.5)
    assert tight_lo > lo and tight_hi < hi


def test_clopper_pearson_matches_scipy():
    """scipy's beta quantiles referee the stdlib inverse: relative error at
    most 1e-9 and the same six decimals the boost report prints."""
    beta = pytest.importorskip("scipy.stats").beta
    rng = random.Random(11)
    for n in (1, 2, 5, 37, 1000, 20000, 10**5):
        ks = {0, 1, n // 2, n - 1, n} | {rng.randint(0, n) for _ in range(4)}
        for k in sorted(ks):
            for confidence in (0.5, 0.95, 0.99, 0.999):
                tail = (1 - confidence) / 2
                want = (
                    0.0 if k == 0 else float(beta.ppf(tail, k, n - k + 1)),
                    1.0 if k == n else float(beta.ppf(1 - tail, k + 1, n - k)),
                )
                for got, ref in zip(clopper_pearson(k, n, confidence), want):
                    case = (k, n, confidence, got, ref)
                    assert abs(got - ref) <= 1e-9 * ref, case
                    assert f"{got:.6f}" == f"{ref:.6f}", case
    assert clopper_pearson(0, 0) == (0.0, 1.0)
    for confidence in (0.0, 1.0):
        with pytest.raises(InvalidParamsError, match="confidence must be in"):
            clopper_pearson(5, 10, confidence)


@pytest.mark.parametrize("k, n", [(3, -2), (0, -1), (5, 3), (-1, 3)])
def test_clopper_pearson_refuses_counts_outside_the_trials(k, n):
    with pytest.raises(InvalidParamsError, match="0 <= k <= n"):
        clopper_pearson(k, n)


def test_verify_report_anchor_small_run():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    rep = verify_sspfcd_bound(ANCHOR, cfg, trials=400, master_seed=0)
    assert rep.all_pass
    assert not rep.sampled  # 8 realizable datasets, all enumerated
    assert len(rep.rows) == 8
    for row in rep.rows:
        assert row.status == "PASS"
        assert row.trials == 400
        # anchor majorities are all-0 or all-1, each dataset matches half
        assert row.successes / row.trials == pytest.approx(0.5, abs=0.15)
        assert row.log_bound == pytest.approx(-cfg.alpha * math.log(3))


def test_verify_report_is_reproducible():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    a = verify_sspfcd_bound(ANCHOR, cfg, trials=64, master_seed=4)
    b = verify_sspfcd_bound(ANCHOR, cfg, trials=64, master_seed=4)
    assert a.rows == b.rows


def point_mass_config(cls, m0, m, pattern):
    """`boost_config(cls, m0, m)` with mu~ moved onto the one `pattern`."""
    cfg = boost_config(cls, m0, m)
    return dataclasses.replace(cfg, mu=dataclasses.replace(cfg.mu, patterns=(pattern,), probs=(F(1),)))


def test_verify_report_fails_the_datasets_a_point_mass_contradicts():
    # every majority is the one pattern: a dataset it contradicts never
    # succeeds, and the 99% upper limit falls below the floor epsilon - 2 gamma
    pattern = (0, 0)
    rep = verify_sspfcd_bound(ANCHOR, point_mass_config(ANCHOR, 2, 1, pattern), trials=200)
    statuses = {row.dataset.render(): row.status for row in rep.rows}
    assert statuses == {"(0:0)": "PASS", "(1:0)": "PASS", "(0:1)": "FAIL", "(1:1)": "FAIL"}
    for row in rep.rows:
        assert row.successes == (200 if row.status == "PASS" else 0)
    assert not rep.all_pass


def test_verify_report_sampling_path(monkeypatch):
    monkeypatch.setattr("cliquedim.boosting.ENUMERATE_CAP", 4)
    monkeypatch.setattr("cliquedim.boosting.SAMPLE_SIZE", 5)
    cfg = boost_config(ANCHOR, m0=2, m=3)
    rep = verify_sspfcd_bound(ANCHOR, cfg, trials=16, master_seed=0)
    assert rep.sampled
    assert len(rep.rows) == 5


def reference_majorities(config, trials, master_seed, n):
    """The per-trial majority loop `verify_sspfcd_bound` replaced."""
    probs = np.array([float(p) for p in config.mu.probs])
    probs /= probs.sum()
    pat_matrix = np.array(config.mu.patterns, dtype=np.int64)
    majs = np.zeros((trials, n), dtype=np.int8)
    for i in range(trials):
        counts = np.random.default_rng(master_seed ^ i).multinomial(config.T, probs)
        majs[i] = (2 * (counts @ pat_matrix) > config.T).astype(np.int8)
    return majs


def reference_successes(report, config, master_seed, n):
    """Each row's success count under the per-trial majority loop."""
    majs = reference_majorities(config, report.trials, master_seed, n)
    want = []
    for row in report.rows:
        pts = [ex.point for ex in row.dataset]
        labs = np.array([ex.label for ex in row.dataset], dtype=np.int8)
        want.append(int((majs[:, pts] == labs).all(axis=1).sum()))
    return want


def test_verify_report_equals_the_per_trial_loop():
    for cls, m0, m in ((ANCHOR, 2, 3), (generate("thresholds", universe=3), 3, 2)):
        cfg = boost_config(cls, m0, m)
        for seed in (0, 13, 2**62, 2**130):
            rep = verify_sspfcd_bound(cls, cfg, trials=300, master_seed=seed)
            want = reference_successes(rep, cfg, seed, cls.universe_size)
            assert [row.successes for row in rep.rows] == want
            assert len(set(want)) > 1


def test_verify_report_equals_the_per_trial_loop_at_chunk_edges(monkeypatch):
    chunk = 5
    monkeypatch.setattr(boosting, "_SEED_CHUNK", chunk)
    for cls, m0, m in ((ANCHOR, 2, 3), (generate("thresholds", universe=3), 3, 2)):
        cfg = boost_config(cls, m0, m)
        for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            for seed in (0, 2**32 + 9, 2**130):
                rep = verify_sspfcd_bound(cls, cfg, trials=trials, master_seed=seed)
                assert rep.trials == trials and all(row.trials == trials for row in rep.rows)
                want = reference_successes(rep, cfg, seed, cls.universe_size)
                assert [row.successes for row in rep.rows] == want, (trials, seed)


@pytest.mark.parametrize("universe, family", [(5, "thresholds"), (2, "disjoint_pairs")])
def test_verify_report_refuses_a_config_of_another_universe(monkeypatch, universe, family):
    # sec6's mu~ labels 4 points, so it can judge no dataset of a class on
    # 5 points or on 2
    cfg = boost_config(generate("paper_example_sec6"), 4, 2)
    monkeypatch.setattr(boosting, "cached_graph", lambda *_: pytest.fail("read G_m"))
    refused = f"^the config's mu~ patterns do not label the class's {universe} points$"
    with pytest.raises(InvalidParamsError, match=refused):
        verify_sspfcd_bound(generate(family, universe=universe), cfg, trials=50)


def test_verify_report_with_zero_trials_skips_every_row():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    rep = verify_sspfcd_bound(ANCHOR, cfg, trials=0, master_seed=3)
    assert rep.all_pass and rep.trials == 0 and len(rep.rows) == 8
    for row in rep.rows:
        assert (row.status, row.successes, row.trials) == ("SKIP", 0, 0)
        assert (row.ci_lo, row.ci_hi) == (0.0, 1.0)
    assert format_boost_report(rep).count(" est=nan ") == 8


def test_seeding_equals_numpy_pcg64_across_chunks():
    # seeds of one to five 32-bit words; the pool holds four.  Chunks of 7
    # trials stand in for _SEED_CHUNK, which the verifier passes the same way.
    chunk = 7
    trials = 2 * chunk + 3
    for master_seed in (0, 5, 2**32 - 1, 2**32, 2**62, 2**130):
        rows = []
        for start in range(0, trials, chunk):
            words = _pcg64_words(master_seed, start, min(trials, start + chunk))
            assert words.dtype == np.uint64 and words.flags.c_contiguous
            rows += words.tolist()
        states = [
            {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
            for state_lo, state_hi, inc_lo, inc_hi in rows
        ]
        assert states == [
            np.random.PCG64(master_seed ^ i).state["state"] for i in range(trials)
        ]


WORD = st.integers(0, 2**64 - 1)
CARRY_EDGES = (0, 2**63, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(WORD, st.sampled_from(CARRY_EDGES))] * 4), min_size=1, max_size=8))
@example(list(itertools.product(CARRY_EDGES, repeat=4)))  # every edge word in every position
@example([(2**64 - 1, 2**64 - 1, 2**63 - 1, 2**64 - 1)])  # inc all one bits: both sums carry
def test_set_seed_limbs_equal_the_128_bit_formula(rows):
    # rows of (seed high, seed low, sequence high, sequence low)
    got = _pcg64_set_seed(np.array(rows, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(rows), 4) and got.flags.c_contiguous
    for (seed_hi, seed_lo, seq_hi, seq_lo), out in zip(rows, got.tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % 2**128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) % 2**128
        assert out == [state % 2**64, state >> 64, inc % 2**64, inc >> 64]


def run_optimized(probe):
    """The stdout lines of `probe` run under `python -O`, with src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


OPTIMIZED_SEEDING_PROBE = """
import cliquedim.boosting as boosting
from cliquedim import InvariantError, boost_config, generate, verify_sspfcd_bound

assert False, "asserts must be stripped in this process"
boosting._MULT_B ^= 1 << 7
cls = generate("disjoint_pairs", universe=2)
try:
    verify_sspfcd_bound(cls, boost_config(cls, 2, 3), trials=10)
except InvariantError as exc:
    print("raised:", exc)
"""


def test_seeding_check_survives_python_O():
    # a corrupted hash constant must be refused even with asserts compiled out
    lines = run_optimized(OPTIMIZED_SEEDING_PROBE)
    assert lines == ["raised: vectorised PCG64 seeding disagrees with numpy at trial 0"]


def test_seeding_is_checked_before_the_chunk_draws(monkeypatch):
    # a wrong state for a chunk's last trial is refused before the chunk's
    # first trial draws
    words = boosting._pcg64_words

    def last_wrong(master_seed, start, stop):
        rows = words(master_seed, start, stop)
        rows[-1, 0] ^= 1
        return rows

    draws = []

    class Counted(np.random.Generator):
        def multinomial(self, *args):
            draws.append(args)
            return super().multinomial(*args)

    monkeypatch.setattr(boosting, "_pcg64_words", last_wrong)
    monkeypatch.setattr(np.random, "Generator", Counted)
    cfg = boost_config(ANCHOR, m0=2, m=3)
    with pytest.raises(InvariantError, match="^vectorised PCG64 seeding disagrees with numpy at trial 9$"):
        verify_sspfcd_bound(ANCHOR, cfg, trials=10)
    assert draws == []


OPTIMIZED_GUARD_PROBE = """
import ctypes
import numpy as np
from cliquedim import InvariantError, boost_config, generate, verify_sspfcd_bound
from cliquedim.boosting import _PROBE_WORDS

assert False, "asserts must be stripped in this process"
PCG64 = np.random.PCG64
made = []


class Recorded(PCG64):
    def __init__(self, seed=None):
        super().__init__(seed)
        made.append(self)


class Reversed(Recorded):
    # the public setter stores the four 64-bit halves in reverse order
    @property
    def state(self):
        return PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        swap = lambda x: x % 2**64 << 64 | x >> 64
        words = value["state"]
        reversed_words = {"state": swap(words["inc"]), "inc": swap(words["state"])}
        PCG64.state.__set__(self, dict(value, bit_generator="Reversed", state=reversed_words))


# a pointer outside the generator to 32 bytes that already read as the probe
target = (ctypes.c_uint64 * 4)(*_PROBE_WORDS)
holder = ctypes.c_void_p(ctypes.addressof(target))


class OutsideHolder(Recorded):
    @property
    def ctypes(self):
        return PCG64.ctypes.__get__(self)._replace(state_address=ctypes.addressof(holder))


class OutsidePointer(Recorded):
    # the object's type pointer: a field inside the object, pointing outside it
    @property
    def ctypes(self):
        return PCG64.ctypes.__get__(self)._replace(state_address=id(self) + 8)


def pcg_words(bitgen):
    address = ctypes.c_void_p.from_address(PCG64.ctypes.__get__(bitgen).state_address).value
    return list((ctypes.c_uint64 * 4).from_address(address))


cls = generate("disjoint_pairs", universe=2)
config = boost_config(cls, 2, 3)
for fake in (Reversed, OutsideHolder, OutsidePointer):
    np.random.PCG64 = fake
    try:
        verify_sspfcd_bound(cls, config, trials=10)
    except InvariantError as exc:
        print(fake.__name__, "raised:", exc)
    finally:
        np.random.PCG64 = PCG64
    bitgen = made.pop()
    reversed_probe = tuple(pcg_words(bitgen)) == _PROBE_WORDS[::-1]
    print(fake.__name__, "unwritten:", tuple(target) == _PROBE_WORDS, reversed_probe)
"""


def test_state_write_guard_survives_python_O():
    # an unknown word order or a state pointer outside the generator object
    # is refused before a byte is written, even with asserts compiled out
    assert run_optimized(OPTIMIZED_GUARD_PROBE) == [
        "Reversed raised: PCG64 state layout is neither low nor high half first",
        "Reversed unwritten: True True",
        "OutsideHolder raised: PCG64 state pointer lies outside the generator object",
        "OutsideHolder unwritten: True False",
        "OutsidePointer raised: PCG64 state pointer lies outside the generator object",
        "OutsidePointer unwritten: True False",
    ]


OPTIMIZED_FORCED_PROBE = """
import dataclasses
from fractions import Fraction
from cliquedim import Dataset, InvariantError, boost_config, forced_gamma_good_check, generate

assert False, "asserts must be stripped in this process"
anchor = boost_config(generate("disjoint_pairs", universe=2), 2, 3)
try:
    forced_gamma_good_check(Dataset([(0, 0), (1, 0)]), 2, dataclasses.replace(anchor, gamma=Fraction(3, 4)), 4, 0)
except InvariantError as exc:
    print("raised:", exc)
sec6 = dataclasses.replace(boost_config(generate("paper_example_sec6"), 4, 4), T=301)
print(forced_gamma_good_check(Dataset([(0, 1), (1, 0), (2, 1), (3, 0)]), 4, sec6, 100, 1))
"""


def test_forced_check_survives_python_O():
    # the empty-good-set check and the early exits do not rest on asserts
    lines = run_optimized(OPTIMIZED_FORCED_PROBE)
    sec6 = dataclasses.replace(boost_config(generate("paper_example_sec6"), 4, 4), T=301)
    want = forced_gamma_good_check(Dataset([(0, 1), (1, 0), (2, 1), (3, 0)]), 4, sec6, 100, 1)
    assert lines == ["raised: no gamma-good labeling available", repr(want)]


def test_format_boost_report_shape():
    cfg = boost_config(ANCHOR, m0=2, m=3)
    rep = verify_sspfcd_bound(ANCHOR, cfg, trials=64, master_seed=0)
    text = format_boost_report(rep)
    head = text.splitlines()[0]
    assert head.startswith("# seed=0 trials=64 m0=2 m=3 T=563")
    assert "epsilon=1/4" in head and "gamma=1/16" in head
    assert text.count("PASS") == 8


# ─── the exact small-loss population bound ─────────────────────────────────


def test_small_pop_err_anchor_uniform_zero_labels():
    dist = {(0, 0): F(1, 2), (1, 0): F(1, 2)}
    rows = small_pop_err_check(ANCHOR, 2, dist)
    table = {theta: (prob, bound, ok) for theta, prob, bound, ok in rows}
    assert table[F(0)] == (F(1, 2), F(-1, 2), True)
    assert table[F(1, 2)] == (F(1, 2), F(1, 4), True)
    assert table[F(1)] == (F(1), F(1, 2), True)


def test_small_pop_err_rejects_bad_distributions():
    with pytest.raises(InvalidParamsError):
        small_pop_err_check(ANCHOR, 2, {(0, 0): F(1, 2)})
    with pytest.raises(NotRealizableDistributionError):
        small_pop_err_check(ANCHOR, 2, {(0, 0): F(1, 2), (1, 1): F(1, 2)})


@pytest.mark.parametrize("point", [0.5, "0", None])
def test_small_pop_err_refuses_a_point_that_is_not_an_integer(point):
    with pytest.raises(InvalidParamsError, match="bad distribution entry"):
        small_pop_err_check(ANCHOR, 2, {(point, 1): F(1, 2), (1, 0): F(1, 2)})


def test_small_pop_err_takes_numpy_integer_points():
    dist = {(0, 0): F(1, 2), (1, 0): F(1, 2)}
    numpy_dist = {(np.int64(p), l): w for (p, l), w in dist.items()}
    assert small_pop_err_check(ANCHOR, 2, numpy_dist) == small_pop_err_check(ANCHOR, 2, dist)


def test_small_pop_err_holds_across_thetas_and_classes():
    for family, universe, dist in [
        ("paper_example_sec6", 4, {(0, 0): F(1, 3), (1, 1): F(1, 3), (2, 1): F(1, 3)}),
        ("thresholds", 3, {(0, 1): F(1, 2), (2, 0): F(1, 2)}),
    ]:
        cls = generate(family, universe=universe)
        for theta, prob, bound, ok in small_pop_err_check(cls, 2, dist):
            assert ok, f"theta={theta}: {prob} < {bound}"


@st.composite
def realizable_label_distributions(draw):
    """(cls, m, D): positive weights, often unequal, on examples of one row,
    plus zero-weight entries of either label anywhere.  Weights over a total
    of 4 put losses on the theta grid itself."""
    n = draw(st.integers(1, 5))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=10))
    cls = ConceptClass(n, rows)
    row = draw(st.sampled_from(cls.hypotheses))
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    raw = draw(st.lists(st.integers(1, 6), min_size=len(points), max_size=len(points)))
    total = draw(st.sampled_from((sum(raw), 4))) if sum(raw) <= 4 else sum(raw)
    raw[0] += total - sum(raw)
    dist = {(p, row[p]): F(k, total) for p, k in zip(points, raw)}
    for p, l in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=3)):
        dist.setdefault((p, l), F(0))
    return cls, draw(st.integers(1, 3)), dist


# (0:1) at 1/4 and (2:0) at 3/4: one mu* pattern of thresholds(3) at m = 2,
# the all-zero labeling, loses exactly theta = 1/4
THETA_EDGE = (generate("thresholds", universe=3), 2, {(0, 1): F(1, 4), (2, 0): F(3, 4)})


@settings(max_examples=150, deadline=None)
@given(realizable_label_distributions())
@example(THETA_EDGE)
def test_small_pop_err_matches_the_fraction_reference(case):
    cls, m, dist = case
    assert small_pop_err_check(cls, m, dist) == oracles.reference_small_pop_err_check(cls, m, dist)


def test_small_pop_err_counts_a_loss_equal_to_theta():
    cls, m, dist = THETA_EDGE
    mu = coloring_to_distribution(omega_star(build_graph(cls, m)).coloring)
    losses = {sum(w for (p, l), w in dist.items() if h[p] != l) for h in mu}
    assert F(1, 4) in losses
    assert small_pop_err_check(cls, m, dist) == oracles.reference_small_pop_err_check(cls, m, dist)


def test_small_pop_table_follows_the_certificate_after_clear_caches(monkeypatch):
    # mu* all on the all-zero labeling, at a made-up omega* of 3.  G_2 of
    # the disjoint pairs on 3 points has 2 < |X|, so its omega* is read
    # from the LP alone
    cls = generate("disjoint_pairs", universe=3)
    real = omega_star(build_graph(cls, 2))
    fake = dataclasses.replace(
        real,
        value=F(3),
        coloring=dataclasses.replace(real.coloring, weights={(0, 0, 0): F(3)}, colors=F(3)),
    )
    dist = {(0, 0): F(1, 2), (1, 0): F(1, 2)}
    clear_caches()
    try:
        before = small_pop_err_check(cls, 2, dist)
        assert before[0] == (F(0), F(1, 2), F(-1, 2), True)
        monkeypatch.setattr("cliquedim.dimensions.omega_star", lambda g, caps=DEFAULT_CAPS: fake)
        assert small_pop_err_check(cls, 2, dist) == before
        clear_caches()
        after = small_pop_err_check(cls, 2, dist)
        mu = boosting._mu_star(cls, 2, DEFAULT_CAPS)
        assert (mu.patterns, mu.weights, mu.denominator) == (((0, 0, 0),), (1,), 1)
        # 1/3 - (1 - theta)^2 at theta = 0, 1/4, 1/2, 1
        assert boosting._pop_bounds(mu.value, 2) == (F(-2, 3), F(-11, 48), F(1, 12), F(1, 3))
        assert after[0] == (F(0), F(1), F(1, 3) - 1, True)
        assert after == oracles.reference_small_pop_err_check(cls, 2, dist)
        # at m >= |X| the record reads omega*_m = |H| = 2 off the class, and
        # an LP that disagrees is an internal error
        with pytest.raises(InvariantError, match="^omega_star of G_2 settled as 2 and as 3$"):
            small_pop_err_check(ANCHOR, 2, dist)
    finally:
        clear_caches()


def uniform_on(ds: Dataset) -> dict:
    """The label distribution uniform over the examples of `ds`, counted
    with multiplicity."""
    return {(ex.point, ex.label): F(k, len(ds)) for ex, k in Counter(ds.examples).items()}


@st.composite
def small_classes(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=1 << n))
    return ConceptClass(n, rows), draw(st.integers(1, 3))


@settings(max_examples=25, deadline=None)
@given(small_classes())
@example((ANCHOR, 1))
@example((generate("paper_example_sec6"), 1))
def test_mu_tilde_is_the_normalized_optimal_coloring(case):
    # every class separates at its smallest separating m0
    cls, _ = case
    m0 = smallest_separating_m0(cls)
    mu = mu_tilde(cls, m0)
    dist = coloring_to_distribution(cached_omega_star(cls, m0, DEFAULT_CAPS).coloring)
    assert mu.patterns == tuple(sorted(dist))
    assert mu.probs == tuple(dist[h] for h in mu.patterns)


@settings(max_examples=40, deadline=None)
@given(small_classes(), st.data())
def test_batched_verdicts_match_the_per_distribution_rows(case, data):
    cls, m = case
    vertices = build_graph(cls, m).vertices
    verdicts = small_pop_verdicts(cls, m, vertices)
    assert len(verdicts) == len(vertices)
    for ds, verdict in zip(vertices, verdicts):
        dist = uniform_on(ds)
        rows = small_pop_err_check(cls, m, dist)
        assert rows == oracles.reference_small_pop_err_check(cls, m, dist)
        assert verdict == all(r[3] for r in rows)
    # the real bounds hold on every vertex; bounds set to the masses of one
    # vertex put it exactly at them and the others on either side.  Datasets
    # of other sizes than m, drawn from the class's rows, join the vertices.
    row = data.draw(st.sampled_from(cls.hypotheses))
    points = st.lists(st.integers(0, cls.universe_size - 1), min_size=1, max_size=4)
    extra = [Dataset((p, row[p]) for p in ps) for ps in data.draw(st.lists(points, max_size=4))]
    datasets = list(vertices) + extra
    pick = data.draw(st.sampled_from(datasets))
    bounds = tuple(r[1] for r in small_pop_err_check(cls, m, uniform_on(pick)))
    with mock.patch.object(boosting, "_pop_bounds", lambda *_: bounds):
        verdicts = small_pop_verdicts(cls, m, datasets)
        assert verdicts[datasets.index(pick)]
        for ds, verdict in zip(datasets, verdicts):
            assert verdict == all(r[3] for r in small_pop_err_check(cls, m, uniform_on(ds)))


def test_batched_verdicts_read_the_table_once(monkeypatch):
    reads = []
    real = boosting._mu_star

    def counting(cls, m, caps):
        reads.append(m)
        return real(cls, m, caps)

    monkeypatch.setattr(boosting, "_mu_star", counting)
    vertices = build_graph(ANCHOR, 2).vertices
    assert small_pop_verdicts(ANCHOR, 2, vertices) == [True] * len(vertices)
    assert len(vertices) > 1 and reads == [2]


def test_batched_verdicts_refuse_bad_datasets():
    good = Dataset([(0, 0), (1, 0)])
    with pytest.raises(InvalidParamsError):
        small_pop_verdicts(ANCHOR, 2, [good, Dataset([])])
    with pytest.raises(InvalidParamsError):
        small_pop_verdicts(ANCHOR, 2, [good, Dataset([(0, 0), (2, 0)])])
    with pytest.raises(NotRealizableDistributionError):
        small_pop_verdicts(ANCHOR, 2, [good, Dataset([(0, 0), (1, 1)])])


def test_a_mass_exactly_at_the_bound_passes(monkeypatch):
    # mu* half on the all-zero labeling and half on the all-one labeling:
    # on D uniform over (0:0), (1:0) the mass of loss <= theta is 1/2 up to
    # theta = 1/2 and 1 at theta = 1
    at = (F(1, 2), F(1, 2), F(1, 2), F(1))
    above = tuple(b + F(1, 10**9) for b in at)
    ds = Dataset([(0, 0), (1, 0)])
    mu = boosting._mu_star(ANCHOR, 2, DEFAULT_CAPS)
    mu = dataclasses.replace(mu, patterns=((0, 0), (1, 1)), weights=(1, 1), denominator=2)
    monkeypatch.setattr(boosting, "_mu_star", lambda cls, m, caps: mu)
    for bounds, passed in ((at, True), (above, False)):
        monkeypatch.setattr(boosting, "_pop_bounds", lambda omega_star, m, b=bounds: b)
        rows = small_pop_err_check(ANCHOR, 2, uniform_on(ds))
        assert [r[1] for r in rows] == [F(1, 2), F(1, 2), F(1, 2), F(1)]
        assert [r[3] for r in rows] == [passed] * 4
        assert small_pop_verdicts(ANCHOR, 2, [ds]) == [passed]


# ─── numeric lemma grids ───────────────────────────────────────────────────


def test_floor_bracketed_matches_float_evaluation():
    assert _floor_bracketed(2, 20) == 27
    for alpha in range(2, 13):
        got = _floor_bracketed(alpha, 20)
        assert got == math.floor(20 * alpha * math.log(alpha))


def test_numeric_lemma_checks_all_pass():
    checks = numeric_lemma_checks()
    assert len(checks) == 22
    assert all(ok for _, ok, _ in checks)
    names = [name for name, _, _ in checks]
    assert "pop-survival alpha=2" in names
    assert "growth-threshold d=40" in names
    first = next(detail for name, _, detail in checks if name.endswith("alpha=2"))
    assert "m=27" in first
