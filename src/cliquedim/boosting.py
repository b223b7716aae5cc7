"""Multiplicative-weights boosting of the optimal-coloring distribution.

Once the fractional clique number separates from 2^m0 at some m0, the
normalized optimal coloring mu~ of G_{m0} gives every realizable m0-dataset
consistency probability >= 1/omega*_{m0} = 2^{-m0} + epsilon.  Against any
realizable label distribution D this yields gamma-good hypotheses (loss at
most 1/2 - gamma) with probability at least epsilon - 2*gamma, and running
the inverted expert game over a dataset's examples for

    T = ceil(2 ln m / gamma^2)   (bumped to odd)

rounds with Hedge weights w_{t+1}(z) ~ w_t(z) exp(-eta * l(z, h_t)),
eta = sqrt(2 ln m / T), expert loss l(z, h) = [h agrees with z], keeps the
learner's regret at most sqrt(2 T ln m).  Consequences verified here:

  * all-rounds-gamma-good forces the majority vote to be consistent
    (gamma*T strictly beats the regret bound);
  * the majority of T i.i.d. mu~ draws is consistent with any fixed
    realizable m-dataset with probability >= (epsilon-2gamma)^T.  With
    alpha = (2/gamma^2) ln(1/(epsilon-2gamma)), T >= 2 ln m / gamma^2 gives
    (epsilon-2gamma)^T <= m^(-alpha) <= (epsilon-2gamma)^(T-2), so the
    m^(-alpha) rate the verifier checks can exceed the proven floor by up to
    (epsilon-2gamma)^(-2).  At m = 1 (T = 1) it checks the floor
    epsilon-2gamma itself.

`draw_patterns` returns its draws as indices into mu~'s patterns, a
read-only sequence that yields mu~'s tuples.  The game reads those indices
as column numbers, one column per pattern of mu~, and the (m, T) loss table
is one gather of those columns; any other instance sequence is first mapped
in one pass, each instance as a tuple looking up the column of its distinct
pattern.  The game's arrays are expert-major, one contiguous row per
example, so the cumulative losses run along rows and each round's max,
normalizing sum and learner's loss are vector operations over the m rows;
the transcript holds transposed views of them.

Draws from mu~ are exact: `random.random()` returns j/2^53 for an integer
j, and u < cum_k exactly when j < ceil(cum_k 2^53), so each draw picks
among integer thresholds built once per call.  j is (a >> 5) 2^26 + (b >> 6)
for successive Mersenne Twister outputs a and b, and `getrandbits(64 k)`
holds k such pairs lowest word first: a block of up to `_DRAW_BLOCK` draws
is one `getrandbits` call and one numpy `searchsorted`, with the same picks
and final state that calls to `random.Random.random()` give.  Every
generator is read through its `getrandbits`, whatever its `random` does.

The forced gamma-good check plays B runs at once, run-minor: weights are
(m, B), and masses and prefix counts over the P labelings (P, B), so every
elementwise step, the normalizing sum and the divide run along contiguous
rows of B runs, and both products are `np.dot` on C-contiguous operands.
The sum adds the m rows in order, which below 8 examples is a row-major
loop's pairwise sum and from 8 can differ from it in the last ulp, as the
game's sum can.  A +inf row under the prefix counts makes a run with no
good labeling pick P, whose agreement column is 0 and update factor 1.

It settles a run once every gamma-good pattern at its weights is
consistent with the whole dataset.  Such a pick agrees with every example,
so it multiplies every expert's weight by the same exp(-eta); after
renormalization the weights, and with them the good set, are unchanged in
exact arithmetic.  By induction every later pick is consistent too, and
each remaining round adds 1 to every example's count, so the run's final
counts are its counts so far plus the rounds left.  A settled run never
runs out of good patterns: its good set was checked nonempty when it
settled and does not change.

It also drops a run once the run is decided: every example's count is
above T/2.  Counts only grow, so the run's majority vote is already
consistent and the run is no violation, whatever it picks later.  Dropping
it skips the check that some labeling is gamma-good in its remaining
rounds.  `boost_config` guarantees gamma < epsilon/2 < 1/2, so a labeling
consistent with the dataset (one exists among the 2^|X| patterns), whose
mass sum(w) is 1 to rounding, is good in every round a decided run skips.
The rule only counts and does not use the regret bound, so the check does
not assume the implication it tests.

The Monte Carlo verifier gives trial i the stream of
`np.random.default_rng(master_seed ^ i)` without building that generator:
numpy's SeedSequence hash and PCG64's set-seed step run for a chunk of
trials at once, in uint32 arrays and then 64-bit limbs with carries, and
each trial's state and inc words are written straight into the 32 state
bytes of one reused PCG64.  Before the first write a guard checks that
those bytes lie inside the PCG64 object and learns their word order from a
state set through numpy's public setter.  Before a chunk draws, the full
state of its first and last trial is checked against numpy's own seeding.
Either failure raises InvariantError.

Natural logarithms throughout; weights are floats, renormalized each round.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import operator
import random
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .concepts import ConceptClass, Dataset, HypothesisPattern, mask_to_pattern, pattern_to_mask
from .errors import (
    InvalidParamsError,
    InvariantError,
    LengthMismatchError,
    NoSeparationError,
    NotRealizableDistributionError,
    ResourceLimitError,
)
from .dimensions import LN2_HI, LN2_LO, cached_graph, cached_omega_star
from .fractional import coloring_to_distribution
from .graph import Caps, DEFAULT_CAPS

LN4_HI = 2 * LN2_HI  # 1.386296 > ln 4
_SCALE = 1 << 53  # random.random() returns multiples of 2^-53
# Small blocks and chunks keep peak memory at the round-by-round loops' level.
_DRAW_BLOCK = 1 << 11  # doubles per forced-round block; mu~ draws per getrandbits call
_SEED_CHUNK = 4096  # Monte Carlo trials seeded per vectorised pass
_FORCED_UNIVERSE = 12  # the forced check's 8 * 4^universe-byte prefix matrix: 128 MiB at 12

# numpy's SeedSequence hash (bit_generator.pyx) and the PCG64 LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_PCG_MULT_HI, _PCG_MULT_LO = divmod(_PCG_MULT, 1 << 64)


# ─── the boosted sampling distribution ───────────────────────────────────


@dataclass(frozen=True)
class _MuStar:
    """mu*, the normalized optimal coloring of G_m, in integers: sorted
    pattern `patterns[i]` has mass `weights[i] / denominator`."""

    value: Fraction  # omega*_m
    patterns: tuple
    weights: tuple
    denominator: int


def _mu_star(cls: ConceptClass, m: int, caps: Caps) -> _MuStar:
    """mu* of `cached_omega_star(cls, m, caps)`, the one place it is
    normalized; mu~ and the small-population checks read it."""
    cert = cached_omega_star(cls, m, caps)
    dist = coloring_to_distribution(cert.coloring)
    den = math.lcm(*(w.denominator for w in dist.values()))
    patterns = tuple(sorted(dist))
    weights = tuple(dist[h].numerator * (den // dist[h].denominator) for h in patterns)
    return _MuStar(cert.value, patterns, weights, den)


@dataclass(frozen=True)
class MuTilde:
    """Normalized optimal coloring of G_{m0}: a pattern distribution giving
    every realizable m0-dataset consistency probability >= 1/omega*_{m0}."""

    m0: int
    omega_star: Fraction
    epsilon: Fraction  # 1/omega* - 2^-m0, positive by construction
    patterns: tuple
    probs: tuple  # Fractions, parallel to patterns, summing to 1


def mu_tilde(cls: ConceptClass, m0: int, caps: Caps = DEFAULT_CAPS) -> MuTilde:
    if m0 < 1:
        raise InvalidParamsError(f"m0 must be >= 1, got {m0}")
    mu = _mu_star(cls, m0, caps)
    if mu.value == 1 << m0:
        raise NoSeparationError(
            f"omega*_{m0} = 2^{m0}: no separation, boosting has no margin"
        )
    eps = Fraction(1) / mu.value - Fraction(1, 1 << m0)
    if eps <= 0:
        raise InvariantError(f"omega*_{m0} = {mu.value} leaves no positive margin")
    return MuTilde(
        m0=m0,
        omega_star=mu.value,
        epsilon=eps,
        patterns=mu.patterns,
        probs=tuple(Fraction(w, mu.denominator) for w in mu.weights),
    )


@dataclass(frozen=True)
class BoostConfig:
    mu: MuTilde
    m: int  # target dataset size
    gamma: Fraction
    T: int  # odd round count
    eta: float

    @property
    def epsilon(self) -> Fraction:
        return self.mu.epsilon

    @property
    def alpha(self) -> float:
        """Exponent of the m^-alpha consistency bound; inf when gamma^2
        underflows to 0.0, which `boost_config` allows only at m = 1."""
        square = float(self.gamma) ** 2
        if not square:
            return math.inf
        return (2 / square) * math.log(1 / float(self.epsilon - 2 * self.gamma))


def boost_config(
    cls: ConceptClass,
    m0: int,
    m: int,
    gamma: Optional[Fraction] = None,
    caps: Caps = DEFAULT_CAPS,
) -> BoostConfig:
    if m < 1:
        raise InvalidParamsError("m must be >= 1")
    mu = mu_tilde(cls, m0, caps)
    if gamma is None:
        gamma = mu.epsilon / 4
    gamma = Fraction(gamma)
    shown = _printed(gamma)
    if not 0 < gamma < mu.epsilon / 2:
        raise InvalidParamsError(
            f"gamma must lie in (0, epsilon/2) = (0, {mu.epsilon / 2}); "
            f"got {shown or 'a value too long to print'}"
        )
    if m == 1:
        t = 1
    else:
        square = float(gamma) ** 2  # 0.0 once gamma^2 underflows
        rounds = 2 * math.log(m) / square if square else math.inf
        # the verifier's multinomial draws count the T rounds in an int64
        if not rounds < 2.0**63:
            # no value in the message: str() of a gamma this small may
            # exceed Python's limit on integer digits
            raise InvalidParamsError(
                "gamma is too small: T = ceil(2 ln m / gamma^2) must be below 2^63 rounds"
            )
        t = math.ceil(rounds)
        if t % 2 == 0:
            t += 1
    if shown is None:
        # the report prints gamma
        raise InvalidParamsError(
            f"gamma must lie in (0, epsilon/2) = (0, {mu.epsilon / 2}) with a numerator "
            f"and denominator of at most {sys.get_int_max_str_digits()} digits"
        )
    return BoostConfig(mu=mu, m=m, gamma=gamma, T=t, eta=_hedge_rate(m, t))


def _printed(value: Fraction) -> Optional[str]:
    """str(value), or None where it would exceed Python's limit on the
    digits of an integer."""
    try:
        return str(value)
    except ValueError:
        return None


def _hedge_rate(m: int, t_rounds: int) -> float:
    """Hedge's rate sqrt(2 ln m / T) for m experts and T rounds; 0 if m = 1."""
    return math.sqrt(2 * math.log(m) / t_rounds) if m > 1 else 0.0


class _PatternDraws(Sequence):
    """Draws from mu~ held as indices: draw t is `patterns[index[t]]`.

    `patterns` is mu~'s tuple of patterns and `index` a read-only np.intp
    array.  Indexing by an int yields mu~'s own tuple, a slice is another
    such sequence over a view of the index, and the draws compare equal to
    a list of the same patterns."""

    __slots__ = ("patterns", "index")

    def __init__(self, patterns: tuple, index: np.ndarray):
        index.flags.writeable = False
        self.patterns = patterns
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _PatternDraws(self.patterns, self.index[i])
        return self.patterns[self.index[i]]

    def __iter__(self):
        return map(self.patterns.__getitem__, self.index.tolist())

    def __eq__(self, other):
        if isinstance(other, (list, _PatternDraws)):
            return list(self) == list(other)
        return NotImplemented


def draw_patterns(mu: MuTilde, count: int, rng: random.Random) -> _PatternDraws:
    """`count` i.i.d. draws from mu~ by inverting the cumulative weights:
    a draw u picks the first pattern k with u < cum_k (the last one if none).
    The draws are returned as their pattern indices k, in a read-only
    sequence that yields `mu.patterns[k]` and that `run_expert_game` reads
    without hashing a pattern.

    `random.random()` returns j / 2^53 for an integer j, and for integer j
    u >= cum_k exactly when j >= ceil(cum_k * 2^53).  So each draw picks
    among integer thresholds, and j comes without a call per draw:
    `random()` is ((a >> 5) 2^26 + (b >> 6)) / 2^53 for two successive
    32-bit Mersenne Twister outputs a and b, and `getrandbits(64 k)`
    returns 2k outputs lowest word first.  Each block of up to
    `_DRAW_BLOCK` draws is one `rng.getrandbits` call and one
    `searchsorted`, written into the index.  The picks and the generator's
    final state equal those of `count` calls to `random.Random.random()`
    whenever `rng.getrandbits` is `random.Random`'s own.
    """
    if count < 0:
        raise InvalidParamsError(f"count must be >= 0, got {count}")
    cum = list(itertools.accumulate(mu.probs))[:-1]  # cum_k of all but the last pattern
    bounds = np.array([-(-c.numerator * _SCALE // c.denominator) for c in cum], dtype=np.uint64)
    index = np.empty(count, dtype=np.intp)
    for start in range(0, count, _DRAW_BLOCK):
        n = min(_DRAW_BLOCK, count - start)
        # word pairs (a, b) as a + b 2^32; j = (a >> 5) 2^26 + (b >> 6)
        pairs = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")
        j = (pairs & _MASK32) >> 5 << 26 | pairs >> 38
        index[start:start + n] = bounds.searchsorted(j, "right")
    return _PatternDraws(mu.patterns, index)


# ─── the inverted expert game ────────────────────────────────────────────


@dataclass
class ExpertGameTranscript:
    """Record of a Hedge run over a dataset's examples.

    Experts are the dataset's m examples (repeats stay separate experts).
    `losses[t, j]` is 1 when instance t agrees with expert j's example;
    `weights[t]` is the distribution entering round t (row T is the final,
    unused update).  The learner's expected loss per round equals the
    probability mass of experts the instance agrees with, so the realizable
    loss of instance t against the induced label distribution D_t is
    1 - learner[t].  The game computes in expert-major (m, T+1) and (m, T)
    arrays; `weights` and `losses` are their transposed views, so
    `weights[:, j]` and `losses[:, j]` are contiguous.
    """

    weights: np.ndarray  # (T+1, m)
    losses: np.ndarray  # (T, m)
    learner: np.ndarray  # (T,)
    regret: float
    regret_bound: float  # sqrt(2 T ln m)


def _example_losses(dataset: Dataset, instances: Sequence[HypothesisPattern]) -> np.ndarray:
    """Expert-major (m, T) array: 1.0 where instance t agrees with example j.

    Draws repeat few patterns, so the array is one gather of per-pattern
    columns by each instance's column number.  Draws from `draw_patterns`
    carry both: mu~'s patterns are the columns and the draws' index gives
    the numbers.  Any other sequence is mapped in one pass, each instance,
    as a tuple, to the column of its distinct pattern, numbered by first
    appearance.  Only patterns some instance takes are checked for length;
    the error names the first instance that is too short."""
    m = len(dataset)
    if m < 1:
        raise InvalidParamsError("expert game needs a nonempty dataset")
    top = max(ex.point for ex in dataset)
    if isinstance(instances, _PatternDraws):
        patterns, index = instances.patterns, instances.index
    else:
        col_of = defaultdict(itertools.count().__next__)
        index = np.fromiter(map(col_of.__getitem__, map(tuple, instances)), np.intp)
        patterns = tuple(col_of)
    short = [c for c, h in enumerate(patterns) if len(h) <= top]
    if short:
        taken = np.isin(index, short)
        if taken.any():
            t = int(taken.argmax())
            raise LengthMismatchError(f"instance {t} has length {len(patterns[index[t]])}, dataset uses point {top}")
    # a short pattern no instance takes gets a column that is never gathered
    columns = np.array(
        [[1.0 if ex.point < len(h) and h[ex.point] == ex.label else 0.0 for h in patterns] for ex in dataset]
    )
    return columns.take(index, axis=1)


def run_expert_game(
    dataset: Dataset,
    instances: Sequence[HypothesisPattern],
) -> ExpertGameTranscript:
    """Hedge over the dataset's examples against the given instance sequence.

    With m examples and T rounds the learning rate is `_hedge_rate(m, T)`,
    the same call as `boost_config`'s eta for a dataset of its target length
    and its round count.  Weights have the closed form
    w_t ~ exp(-eta * cumulative loss before t),
    computed as a renormalized softmax per round, in the expert-major
    layout the module docstring describes.
    """
    losses = _example_losses(dataset, instances)  # (m, T)
    m, t_rounds = losses.shape
    if t_rounds < 1:
        raise InvalidParamsError("expert game needs at least one round")
    eta = _hedge_rate(m, t_rounds)
    # one (m, T+1) array: cumulative loss before each round, then -eta times
    # it, shifted, then its exp (in place, the same values as fresh arrays)
    z = np.zeros((m, t_rounds + 1))
    np.cumsum(losses, axis=1, out=z[:, 1:])
    z *= -eta
    z -= z.max(axis=0)
    weights = np.exp(z, out=z)
    weights /= weights.sum(axis=0)
    learner = (weights[:, :-1] * losses).sum(axis=0)
    total = losses.sum(axis=1)
    regret = float(learner.sum() - total.min())
    bound = math.sqrt(2 * t_rounds * math.log(m)) if m > 1 else 0.0
    return ExpertGameTranscript(
        weights=weights.T,
        losses=losses.T,
        learner=learner,
        regret=regret,
        regret_bound=bound,
    )


# ─── gamma-goodness checks ───────────────────────────────────────────────


def forced_gamma_good_check(
    dataset: Dataset,
    universe: int,
    config: BoostConfig,
    transcripts: int,
    seed: int,
) -> tuple:
    """Run `transcripts` expert games whose every instance is chosen
    gamma-good against the current induced distribution (uniform seeded
    choice among all gamma-good full labelings; the set is never empty since
    any labeling realizing the dataset has loss 0).  Returns
    (violations, transcripts): a violation is a run whose majority vote is
    inconsistent with the dataset even though every round was gamma-good —
    the implication the theory says cannot fail.

    All P = 2^universe labelings are listed, and the prefix matrix holds
    P x P float64 entries, 8 * 4^universe bytes.  An empty dataset, or one
    with a point at or past `universe`, raises InvalidParamsError, and a
    universe above `DEFAULT_CAPS`' pattern cap, and then one above 12 (a
    128 MiB matrix), raises ResourceLimitError, before any labeling is
    listed.

    The arrays are run-minor, with a +inf row under the prefix counts, and
    from 8 examples the normalizing sum may be an ulp off a row-major loop's
    (see the module docstring).  A block of k rounds takes its uniforms from
    one `rng.random((k, B))` call; row i of that C-order array is the i-th
    successive `rng.random(B)`, so the picks are a round-by-round loop's.  A
    run with c good patterns and uniform r takes the floor(r c)-th good one
    (from 0): the first index whose prefix count s exceeds floor(r c), so
    the number of indices with s <= r c (for an integer s, s > floor(x)
    exactly when s > x).  The prefix counts are a float product with a
    lower-triangular ones matrix, exact on integers this small.  A pick of P
    raises InvariantError when its block ends, before either exit below.

    After each block, settled and decided runs (see the module docstring)
    leave the loop: a settled run's final counts are its counts so far plus
    the rounds left, and a decided run adds no violation.  Later blocks are
    still drawn for all B runs and keep the live runs' columns, so every
    live run sees the uniforms, and makes the picks, it would have without
    either exit; the buffers are allocated afresh whenever the live-run
    count changes.  Drawing stops once no run is live.
    """
    if transcripts < 0:
        raise InvalidParamsError(f"transcripts must be >= 0, got {transcripts}")
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    if not dataset.examples:
        raise InvalidParamsError("the forced check needs a nonempty dataset")
    if (dataset.ones_mask | dataset.zeros_mask) >> universe:
        raise InvalidParamsError(f"dataset {dataset.render()} has a point outside the universe of {universe} points")
    DEFAULT_CAPS.check_universe(universe)
    if universe > _FORCED_UNIVERSE:
        raise ResourceLimitError(
            "prefix-matrix",
            f"universe size {universe} exceeds the forced check's cap {_FORCED_UNIVERSE} "
            f"(a {1 << universe} x {1 << universe} float64 prefix matrix)",
        )
    m = len(dataset)
    rng = np.random.default_rng(seed)
    pats = [mask_to_pattern(hm, universe) for hm in range(1 << universe)]
    n_pats = len(pats)
    agree = np.pad(_example_losses(dataset, pats), ((0, 0), (0, 1)))  # (m, P+1); P agrees with none
    by_pattern = np.ascontiguousarray(agree[:, :n_pats].T)  # (P, m)
    inconsistent = (by_pattern < 1).any(axis=1).astype(np.float64)
    t_rounds = config.T
    threshold = np.float64(0.5 + float(config.gamma) - 1e-12)  # loss 1-mass <= 1/2-gamma
    factor = np.exp(-config.eta * agree)  # the per-round update, one column per pattern
    lower = np.tril(np.ones((n_pats, n_pats)))  # lower @ good: prefix counts
    per_block = max(1, _DRAW_BLOCK // max(transcripts, 1))
    w, correct = np.full((m, transcripts), 1.0 / m), np.zeros((m, transcripts))
    live = np.arange(transcripts)  # each live run's column in a draw block
    violations, n = 0, -1
    for start in range(0, t_rounds, per_block):
        if len(live) != n:
            n = len(live)
            if not n:
                break
            # (rows, n) buffers for n live runs: mass (then 1.0 where good), prefix counts
            # over a +inf row, those <= r c, the block's picks, update rows over sums
            mass, seen, below, picks, step = (np.empty((rows, n), dtype) for rows, dtype in (
                (n_pats, float), (n_pats + 1, float), (n_pats + 1, bool), (per_block, np.intp), (m + 1, float)))
            seen[n_pats] = np.inf
            prefix, count, step, total = seen[:n_pats], seen[n_pats - 1], step[:m], step[m]
        block = rng.random((min(per_block, t_rounds - start), transcripts))[:, live]
        for r, pick in zip(block, picks):
            np.dot(by_pattern, w, out=mass)  # mass each pattern agrees with, per pattern x run
            np.greater_equal(mass, threshold, out=mass)
            np.dot(lower, mass, out=prefix)  # good patterns up to each index
            np.multiply(r, count, out=r)
            np.less_equal(seen, r, out=below)
            np.add.reduce(below, 0, np.intp, pick)  # the floor(r c)-th good pattern
            np.multiply(w, factor.take(pick, 1, step), out=w)
            np.add.reduce(w, 0, None, total)
            np.divide(w, total, out=w)
        taken = picks[:len(block)]
        if (taken == n_pats).any():  # some run had no good pattern
            raise InvariantError("no gamma-good labeling available")
        correct += agree.take(taken, axis=1).sum(axis=1)
        # settled: only consistent labelings good; decided: every count above T/2
        done = (inconsistent @ mass == 0) | (correct > t_rounds / 2).all(axis=0)
        if done.any():
            left = t_rounds - start - len(block)
            violations += int((correct[:, done] + left <= t_rounds / 2).any(axis=0).sum())
            live, w, correct = live[~done], w[:, ~done], correct[:, ~done]
    violations += int((correct <= t_rounds / 2).any(axis=0).sum())
    return violations, transcripts


# ─── the Monte Carlo consistency verifier ────────────────────────────────


_HALF_LN_2PI = 0.5 * math.log(2 * math.pi)
_BETA_TOL = 1e-13  # relative accuracy of a beta quantile
_BETA_STEPS = 100  # cap on a quantile's Newton and bisection steps
_CF_TERMS = 10**5  # continued-fraction terms; about sqrt(max(a, b)) are used
_TINY = 1e-300  # Lentz's stand-in for a zero denominator


def _stirling_error(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), from lgamma where
    both terms are small and from the asymptotic series (error < 1e-13)
    from 15 up."""
    if z < 15:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LN_2PI)
    zz = 1 / (z * z)
    return (1 / 12 - zz * (1 / 360 - zz * (1 / 1260 - zz / 1680))) / z


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (Numerical Recipes, section 6.4) by
    Lentz's method; it converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / d if abs(d) > _TINY else 1 / _TINY
    h = d
    for m in range(1, _CF_TERMS):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 + num * d
            d = 1 / d if abs(d) > _TINY else 1 / _TINY
            c = 1 + num / c
            if abs(c) < _TINY:
                c = _TINY
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            return h
    raise InvariantError(f"incomplete beta fraction did not converge at a={a} b={b} x={x}")


def _beta_inc(a: float, b: float, x: float) -> tuple:
    """I_x(a, b) and the Beta(a, b) density at x, for 0 < x < 1.

    The prefactor x^a (1-x)^b / B(a, b) is taken about the mean: with
    d = (a+b) x - a, so that (a+b) x = a (1 + d/a) and (a+b)(1-x) = b (1 - d/b),
    it is sqrt(ab / (2 pi (a+b))) exp(a ln(1 + d/a) + b ln(1 - d/b)) times the
    Stirling errors e^{s(a+b) - s(a) - s(b)}, and no large lgamma values
    cancel.  The fraction runs on the side where it converges, with
    I_x(a, b) = 1 - I_{1-x}(b, a) on the other."""
    d = (a + b) * x - a
    up, down = d / a, -d / b
    if up <= -1 or down <= -1:  # x within rounding of 0 or 1
        front = 0.0
    else:
        front = math.exp(
            a * math.log1p(up) + b * math.log1p(down)
            + 0.5 * math.log(a * b / (a + b)) - _HALF_LN_2PI
            + _stirling_error(a + b) - _stirling_error(a) - _stirling_error(b)
        )
    density = front / (x * (1 - x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a, density
    return 1 - front * _beta_cf(b, a, 1 - x) / b, density


def _beta_ppf(p: float, a: int, b: int) -> float:
    """The x with I_x(a, b) = p, for 0 < p < 1 and integers a, b >= 1.

    I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b invert in closed form.
    Otherwise Newton steps start from Abramowitz & Stegun 26.5.22 (with the
    normal deviate of 26.2.23) and stay inside a bracket of the root that
    every evaluation shrinks; a step that would leave it bisects it.  The
    result is within a relative 1e-13 of the root of the computed I_x.
    """
    if b == 1:
        return p ** (1 / a)
    if a == 1:
        return -math.expm1(math.log1p(-p) / b)
    t = math.sqrt(-2 * math.log(min(p, 1 - p)))
    y = t - (2.30753 + 0.27061 * t) / (1 + (0.99229 + 0.04481 * t) * t)
    if p > 0.5:
        y = -y
    lam = (y * y - 3) / 6
    h = 2 / (1 / (2 * a - 1) + 1 / (2 * b - 1))
    w = y * math.sqrt(h + lam) / h - (1 / (2 * b - 1) - 1 / (2 * a - 1)) * (lam + 5 / 6 - 2 / (3 * h))
    x = a / (a + b * math.exp(2 * w))
    if not 0 < x < 1:
        x = 0.5
    lo, hi = 0.0, 1.0
    for _ in range(_BETA_STEPS):
        value, density = _beta_inc(a, b, x)
        if value < p:
            lo = x
        elif value > p:
            hi = x
        else:
            return x
        if hi - lo <= _BETA_TOL * x:
            return x
        nxt = x - (value - p) / density if density else lo
        if abs(nxt - x) <= _BETA_TOL * x:
            return nxt
        x = nxt if lo < nxt < hi else (lo + hi) / 2
    return x


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple:
    """Two-sided Clopper-Pearson interval at the given confidence (equal
    tails): the tail quantiles of Beta(k, n-k+1) and Beta(k+1, n-k).  The
    acceptance test is one-sided: only the upper limit decides.  k
    successes of n trials need 0 <= k <= n."""
    if not 0 <= k <= n:
        raise InvalidParamsError(f"need 0 <= k <= n successes of n trials, got k={k}, n={n}")
    if not 0 < confidence < 1:
        raise InvalidParamsError(f"confidence must be in (0, 1), got {confidence}")
    tail = (1 - confidence) / 2
    lo = 0.0 if k == 0 else _beta_ppf(tail, k, n - k + 1)
    hi = 1.0 if k == n else _beta_ppf(1 - tail, k + 1, n - k)
    return lo, hi


@dataclass(frozen=True)
class BoostVerifyRow:
    dataset: Dataset
    successes: int
    trials: int
    ci_lo: float
    ci_hi: float
    log_bound: float  # natural log of m^-alpha
    status: str  # PASS | FAIL | SKIP


@dataclass(frozen=True)
class BoostVerifyReport:
    config: BoostConfig
    master_seed: int
    trials: int
    sampled: bool  # True when datasets were subsampled
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.status != "FAIL" for r in self.rows)


def _bound_str(log_bound: float) -> str:
    if log_bound < -700:  # below float underflow: render from logs
        log10 = log_bound / math.log(10)
        e = math.floor(log10)
        mant = 10 ** (log10 - e)
        return f"{mant:.3f}e{e}"
    return f"{math.exp(log_bound):.6g}"


def _hash_consts(const: int, mult: int):
    """(xor, multiply) constants of successive SeedSequence hashmix calls."""
    while True:
        following = const * mult & _MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor_c, mul_c = next(consts)
    value = (value ^ xor_c) * mul_c  # uint32 arrays wrap mod 2^32, as in C
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> np.uint32(16))


def _mulhi64(x: np.ndarray, y: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products x * y, for a uint64 array x
    and a 64-bit integer y, from 32-bit halves whose products fit in 64 bits."""
    x_lo, x_hi = x & _MASK32, x >> 32
    y_lo, y_hi = y & _MASK32, y >> 32
    mid = x_hi * y_lo + (x_lo * y_lo >> 32)
    cross = x_lo * y_hi + (mid & _MASK32)
    return x_hi * y_hi + (mid >> 32) + (cross >> 32)


def _pcg64_set_seed(generated: np.ndarray) -> np.ndarray:
    """PCG64's set-seed step on rows of generate_state(4, uint64) words
    (seed high, seed low, sequence high, sequence low), in 64-bit limbs with
    carries: inc = (seq << 1) | 1 and state = ((inc + seed) * _PCG_MULT + inc)
    mod 2^128, one LCG step from 0 after adding the seed.  Returns the
    C-contiguous (count, 4) uint64 rows (state low, state high, inc low,
    inc high)."""
    seed_hi, seed_lo, seq_hi, seq_lo = generated.T
    inc_lo = seq_lo << 1 | 1
    inc_hi = seq_hi << 1 | seq_lo >> 63
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)  # uint64 arrays wrap mod 2^64
    prod_lo = sum_lo * _PCG_MULT_LO
    prod_hi = _mulhi64(sum_lo, _PCG_MULT_LO) + sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _pcg64_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The state and inc words of np.random.PCG64(master_seed ^ i) for the
    trials i in [start, stop), stop <= 2^32, without constructing a PCG64
    per trial: rows as `_pcg64_set_seed` returns them.

    SeedSequence hashes the seed's 32-bit words into a 4-word pool and
    generate_state(4, uint64) hashes the pool into four 64-bit words.  The
    hash constants do not depend on the data, so every trial runs the same
    steps, here on one uint32 array per word.  Only word 0 differs between
    trials.
    """
    words = [master_seed & _MASK32]  # little-endian 32-bit words, at least one
    rest = master_seed >> 32
    while rest:
        words.append(rest & _MASK32)
        rest >>= 32
    count = stop - start
    entropy = [np.arange(start, stop, dtype=np.uint32) ^ np.uint32(words[0])]
    entropy += [np.full(count, w, dtype=np.uint32) for w in words[1:]]
    consts = _hash_consts(_INIT_A, _MULT_A)
    # a seed of fewer than 4 words is hashed as if zero-padded to 4
    zero = np.zeros(count, dtype=np.uint32)
    pool = [_hashmix(entropy[k] if k < len(entropy) else zero, consts) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    halves = [_hashmix(pool[k % 4], consts).astype(np.uint64) for k in range(8)]
    generated = np.stack(
        [halves[k] | (halves[k + 1] << np.uint64(32)) for k in range(0, 8, 2)], axis=1
    )
    return _pcg64_set_seed(generated)


# the layout probe's (state low, state high, inc low, inc high): four
# distinct 64-bit halves, inc odd
_PROBE_WORDS = (0x0123456789ABCDEF, 0x1122334455667788, 0x0F1E2D3C4B5A6979, 0x8877665544332211)
_PROBE_STATE = {
    "bit_generator": "PCG64",
    "state": {
        "state": _PROBE_WORDS[1] << 64 | _PROBE_WORDS[0],
        "inc": _PROBE_WORDS[3] << 64 | _PROBE_WORDS[2],
    },
    "has_uint32": 0,
    "uinteger": 0,
}


def _pcg64_state_view(bitgen: np.random.PCG64) -> tuple:
    """A 32-byte memoryview of `bitgen`'s pcg64_random_t (128-bit state, then
    128-bit inc) and the column order that turns `_pcg64_words` rows into its
    bytes: (0, 1, 2, 3) when each 128-bit word is stored low half first
    (native __uint128_t), (1, 0, 3, 2) when high half first (numpy's emulated
    struct).

    The first field of the struct at `bitgen.ctypes.state_address` points to
    the pcg64_random_t, which numpy keeps inside the PCG64 object.  Both
    addresses must lie inside the object, and the word order is read back
    from a state set through numpy's public setter; any other layout raises
    InvariantError, so no byte is ever written outside the generator.  The
    view holds no reference to `bitgen`, which must outlive it.
    """
    base = id(bitgen)
    end = base + bitgen.__sizeof__()  # sys.getsizeof adds the GC header, which lies before id()
    holder = bitgen.ctypes.state_address
    address = None
    if base <= holder and holder + ctypes.sizeof(ctypes.c_void_p) <= end:
        address = ctypes.c_void_p.from_address(holder).value
    if address is None or not base <= address <= end - 32:
        raise InvariantError("PCG64 state pointer lies outside the generator object")
    bitgen.state = _PROBE_STATE
    stored = (ctypes.c_uint64 * 4).from_address(address)
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if list(stored) == [_PROBE_WORDS[k] for k in order]:
            return memoryview(stored).cast("B"), order
    raise InvariantError("PCG64 state layout is neither low nor high half first")


# verify_sspfcd_bound checks every m-dataset of G_m up to ENUMERATE_CAP of
# them, and a seeded sample of SAMPLE_SIZE past that
ENUMERATE_CAP = 10**4
SAMPLE_SIZE = 100


def verify_sspfcd_bound(
    cls: ConceptClass,
    config: BoostConfig,
    trials: int = 10**5,
    master_seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> BoostVerifyReport:
    """Check Pr[boosted majority consistent with S] >= m^-alpha for every
    realizable m-dataset S (see ENUMERATE_CAP).  Trial i draws what
    np.random.default_rng(master_seed ^ i) would, so trials are independent
    and order-free.  Each trial's PCG64 state and inc words are written
    directly into one reused generator, and each chunk's first and last
    state is checked against numpy's seeding (InvariantError on a mismatch).  A
    row FAILs only when its one-sided 99% upper confidence limit sits below
    the bound.  The bound is m^-alpha, or the proven floor epsilon - 2 gamma
    when T = 1 (m = 1), where m^-alpha = 1 could never be met.  A config
    whose mu~ patterns are not labelings of `cls`'s universe raises
    InvalidParamsError before G_m is read or any trial drawn.
    """
    if trials < 0:
        raise InvalidParamsError(f"trials must be >= 0, got {trials}")
    if master_seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {master_seed}")
    if any(len(h) != cls.universe_size for h in config.mu.patterns):
        raise InvalidParamsError(f"the config's mu~ patterns do not label the class's {cls.universe_size} points")
    g = cached_graph(cls, config.m, caps)
    if g.num_vertices <= ENUMERATE_CAP:
        chosen = list(range(g.num_vertices))
        sampled = False
    else:
        rng = random.Random(master_seed)
        chosen = sorted(rng.sample(range(g.num_vertices), SAMPLE_SIZE))
        sampled = True

    probs = np.array([float(p) for p in config.mu.probs])
    probs /= probs.sum()
    pat_matrix = np.array(config.mu.patterns, dtype=np.int64)  # (P, n)
    t_rounds = config.T

    # majority labeling per trial; trial i draws what
    # np.random.default_rng(master_seed ^ i) would, from one generator whose
    # state and inc words are overwritten in place
    counts = np.empty((trials, len(probs)), dtype=np.int64)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state, order = _pcg64_state_view(bitgen)
    for start in range(0, trials, _SEED_CHUNK):
        stop = min(trials, start + _SEED_CHUNK)
        words = np.ascontiguousarray(_pcg64_words(master_seed, start, stop)[:, order])
        rows = memoryview(words).cast("B")
        for i in (start, stop - 1):  # checked before the chunk draws
            state[:] = rows[32 * (i - start):32 * (i - start + 1)]
            if bitgen.state != np.random.PCG64(master_seed ^ i).state:
                raise InvariantError(f"vectorised PCG64 seeding disagrees with numpy at trial {i}")
        for i in range(start, stop):
            state[:] = rows[32 * (i - start):32 * (i - start + 1)]
            counts[i] = gen.multinomial(t_rounds, probs)
    ones = counts @ pat_matrix  # per-point count of label-1 votes
    majs = (ones > t_rounds // 2).view(np.int8)  # 2 ones > T, on integers

    if t_rounds == 1:
        # one round: the proven floor (epsilon - 2 gamma)^T itself
        log_bound = math.log(float(config.epsilon - 2 * config.gamma))
    else:
        log_bound = -config.alpha * math.log(config.m)
    rows = []
    intervals = {}  # success count -> its interval; rows often share a count
    for v in chosen:
        ds = g.vertices[v]
        pts = np.array([ex.point for ex in ds])
        labs = np.array([ex.label for ex in ds], dtype=np.int8)
        ok = (majs[:, pts] == labs).all(axis=1)
        k = int(ok.sum())
        if k not in intervals:
            intervals[k] = clopper_pearson(k, trials)
        lo, hi = intervals[k]
        if trials == 0:
            status = "SKIP"
        elif math.log(hi) < log_bound:
            status = "FAIL"
        else:
            status = "PASS"
        rows.append(
            BoostVerifyRow(
                dataset=ds, successes=k, trials=trials,
                ci_lo=lo, ci_hi=hi, log_bound=log_bound, status=status,
            )
        )
    return BoostVerifyReport(
        config=config, master_seed=master_seed, trials=trials,
        sampled=sampled, rows=tuple(rows),
    )


def format_boost_report(report: BoostVerifyReport) -> str:
    cfg = report.config
    lines = [
        f"# seed={report.master_seed} trials={report.trials} "
        f"m0={cfg.mu.m0} m={cfg.m} T={cfg.T} "
        f"epsilon={cfg.epsilon} gamma={cfg.gamma} alpha={cfg.alpha:.6g}"
        + (" sampled" if report.sampled else "")
    ]
    for r in report.rows:
        est = r.successes / r.trials if r.trials else float("nan")
        lines.append(
            f"S={r.dataset.render()} est={est:.6f} "
            f"ci=[{r.ci_lo:.6f},{r.ci_hi:.6f}] bound={_bound_str(r.log_bound)} "
            f"{r.status}"
        )
    return "\n".join(lines) + "\n"


# ─── realizable-distribution quantile check ──────────────────────────────


# the losses theta at which the small-population bound is checked
THETAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def _pop_bounds(omega_star: Fraction, m: int) -> tuple:
    """1/omega*_m - (1 - theta)^m for each theta in THETAS."""
    return tuple(1 / omega_star - (1 - theta) ** m for theta in THETAS)


def _pop_masses(cls: ConceptClass, m: int, caps: Caps, inputs: list) -> tuple:
    """The small-population engine: reads mu* and its bounds once and
    returns (mu*'s denominator, the bounds, one [(mass, passed)] per input,
    a pair per theta in THETAS).  An input (ones, zeros, layers, scale) is
    a realizable distribution of total integer weight `scale`: weight a on
    each point of the mask `layers[a]`, labeled 1 on `ones`, 0 on `zeros`.
    mu*'s integer weights are tallied by the weight each pattern mislabels,
    its integer loss; loss / scale <= theta exactly when loss <=
    floor(theta * scale), and `mass` meets a bound exactly when
    mass * bound.denominator >= bound.numerator * mu*'s denominator.
    """
    mu = _mu_star(cls, m, caps)
    bounds = _pop_bounds(mu.value, m)
    masks = list(map(pattern_to_mask, mu.patterns))
    tests = [
        (theta.numerator, theta.denominator, bound.denominator, bound.numerator * mu.denominator)
        for theta, bound in zip(THETAS, bounds)
    ]
    out = []
    for ones, zeros, layers, scale in inputs:
        tally = {}
        for h, w in zip(masks, mu.weights):
            wrong = (h & zeros) | (ones & ~h)
            loss = 0
            for a, points in layers.items():
                loss += a * (wrong & points).bit_count()
            tally[loss] = tally.get(loss, 0) + w
        verdicts = []
        for theta_num, theta_den, den, num in tests:
            cut = theta_num * scale // theta_den
            mass = 0
            for loss, w in tally.items():
                if loss <= cut:
                    mass += w
            verdicts.append((mass, mass * den >= num))
        out.append(verdicts)
    return mu.denominator, bounds, out


def _require_realizable(cls: ConceptClass, ones: int, zeros: int) -> None:
    if not any(ones & ~r == 0 and zeros & r == 0 for r in cls.row_masks):
        raise NotRealizableDistributionError(
            "no hypothesis has zero loss on the distribution"
        )


def small_pop_err_check(
    cls: ConceptClass, m: int, dist: dict, caps: Caps = DEFAULT_CAPS
) -> list:
    """For a realizable label distribution D and the normalized optimal
    coloring mu* of G_m, check exactly that

        Pr_{h~mu*}[loss_D(h) <= theta] >= 1/omega*_m - (1-theta)^m

    for each theta in THETAS.  Returns [(theta, probability, bound, passed)]
    in Fractions.  D's keys are (point, label) with an integer point, and
    its weights are scaled to integers over their least common denominator
    for `_pop_masses`, the engine `small_pop_verdicts` shares, which reads
    mu* once per call and decides every theta in integers.
    """
    total = sum(dist.values(), Fraction(0))
    if total != 1:
        raise InvalidParamsError(f"distribution weights sum to {total}, not 1")
    scale = math.lcm(*(Fraction(w).denominator for w in dist.values()))
    ones = zeros = 0
    layers = defaultdict(int)
    for (point, l), w in dist.items():
        try:
            p = operator.index(point)
        except TypeError:
            p = -1  # out of range, refused below
        if w < 0 or l not in (0, 1) or not 0 <= p < cls.universe_size:
            raise InvalidParamsError(f"bad distribution entry {(point, l)}: {w}")
        if w > 0:
            # realizable, so each point of the support carries one label
            w = Fraction(w)
            layers[w.numerator * (scale // w.denominator)] |= 1 << p
            if l:
                ones |= 1 << p
            else:
                zeros |= 1 << p
    _require_realizable(cls, ones, zeros)
    den, bounds, [verdicts] = _pop_masses(cls, m, caps, [(ones, zeros, layers, scale)])
    return [
        (theta, Fraction(mass, den), bound, passed)
        for theta, bound, (mass, passed) in zip(THETAS, bounds, verdicts)
    ]


def small_pop_verdicts(
    cls: ConceptClass, m: int, datasets: Sequence[Dataset], caps: Caps = DEFAULT_CAPS
) -> list:
    """For each dataset S, whether `small_pop_err_check` passes at every
    theta for D uniform over S's examples, counted with multiplicity: D puts
    weight c / |S| on an example that S holds c times.  One `_pop_masses`
    call, the engine `small_pop_err_check` shares, reads mu* once for all
    of them.  Every dataset is checked first: an empty one or one with a
    point outside the class's universe raises InvalidParamsError, and one
    that no row labels correctly raises NotRealizableDistributionError.
    """
    inputs = []
    for ds in datasets:
        ones, zeros = ds.ones_mask, ds.zeros_mask
        if not ds.examples:
            raise InvalidParamsError("an empty dataset has no uniform distribution")
        if (ones | zeros) >> cls.universe_size:
            raise InvalidParamsError(
                f"dataset {ds.render()} has a point outside the universe of {cls.universe_size} points"
            )
        _require_realizable(cls, ones, zeros)
        layers = defaultdict(int)
        for p, group in itertools.groupby(ex.point for ex in ds.examples):
            layers[sum(1 for _ in group)] |= 1 << p
        inputs.append((ones, zeros, layers, len(ds.examples)))
    _, _, verdicts = _pop_masses(cls, m, caps, inputs)
    return [all(passed for _, passed in v) for v in verdicts]


# ─── exact numeric lemma grids ───────────────────────────────────────────


def _floor_bracketed(alpha: int, scale: int) -> int:
    """floor(scale * alpha * ln(alpha)) via rational bracketing of ln with
    big-integer powers; escalates precision until the bracket pins one
    integer."""
    for prec_bits in (12, 16, 20, 24):
        p = 1 << prec_bits
        x = alpha**p
        k_hi = (x - 1).bit_length()  # smallest k with 2^k >= alpha^p
        k_lo = x.bit_length() - 1  # largest k with 2^k <= alpha^p
        v_lo = scale * alpha * Fraction(k_lo, p) * LN2_LO
        v_hi = scale * alpha * Fraction(k_hi, p) * LN2_HI
        f_lo = v_lo.numerator // v_lo.denominator
        f_hi = v_hi.numerator // v_hi.denominator
        if f_lo == f_hi:
            return f_lo
    raise InvariantError(f"could not pin floor({scale}*{alpha}*ln {alpha})")


def numeric_lemma_checks() -> list:
    """Big-integer verification of the two numeric lemma grids.

    (a) alpha in 2..12, m = floor(20 alpha ln alpha), k = 4 m^alpha,
        q = m^-alpha - (3/4)^m: verify q > 0 and k*q >= ln 4 (so
        (1-q)^k <= exp(-k q) <= 1/4).  ln 4 is replaced by the rational
        upper bound 1386296/10^6, which only strengthens the claim.

    (b) d in 30..40, m0 = 2 d log2 d: verify (i) m0 >= d/ln 2, equivalent to
        2 ln d >= 1 and implied by d^2 >= 3 > e; and (ii) 2^m0 >= (2m0+1)^d,
        via 2^m0 = d^(2d) exactly and the dyadic upper bound
        m0 <= 2dK/1024, K = min{k : 2^k >= d^1024}, which reduces (ii) to
        the integer inequality 1024 d^2 >= 4 d K + 1024.

    Returns [(name, passed, detail)].
    """
    out = []
    for alpha in range(2, 13):
        m = _floor_bracketed(alpha, 20)
        k = 4 * m**alpha
        q = Fraction(1, m**alpha) - Fraction(3, 4) ** m
        ok = q > 0 and k * q >= LN4_HI
        out.append(
            (
                f"pop-survival alpha={alpha}",
                ok,
                f"m={m} k={k} k*q={float(k * q):.6f} >= ln4",
            )
        )
    for d in range(30, 41):
        x = d**1024
        big_k = (x - 1).bit_length()
        cond_i = d * d >= 3
        cond_ii = 1024 * d * d >= 4 * d * big_k + 1024
        m0 = 2 * d * math.log2(d)
        out.append(
            (
                f"growth-threshold d={d}",
                cond_i and cond_ii,
                f"m0={m0:.1f} d/ln2={d / math.log(2):.1f} "
                f"2^m0=d^{2 * d} vs (2m0+1)^{d}",
            )
        )
    return out
