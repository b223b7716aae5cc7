"""The four workloads: inputs made from the seed and the query list of a pass.

A query is one question a user asks: one library call, or a short chain that
feeds one call's result into the next (ω_3 is `build_graph`, `max_clique`,
then `tree_from_clique`; a transcript is `draw_patterns`, then
`run_expert_game`), or one CLI invocation through `cli.main`.  Every
query reaches the library through module attributes looked up at call time,
so the span recorder's wrappers see it.

Why these inputs:

* fractional, clique and corpus use fixed classes.  Relabelling a class
  (permuting points, flipping labels) keeps every answer but moves its cost:
  Bland's rule and the branch-and-bound tie-break follow vertex order, and
  five relabellings of thresholds(5) took 0.11-0.80 s for the same ω*_2.  The
  corpus generated from `verify-lemmas --seed s` moved the pass from 24.6 s to
  29.6 s over seeds 0-2.  No bound of at most 25% survives either, so the
  seed orders the queries instead, and the answers are the same at every
  seed.
* boost draws its instances from the seed: the draw, the forced-transcript
  and the Monte Carlo generators are all seeded from it, and the cost of a
  draw does not depend on which pattern comes out.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field

import cliquedim as cq
import cliquedim.cli  # noqa: F401  (binds cq.cli)

# (name, family, universe, rows, generator seed); rows and seed apply to
# the `random` family only.
FRACTIONAL_CLASSES = (
    ("thresholds-5", "thresholds", 5, 0, 0),
    ("random-5-8-2", "random", 5, 8, 2),
)
FRACTIONAL_M = (1, 2, 3)  # ω* queries; cd* runs with m_max = 3

CLIQUE_CLASSES = (
    ("random-6-8-2", "random", 6, 8, 2),
    ("random-6-12-1", "random", 6, 12, 1),
)
CLIQUE_M = 3  # cd runs with m_max = 3; ω is asked at this m

# A corpus pass asks `verify-lemmas` once, `curves` once on each class in
# CURVES_ONCE (1.7-2.9 s each) and CURVES_REPEATS times on each other class
# (3-430 ms each, 1.8 s in all), so each short query has a median of its own
# and one slow sample moves neither query_p50_ms nor query_tail_ms.
CURVES_ONCE = ("thresholds-5", "random-4", "random-9")
CURVES_REPEATS = 5

# (name, family, universe, m0, m, transcripts, transcript datasets,
#  forced datasets, forced transcripts each, Monte Carlo trials)
BOOST_CLASSES = (
    ("disjoint-pairs-2", "disjoint_pairs", 2, 2, 3, 160, 8, 8, 250, 20000),
    ("paper-example-sec6", "paper_example_sec6", 4, 4, 4, 8, 8, 2, 100, 10000),
)


def _generate(family: str, universe: int, rows: int, seed: int):
    if family == "random":
        return cq.generate(family, universe=universe, count=rows, seed=seed)
    return cq.generate(family, universe=universe)


@dataclass
class Inputs:
    classes: dict  # name -> ConceptClass
    queries: list = field(default_factory=list)  # (key, thunk) for fixed lists
    seed: int = 0


def cli_call(argv: list, stdin: str = "") -> tuple:
    """One CLI invocation in this process: (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cq.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _omega_with_tree(cls, m: int) -> tuple:
    g = cq.build_graph(cls, m)
    clique = cq.max_clique(g)
    return clique.members, cq.tree_from_clique(g, clique)


def _fractional_setup(seed: int) -> Inputs:
    classes = {name: _generate(*spec) for name, *spec in FRACTIONAL_CLASSES}
    queries = []
    for name, cls in classes.items():
        queries.append((f"{name}/cd_star", lambda cls=cls: cq.fractional_clique_dimension(cls, 3)))
        for m in FRACTIONAL_M:
            queries.append(
                (f"{name}/omega_star@{m}", lambda cls=cls, m=m: cq.omega_star(cq.build_graph(cls, m)))
            )
    random.Random(seed).shuffle(queries)
    return Inputs(classes, queries, seed)


def _clique_setup(seed: int) -> Inputs:
    classes = {name: _generate(*spec) for name, *spec in CLIQUE_CLASSES}
    queries = []
    for name, cls in classes.items():
        queries += [
            (f"{name}/cd", lambda cls=cls: cq.clique_dimension(cls, CLIQUE_M)),
            (f"{name}/omega@{CLIQUE_M}", lambda cls=cls: _omega_with_tree(cls, CLIQUE_M)),
            (f"{name}/vc", lambda cls=cls: cq.vc_dimension(cls)),
            (f"{name}/ld", lambda cls=cls: cq.littlestone_dimension(cls)),
        ]
    random.Random(seed).shuffle(queries)
    return Inputs(classes, queries, seed)


def _corpus_setup(seed: int) -> Inputs:
    classes = dict(cq.cli.corpus())
    queries = [("verify-lemmas", lambda: cli_call(["verify-lemmas"]))]
    for name, cls in classes.items():
        text = cq.format_class_text(cls)
        curves = (f"curves/{name}", lambda text=text: cli_call(["curves", "-"], text))
        queries += [curves] * (1 if name in CURVES_ONCE else CURVES_REPEATS)
    random.Random(seed).shuffle(queries)
    return Inputs(classes, queries, seed)


def _boost_setup(seed: int) -> Inputs:
    classes = {spec[0]: _generate(spec[1], spec[2], 0, 0) for spec in BOOST_CLASSES}
    return Inputs(classes, seed=seed)


def transcript_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{name}/{index}")


def transcript(config, dataset, rng) -> tuple:
    """One Hedge transcript over the dataset's examples on seeded draws."""
    draws = cq.draw_patterns(config.mu, config.T, rng)
    return draws, cq.run_expert_game(dataset, draws)


def _fixed_pass(inputs: Inputs, ask) -> None:
    for key, thunk in inputs.queries:
        ask(key, thunk)


def _boost_pass(inputs: Inputs, ask) -> None:
    """The c08-shaped pipeline per class: the configuration and G_m, then,
    in an order drawn from the seed, Hedge transcripts on seeded draws,
    forced gamma-good transcripts and the Monte Carlo bound."""
    seed = inputs.seed
    for (name, _, universe, m0, m, transcripts, n_sets, n_forced, forced_each,
         trials) in BOOST_CLASSES:
        cls = inputs.classes[name]
        config = ask(f"{name}/boost_config", lambda: cq.boost_config(cls, m0, m))
        g = ask(f"{name}/graph@{m}", lambda: cq.build_graph(cls, m))
        if config is None or g is None:
            continue
        picks = [g.vertices[i * g.num_vertices // n_sets] for i in range(n_sets)]
        queries = []
        for t in range(transcripts):
            queries.append((
                f"{name}/transcript/{t}",
                lambda config=config, ds=picks[t % n_sets], rng=transcript_rng(seed, name, t):
                    transcript(config, ds, rng),
            ))
        for i in range(n_forced):
            queries.append((
                f"{name}/forced/{i}",
                lambda config=config, ds=picks[i * n_sets // n_forced], i=i, u=universe, k=forced_each:
                    cq.forced_gamma_good_check(ds, u, config, k, seed=seed + i),
            ))
        queries.append((
            f"{name}/verify",
            lambda cls=cls, config=config, trials=trials:
                cq.verify_sspfcd_bound(cls, config, trials=trials, master_seed=seed),
        ))
        random.Random(f"{seed}/{name}").shuffle(queries)
        for key, thunk in queries:
            ask(key, thunk)


SETUP = {
    "fractional": _fractional_setup,
    "clique": _clique_setup,
    "boost": _boost_setup,
    "corpus": _corpus_setup,
}

RUN_PASS = {
    "fractional": _fixed_pass,
    "clique": _fixed_pass,
    "boost": _boost_pass,
    "corpus": _fixed_pass,
}

# Seconds of run time one pass stands for: a run makes round(seconds / this)
# passes, at least one, so its query count, and with it the rank the tail
# latency is read at, does not depend on how fast the host happened to be.
# At 15 s fractional and clique make three passes, so their tail rank (14 of
# 24 samples) falls on the middle sample of one query and above the median.
PASS_SECONDS = {"fractional": 5.0, "clique": 5.0, "boost": 7.0, "corpus": 20.0}
