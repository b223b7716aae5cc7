"""Answer checker: exact certificates, stored reference answers, oracles.

Every check runs after the timed passes.  Answers are first reduced to small
records (`record`), so the timed process does not hold whole transcripts.

* ω* certificates: value == clique size == coloring total, and the library's
  `validate_packing` / `validate_cover` accept both sides.  Those validators
  re-derive the constraint family from the graph, not from the solver, so by
  weak duality a passing certificate proves the value optimal.
* cliques pass `validate_clique`; the tree cut from a clique is complete,
  shattered by the clique's datasets, and deep enough for (2m+1)^depth to
  reach the clique size.
* boost: every transcript keeps regret <= sqrt(2 T ln m), no forced run
  violates, the Monte Carlo report passes, and every draw equals an
  independent inverse-CDF sampler fed the same generator.
* the dimension values, ω and ω* sizes, the boost configuration and the CLI
  stdout bytes equal `reference.json`, written from the seed code.  A stored
  `lower-bound-at-m-max` answer may come back `exact` at a value at least as
  large.  The boost report text is compared at seed 0, where it was stored.
* the stored corpus curves for the smallest classes are cross-checked against
  the independent oracles in the repository's `tests/oracles.py`.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.util
import math
import os
from fractions import Fraction

import cliquedim as cq
from workloads import transcript_rng

REFERENCE_SEED = 0
# Oracle cross-check limits: Bron-Kerbosch up to this many vertices, basis
# enumeration up to this many candidate bases.
ORACLE_MAX_VERTICES = 30
ORACLE_MAX_BASES = 1000


def kind_of(key: str) -> str:
    """'thresholds-5/omega_star@2' -> 'omega_star'; 'x/transcript/7' -> 'transcript'."""
    if key == "verify-lemmas":
        return key
    parts = key.split("/")
    if parts[0] == "curves":
        return "curves"
    return parts[1].split("@")[0]


def draws_digest(draws) -> str:
    h = hashlib.sha256()
    for pattern in draws:
        h.update(bytes(pattern))
    return h.hexdigest()


def record(key: str, answer):
    """Small comparable form of an answer, kept until the checks run."""
    kind = kind_of(key)
    if kind == "omega":
        members, tree = answer
        return tuple(members), tree
    if kind == "boost_config":
        mu = answer.mu
        return (answer.T, answer.epsilon, answer.gamma, mu.patterns, mu.probs)
    if kind == "graph":
        return answer.num_vertices
    if kind == "transcript":
        draws, game = answer
        return draws_digest(draws), game.regret, game.regret_bound
    if kind == "verify":
        return answer.all_pass, answer.sampled, len(answer.rows), cq.format_boost_report(answer)
    return answer


def reference_entry(key: str, rec, seed: int):
    """JSON form of a record for `reference.json`; None for seeded answers
    that are checked against an independent computation instead."""
    kind = kind_of(key)
    if kind in ("cd_star", "cd"):
        return [rec.value, rec.exactness]
    if kind == "omega_star":
        return cq.frac_str(rec.value)
    if kind == "omega":
        return len(rec[0])
    if kind in ("vc", "ld", "graph"):
        return rec
    if kind == "boost_config":
        t, eps, gamma, patterns, probs = rec
        return {
            "T": t,
            "epsilon": cq.frac_str(eps),
            "gamma": cq.frac_str(gamma),
            "patterns": ["".join(map(str, p)) for p in patterns],
            "probs": [cq.frac_str(p) for p in probs],
        }
    if kind == "verify":
        return {"rows": rec[2], f"report_sha256_seed{seed}": hashlib.sha256(rec[3].encode()).hexdigest()}
    if kind == "verify-lemmas":
        return {"exit": rec[0], "sha256": hashlib.sha256(rec[1].encode()).hexdigest()}
    if kind == "curves":
        return {"exit": rec[0], "stdout": rec[1]}
    return None


def reference_draws(patterns, probs, count: int, rng) -> list:
    """Inverse-CDF sampling written apart from the library's: a float
    u = j / 2^53 lies below a cumulative weight c exactly when j < ceil(c 2^53)."""
    scale = 1 << 53
    acc = Fraction(0)
    thresholds = []
    for p in probs:
        acc += p
        thresholds.append(-(-acc.numerator * scale // acc.denominator))
    last = len(patterns) - 1
    return [
        patterns[min(bisect.bisect_right(thresholds, int(rng.random() * scale)), last)]
        for _ in range(count)
    ]


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("cliquedim_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def curves_rows(stdout: str) -> list:
    """(m, vertices, omega, omega* as Fraction) per data row of `curves`."""
    rows = []
    for line in stdout.splitlines():
        if line.startswith("#") or line.startswith("m,"):
            continue
        m, nv, omega, _, num, den, _ = line.split(",")
        star = Fraction(int(num), int(den)) if num else None
        rows.append((int(m), int(nv), int(omega) if omega else None, star))
    return rows


def oracle_failures(oracles, classes: dict, curves_reference: dict) -> list:
    """Compare stored curves rows of the smallest corpus classes with the
    Bron-Kerbosch clique oracle and the basis-enumeration LP oracle."""
    failures = []
    for name, cls in classes.items():
        for m, nv, omega, star in curves_rows(curves_reference[f"curves/{name}"]["stdout"]):
            if nv > ORACLE_MAX_VERTICES:
                continue
            items = oracles.enumerate_realizable_multisets(cls, m)
            where = f"oracle/{name}@{m}"
            if len(items) != nv:
                failures.append((where, f"{len(items)} realizable datasets, stored {nv}"))
                continue
            if omega is not None:
                got = oracles.max_clique_size_bk(oracles.adjacency_from_collections(items))
                if got != omega:
                    failures.append((where, f"oracle omega {got}, stored {omega}"))
            masks = oracles.packing_constraints(cls, items)
            if star is not None and math.comb(nv + len(masks), len(masks)) <= ORACLE_MAX_BASES:
                got = oracles.bfs_packing_value(nv, masks)
                if got != star:
                    failures.append((where, f"oracle omega* {got}, stored {star}"))
    return failures


class Checker:
    """Checks the records of one workload run; `check` returns a reason for
    each failed answer, or None."""

    def __init__(self, workload: str, inputs, reference: dict):
        self.inputs = inputs
        self.seed = inputs.seed
        self.ref = reference.get(workload, {})
        self._graphs: dict = {}

    def _graph(self, name: str, m: int):
        if (name, m) not in self._graphs:
            self._graphs[name, m] = cq.build_graph(self.inputs.classes[name], m)
        return self._graphs[name, m]

    def check(self, key: str, rec):
        try:
            return self._check(key, rec)
        except (cq.CliquedimError, ValueError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _check(self, key: str, rec):
        kind = kind_of(key)
        name = key.split("/")[0]
        ref = self.ref.get(key)
        if ref is None and kind not in ("transcript", "forced"):
            return "no stored reference answer"
        if kind in ("cd_star", "cd"):
            value, exactness = ref
            if [rec.value, rec.exactness] == ref:
                return None
            if exactness == cq.LOWER_BOUND and rec.exactness == cq.EXACT and rec.value >= value:
                return None
            return f"{rec} differs from stored {value} {exactness}"
        if kind == "omega_star":
            return self._certificate(name, int(key.split("@")[1]), rec, cq.parse_frac(ref))
        if kind == "omega":
            return self._clique(name, int(key.split("@")[1]), rec, ref)
        if kind in ("vc", "ld", "graph"):
            return None if rec == ref else f"{rec} differs from stored {ref}"
        if kind == "boost_config":
            got = reference_entry(key, rec, self.seed)
            return None if got == ref else f"{got} differs from stored {ref}"
        if kind == "transcript":
            digest, regret, bound = rec
            if regret > bound:
                return f"regret {regret} above bound {bound}"
            return self._draws(name, int(key.split("/")[2]), digest)
        if kind == "forced":
            violations, ran = rec
            return None if violations == 0 and ran > 0 else f"{violations} of {ran} forced runs violate"
        if kind == "verify":
            return self._verify(rec, ref)
        if kind == "verify-lemmas":
            got = reference_entry(key, rec, self.seed)
            return None if got == ref else f"exit {rec[0]}, stdout differs from stored bytes"
        if kind == "curves":
            return None if list(rec) == [ref["exit"], ref["stdout"]] else "stdout differs from stored bytes"
        return f"no check for {key}"

    def _certificate(self, name: str, m: int, cert, stored: Fraction):
        if not cert.value == cert.clique.size == cert.coloring.colors:
            return (
                f"value {cert.value}, clique {cert.clique.size}, "
                f"coloring {cert.coloring.colors} disagree"
            )
        g = self._graph(name, m)
        cq.validate_packing(g, cert.clique)
        cq.validate_cover(g, cert.coloring)
        return None if cert.value == stored else f"{cert.value} differs from stored {stored}"

    def _clique(self, name: str, m: int, rec, stored: int):
        members, tree = rec
        g = self._graph(name, m)
        clique = cq.validate_clique(g, members)
        if clique.size != stored:
            return f"clique of {clique.size} differs from stored omega {stored}"
        depth = cq.max_depth(tree)
        if not cq.is_complete(tree, depth) or (2 * m + 1) ** depth < clique.size:
            return f"tree of depth {depth} is not complete or too shallow"
        return self._shattered(g, tree, set(members))

    def _shattered(self, g, tree, members: set):
        if isinstance(tree, cq.MistakeLeaf):
            leaf = set(tree.members)
            return None if leaf and leaf <= members else "tree leaf holds non-members"
        zero = {i for i in members if (g.zeros[i] >> tree.point) & 1}
        one = {i for i in members if (g.ones[i] >> tree.point) & 1}
        return self._shattered(g, tree.zero, zero) or self._shattered(g, tree.one, one)

    def _draws(self, name: str, index: int, digest: str):
        config = self.ref[f"{name}/boost_config"]
        patterns = [tuple(int(c) for c in bits) for bits in config["patterns"]]
        probs = [cq.parse_frac(p) for p in config["probs"]]
        expected = draws_digest(
            reference_draws(patterns, probs, config["T"], transcript_rng(self.seed, name, index))
        )
        return None if digest == expected else "draws differ from the reference sampler"

    def _verify(self, rec, ref):
        all_pass, sampled, rows, text = rec
        if not all_pass or sampled or rows != ref["rows"]:
            return f"all_pass={all_pass} sampled={sampled} rows={rows}"
        stored = ref.get(f"report_sha256_seed{self.seed}")
        if stored is not None and hashlib.sha256(text.encode()).hexdigest() != stored:
            return "report text differs from stored bytes"
        return None
