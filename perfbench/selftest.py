"""Checker self-test: corrupted answers must raise fail_frac above 0.

    python3 perfbench/selftest.py

Computes a few cheap real answers, checks them through the same path as a
benchmark run (they must all pass), then feeds in one corruption at a time:
an ω* value off by one, a tampered certificate weight, a wrong ω and one
changed boost draw.  Exits 1 if an honest answer fails or a corruption
passes.
"""

from __future__ import annotations

import dataclasses
import sys

import worker

worker.import_library()

import cliquedim as cq  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def fixed_answer(workload: str, key: str):
    inputs = workloads.SETUP[workload](check.REFERENCE_SEED)
    thunk = dict(inputs.queries)[key]
    return inputs, check.record(key, thunk())


def fail_frac(workload: str, inputs, answers: list) -> tuple:
    failures = worker.check_answers(workload, inputs, answers)
    return len(failures) / len(answers), "; ".join(reason for _, reason in failures)


def off_by_one(cert):
    return dataclasses.replace(cert, value=cert.value + 1)


def tampered_weight(cert):
    """One more unit of weight on a vertex of the clique and on a color, so
    the three totals still agree and only the packing check can object."""
    v = next(iter(cert.clique.weights))
    h = next(iter(cert.coloring.weights))
    clique = cq.FractionalClique(
        weights={**cert.clique.weights, v: cert.clique.weights[v] + 1},
        size=cert.clique.size + 1,
    )
    coloring = cq.FractionalColoring(
        weights={**cert.coloring.weights, h: cert.coloring.weights[h] + 1},
        colors=cert.coloring.colors + 1,
    )
    return cq.DualityCertificate(value=cert.value + 1, clique=clique, coloring=coloring)


def main() -> int:
    cases = []

    key = "random-5-8-2/omega_star@1"
    inputs, cert = fixed_answer("fractional", key)
    cases.append(("fractional", inputs, key, cert, "omega* value off by one", off_by_one(cert)))
    cases.append(("fractional", inputs, key, cert, "tampered certificate weight", tampered_weight(cert)))

    key = "random-6-8-2/omega@3"
    inputs, (members, tree) = fixed_answer("clique", key)
    cases.append(("clique", inputs, key, (members, tree), "wrong omega", (members[:-1], tree)))

    name = "disjoint-pairs-2"
    inputs = workloads.SETUP["boost"](check.REFERENCE_SEED)
    config = cq.boost_config(inputs.classes[name], 2, 3)
    dataset = cq.build_graph(inputs.classes[name], 3).vertices[0]
    rng = workloads.transcript_rng(check.REFERENCE_SEED, name, 0)
    draws, game = workloads.transcript(config, dataset, rng)
    changed = list(draws)
    changed[100] = next(p for p in config.mu.patterns if p != draws[100])
    key = f"{name}/transcript/0"
    cases.append(
        ("boost", inputs, key, check.record(key, (draws, game)), "one changed boost draw",
         check.record(key, (changed, cq.run_expert_game(dataset, changed))))
    )

    ok = True
    for workload, inputs, key, honest, label, corrupted in cases:
        clean, clean_reasons = fail_frac(workload, inputs, [(key, honest)])
        bad, reasons = fail_frac(workload, inputs, [(key, corrupted)])
        passed = clean == 0 and bad > 0
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: honest fail_frac={clean:.3f} "
              f"{clean_reasons}\n     with corruption fail_frac={bad:.3f} ({reasons})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
