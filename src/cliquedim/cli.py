"""Command-line surface.

Every command reads a concept class from a positional path ('-' or omitted
means stdin) except `gen`, which writes one.  Every output begins with a
`# seed=<seed>` header line; only `gen`, `boost`, `verify-lemmas` and
`verify-dichotomy` take `--seed`, and the rest print `# seed=0`.  All
emitted formats treat '#' as a comment, so class text, mistake trees and
certificates round-trip through their parsers.  Exit codes: 0 all checks
passed, 1 a verification check or an internal invariant failed, 2 usage or
input error or a closed stdout, 3 a resource cap was hit or memory refused
(the message names the limiting dimension).  A command takes only the
resource caps its code reads.  `main` reads the class, writes the header
and picks stdout or `--out`; a handler returns the rest.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from dataclasses import asdict
from functools import lru_cache

from .boosting import (
    THETAS,
    boost_config,
    format_boost_report,
    numeric_lemma_checks,
    small_pop_verdicts,
    verify_sspfcd_bound,
)
from .cliques import find_balanced_point, max_clique, tree_from_clique, clique_from_tree
from .concepts import (
    FAMILIES,
    format_class_text,
    generate,
    parse_class_text,
)
from .dimensions import (
    cached_graph,
    cached_omega_star,
    check_inequalities,
    clique_dimension,
    dimension_report,
    fractional_clique_dimension,
    littlestone_dimension,
    littlestone_witness,
    smallest_separating_m0,
    vc_dimension,
)
from .errors import (
    CliquedimError,
    InvalidParamsError,
    InvariantError,
    NoSeparationError,
    NotCompleteError,
    ResourceLimitError,
)
from .fractional import format_certificate, frac_str
from .graph import DEFAULT_CAPS, Caps, export_edge_list, independent_sets, wl_fingerprint
from .trees import is_complete, max_depth, parse_tree, serialize_tree


def corpus(seed: int = 0) -> list:
    """The default verification corpus: named deterministic classes spanning
    the full-power, separated, and degenerate regimes."""
    out = [
        ("singleton", generate("singleton", universe=2)),
        ("full-1", generate("full", universe=1)),
        ("full-2", generate("full", universe=2)),
        ("full-3", generate("full", universe=3)),
        ("thresholds-3", generate("thresholds", universe=3)),
        ("thresholds-4", generate("thresholds", universe=4)),
        ("thresholds-5", generate("thresholds", universe=5)),
        ("parities-3", generate("parities", universe=3)),
        ("disjoint_pairs", generate("disjoint_pairs", universe=2)),
        ("paper_example_sec6", generate("paper_example_sec6")),
    ]
    for i in range(10):
        universe = 3 if i % 2 == 0 else 4
        count = 2 + (i % 5)
        out.append(
            (f"random-{i}", generate("random", universe=universe, count=count, seed=seed + i))
        )
    return out


def _caps(args) -> Caps:
    return Caps(
        max_vertices=args.vertex_cap,
        max_pattern_universe=args.pattern_cap,
        node_budget=args.node_budget,
    )


def _load_class(path: str):
    if path == "-":
        return parse_class_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_class_text(fh.read())


# ─── command handlers: each takes the parsed args and the class `main` read
# (None for a command without CLASS) and returns (exit_code, body), the
# output without its header line ───────────────────────────────────────────


def _cmd_gen(args, _cls):
    generated = generate(args.family, universe=args.universe, count=args.count, seed=args.seed)
    return 0, format_class_text(generated)


def _cmd_graph(args, cls):
    if args.prune_nonmaximal and not args.sets:
        raise InvalidParamsError("--prune-nonmaximal prunes the --sets listing: give --sets too")
    caps = _caps(args)
    g = cached_graph(cls, args.m, caps)
    lines = [export_edge_list(g, verbose=args.verbose).rstrip("\n")]
    if args.sets:
        fam = independent_sets(g, maximal_only=args.prune_nonmaximal, caps=caps)
        for pattern, mask in zip(fam.patterns, fam.masks):
            bits = "".join(str(b) for b in pattern)
            lines.append(f"s {bits} {mask.bit_count()}")
    if args.fingerprint:
        lines.append(f"fingerprint {wl_fingerprint(g)}")
    return 0, "\n".join(lines) + "\n"


def _cmd_omega(args, cls):
    caps = _caps(args)
    g = cached_graph(cls, args.m, caps)
    c = max_clique(g, caps)
    lines = [f"omega={c.size}"]
    if args.verbose:
        lines.append("members=" + ",".join(str(i) for i in c.members))
        for i in c.members:
            lines.append(f"v {i} {g.vertices[i].render()}")
    return 0, "\n".join(lines) + "\n"


def _cmd_omega_star(args, cls):
    cert = cached_omega_star(cls, args.m, _caps(args))
    return 0, format_certificate(cert) if args.verbose else frac_str(cert.value) + "\n"


def _cmd_vc(args, cls):
    return 0, f"vc={vc_dimension(cls)}\n"


def _cmd_ld(args, cls):
    if args.verbose:
        tree = littlestone_witness(cls)
        # verbose output stays parseable as a mistake tree, value commented
        return 0, f"# ld={max_depth(tree)}\n" + serialize_tree(tree)
    return 0, f"ld={littlestone_dimension(cls)}\n"


def _cmd_cd(args, cls):
    return 0, f"cd{clique_dimension(cls, args.m_max, _caps(args))}\n"


def _cmd_cd_star(args, cls):
    return 0, f"cd_star{fractional_clique_dimension(cls, args.m_max, _caps(args))}\n"


def _cmd_balanced(args, cls):
    caps = _caps(args)
    g = cached_graph(cls, args.m, caps)
    rep = find_balanced_point(g, max_clique(g, caps))
    values = {**asdict(rep), "threshold": frac_str(rep.threshold)}
    return 0, "".join(f"{name}={value}\n" for name, value in values.items())


def _cmd_tree_from_clique(args, cls):
    caps = _caps(args)
    g = cached_graph(cls, args.m, caps)
    return 0, serialize_tree(tree_from_clique(g, max_clique(g, caps)))


def _cmd_clique_from_tree(args, cls):
    with open(args.tree, "r", encoding="utf-8") as fh:
        tree = parse_tree(fh.read())
    depth = max_depth(tree)
    # the tree's depth picks m, so reject a malformed tree before building G_m
    if depth < 1:
        raise InvalidParamsError("tree has depth 0: it must query at least one point")
    if not is_complete(tree, depth):
        raise NotCompleteError(f"tree is not complete at depth m={depth}")
    c = clique_from_tree(cached_graph(cls, depth, _caps(args)), tree)
    return 0, f"size={c.size}\nmembers=" + ",".join(str(i) for i in c.members) + "\n"


# a decimal with an exponent, in the syntax `Fraction` reads
_SCIENTIFIC = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*")


def _unexpanded_decimal(text):
    """A decimal M * 10^E whose exponent is past what str() may print, as
    a Fraction built without expanding 10^|E|; None for any other text.

    With L = sys.get_int_max_str_digits() and M of D digits, E > L makes
    |value| > 10^L and -E > L + D makes |value| < 10^-L, both with more
    than L digits.  Such a value is replaced by the stand-in +-10^(L+1) or
    +-10^-(L+1): it has the same sign, falls on the same side of 1 and of
    every epsilon/2 (which the refusal prints, so its denominator is below
    10^L), squares to the same 0.0 when tiny, and cannot be printed
    either, so `boost_config` refuses both with the same message.
    A zero mantissa is 0.  L = 0 (no limit) expands every value.
    """
    limit = sys.get_int_max_str_digits()
    match = _SCIENTIFIC.fullmatch(text)
    if not limit or match is None:
        return None
    sign, whole, decimal, exp = (part.replace("_", "") for part in match.groups(""))
    if max(len(whole), len(decimal), len(exp)) > limit:
        return None  # Fraction refuses it without expanding anything
    shift = int(exp) - len(decimal)
    if -limit - len(whole) - len(decimal) <= shift <= limit:
        return None  # 10^|shift| has at most 3L digits
    if not (int(whole or "0") or int(decimal or "0")):
        return Fraction(0)
    magnitude = Fraction(10) ** (limit + 1 if shift > 0 else -limit - 1)
    return -magnitude if sign == "-" else magnitude


def _parse_gamma(text):
    """The --gamma text as an exact Fraction, None when the flag is absent.
    Any other text that is not a fraction num/den or a decimal Python can
    read, the empty text included, is an input error naming the flag.  A
    decimal too large or too small to print is not expanded (see
    `_unexpanded_decimal`)."""
    if text is None:
        return None
    shown = repr(text) if len(text) <= 40 else f"a value of {len(text)} characters"
    value = _unexpanded_decimal(text)
    if value is not None:
        return value
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidParamsError(f"--gamma {shown} has a zero denominator") from None
    except ValueError:
        raise InvalidParamsError(
            "--gamma must be a fraction such as 1/16 or a decimal such as 0.0625 "
            f"of at most {sys.get_int_max_str_digits()} digits; got {shown}"
        ) from None


def _cmd_boost(args, cls):
    caps = _caps(args)
    gamma = _parse_gamma(args.gamma)
    m0 = args.m0 if args.m0 is not None else smallest_separating_m0(cls, caps)
    try:
        config = boost_config(cls, m0, args.m, gamma, caps)
    except NoSeparationError:
        return 0, f"SKIP no separation at m0={m0}\n"
    report = verify_sspfcd_bound(
        cls, config, trials=args.trials, master_seed=args.seed, caps=caps
    )
    return (0 if report.all_pass else 1), format_boost_report(report)


def _verdict(checks: list) -> tuple:
    """(exit_code, body) of a verify command: a PASS or FAIL line per
    (name, passed, detail) check, then the summary."""
    lines = [
        f"{'PASS' if passed else 'FAIL'} {name} {detail}".rstrip() for name, passed, detail in checks
    ]
    failures = sum(1 for _, passed, _ in checks if not passed)
    lines.append(f"summary: {len(checks)} checks, {failures} failures")
    return (1 if failures else 0), "\n".join(lines) + "\n"


def _cmd_verify_lemmas(args, _cls):
    caps = _caps(args)
    checks = []
    for name, cls in corpus(args.seed):
        report = dimension_report(cls, m_max_clique=4, m_max_lp=3, caps=caps)
        for cname, passed, detail in check_inequalities(report):
            checks.append((f"{name}:{cname}", passed, detail))
        for m in range(1, 4):
            cert = cached_omega_star(cls, m, caps)
            checks.append(
                (
                    f"{name}:duality@m={m}",
                    cert.clique.size == cert.coloring.colors == cert.value,
                    f"value={frac_str(cert.value)}",
                )
            )
        for m in range(1, 3):
            vertices = cached_graph(cls, m, caps).vertices
            for v, passed in zip(vertices, small_pop_verdicts(cls, m, vertices, caps)):
                checks.append((f"{name}:small_pop_err@m={m}:{v.render()}", passed, f"{len(THETAS)} thetas"))
    checks.extend(numeric_lemma_checks())
    return _verdict(checks)


def _cmd_verify_dichotomy(args, _cls):
    caps = _caps(args)
    checks = []
    for name, cls in corpus(args.seed):
        report = dimension_report(cls, m_max_clique=4, m_max_lp=3, caps=caps)
        ld = report.ld
        for row in report.rows:
            if row.omega is not None and row.omega_exact and ld < row.m:
                bound = (2 * row.m + 1) ** ld
                checks.append(
                    (
                        f"{name}:poly-cap@m={row.m}",
                        row.omega <= bound,
                        f"omega={row.omega} (2m+1)^ld={bound}",
                    )
                )
        first_sep = None
        for row in report.rows:
            if row.omega_star is None:
                continue
            if first_sep is None and row.omega_star < row.two_pow_m:
                first_sep = row.m
            elif first_sep is not None:
                checks.append(
                    (
                        f"{name}:star-separated@m={row.m}",
                        row.omega_star < row.two_pow_m,
                        f"omega*={frac_str(row.omega_star)} 2^m={row.two_pow_m} "
                        f"first separation at m={first_sep}",
                    )
                )
    return _verdict(checks)


def _cmd_curves(args, cls):
    caps = _caps(args)
    if args.m_max is not None:
        mc, ml = args.m_max, args.m_max
    else:
        mc, ml = 4, 3
    report = dimension_report(cls, m_max_clique=mc, m_max_lp=ml, caps=caps)
    lines = ["m,num_vertices,omega,omega_exact,omega_star_num,omega_star_den,two_pow_m"]
    for row in report.rows:
        omega = "" if row.omega is None else str(row.omega)
        exact = "" if row.omega_exact is None else ("true" if row.omega_exact else "false")
        num = "" if row.omega_star is None else str(row.omega_star.numerator)
        den = "" if row.omega_star is None else str(row.omega_star.denominator)
        lines.append(
            f"{row.m},{row.num_vertices},{omega},{exact},{num},{den},{row.two_pow_m}"
        )
    lines.append(f"# vc={report.vc}")
    lines.append(f"# ld={report.ld}")
    lines.append(f"# cd{report.cd}")
    lines.append(f"# cd_star{report.cd_star}")
    return 0, "\n".join(lines) + "\n"


HANDLERS = {
    "gen": _cmd_gen,
    "graph": _cmd_graph,
    "omega": _cmd_omega,
    "omega-star": _cmd_omega_star,
    "vc": _cmd_vc,
    "ld": _cmd_ld,
    "cd": _cmd_cd,
    "cd-star": _cmd_cd_star,
    "balanced": _cmd_balanced,
    "tree-from-clique": _cmd_tree_from_clique,
    "clique-from-tree": _cmd_clique_from_tree,
    "boost": _cmd_boost,
    "verify-lemmas": _cmd_verify_lemmas,
    "verify-dichotomy": _cmd_verify_dichotomy,
    "curves": _cmd_curves,
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, and
    building it (about 3 ms) costs as much as a small command."""
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master seed, echoed in output")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("--verbose", action="store_true")

    # one parent per resource cap: each command takes the caps its code reads
    vertex_cap, pattern_cap, node_budget = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    vertex_cap.add_argument("--vertex-cap", type=int, default=DEFAULT_CAPS.max_vertices)
    pattern_cap.add_argument("--pattern-cap", type=int, default=DEFAULT_CAPS.max_pattern_universe)
    node_budget.add_argument("--node-budget", type=int, default=DEFAULT_CAPS.node_budget)

    cls_arg = argparse.ArgumentParser(add_help=False)
    cls_arg.add_argument(
        "cls", nargs="?", default="-", metavar="CLASS",
        help="class text file ('-' or omitted: stdin)",
    )
    all_caps = [vertex_cap, pattern_cap, node_budget]
    on_lp = [common, vertex_cap, pattern_cap, cls_arg]
    on_search = [common, vertex_cap, node_budget, cls_arg]

    p = argparse.ArgumentParser(prog="cliquedim", description=__doc__)
    # a command without a cap's flag gets the default, which its code never
    # reads, and one without --seed echoes seed 0 in its header
    p.set_defaults(
        seed=0,
        vertex_cap=DEFAULT_CAPS.max_vertices,
        pattern_cap=DEFAULT_CAPS.max_pattern_universe,
        node_budget=DEFAULT_CAPS.node_budget,
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", parents=[seed, common], help="emit a generated concept class")
    sp.add_argument("family", choices=FAMILIES)
    sp.add_argument("--universe", type=int, default=2)
    sp.add_argument("--count", type=int, default=4, help="rows for the random family")

    sp = sub.add_parser("graph", parents=[*on_lp, verbose], help="emit the contradiction graph edge list")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--sets", action="store_true", help="also list consistency-set sizes")
    sp.add_argument(
        "--prune-nonmaximal", action="store_true",
        help="restrict --sets to inclusion-maximal consistency sets",
    )
    sp.add_argument("--fingerprint", action="store_true", help="append an isomorphism fingerprint")

    sp = sub.add_parser("omega", parents=[*on_search, verbose], help="exact clique number of G_m")
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("omega-star", parents=[*on_lp, verbose], help="exact fractional clique number of G_m")
    sp.add_argument("--m", type=int, required=True)

    sub.add_parser("vc", parents=[common, cls_arg], help="VC dimension")
    sub.add_parser("ld", parents=[common, verbose, cls_arg], help="mistake-bound (Littlestone) dimension")

    sp = sub.add_parser("cd", parents=[common, *all_caps, cls_arg], help="clique dimension with exactness flag")
    sp.add_argument("--m-max", type=int, default=4)

    sp = sub.add_parser("cd-star", parents=on_lp, help="fractional clique dimension with exactness flag")
    sp.add_argument("--m-max", type=int, default=3)

    sp = sub.add_parser("balanced", parents=on_search, help="balanced point of the maximum clique of G_m")
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("tree-from-clique", parents=on_search, help="mistake tree extracted from the maximum clique of G_m")
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("clique-from-tree", parents=[common, vertex_cap, cls_arg], help="clique of G_depth from a complete shattered tree")
    sp.add_argument("--tree", required=True, help="mistake-tree text file")

    sp = sub.add_parser("boost", parents=[seed, *on_lp], help="boosting pipeline consistency verification")
    sp.add_argument("--m0", type=int, default=None, help="anchor length (default: smallest separating)")
    sp.add_argument("--m", type=int, default=3, help="target dataset length")
    sp.add_argument("--gamma", default=None, help="margin as num/den (default epsilon/4)")
    sp.add_argument("--trials", type=int, default=10**5)

    sub.add_parser("verify-lemmas", parents=[seed, common, *all_caps], help="inequality/duality/quantile/numeric checks over the corpus")
    sub.add_parser("verify-dichotomy", parents=[seed, common, *all_caps], help="desk-scale dichotomy scans over the corpus")

    sp = sub.add_parser("curves", parents=[common, *all_caps, cls_arg], help="per-m omega/omega*/2^m table as CSV")
    sp.add_argument("--m-max", type=int, default=None, help="horizon for both engines (default 4 clique / 3 LP)")

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # argparse up to Python 3.12 reads `--flag=--` as [] and skips the type;
    # 3.13 reads it as the text '--' (and a typed flag's type refuses it).
    # Both are refused, except in CLASS: `-- --` names a class file `--`
    bare = next((name for name, value in vars(args).items() if value in ([], "--") and name != "cls"), None)
    if bare is not None:
        print(f"error: --{bare.replace('_', '-')} needs a value, got '--'", file=sys.stderr)
        return 2
    try:
        cls = _load_class(args.cls) if "cls" in args else None
        code, body = HANDLERS[args.command](args, cls)
    except (ResourceLimitError, MemoryError) as exc:  # MemoryError: say, a huge --trials
        print(exc if isinstance(exc, ResourceLimitError) else f"resource limit (memory): {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        # an internal check failed: a bug, reported like a failed verification
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (CliquedimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = f"# seed={args.seed}\n{body}"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif sys.stdout is None:
        # Python starts with sys.stdout None when fd 1 is not open at all
        print("error: stdout is not open", file=sys.stderr)
        return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: what is still buffered goes to devnull at exit
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            print("error: stdout closed before the output was written", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
