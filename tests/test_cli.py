"""End-to-end command-line checks: formats, round-trips, exit codes."""

import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cliquedim import (
    Caps,
    ConceptClass,
    clear_caches,
    format_class_text,
    generate,
    littlestone_witness,
    parse_class_text,
    parse_certificate,
    serialize_tree,
    smallest_separating_m0,
)
from cliquedim.cli import corpus, main
from cliquedim.trees import max_depth, parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_class(tmp_path, name="cls.txt", family="paper_example_sec6", universe=4):
    from cliquedim import format_class_text

    path = tmp_path / name
    path.write_text(format_class_text(generate(family, universe=universe)))
    return str(path)


# the four commands that draw from a seed; the other eleven are deterministic
SEEDED = ("gen", "boost", "verify-lemmas", "verify-dichotomy")


def command_argvs(tmp_path) -> dict:
    """One argv per subcommand that exits 0 on the class of paper_example_sec6."""
    path = write_class(tmp_path)
    tree = tmp_path / "witness.tree"
    tree.write_text(serialize_tree(littlestone_witness(generate("paper_example_sec6"))))
    return {
        "gen": ("gen", "full", "--universe", "2"),
        "graph": ("graph", path, "--m", "1"),
        "omega": ("omega", path, "--m", "1"),
        "omega-star": ("omega-star", path, "--m", "1"),
        "vc": ("vc", path),
        "ld": ("ld", path),
        "cd": ("cd", path),
        "cd-star": ("cd-star", path),
        "balanced": ("balanced", path, "--m", "2"),
        "tree-from-clique": ("tree-from-clique", path, "--m", "2"),
        "clique-from-tree": ("clique-from-tree", path, "--tree", str(tree)),
        "boost": ("boost", path, "--trials", "10"),
        "verify-lemmas": ("verify-lemmas",),
        "verify-dichotomy": ("verify-dichotomy",),
        "curves": ("curves", path, "--m-max", "1"),
    }


def test_every_command_emits_seed_header(capsys, tmp_path):
    for argv in command_argvs(tmp_path).values():
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.startswith("# seed=0\n"), argv


def test_seed_is_echoed(capsys):
    _, out, _ = run(capsys, "gen", "full", "--universe", "2", "--seed", "17")
    assert out.startswith("# seed=17\n")


def test_only_the_seeded_commands_take_seed(capsys, tmp_path):
    argvs = command_argvs(tmp_path)
    deterministic = sorted(set(argvs) - set(SEEDED))
    assert len(deterministic) == 11
    for command in deterministic:
        with pytest.raises(SystemExit) as exc:
            main([*argvs[command], "--seed", "1"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err, command
        code, out, err = run(capsys, *argvs[command])
        assert code == 0, (command, err)
        assert out.startswith("# seed=0\n"), command


def test_gen_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "gen", "thresholds", "--universe", "3")
    assert code == 0
    assert parse_class_text(out) == generate("thresholds", universe=3)


def test_gen_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "gen", "random", "--universe", "4", "--count", "5", "--seed", "3")
    _, b, _ = run(capsys, "gen", "random", "--universe", "4", "--count", "5", "--seed", "3")
    assert a == b


def test_stdin_dash_reads_class(capsys, monkeypatch):
    from cliquedim import format_class_text

    text = format_class_text(generate("full", universe=2))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "vc", "-")
    assert code == 0
    assert out.splitlines()[-1] == "vc=2"


def test_omega_frozen_line(capsys, tmp_path):
    path = write_class(tmp_path)
    _, out, _ = run(capsys, "omega", path, "--m", "3")
    assert out.splitlines()[-1] == "omega=8"


def test_omega_verbose_members_validate(capsys, tmp_path):
    path = write_class(tmp_path, family="full", universe=2)
    code, out, _ = run(capsys, "omega", path, "--m", "2", "--verbose")
    lines = out.splitlines()
    assert any(l.startswith("omega=4") for l in lines)
    assert sum(1 for l in lines if l.startswith("v ")) == 4


def test_omega_star_plain_and_verbose(capsys, tmp_path):
    path = write_class(tmp_path, family="singleton", universe=2)
    _, out, _ = run(capsys, "omega-star", path, "--m", "1")
    assert out.splitlines()[-1] == "1/1"
    _, verbose, _ = run(capsys, "omega-star", path, "--m", "1", "--verbose")
    cert = parse_certificate(verbose)
    assert cert.value == 1


def test_dimension_lines(capsys, tmp_path):
    path = write_class(tmp_path)
    _, out, _ = run(capsys, "vc", path)
    assert out.splitlines()[-1] == "vc=2"
    _, out, _ = run(capsys, "ld", path)
    assert out.splitlines()[-1] == "ld=2"
    _, out, _ = run(capsys, "cd", path)
    assert out.splitlines()[-1] == "cd=3 exact"
    _, out, _ = run(capsys, "cd-star", path)
    assert out.splitlines()[-1] == "cd_star=3 exact"


def test_graph_output_matches_library(capsys, tmp_path):
    path = write_class(tmp_path, family="disjoint_pairs", universe=2)
    _, out, _ = run(capsys, "graph", path, "--m", "2")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "p 6 7"


def test_graph_fingerprint_is_stable(capsys, tmp_path):
    path = write_class(tmp_path)
    _, a, _ = run(capsys, "graph", path, "--m", "2", "--fingerprint")
    _, b, _ = run(capsys, "graph", path, "--m", "2", "--fingerprint")
    assert a == b
    assert any(l.startswith("fingerprint ") for l in a.splitlines())


def test_ld_verbose_round_trips_to_clique(capsys, tmp_path):
    path = write_class(tmp_path)
    code, out, _ = run(capsys, "ld", path, "--verbose")
    assert code == 0
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(out)
    parse_tree(out)  # the verbose output parses as a tree
    code, out2, _ = run(capsys, "clique-from-tree", path, "--tree", str(tree_file))
    assert code == 0
    last = out2.splitlines()
    assert "size=4" in last[-2]
    assert last[-1] == "members=1,2,8,9"


def test_tree_from_clique_emits_parseable_tree(capsys, tmp_path):
    path = write_class(tmp_path)
    code, out, _ = run(capsys, "tree-from-clique", path, "--m", "3")
    assert code == 0
    tree = parse_tree(out)
    assert tree is not None


def test_balanced_report_fields(capsys, tmp_path):
    path = write_class(tmp_path)
    code, out, _ = run(capsys, "balanced", path, "--m", "3")
    assert code == 0
    fields = dict(
        l.split("=", 1) for l in out.splitlines() if not l.startswith("#")
    )
    assert set(fields) == {
        "point",
        "count_zero",
        "count_one",
        "threshold",
        "clique_size",
        "iterations",
        "deletions",
        "edges_dropped",
        "surviving_edges",
    }
    assert fields["clique_size"] == "8"
    assert fields["threshold"] == "7/6"


def test_curves_csv_shape(capsys, tmp_path):
    path = write_class(tmp_path)
    code, out, _ = run(capsys, "curves", path, "--m-max", "2")
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "m,num_vertices,omega,omega_exact,omega_star_num,omega_star_den,two_pow_m"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2"]
    assert rows[0][1] == "8"  # vertices of G_1
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert any("vc=2" in c for c in comments)
    assert any("ld=2" in c for c in comments)


def test_boost_skip_when_no_separation(capsys, monkeypatch):
    from cliquedim import format_class_text

    text = format_class_text(generate("full", universe=2))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "boost", "-", "--m0", "2", "--m", "2", "--trials", "10")
    assert code == 0
    assert "SKIP no separation at m0=2" in out


def test_boost_small_run_passes(capsys, tmp_path):
    path = write_class(tmp_path, family="disjoint_pairs", universe=2)
    code, out, _ = run(
        capsys, "boost", path, "--m0", "2", "--m", "3", "--trials", "200"
    )
    assert code == 0
    assert out.splitlines()[0] == "# seed=0"
    assert "T=563" in out.splitlines()[1]
    assert "epsilon=1/4" in out.splitlines()[1]
    assert out.count(" PASS") == 8


def test_boost_solves_each_lp_and_builds_each_graph_once(capsys, monkeypatch):
    # without --m0 the anchor search on thresholds(3) reads nothing: ld = 2
    # settles m0 <= 2 and 2^3 > |H| = 4 separates m0 = 3, so only the
    # configuration solves an LP, and the Monte Carlo check reuses G_3
    import cliquedim.dimensions as dims
    import cliquedim.simplex as simplex
    from cliquedim import clear_caches, format_class_text

    solves = []
    built = []
    solve, build = simplex.solve_packing_lp, dims.build_graph
    monkeypatch.setattr(simplex, "solve_packing_lp", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(dims, "build_graph", lambda cls, m, caps: built.append(m) or build(cls, m, caps))
    monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(generate("thresholds", universe=3))))
    clear_caches()
    code, out, _ = run(capsys, "boost", "-", "--trials", "100")
    assert code == 0
    assert "m0=3 m=3" in out.splitlines()[1]
    assert len(solves) == 1
    assert built == [3]
    clear_caches()


# (cd, cd*) of every corpus class, all exact; frozen values
CORPUS_CD_LINES = {
    "singleton": (0, 0), "full-1": (1, 1), "full-2": (2, 2), "full-3": (3, 3),
    "thresholds-3": (2, 2), "thresholds-4": (2, 2), "thresholds-5": (2, 2),
    "parities-3": (2, 2), "disjoint_pairs": (1, 1), "paper_example_sec6": (3, 3),
    "random-0": (1, 1), "random-1": (1, 1), "random-2": (2, 2), "random-3": (2, 2),
    "random-4": (2, 2), "random-5": (1, 1), "random-6": (1, 1), "random-7": (2, 2),
    "random-8": (2, 2), "random-9": (2, 2),
}


def test_curves_builds_each_graph_once(capsys, monkeypatch):
    # curves counts each G_m and builds only the cores it searches, each
    # once: the full graphs are for the readers of vertices and certificates
    import cliquedim.dimensions as dims
    import cliquedim.simplex as simplex
    from cliquedim import clear_caches, format_class_text

    build_core, solve = dims.build_core, simplex.solve_packing_lp
    monkeypatch.setattr(dims, "build_graph", lambda *a: pytest.fail("built a full graph"))
    lps = {}
    for name, cls in corpus():
        built = []
        monkeypatch.setattr(dims, "build_core", lambda cls, m: built.append(m) or build_core(cls, m))
        monkeypatch.setattr(
            simplex, "solve_packing_lp",
            lambda *a, name=name: lps.setdefault(name, []).append(a) or solve(*a),
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
        clear_caches()
        code, out, _ = run(capsys, "curves", "-")
        assert code == 0
        assert len(built) == len(set(built)), name
        if name == "thresholds-5":
            # G_1 and G_2 are settled by ld = 2, and G_5 is never needed:
            # 2^5 > |H| = 6
            assert sorted(built) == [3, 4]
        cd, cd_star = CORPUS_CD_LINES[name]
        assert out.splitlines()[-2:] == [f"# cd={cd} exact", f"# cd_star={cd_star} exact"], name
    clear_caches()
    # ld >= m or a maximum clique at min(2^m, |H|) settles omega*_m, and cd*
    # reads the report's values: no LP runs
    assert lps == {}


def test_curves_past_the_universe_builds_no_core(capsys, monkeypatch):
    # paper_example_sec6 has |X| = 4 and |H| = 8: every record of m >= 4
    # reads omega_m = omega*_m = 8 off the class, so curves builds the
    # cores of m <= 3 only, and a long sweep stops at the vertex cap
    import cliquedim.dimensions as dims

    build_core, built = dims.build_core, []
    monkeypatch.setattr(dims, "build_core", lambda cls, m: built.append(m) or build_core(cls, m))
    text = format_class_text(generate("paper_example_sec6"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    clear_caches()
    try:
        code, out, err = run(capsys, "curves", "-", "--m-max", "30")
        assert (code, err) == (0, "")
        # m <= ld = 2 are settled by the mistake tree, so G_3's is the one core
        assert built == [3]
        rows = out.splitlines()[2:-4]
        assert [row.split(",")[0] for row in rows] == [str(m) for m in range(1, 31)]
        for m, row in enumerate(rows[3:], start=4):
            assert row.split(",")[2:] == ["8", "true", "8", "1", str(1 << m)], row
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "curves", "-", "--m-max", "1000")
        refused = "resource limit (vertex-cap): more than 1000000 realizable datasets at m=90\n"
        assert (code, out, err) == (3, "", refused)
    finally:
        clear_caches()


def test_curves_of_paper_example_reads_the_reports_values(capsys, monkeypatch):
    # the report settles omega_1..4 and omega*_1..3 (m <= ld = 2 by the
    # mistake tree, omega_3 = 8 at the ceiling), and cd and cd* read them
    import cliquedim.dimensions as dims
    from cliquedim import format_class_text

    monkeypatch.setattr(dims, "has_clique_of_size", lambda *a: pytest.fail("searched"))
    monkeypatch.setattr(dims, "omega_star", lambda *a: pytest.fail("solved an LP"))
    monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(generate("paper_example_sec6"))))
    clear_caches()
    try:
        code, out, _ = run(capsys, "curves", "-")
    finally:
        clear_caches()
    assert code == 0
    assert out.splitlines()[-2:] == ["# cd=3 exact", "# cd_star=3 exact"]


def test_an_unbounded_m_max_ends_at_the_analytic_bound(tmp_path):
    # every m past floor(log2 |H|) fails, so --m-max 10^18 tries none of
    # them; a subprocess, so that a sweep up to m_max times out, not hangs
    path = write_class(tmp_path, family="disjoint_pairs", universe=2)
    script = (
        "import sys\n"
        "from cliquedim.cli import main\n"
        f"sys.exit(main(['cd', {path!r}, '--m-max', str(10**18)])"
        f" or main(['cd-star', {path!r}, '--m-max', str(10**18)]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "# seed=0\ncd=1 exact\n# seed=0\ncd_star=1 exact\n"


def test_a_closed_stdout_is_an_input_error_without_a_traceback():
    # the read end closes before the child writes; its output, about 240 kB,
    # cannot fit in a pipe's buffer either way
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "cliquedim.cli", "gen", "full", "--universe", "14"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err



def test_a_closed_pipe_is_an_input_error_in_process(capsys, monkeypatch):
    # the subprocess test above reaches the same branch out of the line trace
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["gen", "full", "--universe", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: stdout closed before the output was written\n"


def test_an_unopened_stdout_is_an_input_error(capsys, monkeypatch):
    # with fd 1 closed at start (`>&-`), Python sets sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["gen", "full", "--universe", "2"]) == 2
    assert capsys.readouterr().err == "error: stdout is not open\n"


@pytest.mark.parametrize(
    "name,expected",
    [
        ("thresholds-3", "# seed=0\n# ld=2\nn 1\nn 0\nl\nl\nn 2\nl\nl\n"),
        ("paper_example_sec6", "# seed=0\n# ld=2\nn 0\nn 1\nl\nl\nn 1\nl\nl\n"),
    ],
    ids=["thresholds-3", "paper_example_sec6"],
)
def test_ld_verbose_runs_the_recursion_once(capsys, monkeypatch, name, expected):
    # the witness reads ld and every split from one memoised decision
    import cliquedim.dimensions as dims
    from cliquedim import format_class_text

    decisions = []
    decide = dims._ld_decision
    monkeypatch.setattr(dims, "_ld_decision", lambda cls: decisions.append(cls) or decide(cls))
    monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(dict(corpus())[name])))
    code, out, _ = run(capsys, "ld", "-", "--verbose")
    assert (code, out) == (0, expected)
    assert len(decisions) == 1


def test_a_report_decides_ld_once(capsys, monkeypatch, tmp_path):
    # dimension_report hands its ld to the cd and cd* sweeps: one decision
    # per curves call and one per corpus class of verify-lemmas
    import cliquedim.dimensions as dims

    path = write_class(tmp_path)
    want = run(capsys, "curves", path), run(capsys, "verify-lemmas")
    decisions = []
    decide = dims._ld_decision
    monkeypatch.setattr(dims, "_ld_decision", lambda cls: decisions.append(cls) or decide(cls))
    clear_caches()
    assert run(capsys, "curves", path) == want[0]
    assert len(decisions) == 1
    decisions.clear()
    clear_caches()
    assert run(capsys, "verify-lemmas") == want[1]
    assert len(decisions) == len(corpus()) == len(set(map(id, decisions)))


def test_ld_of_point_functions_on_300_points(capsys, monkeypatch):
    # the zero row and the 300 unit rows: every split peels off one row, so
    # a recursion that deepens with each peeled row overflows the stack
    from cliquedim import format_class_text

    n = 300
    rows = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    text = format_class_text(ConceptClass(n, rows))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "ld", "-") == (0, "# seed=0\nld=1\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "ld", "-", "--verbose")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "# ld=1"
    assert max_depth(parse_tree(out)) == 1


def test_internal_invariant_exits_one(capsys, monkeypatch, tmp_path):
    # a solver whose dual total disagrees with its value is a bug: exit 1
    import cliquedim.simplex as simplex
    from cliquedim import clear_caches

    solve = simplex.solve_packing_lp

    def broken(n, masks):
        value, x, y = solve(n, masks)
        return value, x, [yi * 2 for yi in y]

    monkeypatch.setattr(simplex, "solve_packing_lp", broken)
    clear_caches()
    code, out, err = run(capsys, "omega-star", write_class(tmp_path), "--m", "2")
    clear_caches()
    assert code == 1 and out == ""
    assert err.startswith("internal error: strong duality mismatch") and err.count("\n") == 1


def test_a_certificate_failing_its_check_exits_one(capsys, monkeypatch, tmp_path):
    # a solver that puts all its weight on one vertex breaks a packing
    # constraint: that is a bug, not an input error
    import cliquedim.simplex as simplex

    solve = simplex.solve_packing_lp

    def lopsided(n, masks):
        value, x, y = solve(n, masks)
        return value, [value] + [0] * (n - 1), y

    monkeypatch.setattr(simplex, "solve_packing_lp", lopsided)
    clear_caches()
    code, out, err = run(capsys, "omega-star", write_class(tmp_path), "--m", "2")
    clear_caches()
    assert (code, out) == (1, "")
    assert err.startswith("internal error: LP certificate at m=2 fails its check: packing constraint violated")
    assert err.count("\n") == 1


def test_verify_lemmas_summary(capsys):
    code, out, _ = run(capsys, "verify-lemmas")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("summary: ")
    assert last.endswith("0 failures")
    assert not any(l.startswith("FAIL") for l in out.splitlines())


def test_verify_lemmas_fails_small_population_bounds_above_one(capsys, monkeypatch):
    # every corpus row passes, so only bounds that no mass can reach show
    # that a failed verdict reaches the output and exit code
    import cliquedim.boosting as boosting

    unreachable = (Fraction(3, 2),) * len(boosting.THETAS)
    monkeypatch.setattr(boosting, "_pop_bounds", lambda omega_star, m: unreachable)
    code, out, _ = run(capsys, "verify-lemmas")
    lines = out.splitlines()
    small_pop = [l for l in lines if ":small_pop_err@m=" in l]
    assert code == 1
    assert small_pop and all(l.startswith("FAIL ") for l in small_pop)
    assert any(l.startswith("FAIL singleton:small_pop_err@m=1:") for l in lines), small_pop[:3]
    assert lines[-1] == f"summary: {len(lines) - 2} checks, {len(small_pop)} failures"


def test_exit_codes(capsys, tmp_path, monkeypatch):
    # usage error from argparse
    with pytest.raises(SystemExit) as exc:
        main(["omega"])  # missing required --m
    assert exc.value.code == 2
    capsys.readouterr()

    # usage error: a flag the subcommand does not take
    path = write_class(tmp_path)
    for argv in (
        ["vc", path, "--node-budget", "5"],
        ["omega-star", path, "--m", "1", "--node-budget", "5"],
        ["omega", path, "--m", "1", "--pattern-cap", "5"],
        ["curves", path, "--verbose"],
        ["gen", "full", "--verbose"],
        ["boost", path, "--shadow"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv

    # input error: a flag that reads another flag's output, without it
    code, out, err = run(capsys, "graph", path, "--m", "1", "--prune-nonmaximal")
    assert (code, out) == (2, "")
    assert err == "error: --prune-nonmaximal prunes the --sets listing: give --sets too\n"
    code, out, _ = run(capsys, "graph", path, "--m", "1", "--prune-nonmaximal", "--sets")
    assert code == 0 and out.count("\ns ") > 0

    # input error: a negative cap
    code, _, err = run(capsys, "omega-star", path, "--m", "1", "--pattern-cap", "-1")
    assert (code, err) == (2, "error: max_pattern_universe must be >= 0, got -1\n")

    # input error: malformed class text
    bad = tmp_path / "bad.txt"
    bad.write_text("points 2\nhypotheses 1\n0\n")
    code, _, err = run(capsys, "omega", str(bad), "--m", "1")
    assert code == 2
    assert err.startswith("error:")

    # input error: a class of one hypothesis over no points
    bad.write_text("points 0\nhypotheses 1\n\n")
    code, out, err = run(capsys, "omega", str(bad), "--m", "1")
    assert (code, out, err) == (2, "", "error: universe must contain at least one point\n")

    # input error: a header is its keyword and one integer, given once
    for text in (
        "points 2\nhypothesesX 1\n01\n",
        "points 2 7\nhypotheses 1\n01\n",
        "points 3\npoints 2\nhypotheses 1\n01\n",
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "vc", str(bad))
        assert code == 2, text
        assert err.startswith("error:"), text

    # missing file
    code, _, err = run(capsys, "vc", str(tmp_path / "nope.txt"))
    assert code == 2

    # unwritable output: --out into a missing directory or onto a directory
    for out in (tmp_path / "no" / "such" / "x.txt", tmp_path):
        code, stdout, err = run(capsys, "ld", path, "--out", str(out))
        assert (code, stdout) == (2, ""), out
        assert err.startswith("error: ") and str(out) in err, out

    # resource cap
    code, _, err = run(capsys, "graph", path, "--m", "3", "--vertex-cap", "5")
    assert code == 3
    assert "resource limit" in err

    # the vertex cap on a counted G_m refuses exactly where a build would:
    # G_3 of paper_example_sec6 has 78 vertices and G_4 157; cd and cd* read
    # G_3 as their first m past ld = 2 and degrade there, the others refuse
    refused = "resource limit (vertex-cap): more than {} realizable datasets at m={}\n"
    for argv, cap, code_wanted, last, err_wanted in (
        (["curves", path], 156, 3, None, refused.format(156, 4)),
        (["curves", path], 157, 0, "# cd_star=3 exact", ""),
        (["cd", path], 77, 0, "cd>=2 lower-bound-at-m-max", ""),
        (["cd", path], 78, 0, "cd=3 exact", ""),
        (["cd-star", path], 77, 0, "cd_star>=2 lower-bound-at-m-max", ""),
        (["cd-star", path], 78, 0, "cd_star=3 exact", ""),
        (["omega-star", path, "--m", "3"], 77, 3, None, refused.format(77, 3)),
        (["omega-star", path, "--m", "3"], 78, 0, "8/1", ""),
    ):
        clear_caches()
        code, out, err = run(capsys, *argv, "--vertex-cap", str(cap))
        assert (code, err) == (code_wanted, err_wanted), (argv, cap)
        assert (out.splitlines()[-1] if out else None) == last, (argv, cap)
    clear_caches()

    # the count is refused while it runs, not once it is done: G_4 of 200
    # random rows on 20 points has 107200 vertices, and the count's table,
    # which at most triples per point, is checked after each point
    many = tmp_path / "many.txt"
    rng = random.Random(0)
    many.write_text(format_class_text(
        ConceptClass(20, [[rng.randrange(2) for _ in range(20)] for _ in range(200)])
    ))
    checked = []
    check_vertices = Caps.check_vertices

    def spy(caps, count, m):
        checked.append(count)
        check_vertices(caps, count, m)

    with mock.patch.object(Caps, "check_vertices", spy):
        code, _, err = run(capsys, "omega", str(many), "--m", "4", "--vertex-cap", "1000")
    assert (code, err) == (3, refused.format(1000, 4))
    assert checked and max(checked) <= 3 * 1000 + 2, checked
    clear_caches()

    # input error: header without its count
    monkeypatch.setattr("sys.stdin", io.StringIO("points\n"))
    code, _, err = run(capsys, "omega", "-", "--m", "1")
    assert code == 2
    assert err.startswith("error:")

    # input error: margin with a zero denominator
    code, _, err = run(capsys, "boost", path, "--gamma", "1/0", "--trials", "10")
    assert (code, err) == (2, "error: --gamma '1/0' has a zero denominator\n")

    # input error: a margin that is no number, is empty, or has more digits
    # (in its mantissa or its exponent) than Python reads names the flag
    unreadable = "error: --gamma must be a fraction such as 1/16 or a decimal such as 0.0625 of at most 4300 digits; got "
    long_decimal = "0.01" + "0" * 5000 + "1"
    long_exponent = "1e" + "9" * 5000
    for gamma, shown in (
        ("abc", "'abc'"), ("", "''"), (long_decimal, "a value of 5005 characters"),
        (long_exponent, "a value of 5002 characters"),
    ):
        started = time.perf_counter()
        code, _, err = run(capsys, "boost", path, "--gamma", gamma, "--trials", "10")
        assert (code, err) == (2, unreadable + shown + "\n"), gamma
        assert time.perf_counter() - started < 1, gamma

    # input error: a negative trial count and an anchor length below 1 name
    # their flag
    code, _, err = run(capsys, "boost", path, "--trials", "-1")
    assert (code, err) == (2, "error: trials must be >= 0, got -1\n")
    code, _, err = run(capsys, "boost", path, "--m0", "0")
    assert (code, err) == (2, "error: m0 must be >= 1, got 0\n")
    code, _, err = run(capsys, "boost", path, "--seed", "-1", "--trials", "10")
    assert (code, err) == (2, "error: seed must be >= 0, got -1\n")

    # input error: a margin so small that T is no finite 64-bit count (1e-400
    # squares to 0.0, 1e-160 gives an infinite quotient, and 1e-5000 has more
    # digits than str() of an int may print)
    for gamma in ("1e-400", "1e-160", "1e-5000"):
        code, _, err = run(capsys, "boost", path, "--gamma", gamma, "--trials", "10")
        assert (code, err) == (
            2, "error: gamma is too small: T = ceil(2 ln m / gamma^2) must be below 2^63 rounds\n"
        ), gamma

    # input error: a margin too long for str() to print is refused before
    # any draw, by its range alone
    code, _, err = run(capsys, "boost", path, "--gamma", "9e9999", "--trials", "10")
    assert (code, err) == (
        2, "error: gamma must lie in (0, epsilon/2) = (0, 1/32); got a value too long to print\n"
    )

    # input error: the same messages, at once, for exponents whose power of
    # ten would take seconds to expand (1e-10000000 took 12 s)
    too_small = "error: gamma is too small: T = ceil(2 ln m / gamma^2) must be below 2^63 rounds\n"
    too_long = "error: gamma must lie in (0, epsilon/2) = (0, 1/32); got a value too long to print\n"
    too_many_digits = (
        "error: gamma must lie in (0, epsilon/2) = (0, 1/32) with a numerator and "
        "denominator of at most 4300 digits\n"
    )
    for gamma, m, message in (
        ("1e-10000000", "2", too_small),
        ("1e-10000000", "1", too_many_digits),
        ("9e10000000", "2", too_long),
        ("-2.5e-10000000", "2", too_long),
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, "boost", path, f"--gamma={gamma}", "--m", m, "--trials", "10")
        assert (code, err) == (2, message), (gamma, m)
        assert time.perf_counter() - start < 2, (gamma, m)
    code, _, err = run(capsys, "boost", path, "--gamma=0e-10000000", "--trials", "10")
    assert (code, err) == (2, "error: gamma must lie in (0, epsilon/2) = (0, 1/32); got 0\n")

    # input error: the one-leaf tree has depth 0, and no G_0 exists
    leaf = tmp_path / "leaf.tree"
    leaf.write_text("l\n")
    code, _, err = run(capsys, "clique-from-tree", path, "--tree", str(leaf))
    assert (code, err) == (2, "error: tree has depth 0: it must query at least one point\n")

    # input error: a point outside the universe is refused before any
    # dataset is built on it
    far = tmp_path / "far.tree"
    far.write_text("n 100000000\nl\nl\n")
    code, _, err = run(capsys, "clique-from-tree", path, "--tree", str(far))
    assert (code, err) == (
        2, "error: branch [(100000000, 0)] queries a point outside the universe of 4 points\n"
    )

    # deep input: a tree file nested 3000 deep is an input error, not a crash
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("points 1\nhypotheses 2\n0\n1\n")
    deep = tmp_path / "deep.tree"
    deep.write_text("n 0\n" * 3000 + "l\n" * 3001)
    code, _, err = run(capsys, "clique-from-tree", str(tiny), "--tree", str(deep))
    assert code == 2
    assert err == "error: tree is not complete at depth m=3000\n"

    # deep input: G_1100 of a one-point class has its two constant datasets
    code, out, err = run(capsys, "omega", str(tiny), "--m", "1100")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "omega=2"


# the length flag of each fuzzed command; those with one also take the
# vertex cap, and those in FUZZ_SEARCH the node budget
FUZZ_LENGTH_FLAG = {
    "graph": "--m",
    "omega": "--m",
    "omega-star": "--m",
    "balanced": "--m",
    "tree-from-clique": "--m",
    "cd": "--m-max",
    "cd-star": "--m-max",
    "curves": "--m-max",
    "ld": None,
    "vc": None,
}
FUZZ_VERBOSE = {"graph", "omega", "omega-star", "ld"}
FUZZ_SEARCH = {"omega", "balanced", "tree-from-clique", "cd", "curves"}


@st.composite
def corrupted_class_texts(draw):
    """The text of a small class with one line dropped, duplicated or
    garbled, or one header count replaced; or kept whole, so that the
    commands also run to exit 0."""
    n = draw(st.integers(0, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), max_size=6))
    lines = format_class_text(ConceptClass(n, rows)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("keep", "drop", "duplicate", "garble", "count")))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "garble":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from("01 #x-")) + lines[i][j + 1:]
    elif kind == "count":
        k = draw(st.integers(0, 1))
        lines[k] = f"{lines[k].split()[0]} {draw(st.integers(-1, 8))}"
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    text=corrupted_class_texts(),
    command=st.sampled_from(sorted(FUZZ_LENGTH_FLAG)),
    m=st.integers(-1, 3),
    verbose=st.booleans(),
)
def test_exit_code_contract_holds_on_corrupted_class_text(text, command, m, verbose):
    argv = [command, "-"]
    if FUZZ_LENGTH_FLAG[command]:
        argv += [FUZZ_LENGTH_FLAG[command], str(m), "--vertex-cap", "300"]
    if command in FUZZ_SEARCH:
        argv += ["--node-budget", "2000"]
    verbose = verbose and command in FUZZ_VERBOSE
    if verbose:
        argv.append("--verbose")
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        clear_caches()
    assert code in (0, 2, 3), (argv, text, err.getvalue())
    if code == 0 and (command == "tree-from-clique" or (command == "ld" and verbose)):
        parse_tree(out.getvalue())
    if code == 0 and command == "omega-star" and verbose:
        cert = parse_certificate(out.getvalue())
        assert cert.value == cert.clique.size == cert.coloring.colors


@st.composite
def classes_with_corrupted_trees(draw):
    """A small nonempty class and the text of its shattered tree (the
    `ld --verbose` witness) with one line dropped, duplicated, garbled or
    given another point; or kept whole, so that the command also runs to
    exit 0."""
    n = draw(st.integers(1, 4))
    rows = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=6))
    cls = ConceptClass(n, rows)
    lines = serialize_tree(littlestone_witness(cls)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("keep", "drop", "duplicate", "garble", "point")))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "garble":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from("01 #xln-")) + lines[i][j + 1:]
    elif kind == "point":
        lines[i] = f"n {draw(st.integers(-1, n + 1))}"
    return cls, "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(case=classes_with_corrupted_trees())
def test_exit_code_contract_holds_on_corrupted_tree_text(tmp_path_factory, case):
    cls, text = case
    tree = tmp_path_factory.mktemp("tree") / "tree.txt"
    tree.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch("sys.stdin", io.StringIO(format_class_text(cls))), redirect_stdout(out), redirect_stderr(err):
            code = main(["clique-from-tree", "-", "--tree", str(tree)])
    finally:
        clear_caches()
    assert code in (0, 1, 2), (text, err.getvalue())
    if code == 0:
        assert out.getvalue().splitlines()[1] == f"size={1 << max_depth(parse_tree(text))}"
    else:
        assert err.getvalue().startswith(("error: ", "internal error: ")), err.getvalue()


# `boost --gamma` texts by kind
BOOST_GAMMAS = {
    "default": st.just(None),
    "malformed": st.text(alphabet="0123456789/.-+e x", max_size=6),
    "zero": st.sampled_from(("0", "-0", "0/7", "0.0")),
    # epsilon <= 7/16 on both classes; 1/8 is epsilon/2 of disjoint_pairs(2) at m0 = 2
    "wide": st.sampled_from(("1/8", "1/4", "1/2", "3", "-1/16")),
    "tiny": st.integers(1, 500).map(lambda k: f"1e-{k}"),
}


@st.composite
def boost_flags(draw):
    kind = draw(st.sampled_from(sorted(BOOST_GAMMAS)))
    gamma = draw(BOOST_GAMMAS[kind])
    argv = ["--m", str(draw(st.integers(-1, 5))), "--trials", str(draw(st.integers(-1, 50)))]
    m0 = draw(st.one_of(st.none(), st.integers(-1, 4)))
    if m0 is not None:
        argv.append(f"--m0={m0}")
    if gamma is not None:
        argv.append(f"--gamma={gamma}")
    return argv


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from((("disjoint_pairs", 2), ("thresholds", 3))), flags=boost_flags())
# T = 1 takes any gamma, and the header's alpha must survive gamma^2 = 0.0
@example(family=("disjoint_pairs", 2), flags=["--m", "1", "--trials", "0", "--gamma=1e-162"])
# argparse reads `--gamma=--` as [] (Python 3.10-3.12) or as the text '--'
# (3.13), without calling a type; main refuses both as a bare flag
@example(family=("disjoint_pairs", 2), flags=["--m", "0", "--trials", "0", "--gamma=--"])
def test_exit_code_contract_holds_on_fuzzed_boost_flags(family, flags):
    argv = ["boost", "-"] + flags
    out, err = io.StringIO(), io.StringIO()
    text = format_class_text(generate(family[0], universe=family[1]))
    try:
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        clear_caches()
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 1:
        assert any(l.startswith("S=") and l.endswith(" FAIL") for l in out.getvalue().splitlines()), (
            argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@pytest.mark.parametrize("argv, flag, value", [
    (["gen", "full", "--universe", "1", "--out=--"], "out", "--"),
    (["clique-from-tree", "-", "--tree=--"], "tree", "--"),
    # argparse 3.10-3.12 hand `--flag=--` over as []
    (["gen", "full", "--universe", "1", "--out=--"], "out", []),
])
def test_a_flag_given_two_dashes_needs_a_value(capsys, tmp_path, monkeypatch, argv, flag, value):
    # argparse 3.13 reads `--out=--` as the text '--': main is handed that
    # namespace, and must neither write nor read a file named `--`
    import cliquedim.cli as cli

    args = cli._build_parser().parse_args([a for a in argv if not a.endswith("=--")] + [f"--{flag}", "x"])
    setattr(args, flag, value)
    monkeypatch.setattr(cli, "_build_parser", lambda: mock.Mock(parse_args=lambda _: args))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: --{flag} needs a value, got '--'\n")
    assert not (tmp_path / "--").exists()


# sha256 of the stdout of each command at its default horizons: `cd`,
# `cd-star` and `curves` over the 20 corpus classes in corpus order, and
# `verify-dichotomy`, as produced before cd and cd* shared one sweep;
# `verify-lemmas` at seed 0 as produced by the Fraction small-population
# check, before it read one integer table per (class, m)
CORPUS_OUTPUTS_SHA256 = {
    "cd": "bc8777ce278dbe6ba2b241e8ea23a630a14be56a33f433da11624bc173236c76",
    "cd-star": "45fb10e70531af9c79a30b4991660c2d9593a447da52259bb43914698c3dbacc",
    "curves": "83d44b0c83e324495b8775e74656f5517badf81287fd5d9a10bc550992f749c1",
    "verify-dichotomy": "f78f0f1cd28c178170aa329e380ada4f6a8687b885f8b7499a917a29ce9398fa",
    "verify-lemmas": "6e64815e92b731d93348bbc34322aa4ad946cb634592f9025c91519fbddd1a64",
}


def test_corpus_dimension_outputs_are_frozen(capsys, monkeypatch):
    from cliquedim import format_class_text

    got = {}
    for command in ("cd", "cd-star", "curves"):
        digest = hashlib.sha256()
        for _, cls in corpus():
            monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
            assert main([command, "-"]) == 0
            digest.update(capsys.readouterr().out.encode())
        got[command] = digest.hexdigest()
    for command in ("verify-dichotomy", "verify-lemmas"):
        assert main([command, "--seed", "0"]) == 0
        got[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == CORPUS_OUTPUTS_SHA256


# sha256 of `ld - --verbose` stdout over the 20 corpus classes in corpus
# order, then the 200 random classes of `ld_pin_classes`, as produced by the
# ld table before ld became a bounded decision
LD_VERBOSE_SHA256 = "37aa7ab4af8be03b3411626fff409570ad7189e4e0455664c5251e2917e50b75"


def ld_pin_classes():
    yield from (cls for _, cls in corpus())
    for seed in range(200):
        universe = 1 + seed % 7
        yield generate("random", universe=universe, count=1 + seed % min(40, 1 << universe), seed=seed)


def test_ld_verbose_output_is_frozen(capsys, monkeypatch):
    from cliquedim import format_class_text

    digest = hashlib.sha256()
    for cls in ld_pin_classes():
        monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
        assert main(["ld", "-", "--verbose"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == LD_VERBOSE_SHA256


# sha256 of `omega - --m M --verbose` stdout over the 20 corpus classes in
# corpus order, then random(6,8,2) and random(6,12,1): the clique members the
# search returns, as produced by the search without the min(2^m, |H|) stop
OMEGA_VERBOSE_SHA256 = {
    1: "951cf98784203a4740ca8ad72e09917bb9720e573febe9d4cd31ff3beb8cf6f8",
    2: "80b13ab1eef74b23b20d62ea44dc56ef0e42929f5baa1c485de0d4c905df7d5a",
    3: "7f58de7da5c6b527a99dc4c6da64b1a36414558a793698a4e5d68d94da5fe87d",
}


def test_omega_verbose_members_are_frozen(capsys, monkeypatch):
    from cliquedim import format_class_text

    classes = [cls for _, cls in corpus()] + [
        generate("random", universe=6, count=8, seed=2),
        generate("random", universe=6, count=12, seed=1),
    ]
    got = {}
    for m in OMEGA_VERBOSE_SHA256:
        digest = hashlib.sha256()
        for cls in classes:
            monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
            assert main(["omega", "-", "--m", str(m), "--verbose"]) == 0
            digest.update(capsys.readouterr().out.encode())
        got[m] = digest.hexdigest()
    assert got == OMEGA_VERBOSE_SHA256


# sha256 of `boost - --seed S --trials 2000` stdout, as produced by the
# per-draw Fraction scan and the per-trial Monte Carlo loop
BOOST_REPORT_SHA256 = {
    ("disjoint_pairs", 2, 0): "a50aa0b49d46d4e8a058e7647aaa5dd45014aedbe229e337cac5cb256582c357",
    ("disjoint_pairs", 2, 5): "769aadce877aced046f267d3f634efe1a8157af9dd948d121e1ec9b20f1fe77d",
    ("paper_example_sec6", 4, 0): "5b0cf4f4969b768e5af0c501476255068c71dfc4b9d6da0570b9e318d914336c",
    ("paper_example_sec6", 4, 5): "d2913368a6ef92f433abfe955a80c99f56d3a45c17139a72536a9c6b9ec4eb9b",
}


def test_boost_report_output_is_frozen(capsys, monkeypatch):
    from cliquedim import format_class_text

    got = {}
    for family, universe, seed in BOOST_REPORT_SHA256:
        text = format_class_text(generate(family, universe=universe))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "boost", "-", "--seed", str(seed), "--trials", "2000")
        assert code == 0
        got[family, universe, seed] = hashlib.sha256(out.encode()).hexdigest()
    assert got == BOOST_REPORT_SHA256


def test_boost_m1_checks_the_proven_floor(capsys, monkeypatch):
    # one round: the bound is epsilon - 2 gamma, not m^-alpha = 1
    from cliquedim import boost_config, format_class_text

    for family, universe, floor in (
        ("disjoint_pairs", 2, "0.125"),
        ("thresholds", 3, "0.0625"),
        ("paper_example_sec6", 4, "0.03125"),
    ):
        cls = generate(family, universe=universe)
        cfg = boost_config(cls, smallest_separating_m0(cls), 1)
        assert str(float(cfg.epsilon - 2 * cfg.gamma)) == floor
        monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls)))
        code, out, _ = run(capsys, "boost", "-", "--m", "1", "--trials", "500")
        assert code == 0
        rows = out.splitlines()[2:]
        assert rows and all(r.endswith(f"bound={floor} PASS") for r in rows)


def test_boost_exits_one_when_a_dataset_fails(capsys, monkeypatch):
    # mu~ moved onto one pattern: at m = 1 every majority is that pattern,
    # so the datasets it contradicts never succeed and FAIL
    from cliquedim import cli

    real = cli.boost_config

    def point_mass(*args):
        cfg = real(*args)
        mu = dataclasses.replace(cfg.mu, patterns=cfg.mu.patterns[:1], probs=(Fraction(1),))
        return dataclasses.replace(cfg, mu=mu)

    monkeypatch.setattr(cli, "boost_config", point_mass)
    monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(generate("disjoint_pairs", universe=2))))
    code, out, _ = run(capsys, "boost", "-", "--m", "1", "--trials", "200")
    assert code == 1
    statuses = sorted(row.rsplit(" ", 1)[1] for row in out.splitlines()[2:])
    assert statuses == ["FAIL", "FAIL", "PASS", "PASS"]


def test_boost_exits_three_when_the_trials_do_not_fit_in_memory(capsys, monkeypatch):
    # 10^14 trials ask numpy for a 1.6 PB count array, which it refuses at once
    monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(generate("disjoint_pairs", universe=2))))
    code, out, err = run(capsys, "boost", "-", "--m", "2", "--trials", str(10**14))
    assert (code, out) == (3, "")
    assert err.startswith("resource limit (memory): ") and err.count("\n") == 1


def test_out_flag_writes_file(capsys, tmp_path):
    path = write_class(tmp_path, family="full", universe=2)
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "vc", path, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "vc=2"
    # the file gets exactly the bytes stdout would, header included
    for argv in [("vc", path), ("curves", path, "--m-max", "2"), ("boost", path, "--trials", "10")]:
        code, out, _ = run(capsys, *argv)
        assert out.startswith("# seed=0\n"), argv
        assert run(capsys, *argv, "--out", str(target)) == (code, "", ""), argv
        assert target.read_bytes() == out.encode("utf-8"), argv


def test_corpus_is_stable():
    names = [name for name, _ in corpus()]
    assert len(names) == 20
    assert len(set(names)) == 20
    assert corpus() == corpus()
    for _, cls in corpus():
        assert not cls.is_empty
