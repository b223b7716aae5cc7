"""No CLI option without a reader.

Every argument a subcommand's parser defines must be read as `args.<dest>`
by that subcommand's handler, by a helper the handler calls (`_caps`), or
by `main`.  A flag nobody reads would be accepted and then silently
ignored.  `main` only echoes the seed in the header, and a flag that is
only echoed changes nothing, so that read does not count for `--seed`.
The lint checks this with the standard library only; a spy on `Caps`
checks that the library reads every resource cap a command takes, and no
other.
"""

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import io
import sys
import textwrap

import pytest

from cliquedim import cli, clear_caches, format_class_text, generate, littlestone_witness, serialize_tree

HELPERS = ("_caps",)
# what `main` reads only to print it in the header
ECHOED = {"seed"}


def _function_tree(fn) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _args_reads(fn) -> set:
    """The attribute names `fn` reads off its `args` namespace."""
    return {
        node.attr
        for node in ast.walk(_function_tree(fn))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def _called_names(fn) -> set:
    return {
        node.func.id
        for node in ast.walk(_function_tree(fn))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def subparsers(module) -> dict:
    """The parser of each subcommand of `module._build_parser()`, by name."""
    parser = module._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def unread_flag_findings(module) -> list:
    """'<command> <flag>' for every argument no reader of its subcommand reads."""
    shared = _args_reads(module.main) - ECHOED
    helper_reads = {name: _args_reads(getattr(module, name)) for name in HELPERS}
    findings = []
    for command, sp in subparsers(module).items():
        handler = module.HANDLERS[command]
        read = shared | _args_reads(handler)
        for name in HELPERS:
            if name in _called_names(handler):
                read |= helper_reads[name]
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction) or action.dest in read:
                continue
            flag = action.option_strings[0] if action.option_strings else action.dest
            findings.append(f"{command} {flag}")
    return findings


def test_every_flag_has_a_reader():
    assert unread_flag_findings(cli) == []


def test_flag_lint_reports_unread_flags(tmp_path):
    bad = tmp_path / "badcli.py"
    bad.write_text(
        "import argparse\n"
        "\n"
        "def _caps(args):\n"
        "    return args.budget\n"
        "\n"
        "def _cmd_a(args):\n"
        "    return args.seed, args.cls\n"
        "\n"
        "def _cmd_b(args):\n"
        "    return _caps(args)\n"
        "\n"
        "HANDLERS = {'a': _cmd_a, 'b': _cmd_b}\n"
        "\n"
        "def _build_parser():\n"
        "    common = argparse.ArgumentParser(add_help=False)\n"
        "    common.add_argument('--seed', type=int, default=0)\n"
        "    common.add_argument('--budget', type=int, default=1)\n"
        "    common.add_argument('--out')\n"
        "    p = argparse.ArgumentParser()\n"
        "    sub = p.add_subparsers(dest='command')\n"
        "    sp = sub.add_parser('a', parents=[common])\n"
        "    sp.add_argument('cls')\n"
        "    sp.add_argument('--verbose', action='store_true')\n"
        "    sub.add_parser('b', parents=[common])\n"
        "    return p\n"
        "\n"
        "def main(argv=None):\n"
        "    args = _build_parser().parse_args(argv)\n"
        "    return f'# seed={args.seed}', HANDLERS[args.command](args), args.out\n"
    )
    spec = importlib.util.spec_from_file_location("badcli", bad)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unread_flag_findings(module) == ["a --budget", "a --verbose", "b --seed"]


# the Caps field each resource-cap flag sets
CAP_FLAGS = {"max_vertices": "--vertex-cap", "max_pattern_universe": "--pattern-cap", "node_budget": "--node-budget"}

# (class, argv) per subcommand, the class read from stdin and TREE the path
# of its mistake tree; together they reach every cap the command reads.
# SEC6 has ld = 2 and cd = 3, so its G_3 needs a search, and with one node
# that search runs out and cd reads omega*_3 instead.  Its curves settle
# every omega* without an LP; those of RANDOM do not, nor does the corpus
# of seed 2 in verify-dichotomy.
SEC6 = generate("paper_example_sec6")
RANDOM = generate("random", universe=5, count=8, seed=2)
SPY_INPUTS = {
    "gen": [(None, ["gen", "full"])],
    "graph": [(SEC6, ["graph", "-", "--m", "3"]), (SEC6, ["graph", "-", "--m", "3", "--sets"])],
    "omega": [(SEC6, ["omega", "-", "--m", "3"])],
    "omega-star": [(SEC6, ["omega-star", "-", "--m", "3"])],
    "vc": [(SEC6, ["vc", "-"])],
    "ld": [(SEC6, ["ld", "-"])],
    "cd": [(SEC6, ["cd", "-"]), (SEC6, ["cd", "-", "--node-budget", "1"])],
    "cd-star": [(SEC6, ["cd-star", "-"])],
    "balanced": [(SEC6, ["balanced", "-", "--m", "3"])],
    "tree-from-clique": [(SEC6, ["tree-from-clique", "-", "--m", "3"])],
    "clique-from-tree": [(SEC6, ["clique-from-tree", "-", "--tree", "TREE"])],
    "boost": [(generate("disjoint_pairs", universe=2), ["boost", "-", "--trials", "10"])],
    "verify-lemmas": [(None, ["verify-lemmas"])],
    "verify-dichotomy": [(None, ["verify-dichotomy", "--seed", "2"])],
    "curves": [(SEC6, ["curves", "-"]), (RANDOM, ["curves", "-"])],
}


def spy_caps(reads: set) -> type:
    """Caps that adds to `reads` the flag of every field the library reads.
    The validation in `__post_init__` and the copy that `dataclasses.replace`
    makes each read every field, so their reads are not counted."""

    class SpyCaps(cli.Caps):
        def __getattribute__(self, name):
            if name in CAP_FLAGS:
                caller = sys._getframe(1).f_code
                copying = caller.co_filename == dataclasses.__file__ and caller.co_name in ("replace", "_replace")
                if caller.co_name != "__post_init__" and not copying:
                    reads.add(CAP_FLAGS[name])
            return super().__getattribute__(name)

    return SpyCaps


@pytest.mark.parametrize("command", sorted(subparsers(cli)))
def test_each_command_takes_exactly_the_caps_it_reads(command, tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(serialize_tree(littlestone_witness(SEC6)))
    taken = {flag for action in subparsers(cli)[command]._actions for flag in action.option_strings}
    kept = taken & set(CAP_FLAGS.values())
    reached = set()
    for cls, argv in SPY_INPUTS[command]:
        reads = set()
        monkeypatch.setattr(cli, "Caps", spy_caps(reads))
        monkeypatch.setattr("sys.stdin", io.StringIO(format_class_text(cls) if cls else ""))
        clear_caches()
        try:
            code = cli.main([str(tree) if arg == "TREE" else arg for arg in argv])
        finally:
            clear_caches()
        assert code == 0, (argv, capsys.readouterr().err)
        assert reads <= kept, argv
        reached |= reads
    assert reached == kept
