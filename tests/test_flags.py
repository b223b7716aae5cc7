"""No CLI option without a reader, checked with the standard library only.

Every argument a subcommand's parser defines must be read as `args.<dest>`
by that subcommand's handler, by a helper the handler calls (`_caps`,
`_header`), or by `main`.  A flag nobody reads would be accepted and then
silently ignored.
"""

import argparse
import ast
import importlib.util
import inspect
import textwrap

from cliquedim import cli

HELPERS = ("_caps", "_header")


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


def unread_flag_findings(module) -> list:
    """'<command> <flag>' for every argument no reader of its subcommand reads."""
    shared = _args_reads(module.main)
    helper_reads = {name: _args_reads(getattr(module, name)) for name in HELPERS}
    parser = module._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    findings = []
    for command, sp in sub.choices.items():
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
        "def _header(args):\n"
        "    return args.seed\n"
        "\n"
        "def _cmd_a(args):\n"
        "    return _header(args), args.cls\n"
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
        "    return HANDLERS[args.command](args), args.out\n"
    )
    spec = importlib.util.spec_from_file_location("badcli", bad)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unread_flag_findings(module) == ["a --budget", "a --verbose", "b --seed"]
