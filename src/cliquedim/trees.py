"""Mistake trees: complete binary trees whose internal nodes query a point.

The 0-edge of a node asserts label 0 for its point, the 1-edge label 1.  A
branch (root-to-leaf path) therefore spells out a multiset of labeled
examples.  A tree of depth d is shattered by a class when every one of its
2^d branches is realizable.

Leaves may carry payload `members` (indices of surviving clique members when
the tree was extracted from a clique); the payload is ignored by format I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import InvalidParamsError, InvariantError


@dataclass(frozen=True)
class MistakeLeaf:
    members: Optional[tuple] = None


@dataclass(frozen=True)
class MistakeNode:
    point: int
    zero: "MistakeTree"
    one: "MistakeTree"


MistakeTree = Union[MistakeLeaf, MistakeNode]


def min_depth(tree: MistakeTree) -> int:
    if isinstance(tree, MistakeLeaf):
        return 0
    return 1 + min(min_depth(tree.zero), min_depth(tree.one))


def max_depth(tree: MistakeTree) -> int:
    if isinstance(tree, MistakeLeaf):
        return 0
    return 1 + max(max_depth(tree.zero), max_depth(tree.one))


def is_complete(tree: MistakeTree, depth: int) -> bool:
    """All leaves at exactly `depth`."""
    if depth == 0:
        return isinstance(tree, MistakeLeaf)
    if isinstance(tree, MistakeLeaf):
        return False
    return is_complete(tree.zero, depth - 1) and is_complete(tree.one, depth - 1)


def truncate(tree: MistakeTree, depth: int) -> MistakeTree:
    """Cut the tree to a complete tree of the given depth (must not exceed
    the minimum leaf depth).  Nodes at the cut become payload-free leaves;
    original leaf payloads survive only when the cut coincides with them."""
    if depth > min_depth(tree):
        raise InvalidParamsError(
            f"cannot truncate to depth {depth}: a leaf sits at depth {min_depth(tree)}"
        )
    if depth == 0:
        return tree if isinstance(tree, MistakeLeaf) else MistakeLeaf()
    if not isinstance(tree, MistakeNode):
        raise InvariantError(f"expected an internal node above depth {depth}")
    return MistakeNode(tree.point, truncate(tree.zero, depth - 1), truncate(tree.one, depth - 1))


def branches(tree: MistakeTree) -> list:
    """All root-to-leaf paths as lists of (point, label) pairs, 0-edge first."""
    out: list[list] = []

    def walk(t: MistakeTree, path: list) -> None:
        if isinstance(t, MistakeLeaf):
            out.append(list(path))
            return
        path.append((t.point, 0))
        walk(t.zero, path)
        path.pop()
        path.append((t.point, 1))
        walk(t.one, path)
        path.pop()

    walk(tree, [])
    return out


def serialize_tree(tree: MistakeTree) -> str:
    """Pre-order text form, 0-child before 1-child:

        n <point>   internal node
        l           leaf
    """
    lines: list[str] = []

    def walk(t: MistakeTree) -> None:
        if isinstance(t, MistakeLeaf):
            lines.append("l")
        else:
            lines.append(f"n {t.point}")
            walk(t.zero)
            walk(t.one)

    walk(tree)
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> MistakeTree:
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line)
    pos = 0

    def walk() -> MistakeTree:
        nonlocal pos
        if pos >= len(tokens):
            raise InvalidParamsError("truncated tree text")
        tok = tokens[pos]
        pos += 1
        if tok == "l":
            return MistakeLeaf()
        if tok.startswith("n "):
            point = int(tok.split()[1])
            zero = walk()
            one = walk()
            return MistakeNode(point, zero, one)
        raise InvalidParamsError(f"bad tree line: {tok!r}")

    tree = walk()
    if pos != len(tokens):
        raise InvalidParamsError("trailing tree text after the root's subtree")
    return tree
