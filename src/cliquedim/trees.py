"""Mistake trees: complete binary trees whose internal nodes query a point.

The 0-edge of a node asserts label 0 for its point, the 1-edge label 1.  A
branch (root-to-leaf path) therefore spells out a multiset of labeled
examples.  A tree of depth d is shattered by a class when every one of its
2^d branches is realizable.

Leaves may carry payload `members` (indices of surviving clique members when
the tree was extracted from a clique); the payload is ignored by format I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InvalidParamsError


@dataclass(frozen=True)
class MistakeLeaf:
    members: Optional[tuple] = None


@dataclass(frozen=True)
class MistakeNode:
    point: int
    zero: "MistakeTree"
    one: "MistakeTree"


MistakeTree = Union[MistakeLeaf, MistakeNode]


def _walk(tree: MistakeTree):
    """Every node with its root path of (point, label) pairs, in pre-order,
    0-child first, walked with an explicit stack so that no tree is too deep
    for it.  The path is one list that the walk rewrites as it moves, so a
    step costs O(1) however deep the node: copy the path to keep it."""
    path: list = []
    stack = [(tree, 0, None)]  # (node, its parent's depth, edge into it)
    while stack:
        t, cut, edge = stack.pop()
        del path[cut:]
        if edge is not None:
            path.append(edge)
        yield t, path
        if isinstance(t, MistakeNode):
            stack.append((t.one, len(path), (t.point, 1)))
            stack.append((t.zero, len(path), (t.point, 0)))


def _leaf_depths(tree: MistakeTree):
    return (len(path) for t, path in _walk(tree) if isinstance(t, MistakeLeaf))


def min_depth(tree: MistakeTree) -> int:
    return min(_leaf_depths(tree))


def max_depth(tree: MistakeTree) -> int:
    return max(_leaf_depths(tree))


def is_complete(tree: MistakeTree, depth: int) -> bool:
    """All leaves at exactly `depth`."""
    return all(d == depth for d in _leaf_depths(tree))


def branches(tree: MistakeTree) -> list:
    """All root-to-leaf paths as lists of (point, label) pairs, 0-edge first."""
    return [list(path) for t, path in _walk(tree) if isinstance(t, MistakeLeaf)]


def serialize_tree(tree: MistakeTree) -> str:
    """Pre-order text form, 0-child before 1-child:

        n <point>   internal node
        l           leaf
    """
    return "".join("l\n" if isinstance(t, MistakeLeaf) else f"n {t.point}\n" for t, _ in _walk(tree))


def _node_point(line: str) -> int:
    node = re.fullmatch(r"n\s+([0-9]+)", line)
    try:
        if node:
            return int(node.group(1))
    except ValueError:  # more digits than int() reads
        pass
    raise InvalidParamsError(f"bad tree line: {line!r}")


def parse_tree(text: str) -> MistakeTree:
    """Inverse of `serialize_tree`; a node's point is a nonnegative decimal
    integer.  Nodes are assembled bottom-up on an explicit stack, so the
    nesting depth is not limited by recursion."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line)
    # open nodes: [point, finished children so far]
    pending: list = []
    for pos, tok in enumerate(tokens):
        if tok != "l":
            pending.append([_node_point(tok), []])
            continue
        done: MistakeTree = MistakeLeaf()
        while pending:
            point, children = pending[-1]
            children.append(done)
            if len(children) < 2:
                break
            pending.pop()
            done = MistakeNode(point, children[0], children[1])
        else:
            if pos != len(tokens) - 1:
                raise InvalidParamsError("trailing tree text after the root's subtree")
            return done
    raise InvalidParamsError("truncated tree text")
