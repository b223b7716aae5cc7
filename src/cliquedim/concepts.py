"""Finite concept classes over an abstract point universe.

A universe is the index set {0, .., n-1}.  A hypothesis is a full binary
labeling of the universe, stored as a tuple of 0/1 ints (one bit per point).
A concept class is a canonical set of such rows: sorted lexicographically,
pairwise distinct.  A dataset is a canonical multiset of labeled examples,
sorted by (point, label), and is rejected at construction if it contains both
labels for the same point.

Bitmask helpers: a labeling (full or partial) is split into a `ones` mask and
a `zeros` mask over points.  A hypothesis row with mask r (bit p set iff the
row labels p with 1) is consistent with a dataset iff the dataset's ones fit
inside r and its zeros avoid r.
"""

from __future__ import annotations

import math
import random
import re
from typing import Iterable, NamedTuple, Sequence

from .errors import ContradictoryDatasetError, EmptyClassError, InvalidParamsError

Point = int
Label = int
HypothesisPattern = tuple  # tuple[int, ...] of 0/1, one entry per point


class LabeledExample(NamedTuple):
    point: Point
    label: Label


def _check_label(label: int) -> int:
    if label not in (0, 1):
        raise InvalidParamsError(f"label must be 0 or 1, got {label!r}")
    return label


class Dataset:
    """Canonical multiset of labeled examples.

    Equality/hash/order follow the canonical tuple, so any two multisets with
    the same multiplicities compare equal regardless of input order.
    """

    __slots__ = ("examples", "ones_mask", "zeros_mask")

    def __init__(self, examples: Iterable[tuple]):
        pairs = sorted((int(p), _check_label(int(l))) for p, l in examples)
        ones = 0
        zeros = 0
        for p, l in pairs:
            if p < 0:
                raise InvalidParamsError(f"negative point index {p}")
            try:
                bit = 1 << p
            except OverflowError:
                raise InvalidParamsError(
                    f"point index of {p.bit_length()} bits is too large"
                ) from None
            if l:
                ones |= bit
            else:
                zeros |= bit
        conflict = ones & zeros
        if conflict:
            raise ContradictoryDatasetError((conflict & -conflict).bit_length() - 1)
        self.examples = tuple(LabeledExample(p, l) for p, l in pairs)
        self.ones_mask = ones
        self.zeros_mask = zeros

    @classmethod
    def from_canonical(cls, examples: tuple, ones_mask: int, zeros_mask: int) -> "Dataset":
        """A dataset from parts that are already canonical, for builders that
        enumerate datasets in order and must not pay for `Dataset(...)` again.

        Contract: `examples` is a tuple of `LabeledExample`s sorted by
        (point, label) with points >= 0 and labels 0 or 1, and `ones_mask` /
        `zeros_mask` have bit p set iff some example is (p, 1) / (p, 0).
        The result then equals `Dataset(examples)` in value, hash and masks.
        The contract is the caller's to keep; the one check made is the O(1)
        conflict test, which raises ContradictoryDatasetError as the full
        constructor would.
        """
        conflict = ones_mask & zeros_mask
        if conflict:
            raise ContradictoryDatasetError((conflict & -conflict).bit_length() - 1)
        ds = object.__new__(cls)
        ds.examples = examples
        ds.ones_mask = ones_mask
        ds.zeros_mask = zeros_mask
        return ds

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self.examples == other.examples

    def __lt__(self, other: "Dataset") -> bool:
        return self.examples < other.examples

    def __hash__(self) -> int:
        return hash(self.examples)

    def __repr__(self) -> str:
        return f"Dataset({list(self.examples)!r})"

    def render(self) -> str:
        """Text form used by edge lists and reports: (p:l);(p:l);..."""
        return ";".join(f"({p}:{l})" for p, l in self.examples)


_EXAMPLE_RE = re.compile(r"\(([0-9]+):([01])\)")


def _parse_example(part: str) -> tuple:
    m = _EXAMPLE_RE.fullmatch(part.strip())
    try:
        if m:
            return int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than int() reads
        pass
    raise InvalidParamsError(f"bad example rendering: {part!r}")


def parse_dataset(text: str) -> Dataset:
    """Inverse of Dataset.render."""
    text = text.strip()
    if not text:
        return Dataset(())
    return Dataset([_parse_example(part) for part in text.split(";")])


class ConceptClass:
    """Canonical finite concept class.

    `hypotheses` is a tuple of rows (each a tuple of 0/1 of length
    `universe_size`), sorted lexicographically and pairwise distinct.  The
    empty class (no rows) is a legal value, as a class file declaring
    `hypotheses 0` reads, but graph/dimension operations reject it through
    `require_nonempty`.
    """

    __slots__ = ("universe_size", "hypotheses", "row_masks", "point_masks")

    def __init__(self, universe_size: int, hypotheses: Iterable[Sequence[int]]):
        if universe_size < 0:
            raise InvalidParamsError("universe_size must be >= 0")
        rows = sorted({tuple(int(b) for b in row) for row in hypotheses})
        for row in rows:
            if len(row) != universe_size:
                raise InvalidParamsError(
                    f"row length {len(row)} != universe size {universe_size}"
                )
            if any(b not in (0, 1) for b in row):
                raise InvalidParamsError(f"row entries must be 0/1: {row!r}")
        self.universe_size = universe_size
        self.hypotheses = tuple(rows)
        # bit p of row_masks[i] = hypotheses[i][p]
        self.row_masks = tuple(
            sum(b << p for p, b in enumerate(row)) for row in rows
        )
        # bit i of point_masks[p] = hypotheses[i][p], read from a column's
        # binary digits so the cost stays linear in the row count
        digits = bytes.maketrans(b"\0\1", b"01")
        self.point_masks = tuple(
            int(bytes(column).translate(digits), 2) for column in zip(*reversed(rows))
        ) if rows else (0,) * universe_size

    @property
    def is_empty(self) -> bool:
        return not self.hypotheses

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConceptClass)
            and self.universe_size == other.universe_size
            and self.hypotheses == other.hypotheses
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.hypotheses))

    def __repr__(self) -> str:
        return f"ConceptClass(n={self.universe_size}, rows={len(self.hypotheses)})"

    def require_nonempty(self) -> "ConceptClass":
        if self.is_empty:
            raise EmptyClassError("operation requires at least one hypothesis")
        return self


def pattern_to_mask(pattern: Sequence[int]) -> int:
    return sum(int(b) << p for p, b in enumerate(pattern))


def mask_to_pattern(mask: int, universe_size: int) -> HypothesisPattern:
    return tuple((mask >> p) & 1 for p in range(universe_size))


def is_consistent(pattern: Sequence[int], dataset: Dataset) -> bool:
    """True iff the full labeling agrees with every example of the dataset."""
    return _mask_consistent(pattern_to_mask(pattern), dataset)


def _mask_consistent(row_mask: int, dataset: Dataset) -> bool:
    return (dataset.ones_mask & ~row_mask) == 0 and (dataset.zeros_mask & row_mask) == 0


def is_realizable(cls: ConceptClass, dataset: Dataset) -> bool:
    """True iff some hypothesis of the class is consistent with the dataset."""
    if dataset.examples:
        top = dataset.examples[-1].point
        if top >= cls.universe_size:
            raise InvalidParamsError(
                f"dataset point {top} outside universe of size {cls.universe_size}"
            )
    return any(_mask_consistent(r, dataset) for r in cls.row_masks)


# ─── generators ──────────────────────────────────────────────────────────

# The 8-row class over 4 points used as the running worked example: its
# online mistake-bound dimension is 2 while an 8-clique of pairwise
# contradicting 3-example datasets exists, so the clique dimension is 3.
_GAP_EXAMPLE_ROWS = (
    (0, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 1, 1),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (1, 1, 1, 0),
    (1, 1, 1, 1),
    (1, 1, 0, 1),
)

# For each row above, the three coordinates whose labeled examples form the
# published 8-clique witness in the m=3 contradiction graph (0-based).
_GAP_EXAMPLE_CLIQUE_COORDS = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
)


def example_red_clique_datasets() -> tuple:
    """The eight 3-example datasets forming the published clique witness for
    the `paper_example_sec6` family.  Dataset i takes row i's labels at the
    marked coordinates, so each is realizable by its own row."""
    out = []
    for row, coords in zip(_GAP_EXAMPLE_ROWS, _GAP_EXAMPLE_CLIQUE_COORDS):
        out.append(Dataset((c, row[c]) for c in coords))
    return tuple(out)


def _gen_thresholds(universe: int, count: int, seed: int) -> ConceptClass:
    """Rows 1^k 0^(n-k) for k = 0..n; n+1 hypotheses."""
    rows = [tuple(1 if p < k else 0 for p in range(universe)) for k in range(universe + 1)]
    return ConceptClass(universe, rows)


def _gen_parities(universe: int, count: int, seed: int) -> ConceptClass:
    """Points read as bit-vectors (point p = binary of p); one hypothesis per
    parity mask w: h_w(p) = popcount(w & p) mod 2.  Duplicate rows collapse."""
    bits = max(1, (universe - 1).bit_length())
    rows = []
    for w in range(1 << bits):
        rows.append(tuple(bin(w & p).count("1") & 1 for p in range(universe)))
    return ConceptClass(universe, rows)


def _gen_random(universe: int, count: int, seed: int) -> ConceptClass:
    if not 1 <= count <= (1 << universe):
        raise InvalidParamsError(
            f"random: count must be in 1..2^{universe} = {1 << universe}"
        )
    rng = random.Random(seed)
    rows = set()
    while len(rows) < count:
        rows.add(tuple(rng.randint(0, 1) for _ in range(universe)))
    return ConceptClass(universe, rows)


# family -> (generator of (universe, count, seed), largest universe), in the
# order `gen` lists them.  `generate` refuses a universe outside
# 1..largest; paper_example_sec6 (None) has its own 4 points.  disjoint_pairs
# is {all-zeros, all-ones}: its m=1 contradiction graph is `universe`
# disjoint edges.
_GENERATORS = {
    "full": (lambda n, count, seed: ConceptClass(n, [mask_to_pattern(m, n) for m in range(1 << n)]), 20),
    "singleton": (lambda n, count, seed: ConceptClass(n, [(0,) * n]), math.inf),
    "thresholds": (_gen_thresholds, math.inf),
    "parities": (_gen_parities, math.inf),
    "paper_example_sec6": (lambda n, count, seed: ConceptClass(4, _GAP_EXAMPLE_ROWS), None),
    "random": (_gen_random, 20),
    "disjoint_pairs": (lambda n, count, seed: ConceptClass(n, [(0,) * n, (1,) * n]), math.inf),
}
FAMILIES = tuple(_GENERATORS)


def generate(family: str, universe: int = 2, count: int = 4, seed: int = 0) -> ConceptClass:
    """Deterministic family generators.

    `universe` is ignored by paper_example_sec6 (fixed at 4 points); `count`
    and `seed` apply to `random` only.
    """
    if family not in FAMILIES:
        raise InvalidParamsError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    make, largest = _GENERATORS[family]
    if largest is not None and not 1 <= universe <= largest:
        bound = ">= 1" if largest == math.inf else f"in 1..{largest}"
        raise InvalidParamsError(f"{family}: universe size must be {bound}")
    return make(universe, count, seed)


# ─── text format ─────────────────────────────────────────────────────────


def format_class_text(cls: ConceptClass) -> str:
    """Canonical text form:

        points <n>
        hypotheses <k>
        <k rows of n 0/1 chars>

    '#' starts a comment on read; output carries none.
    """
    lines = [f"points {cls.universe_size}", f"hypotheses {len(cls.hypotheses)}"]
    for row in cls.hypotheses:
        lines.append("".join(str(b) for b in row))
    return "\n".join(lines) + "\n"


def _header_count(line: str) -> int:
    try:
        _, count = line.split()
        if re.fullmatch("[0-9]+", count):
            return int(count)
    except ValueError:  # not two fields, or more digits than int() reads
        pass
    raise InvalidParamsError(f"bad header line: {line!r}")


def parse_class_text(text: str) -> ConceptClass:
    """Parse the format above: each header once, as its keyword and one
    integer in the digits 0-9.  Rows may come in any order; duplicates
    collapse, which is reported as an error since the declared count then
    disagrees.  With `points 0` the only row is the empty one, whose line is
    blank, so `hypotheses 1` and no row lines read as that row."""
    rows = []
    headers: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split()[0]
        if keyword in ("points", "hypotheses"):
            if keyword in headers:
                raise InvalidParamsError(f"repeated {keyword!r} header")
            headers[keyword] = _header_count(line)
        else:
            if not re.fullmatch(r"[01]+", line):
                raise InvalidParamsError(f"bad hypothesis row: {line!r}")
            rows.append(tuple(int(c) for c in line))
    n_points = headers.get("points")
    n_hyp = headers.get("hypotheses")
    if n_points is None or n_hyp is None:
        raise InvalidParamsError("missing 'points <n>' or 'hypotheses <k>' header")
    if n_points == 0 and n_hyp == 1 and not rows:
        rows = [()]  # the one empty hypothesis writes an empty row line
    if len(rows) != n_hyp:
        raise InvalidParamsError(f"declared {n_hyp} hypotheses, found {len(rows)} rows")
    cls = ConceptClass(n_points, rows)
    if len(cls.hypotheses) != n_hyp:
        raise InvalidParamsError("duplicate hypothesis rows in input")
    return cls
