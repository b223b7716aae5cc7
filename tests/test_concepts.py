"""Dataset and concept-class invariants, generators, and text round-trips."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cliquedim import (
    ConceptClass,
    ContradictoryDatasetError,
    Dataset,
    EmptyClassError,
    InvalidParamsError,
    LabeledExample,
    example_red_clique_datasets,
    format_class_text,
    generate,
    is_consistent,
    is_realizable,
    mask_to_pattern,
    parse_class_text,
    parse_dataset,
    pattern_to_mask,
)
from cliquedim.concepts import FAMILIES


# ─── datasets ──────────────────────────────────────────────────────────────


def test_dataset_canonical_order():
    d = Dataset([(2, 1), (0, 0), (1, 1)])
    assert d.examples == ((0, 0), (1, 1), (2, 1))
    assert len(d) == 3


def test_dataset_equality_ignores_input_order():
    assert Dataset([(1, 0), (0, 1)]) == Dataset([(0, 1), (1, 0)])
    assert hash(Dataset([(1, 0), (0, 1)])) == hash(Dataset([(0, 1), (1, 0)]))


def test_dataset_keeps_multiplicity():
    d = Dataset([(0, 1), (0, 1)])
    assert len(d) == 2
    assert d != Dataset([(0, 1)])


def test_dataset_masks():
    d = Dataset([(0, 0), (2, 1), (3, 1)])
    assert d.zeros_mask == 0b0001
    assert d.ones_mask == 0b1100


def test_contradictory_dataset_rejected():
    with pytest.raises(ContradictoryDatasetError):
        Dataset([(0, 0), (1, 1), (0, 1)])


def test_from_canonical_equals_the_full_constructor():
    examples = (LabeledExample(0, 0), LabeledExample(2, 1), LabeledExample(2, 1))
    d = Dataset.from_canonical(examples, 0b100, 0b001)
    full = Dataset(examples)
    assert d == full and hash(d) == hash(full)
    assert (d.ones_mask, d.zeros_mask) == (full.ones_mask, full.zeros_mask)
    assert d.examples is examples


def test_from_canonical_refuses_a_conflicting_example_list():
    examples = (LabeledExample(1, 0), LabeledExample(1, 1), LabeledExample(3, 0))
    with pytest.raises(ContradictoryDatasetError) as info:
        Dataset.from_canonical(examples, 0b0010, 0b1010)
    assert info.value.point == 1


OPTIMIZED_CANONICAL_PROBE = """
assert False, "asserts must be stripped in this process"
from cliquedim.concepts import Dataset, LabeledExample
from cliquedim.errors import ContradictoryDatasetError
try:
    Dataset.from_canonical((LabeledExample(2, 0), LabeledExample(2, 1)), 0b100, 0b100)
except ContradictoryDatasetError as exc:
    print("raised:", exc)
"""


def test_from_canonical_conflict_check_survives_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CANONICAL_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: dataset contains both labels for point 2\n"


def test_dataset_rejects_bad_labels_and_points():
    with pytest.raises(InvalidParamsError):
        Dataset([(0, 2)])
    with pytest.raises(InvalidParamsError):
        Dataset([(-1, 0)])


def test_dataset_render_parse_round_trip():
    d = Dataset([(0, 0), (2, 1), (2, 1)])
    assert d.render() == "(0:0);(2:1);(2:1)"
    assert parse_dataset(d.render()) == d
    assert parse_dataset("") == Dataset(())


def test_parse_dataset_rejects_garbage():
    with pytest.raises(InvalidParamsError):
        parse_dataset("(0:0);(1-1)")


@pytest.mark.parametrize(
    "text",
    ["(٣:1)", "(+3:1)", "(3_0:1)", "(0:1);(²:0)",
     pytest.param("(0:0);(" + "7" * 5000 + ":1)", id="more-digits-than-int-reads")],
)
def test_parse_dataset_reads_ascii_digits_only(text):
    part = text.split(";")[-1]
    with pytest.raises(InvalidParamsError, match=f"^bad example rendering: {re.escape(repr(part))}$"):
        parse_dataset(text)


def test_a_point_too_large_to_shift_is_an_input_error():
    # 1 << p raises OverflowError once p exceeds a C ssize_t
    with pytest.raises(InvalidParamsError, match="^point index of 67 bits is too large$"):
        parse_dataset("(99999999999999999999:1)")


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1)),
        min_size=0,
        max_size=8,
    )
)
def test_dataset_order_invariance(pairs):
    # force label consistency per point so construction never raises
    label = {p: l for p, l in pairs}
    fixed = [(p, label[p]) for p, _ in pairs]
    assert Dataset(fixed) == Dataset(list(reversed(fixed)))


# ─── concept classes ───────────────────────────────────────────────────────


def test_class_rows_sorted_and_deduped():
    cls = ConceptClass(2, [(1, 0), (0, 1), (1, 0)])
    assert cls.hypotheses == ((0, 1), (1, 0))
    assert cls.row_masks == (0b10, 0b01)
    assert cls.point_masks == (0b10, 0b01)  # bit i: row i has a 1 there


def test_class_rejects_bad_rows():
    with pytest.raises(InvalidParamsError):
        ConceptClass(2, [(1, 0, 1)])
    with pytest.raises(InvalidParamsError):
        ConceptClass(2, [(1, 2)])
    with pytest.raises(InvalidParamsError):
        ConceptClass(-1, [])


def test_empty_class_is_legal_but_guarded():
    empty = ConceptClass(2, [])
    assert empty.is_empty
    with pytest.raises(EmptyClassError):
        empty.require_nonempty()


def test_pattern_mask_round_trip():
    for mask in range(16):
        assert pattern_to_mask(mask_to_pattern(mask, 4)) == mask


def test_is_consistent_direct_lookup():
    s = Dataset([(0, 1), (2, 1), (3, 1)])
    assert is_consistent((1, 0, 1, 1), s)
    assert not is_consistent((0, 0, 1, 1), s)
    assert is_consistent((1, 1, 0, 0), Dataset(()))


def test_is_realizable():
    cls = generate("paper_example_sec6")
    assert is_realizable(cls, Dataset([(0, 0), (1, 0), (2, 0)]))
    # no row starts with 1,0,0,0
    assert not is_realizable(cls, Dataset([(0, 1), (1, 0), (2, 0), (3, 0)]))
    with pytest.raises(InvalidParamsError, match="^dataset point 4 outside universe of size 4$"):
        is_realizable(cls, Dataset([(0, 0), (4, 1)]))


# ─── generators ────────────────────────────────────────────────────────────


def test_family_list_is_stable():
    assert set(FAMILIES) == {
        "full",
        "singleton",
        "thresholds",
        "parities",
        "disjoint_pairs",
        "random",
        "paper_example_sec6",
    }
    # `gen` lists the families in this order in its help and its errors
    assert FAMILIES == (
        "full", "singleton", "thresholds", "parities", "paper_example_sec6", "random", "disjoint_pairs",
    )


def test_generate_full():
    cls = generate("full", universe=2)
    assert len(cls) == 4
    assert cls.universe_size == 2


def test_generate_singleton():
    assert generate("singleton", universe=3).hypotheses == ((0, 0, 0),)


def test_generate_thresholds():
    cls = generate("thresholds", universe=3)
    assert cls.hypotheses == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_generate_parities_are_distinct_and_balanced():
    cls = generate("parities", universe=3)
    assert len(cls) == len(set(cls.hypotheses))
    assert cls.universe_size == 3


def test_generate_disjoint_pairs():
    cls = generate("disjoint_pairs", universe=2)
    assert cls.hypotheses == ((0, 0), (1, 1))


def test_generate_random_is_seeded():
    a = generate("random", universe=4, count=5, seed=7)
    b = generate("random", universe=4, count=5, seed=7)
    assert a == b
    assert 1 <= len(a) <= 5
    assert a.universe_size == 4


def test_generate_example_class_rows():
    cls = generate("paper_example_sec6")
    assert cls.universe_size == 4
    assert len(cls) == 8


def test_generate_rejects_unknown_family():
    with pytest.raises(InvalidParamsError):
        generate("nope")


@pytest.mark.parametrize(
    "family, universe, count, message",
    [
        ("full", 0, 4, r"^full: universe size must be in 1\.\.20$"),
        ("full", 21, 4, r"^full: universe size must be in 1\.\.20$"),
        ("singleton", 0, 4, "^singleton: universe size must be >= 1$"),
        ("thresholds", 0, 4, "^thresholds: universe size must be >= 1$"),
        ("parities", 0, 4, "^parities: universe size must be >= 1$"),
        ("disjoint_pairs", 0, 4, "^disjoint_pairs: universe size must be >= 1$"),
        ("random", 21, 4, r"^random: universe size must be in 1\.\.20$"),
        ("random", 3, 0, r"^random: count must be in 1\.\.2\^3 = 8$"),
        ("random", 3, 9, r"^random: count must be in 1\.\.2\^3 = 8$"),
    ],
)
def test_generate_refuses_a_size_outside_the_family_range(family, universe, count, message):
    with pytest.raises(InvalidParamsError, match=message):
        generate(family, universe=universe, count=count)


def test_red_clique_datasets_pairwise_contradict():
    cls = generate("paper_example_sec6")
    reds = example_red_clique_datasets()
    assert len(reds) == 8
    for d in reds:
        assert len(d) == 3
        assert is_realizable(cls, d)
    for i in range(8):
        for j in range(i + 1, 8):
            a, b = reds[i], reds[j]
            assert (a.ones_mask & b.zeros_mask) or (a.zeros_mask & b.ones_mask)


# ─── class text format ─────────────────────────────────────────────────────


def test_class_text_round_trip_all_families():
    for fam in FAMILIES:
        cls = generate(fam, universe=3, count=4, seed=1)
        assert parse_class_text(format_class_text(cls)) == cls


def test_class_text_allows_comments_and_blanks():
    text = "# header\npoints 2\nhypotheses 2\n\n01  # inline note\n# another\n10\n"
    cls = parse_class_text(text)
    assert cls.hypotheses == ((0, 1), (1, 0))


def test_class_text_rejects_duplicate_rows():
    with pytest.raises(InvalidParamsError):
        parse_class_text("points 2\nhypotheses 2\n01\n01\n")


def test_class_text_rejects_bad_width():
    with pytest.raises(InvalidParamsError):
        parse_class_text("points 2\nhypotheses 1\n011\n")


def test_class_text_rejects_missing_header():
    with pytest.raises(InvalidParamsError):
        parse_class_text("01\n10\n")


@pytest.mark.parametrize("count", ["٣", "+3", "3_0", "-1", "3.0", "²"])
def test_class_text_header_counts_are_ascii_digits(count):
    for text in (f"points {count}\nhypotheses 0\n", f"points 1\nhypotheses {count}\n0\n"):
        with pytest.raises(InvalidParamsError, match="^bad header line"):
            parse_class_text(text)


@st.composite
def small_classes(draw):
    n = draw(st.integers(0, 4))
    return ConceptClass(n, draw(st.sets(st.tuples(*[st.integers(0, 1)] * n), max_size=8)))


@given(small_classes())
def test_class_text_round_trips_random_classes(cls):
    assert parse_class_text(format_class_text(cls)) == cls


def test_zero_point_class_reads_only_its_one_empty_row():
    assert parse_class_text("points 0\nhypotheses 1\n\n") == ConceptClass(0, [()])
    assert parse_class_text("points 0\nhypotheses 0\n") == ConceptClass(0, [])
    for count in (2, 3):
        with pytest.raises(InvalidParamsError, match=f"declared {count} hypotheses, found 0 rows"):
            parse_class_text(f"points 0\nhypotheses {count}\n")


# ─── parser fuzz ───────────────────────────────────────────────────────────

# characters of the two text forms and their near misses; an edit adds at
# most six digits, so no point reaches a size whose bit mask is costly
EDIT_CHARS = "0123456789():;#+-_ \n\t٣²"


@st.composite
def edited(draw, texts):
    """A text from `texts` with up to three characters deleted, inserted or
    replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:i] + draw(st.text(EDIT_CHARS, max_size=2)) + text[i + cut :]
    return text


RENDERED_DATASETS = st.builds(
    lambda labeling, points: Dataset([(p, labeling >> p & 1) for p in points]).render(),
    st.integers(0, 63),
    st.lists(st.integers(0, 5), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.text() | edited(RENDERED_DATASETS))
@example("(0:1);(" + "9" * 4301 + ":0)")
def test_parse_dataset_returns_or_raises_value_error(text):
    """Edits keep every point below 10^7, where `Dataset`'s `1 << p` stays
    small; a point near 10^10 still parses, and its masks take gigabytes,
    so the property holds only for points of this size.  What is refused is
    refused as an input error, never as int()'s own ValueError."""
    try:
        ds = parse_dataset(text)
    except (InvalidParamsError, ContradictoryDatasetError):
        return
    assert parse_dataset(ds.render()) == ds


@settings(max_examples=300, deadline=None)
@given(st.text() | edited(small_classes().map(format_class_text)))
def test_parse_class_text_returns_or_raises_value_error(text):
    try:
        cls = parse_class_text(text)
    except ValueError:
        return
    assert parse_class_text(format_class_text(cls)) == cls
