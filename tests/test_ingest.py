import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import filler, make_doc
from litscan.ingest import (
    STATUS_ANALYZED,
    STATUS_SKIPPED_SHORT,
    Region,
    SourceMeta,
    gate_short,
    load_manifest,
    make_document,
    normalize,
    prefix_region,
    word_count_of,
)

# alphabet exercising every normalization rule plus plain unicode, and 'İ',
# which lowercases to two characters
RAW_ALPHABET = "abcXYZİ αβ.,;0123'’-‐\n\r\t  "

raw_text = st.text(alphabet=st.sampled_from(list(RAW_ALPHABET)), max_size=300)


def test_dehyphenated_line_break_joins_as_space():
    normalized, omap = normalize("Mann-\nWhitney")
    assert normalized == "mann whitney"
    # the 'w' links back to its raw position
    assert omap[normalized.index("w")] == 6
    # the joining space derives from the hyphen that started the run
    assert omap[normalized.index(" ")] == 4


def test_empty_input():
    assert normalize("") == ("", ())


def test_apostrophe_whitespace_hyphen_rules():
    # hand-applied rules: drop apostrophe, collapse run, lowercase, hyphen to space
    normalized, _ = normalize("Student's   t-test")
    assert normalized == "students t test"


def test_hyphen_runs_never_leave_double_spaces():
    normalized, _ = normalize("t - test")
    assert normalized == "t test"


def test_typographic_apostrophe_removed():
    assert normalize("Student’s")[0] == "students"


@given(raw_text)
def test_normalize_idempotent(raw):
    normalized, _ = normalize(raw)
    again, omap = normalize(normalized)
    assert again == normalized
    assert omap == tuple(range(len(normalized)))


@given(raw_text)
def test_normalized_shape_invariants(raw):
    normalized, omap = normalize(raw)
    assert "\n" not in normalized and "\r" not in normalized and "\t" not in normalized
    assert "  " not in normalized
    assert len(omap) == len(normalized)
    assert all(b >= a for a, b in zip(omap, omap[1:]))
    assert all(0 <= i < len(raw) for i in omap)


@given(raw_text)
def test_offset_map_consistent_with_source(raw):
    normalized, omap = normalize(raw)
    for i, ch in enumerate(normalized):
        src = raw[omap[i]]
        if ch == " ":
            assert src.isspace() or src in "-‐‑"
        else:
            assert ch in src.lower()


@given(raw_text)
def test_word_count_is_nonspace_run_count(raw):
    normalized, _ = normalize(raw)
    runs = sum(1 for part in normalized.split(" ") if part)
    assert word_count_of(normalized) == runs


def test_gate_short_boundary():
    for count, status in ((3999, STATUS_SKIPPED_SHORT), (4000, STATUS_ANALYZED), (0, STATUS_SKIPPED_SHORT)):
        doc = make_doc(" ".join(filler(count)))
        assert doc.word_count == count
        assert gate_short(doc).status == status


def test_gate_short_keeps_text_untouched():
    doc = make_doc("tiny text")
    gated = gate_short(doc)
    assert gated.status == STATUS_SKIPPED_SHORT
    assert (gated.raw, gated.normalized, gated.offset_map) == (doc.raw, doc.normalized, doc.offset_map)


def test_prefix_region_arithmetic():
    doc = make_doc("a" * 10_000)
    assert prefix_region(doc, 0.05) == Region(0, 500)
    assert prefix_region(make_doc(""), 0.05) == Region(0, 0)
    doc = make_doc("a" * 8_123)
    assert prefix_region(doc, 0.05) == Region(0, 406)
    assert 406 == math.floor(0.05 * 8123)


def test_prefix_region_full_fraction_spans_everything():
    doc = make_doc("some words " * 40)
    assert prefix_region(doc, 1.0) == Region(0, len(doc.normalized))


@pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
def test_prefix_region_rejects_bad_fraction(fraction):
    with pytest.raises(ValueError):
        prefix_region(make_doc("abc"), fraction)


def test_load_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "texts").mkdir()
    (tmp_path / "texts" / "p1.txt").write_text("hello", encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "paper_id,journal,year,path\np1,EMSE,2015,texts/p1.txt\n", encoding="utf-8"
    )
    metas = load_manifest(manifest)
    assert metas == [SourceMeta("p1", "EMSE", 2015, str(tmp_path / "texts" / "p1.txt"))]


def test_load_manifest_rejects_bad_rows(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "paper_id,journal,year,path\n"
        "p1,EMSE,2015,a.txt\n"
        "p1,EMSE,2016,b.txt\n"
        "p2,EMSE,1850,c.txt\n"
        "p3,EMSE,notayear,d.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    message = str(err.value)
    assert "duplicate" in message and "1850" in message and "notayear" in message


def test_make_document_counts_words():
    doc = make_document(SourceMeta("x", "J", 2000, ""), "One two\nthree-four")
    assert doc.normalized == "one two three four"
    assert doc.word_count == 4
    assert doc.status == STATUS_ANALYZED
