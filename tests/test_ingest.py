import math
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filler, make_doc
from litscan.ingest import (
    _OTHER_SPACES,
    STATUS_ANALYZED,
    STATUS_SKIPPED_SHORT,
    Region,
    SourceMeta,
    gate_short,
    load_manifest,
    make_document,
    normalize,
    prefix_region,
    raw_index,
    word_count_of,
)

# hyphens, dashes and the minus sign: normalize makes each a space
DASHES = "-\u2010\u2011\u2012\u2013\u2014\u2015\u2212"

# pieces exercising every normalization rule plus plain unicode: 'İ', which
# str.lower() lowers to two characters; 'Σ', which it lowers by context;
# ligatures, soft hyphen and zero-width space from PDF extraction; en and em
# dashes and the minus sign; non-ASCII spaces; and runs of separators and
# dropped characters
RAW_ALPHABET = list("abcXYZİΣ αβ.,;0123'’-‐‑–—−\n\r\t\x0c\xa0\u2003ﬁﬃﬆ\xad\u200b") + [
    "  ", " \n", "-\n", "' ", " - "
]

raw_text = st.lists(st.sampled_from(RAW_ALPHABET), max_size=150).map("".join)

# damaged ASCII: such a text takes normalize's ASCII shortcut only when
# nothing moved, and its one pass over the irregular spots otherwise
ASCII_ALPHABET = list("abcXYZ .,;0123'-\n\r\t\x0c") + ["  ", " \n", "-\n", "' "]
ascii_text = st.lists(st.sampled_from(ASCII_ALPHABET), max_size=150).map("".join)

# words of RAW_ALPHABET's letters other than ligatures, each after one
# separator: a text whose offset map is the single breakpoint (0, start)
LETTERS = [p for p in RAW_ALPHABET if p.isalpha() and p == unicodedata.normalize("NFKC", p)]
SEPARATORS = [p for p in RAW_ALPHABET if len(p) == 1 and (p.isspace() or p in DASHES)]
spaced_words = st.lists(
    st.tuples(st.sampled_from(SEPARATORS), st.lists(st.sampled_from(LETTERS), min_size=1, max_size=8)),
    max_size=20,
).map(lambda pairs: "".join(sep + "".join(word) for sep, word in pairs))


def oracle_normalize(raw: str) -> tuple[str, list[int]]:
    """Reference per-character loop: the normalized text and, for each of its
    characters, the raw index it derives from."""
    out: list[str] = []
    omap: list[int] = []
    pending_space_at = -1  # raw index of the first separator of a pending gap
    for i, ch in enumerate(raw):
        if ch in "'’\xad\u200b":
            continue
        if ch in DASHES or ch.isspace():
            if pending_space_at < 0:
                pending_space_at = i
            continue
        if pending_space_at >= 0:
            if out:  # no leading space
                out.append(" ")
                omap.append(pending_space_at)
            pending_space_at = -1
        if ch == "İ":
            ch = "i"
        elif "\ufb00" <= ch <= "\ufb06":
            ch = unicodedata.normalize("NFKC", ch)
        for lowered in ch.lower():
            out.append(lowered)
            omap.append(i)
    return "".join(out), omap


def raw_indices(omap, length: int) -> list[int]:
    return [raw_index(omap, i) for i in range(length)]


def test_dehyphenated_line_break_joins_as_space():
    normalized, omap = normalize("Mann-\nWhitney")
    assert normalized == "mann whitney"
    # the 'w' links back to its raw position
    assert raw_index(omap, normalized.index("w")) == 6
    # the joining space derives from the hyphen that started the run
    assert raw_index(omap, normalized.index(" ")) == 4


def test_empty_input():
    assert normalize("") == ("", ((0, 0),))


def test_apostrophe_whitespace_hyphen_rules():
    # hand-applied rules: drop apostrophe, collapse run, lowercase, hyphen to space
    normalized, _ = normalize("Student's   t-test")
    assert normalized == "students t test"


def test_hyphen_runs_never_leave_double_spaces():
    normalized, _ = normalize("t - test")
    assert normalized == "t test"


def test_typographic_apostrophe_removed():
    assert normalize("Student’s")[0] == "students"


def test_capital_sigma_lowers_alike_everywhere():
    assert normalize("ΟΔΟΣ ΣΑ")[0] == "οδοσ σα"


def test_pdf_noise_folds():
    normalized, omap = normalize("Conﬁdence in\xadter\u200bval, İSTANBUL")
    assert normalized == "confidence interval, istanbul"
    # both letters of the ligature map to it
    assert [raw_index(omap, i) for i in (2, 3, 4, 5)] == [2, 3, 3, 4]
    assert raw_index(omap, normalized.index("val")) == 17


@given(raw_text)
@settings(max_examples=300)
def test_normalize_equals_per_character_oracle(raw):
    normalized, omap = normalize(raw)
    expected, expected_map = oracle_normalize(raw)
    assert normalized == expected
    assert raw_indices(omap, len(normalized)) == expected_map


@given(ascii_text)
@settings(max_examples=300)
def test_damaged_ascii_equals_per_character_oracle(raw):
    normalized, omap = normalize(raw)
    expected, expected_map = oracle_normalize(raw)
    assert normalized == expected
    assert raw_indices(omap, len(normalized)) == expected_map


# 'Σ' next to a spot: the slices between spots are lowered one by one, which
# is exact only because no 'Σ' is left to lower by its context
@pytest.mark.parametrize(
    "raw", ["ΟΔΟΣ’ ΣΑ", "Σ\xadΑ", "ΑΣ\xadΣ", "ΟΣ  ΣΟ", "ΑΣﬁΣ", "ΣﬀΣ'", "'Σ' Σ'"]
)
def test_sigma_at_a_spot_equals_oracle(raw):
    normalized, omap = normalize(raw)
    expected, expected_map = oracle_normalize(raw)
    assert normalized == expected
    assert raw_indices(omap, len(normalized)) == expected_map


@pytest.mark.parametrize(
    "raw, one_breakpoint",
    [
        ("Conﬁdent's test", False),  # the ligature's extra letter and the dropped apostrophe cancel in length
        ("ﬃ\xad x", False),
        ("t–test", True),  # a lone separator maps one to one
        ("a\xa0b", True),
        ("  -\tplain ascii words -\n", True),  # ((0, 4),)
    ],
)
def test_one_breakpoint_map_equals_oracle(raw, one_breakpoint):
    normalized, omap = normalize(raw)
    expected, expected_map = oracle_normalize(raw)
    assert normalized == expected
    assert raw_indices(omap, len(normalized)) == expected_map
    assert (len(omap) == 1) == one_breakpoint


@given(spaced_words)
@settings(max_examples=300)
def test_spaced_words_equal_oracle_with_one_breakpoint(raw):
    normalized, omap = normalize(raw)
    expected, expected_map = oracle_normalize(raw)
    assert normalized == expected
    assert raw_indices(omap, len(normalized)) == expected_map
    assert len(omap) == 1


def test_other_spaces_literal_is_every_nonspace_whitespace():
    whitespace = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(_OTHER_SPACES) == whitespace - {" "}
    assert len(_OTHER_SPACES) == 28


def test_only_dotted_capital_i_lowers_to_more_than_one_character():
    # the offset map counts on every other character lowering to one
    assert [c for c in range(sys.maxunicode + 1) if len(chr(c).lower()) != 1] == [ord("İ")]


@given(raw_text)
def test_normalize_idempotent(raw):
    normalized, _ = normalize(raw)
    again, omap = normalize(normalized)
    assert again == normalized
    assert omap == ((0, 0),)  # the identity


@given(raw_text)
def test_normalized_shape_invariants(raw):
    normalized, omap = normalize(raw)
    assert "\n" not in normalized and "\r" not in normalized and "\t" not in normalized
    assert "  " not in normalized
    assert omap[0][0] == 0
    assert all(a[0] < b[0] for a, b in zip(omap, omap[1:]))
    indices = raw_indices(omap, len(normalized))  # total: every index is in raw
    assert all(0 <= i < len(raw) for i in indices)
    assert all(b >= a for a, b in zip(indices, indices[1:]))


@given(raw_text)
def test_offset_map_consistent_with_source(raw):
    normalized, omap = normalize(raw)
    for i, ch in enumerate(normalized):
        src = raw[raw_index(omap, i)]
        if ch == " ":
            assert src.isspace() or src in DASHES
        else:
            assert ch in unicodedata.normalize("NFKC", src).lower()


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
        "p3,EMSE,notayear,d.txt\n"
        "p4,EMSE,2015\n"
        "p5,,2015,e.txt\n"
        "p6,EMSE,2015,docs/a,b.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    message = str(err.value)
    assert "duplicate" in message and "1850" in message and "notayear" in message
    assert "line 6: empty path" in message and "line 7: empty journal" in message
    assert "line 8: 5 cells, the header has 4" in message


def test_load_manifest_numbers_file_lines_after_a_multiline_cell(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        'paper_id,journal,year,path\np1,"Multi\nLine",2015,a.txt\np2,EMSE,20x0,b.txt\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert "line 4: year '20x0' is not an integer" in str(err.value)


def test_make_document_counts_words():
    doc = make_document(SourceMeta("x", "J", 2000, ""), "One two\nthree-four")
    assert doc.normalized == "one two three four"
    assert doc.word_count == 4
    assert doc.status == STATUS_ANALYZED
