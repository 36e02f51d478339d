import re
import shutil

import pytest

from conftest import ANALYZER_DIR, make_doc, scan_alone, serialize_analyzer, skip_token
from litscan import dsl
from litscan.cli import main
from litscan.dsl import (
    AnalyzerParseError,
    AnalyzerSpec,
    BundleError,
    ExampleTemplate,
    load_bundle,
    parse_analyzer,
    parse_skip_matcher,
)
from litscan.ingest import Region, normalize
from litscan.matching import EvidenceMatch, MatchConfig, apply_skips, run_analyzer

TTEST_SOURCE = (ANALYZER_DIR / "students_t_test.analyzer").read_text(encoding="utf-8")


def test_parse_ttest_analyzer_structure():
    spec = parse_analyzer(TTEST_SOURCE)
    assert spec.name == "students_t_test"
    assert len(spec.positives) == 3
    assert len(spec.negatives) == 1
    assert len(spec.skips) == 1
    assert len(spec.synonyms) == 12
    assert spec.tags == ("parametric_test", "statistical_test", "quantitative_analysis")
    assert spec.mode == "classify" and spec.region_fraction == 1.0

    first = spec.positives[0]
    assert first.raw_line == "We __used__ a [[[Student's t-test]]]"
    assert first.normalized_primary == "students t test"
    assert first.normalized_supports == ("used",)

    second = spec.positives[1]
    assert second.normalized_primary == "t test"
    assert second.normalized_supports == ("rejected the null hypothesis", "significance level", "0.05")

    neg = spec.negatives[0]
    assert neg.normalized_supports == ("did not use",)

    skip = spec.skips[0]
    assert skip.pattern == r"[a-zA-Z]{1}t(\s+|-)test"
    assert skip.flags & re.IGNORECASE


def test_candidate_terms_dedupe_after_normalization():
    spec = parse_analyzer(TTEST_SOURCE)
    terms = spec.candidate_terms(spec.positives[0])
    # 12 verbatim synonyms collapse to far fewer distinct normalized terms
    assert terms == (
        "students t test",
        "student t test",
        "student t",
        "welchs t test",
        "t test",
    )


def test_synonyms_keep_verbatim_spellings():
    spec = parse_analyzer(TTEST_SOURCE)
    assert "Student's t test" in spec.synonyms
    assert "Students t test" in spec.synonyms  # same after normalization, still listed


@pytest.mark.parametrize(
    "token,pattern,ci",
    [
        (r'#RegexpMatcher(r"[a-zA-Z]{1}t(\s+|-)test"i)#', r"[a-zA-Z]{1}t(\s+|-)test", True),
        ('#RegexpMatcher(r"abc")#', "abc", False),
    ],
)
def test_parse_skip_matcher(token, pattern, ci):
    sk = parse_skip_matcher(token)
    assert sk.pattern == pattern
    assert bool(sk.flags & re.IGNORECASE) is ci
    assert skip_token(sk) == token


def test_parse_skip_matcher_rejects_malformed():
    with pytest.raises(ValueError, match="malformed skip matcher"):
        parse_skip_matcher("#RegexpMatcher([a-z)#")
    with pytest.raises(ValueError, match="does not compile"):
        parse_skip_matcher('#RegexpMatcher(r"[unclosed")#')


def test_a_directly_built_example_equals_the_parsed_one(match_config):
    parsed = parse_analyzer(TTEST_SOURCE).positives[0]
    built = ExampleTemplate("We __used__ a [[[Student's t-test]]]", "students t test", ("used",))
    assert built == parsed
    spec = AnalyzerSpec("direct", (built,), (), (), (), ("t",))
    doc = make_doc("We used a Student's t-test here")
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert [(m.matched_term, m.span, m.matched_supports) for m in matches] == [
        ("students t test", Region(10, 25), ("used",))
    ]


def test_supports_are_deduplicated_after_normalization():
    spec = parse_analyzer("analyzer: x\ntags: t\n[positive]\nWe __Used__ and __used__ the [[[a]]] __used __\n")
    assert spec.positives[0].normalized_supports == ("used",)
    _expect_error("analyzer: x\ntags: t\n[positive]\nWe __used__ the [[[a]]] __'__\n", "empty support phrase", 4)


def test_a_directly_built_skip_matcher_equals_the_parsed_one():
    token = r'#RegexpMatcher(r"[a-zA-Z]{1}t(\s+|-)test"i)#'
    built = re.compile(r"[a-zA-Z]{1}t(\s+|-)test", re.IGNORECASE)
    assert built == parse_skip_matcher(token) and skip_token(built) == token
    text = "several unit tests were written"
    match = EvidenceMatch(0, "positive", "t test", Region(11, 17), ())
    (out,) = apply_skips([match], (built,), text)
    assert out.skipped_by == built.pattern
    assert apply_skips([match], (parse_skip_matcher(token),), text) == [out]


def test_the_skip_flag_survives_a_round_trip():
    # the same pattern with and without the i flag gives unequal specs
    source = TTEST_SOURCE.replace('test"i)#', 'test")#')
    plain, insensitive = parse_analyzer(source), parse_analyzer(TTEST_SOURCE)
    assert plain != insensitive and not plain.skips[0].flags & re.IGNORECASE
    for spec in (plain, insensitive):
        assert parse_analyzer(serialize_analyzer(spec)) == spec


def _expect_error(source: str, needle: str, lineno: int | None = None):
    with pytest.raises(AnalyzerParseError) as err:
        parse_analyzer(source)
    assert needle in str(err.value)
    if lineno is not None:
        assert any(n == lineno for n, _ in err.value.errors)


def test_no_positive_examples_is_an_error():
    _expect_error("analyzer: x\ntags: t\n[positive]\n", "no positive examples")


def test_unclosed_primary_marker_reports_line():
    src = "analyzer: x\ntags: t\n[positive]\nWe used a [[[t-test\n"
    _expect_error(src, "unclosed primary marker", lineno=4)


def test_odd_support_markers_reports_line():
    src = "analyzer: x\ntags: t\n[positive]\nWe __used a [[[t-test]]]\n"
    _expect_error(src, "odd count of __ markers", lineno=4)


def test_two_primaries_rejected():
    src = "analyzer: x\ntags: t\n[positive]\n[[[a]]] and [[[b]]]\n"
    _expect_error(src, "more than one primary")


def test_missing_header_and_unknown_section():
    _expect_error("[positive]\nuse a [[[thing]]]\n", "missing `analyzer:` header")
    _expect_error("analyzer: x\ntags: t\n[wat]\n[positive]\na [[[b]]]\n", "unknown section name", lineno=3)


def test_classify_mode_requires_tags():
    _expect_error("analyzer: x\n[positive]\na [[[b]]]\n", "tags must be non-empty")


@pytest.mark.parametrize("column", ["paper_id", "journal", "year", "words", "status"])
def test_a_tag_named_like_a_results_column_is_an_error(column):
    # results.csv would carry the column twice, and no reader of it would accept that
    _expect_error(f"analyzer: x\ntags: t, {column}\n[positive]\na [[[b]]]\n",
                  f"line 2: tags name results.csv columns: ['{column}']")


def test_a_tag_named_like_a_results_column_fails_the_bundle(tmp_path, capsys):
    bundle = tmp_path / "analyzers"
    shutil.copytree(ANALYZER_DIR, bundle)
    anova = bundle / "anova.analyzer"
    anova.write_text(re.sub(r"(?m)^tags: .*$", "tags: year", anova.read_text(encoding="utf-8")), encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("paper_id,journal,year,path\np,J,2011,p.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    for args in (["check-analyzers"], ["classify", "--manifest", str(manifest), "--out", str(out)]):
        assert main(args + ["--analyzers", str(bundle)]) == 1
        assert "anova.analyzer: line 2: tags name results.csv columns: ['year']" in capsys.readouterr().err
    assert not out.exists()


def test_a_skip_pattern_that_matches_the_empty_string_is_an_error():
    # its empty matches would fall inside every span and cancel it
    with pytest.raises(ValueError, match="matches the empty string"):
        parse_skip_matcher(r'#RegexpMatcher(r"(unit )?")#')
    source = TTEST_SOURCE.replace(r'#RegexpMatcher(r"[a-zA-Z]{1}t(\s+|-)test"i)#', r'#RegexpMatcher(r"(unit )?")#')
    line = source.splitlines().index(r'#RegexpMatcher(r"(unit )?")#') + 1
    _expect_error(source, "skip matcher pattern matches the empty string: '(unit )?'", lineno=line)
    spec = parse_analyzer(TTEST_SOURCE)
    doc = make_doc("We used a Student t-test here and it was fine.")
    matches = run_analyzer(doc, spec, MatchConfig(), scan_alone(doc, spec, MatchConfig()))
    assert matches and not any(m.skipped for m in matches)
    assert all(m.skipped for m in apply_skips(matches, (re.compile("(unit )?"),), doc.normalized))


def test_exclude_mode_allows_missing_tags():
    spec = parse_analyzer("analyzer: x\nmode: exclude\n[positive]\na [[[b]]]\n")
    assert spec.mode == "exclude" and spec.tags == ()


def test_region_prefix_parsing_and_bounds():
    spec = parse_analyzer("analyzer: x\ntags: t\nregion: prefix:0.05\n[positive]\na [[[b]]]\n")
    assert spec.region_fraction == 0.05
    _expect_error("analyzer: x\ntags: t\nregion: prefix:1.5\n[positive]\na [[[b]]]\n", "region fraction")
    _expect_error("analyzer: x\ntags: t\nregion: sometimes\n[positive]\na [[[b]]]\n", "region must be")


@pytest.mark.parametrize("header, line, key", [
    ("analyzer: a\nanalyzer: b\ntags: t", 2, "analyzer"),
    ("analyzer: x\nregion: prefix:0.05\ntags: t\nregion: full", 4, "region"),
    ("analyzer: x\ntags: t\nmode: exclude\nMode: exclude", 4, "mode"),
])
def test_a_header_key_given_twice_is_an_error(header, line, key):
    # neither value wins quietly, not even when both are the same
    _expect_error(f"{header}\n[positive]\na [[[b]]]\n", f"line {line}: header key '{key}' given twice")


def test_comments_ignored_but_skip_tokens_are_not():
    src = (
        "# a file comment\n"
        "analyzer: x\n"
        "tags: t\n"
        "[positive]\n"
        "# not an example\n"
        "a [[[b]]]\n"
        "[skip]\n"
        "# comment inside skip section\n"
        '#RegexpMatcher(r"xy"i)#\n'
    )
    spec = parse_analyzer(src)
    assert len(spec.positives) == 1
    assert len(spec.skips) == 1 and spec.skips[0].pattern == "xy"


def test_synonyms_wrap_across_lines():
    src = 'analyzer: x\ntags: t\n[positive]\na [[[b]]]\n[synonyms]\n"one", "two",\n"three"\n'
    spec = parse_analyzer(src)
    assert spec.synonyms == ("one", "two", "three")


def test_synonyms_reject_unquoted_text():
    src = 'analyzer: x\ntags: t\n[positive]\na [[[b]]]\n[synonyms]\n"one", naked\n'
    _expect_error(src, "malformed synonyms", lineno=6)


def test_each_synonym_is_normalized_once(monkeypatch):
    calls = []

    def counting(phrase):
        calls.append(phrase)
        return normalize(phrase)[0]

    monkeypatch.setattr(dsl, "normalize_phrase", counting)
    src = 'analyzer: x\ntags: t\n[positive]\na [[[b]]]\n[synonyms]\n"One Way", "two-way",\n"THREE"\n'
    spec = parse_analyzer(src)
    assert spec.normalized_synonyms == ("one way", "two way", "three")
    assert [c for c in calls if c in spec.synonyms] == list(spec.synonyms)


def test_serialize_round_trip_structurally_equal():
    spec = parse_analyzer(TTEST_SOURCE)
    assert parse_analyzer(serialize_analyzer(spec)) == spec


def test_multiple_errors_collected_with_line_numbers():
    src = "analyzer: x\ntags: t\n[positive]\n[[[a\nb]]]\n"
    with pytest.raises(AnalyzerParseError) as err:
        parse_analyzer(src)
    lines = [n for n, _ in err.value.errors]
    assert 4 in lines and 5 in lines  # both malformed example lines reported


def test_load_bundle_sorted_and_complete(bundle):
    names = [s.name for s in bundle]
    assert names == sorted(names)
    assert len(bundle) >= 20
    assert sum(1 for s in bundle if s.mode == "exclude") == 1


def test_load_bundle_duplicate_names(tmp_path):
    (tmp_path / "a.analyzer").write_text("analyzer: same\ntags: t\n[positive]\na [[[b]]]\n")
    (tmp_path / "b.analyzer").write_text("analyzer: same\ntags: t\n[positive]\na [[[b]]]\n")
    with pytest.raises(BundleError, match="duplicate analyzer name"):
        load_bundle(tmp_path)


def test_load_bundle_aggregates_parse_errors(tmp_path):
    (tmp_path / "a.analyzer").write_text("analyzer: a\ntags: t\n[positive]\na [[[b\n")
    (tmp_path / "b.analyzer").write_text("tags: t\n[positive]\na [[[b]]]\n")
    with pytest.raises(BundleError) as err:
        load_bundle(tmp_path)
    msg = str(err.value)
    assert "a.analyzer" in msg and "b.analyzer" in msg


def test_load_bundle_names_parse_errors_and_duplicate_names_together(tmp_path):
    (tmp_path / "a.analyzer").write_text("analyzer: same\ntags: t\n[positive]\na [[[b]]]\n")
    (tmp_path / "b.analyzer").write_text("analyzer: broken\ntags: t\n[positive]\na [[[b\n")
    (tmp_path / "c.analyzer").write_text("analyzer: same\ntags: t\n[positive]\nc [[[d]]]\n")
    with pytest.raises(BundleError) as err:
        load_bundle(tmp_path)
    assert str(err.value).splitlines()[1:] == [
        "  b.analyzer: line 0: no positive examples; line 4: unclosed primary marker",
        "  duplicate analyzer name 'same' in a.analyzer and c.analyzer",
    ]


def test_load_bundle_accepts_a_byte_order_mark(tmp_path):
    text = "analyzer: a\ntags: t\n[positive]\na [[[b]]]\n"
    (tmp_path / "a.analyzer").write_text("\ufeff" + text, encoding="utf-8")
    assert load_bundle(tmp_path) == [parse_analyzer(text, "a.analyzer")]


def test_load_bundle_lists_an_undecodable_file_as_unreadable(tmp_path, capsys):
    (tmp_path / "a.analyzer").write_bytes(b"analyzer: a\ntags: t\n[positive]\na [[[b\xff]]]\n")
    (tmp_path / "b.analyzer").write_text("tags: t\n[positive]\na [[[b]]]\n")
    with pytest.raises(BundleError) as err:
        load_bundle(tmp_path)
    msg = str(err.value)
    assert "a.analyzer: unreadable ('utf-8' codec can't decode byte 0xff" in msg and "b.analyzer: line" in msg
    assert main(["check-analyzers", "--analyzers", str(tmp_path)]) == 1
    assert "a.analyzer: unreadable" in capsys.readouterr().err


def test_load_bundle_requires_files(tmp_path):
    with pytest.raises(BundleError, match="no .*analyzer files"):
        load_bundle(tmp_path)
