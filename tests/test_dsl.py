import pytest

from conftest import ANALYZER_DIR, make_doc
from litscan.dsl import (
    AnalyzerParseError,
    AnalyzerSpec,
    BundleError,
    ExampleTemplate,
    SkipMatcher,
    load_bundle,
    parse_analyzer,
    parse_skip_matcher,
    serialize_analyzer,
)
from litscan.ingest import Region
from litscan.matching import EvidenceMatch, apply_skips, run_analyzer

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
    assert first.primary == "Student's t-test"
    assert first.supports == ("used",)
    assert first.normalized_primary == "students t test"

    second = spec.positives[1]
    assert second.primary == "t-test"
    assert len(second.supports) == 3

    neg = spec.negatives[0]
    assert neg.supports == ("did not use",)

    skip = spec.skips[0]
    assert skip.pattern == r"[a-zA-Z]{1}t(\s+|-)test"
    assert skip.case_insensitive


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
    assert sk.case_insensitive is ci


def test_parse_skip_matcher_rejects_malformed():
    with pytest.raises(ValueError, match="malformed skip matcher"):
        parse_skip_matcher("#RegexpMatcher([a-z)#")
    with pytest.raises(ValueError, match="does not compile"):
        parse_skip_matcher('#RegexpMatcher(r"[unclosed")#')


def test_a_directly_built_example_equals_the_parsed_one(match_config):
    parsed = parse_analyzer(TTEST_SOURCE).positives[0]
    built = ExampleTemplate(parsed.raw_line, parsed.primary, parsed.supports, "positive")
    assert built == parsed
    assert ExampleTemplate("x", "a", ("Used", "used", "'"), "positive").normalized_supports == ("used",)
    spec = AnalyzerSpec("direct", (built,), (), (), (), ("t",))
    matches = run_analyzer(make_doc("We used a Student's t-test here"), spec, match_config)
    assert [(m.matched_term, m.span, len(m.matched_supports)) for m in matches] == [
        ("students t test", Region(10, 25), 1)
    ]


def test_a_directly_built_skip_matcher_equals_the_parsed_one():
    token = r'#RegexpMatcher(r"[a-zA-Z]{1}t(\s+|-)test"i)#'
    built = SkipMatcher(r"[a-zA-Z]{1}t(\s+|-)test", True)
    assert built == parse_skip_matcher(token) and built.token() == token
    text = "several unit tests were written"
    match = EvidenceMatch("a", 0, "positive", "t test", Region(11, 17), (), 0, 1)
    (out,) = apply_skips([match], (built,), text)
    assert out.skipped and apply_skips([match], (parse_skip_matcher(token),), text) == [out]


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


def test_exclude_mode_allows_missing_tags():
    spec = parse_analyzer("analyzer: x\nmode: exclude\n[positive]\na [[[b]]]\n")
    assert spec.mode == "exclude" and spec.tags == ()


def test_region_prefix_parsing_and_bounds():
    spec = parse_analyzer("analyzer: x\ntags: t\nregion: prefix:0.05\n[positive]\na [[[b]]]\n")
    assert spec.region_fraction == 0.05
    _expect_error("analyzer: x\ntags: t\nregion: prefix:1.5\n[positive]\na [[[b]]]\n", "region fraction")
    _expect_error("analyzer: x\ntags: t\nregion: sometimes\n[positive]\na [[[b]]]\n", "region must be")


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


def test_load_bundle_requires_files(tmp_path):
    with pytest.raises(BundleError, match="no .*analyzer files"):
        load_bundle(tmp_path)
