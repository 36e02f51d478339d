
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_doc, scan_alone
from litscan.dsl import AnalyzerSpec, parse_analyzer
from litscan.ingest import Region
from litscan.matching import EvidenceMatch, MatchConfig, run_analyzer
from litscan.scoring import (
    VERDICT_NEGATIVE,
    VERDICT_NONE,
    VERDICT_POSITIVE,
    AnalyzerEvidence,
    aggregate_tags,
    decide_exclusion,
    match_order,
    resolve_analyzer,
)

SPEC = parse_analyzer(
    "analyzer: demo\ntags: ta, tb\n[positive]\nuse the [[[thing]]]\n[negative]\n__no__ [[[thing]]]\n"
)


def _match(polarity="positive", start=0, skipped=False, supports=0, example=0):
    return EvidenceMatch(
        example_index=example,
        polarity=polarity,
        matched_term="thing",
        span=Region(start, start + 5),
        matched_supports=("s",) * supports,
        skipped_by="pat" if skipped else None,
    )


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["positive", "negative"]), st.integers(0, 3), st.booleans(), st.integers(0, 2),
            st.integers(0, 2),
        ),
        # as run_analyzer gives them: within one polarity, no two matches share a span
        unique_by=lambda key: (key[0], key[1]),
        max_size=12,
    ),
    st.data(),
)
def test_resolve_analyzer_ignores_the_order_of_its_input(keys, data):
    matches = [_match(*key) for key in keys]
    shuffled = data.draw(st.permutations(matches))
    assert resolve_analyzer(shuffled, SPEC) == resolve_analyzer(matches, SPEC)


# its examples share the synonyms, so several of them match one span
SHARING = parse_analyzer(
    "analyzer: sharing\ntags: ta\n[positive]\nuse the [[[thing]]]\n__we__ used the [[[gadget]]] __here__\n"
    "the [[[widget]]] __here__\n[negative]\n__no__ [[[thing]]]\n__not__ the [[[widget]]] __here__\n"
    '[skip]\n#RegexpMatcher(r"unit \\w+")#\n[synonyms]\n"thing", "gadget"\n'
)
WORDS = ["thing", "gadget", "widget", "we", "here", "no", "not", "unit", "the"]


def _alone(example, polarity) -> AnalyzerSpec:
    """SHARING with `example` as its only example, of `polarity`."""
    examples = ((example,), ()) if polarity == "positive" else ((), (example,))
    return AnalyzerSpec(SHARING.name, *examples, SHARING.skips, SHARING.synonyms, SHARING.tags)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=24))
def test_one_span_gives_one_match_of_each_polarity(words):
    # of the matches the examples give one span alone, run_analyzer keeps the
    # first in match_order: the highest score, then the first example
    doc, config = make_doc(" ".join(words)), MatchConfig()
    matches = run_analyzer(doc, SHARING, config, scan_alone(doc, SHARING, config))
    assert len({(m.polarity, m.span) for m in matches}) == len(matches)
    rivals: dict[tuple[str, Region], list[EvidenceMatch]] = {}
    for polarity, examples in (("positive", SHARING.positives), ("negative", SHARING.negatives)):
        for index, example in enumerate(examples):
            alone = _alone(example, polarity)
            for m in run_analyzer(doc, alone, config, scan_alone(doc, alone, config)):
                rivals.setdefault((m.polarity, m.span), []).append(m._replace(example_index=index))
    assert {(m.polarity, m.span): m for m in matches} == {key: min(ms, key=match_order) for key, ms in rivals.items()}
    ev = resolve_analyzer(matches, SHARING)
    negative = any(m.polarity == "negative" for m in matches)
    positive = any(m.polarity == "positive" and not m.skipped for m in matches)
    assert ev.verdict == (VERDICT_NEGATIVE if negative else VERDICT_POSITIVE if positive else VERDICT_NONE)


def test_confirmed_negative_overrides_positives():
    matches = [_match(start=i, supports=1) for i in (0, 10, 20)] + [_match("negative", start=30)]
    ev = resolve_analyzer(matches, SPEC)
    assert ev.verdict == VERDICT_NEGATIVE
    assert len(ev.positive_matches) == 3 and len(ev.negative_matches) == 1


def test_positives_alone_are_positive_with_summed_score():
    ev = resolve_analyzer([_match(supports=1), _match(start=10)], SPEC)
    assert ev.verdict == VERDICT_POSITIVE
    assert ev.total_score == 3
    assert [m.score for m in ev.positive_matches] == [2, 1]  # score-descending


def test_no_matches_is_no_evidence():
    ev = resolve_analyzer([], SPEC)
    assert ev.verdict == VERDICT_NONE
    assert ev.total_score == 0


def test_skipped_positives_are_excluded_and_score_inert():
    live = [_match(supports=2), _match(start=9)]
    ev = resolve_analyzer(live, SPEC)
    toggled = [live[0]._replace(skipped_by="p"), live[1]]
    ev2 = resolve_analyzer(toggled, SPEC)
    assert ev2.total_score <= ev.total_score
    assert ev2.verdict == VERDICT_POSITIVE
    all_skipped = [m._replace(skipped_by="p") for m in live]
    assert resolve_analyzer(all_skipped, SPEC).verdict == VERDICT_NONE


@given(
    st.lists(
        st.tuples(st.sampled_from(["positive", "negative"]), st.booleans(), st.integers(0, 3)),
        max_size=8,
    )
)
def test_verdict_trichotomy(shape):
    matches = [
        _match(pol, start=i * 7, skipped=(skip and pol == "positive"), supports=sup)
        for i, (pol, skip, sup) in enumerate(shape)
    ]
    ev = resolve_analyzer(matches, SPEC)
    has_neg = bool(ev.negative_matches)
    has_pos = bool(ev.positive_matches)
    expected = VERDICT_NEGATIVE if has_neg else VERDICT_POSITIVE if has_pos else VERDICT_NONE
    assert ev.verdict == expected
    assert [has_neg, not has_neg and has_pos, not has_neg and not has_pos].count(True) == 1


def test_negative_dominance_property():
    for base in ([], [_match(supports=3)], [_match(skipped=True)]):
        ev = resolve_analyzer(base + [_match("negative", start=50)], SPEC)
        assert ev.verdict == VERDICT_NEGATIVE


def _ev(name, verdict, tags):
    return AnalyzerEvidence(
        analyzer=name,
        positive_matches=(_match(),) if verdict == VERDICT_POSITIVE else (),
        negative_matches=(_match("negative"),) if verdict == VERDICT_NEGATIVE else (),
        skipped_matches=(),
        tags=tuple(tags),
    )


WORKED = [
    _ev("a1_mwu", VERDICT_POSITIVE, ["quantitative_analysis", "statistical_test", "non_parametric_test"]),
    _ev("a2_ttest", VERDICT_NEGATIVE, ["quantitative_analysis", "statistical_test", "parametric_test"]),
    _ev("a3_cliffs", VERDICT_POSITIVE, ["quantitative_analysis"]),
]
WORKED_TAGS = ("non_parametric_test", "parametric_test", "quantitative_analysis", "statistical_test")


def test_three_analyzer_aggregation_scenario():
    summaries = {s.tag: s for s in aggregate_tags(WORKED, WORKED_TAGS)}
    qa = summaries["quantitative_analysis"]
    assert (qa.positives, qa.negatives, qa.verdict) == (2, 1, VERDICT_POSITIVE)
    stt = summaries["statistical_test"]
    assert (stt.positives, stt.negatives, stt.verdict) == (1, 1, VERDICT_POSITIVE)
    npt = summaries["non_parametric_test"]
    assert (npt.positives, npt.negatives, npt.verdict) == (1, 0, VERDICT_POSITIVE)
    pt = summaries["parametric_test"]
    assert (pt.positives, pt.negatives, pt.verdict) == (0, 1, VERDICT_NEGATIVE)
    assert pt.verdict == VERDICT_NEGATIVE


def test_all_no_evidence_classifies_nothing():
    evs = [_ev("x", VERDICT_NONE, ["ta", "tb"]), _ev("y", VERDICT_NONE, ["tb"])]
    for s in aggregate_tags(evs, ("ta", "tb")):
        assert not s.positives and not s.negatives
        assert s.verdict == VERDICT_NONE


def test_single_positive_analyzer_propagates_to_all_its_tags():
    evs = [_ev("friedman", VERDICT_POSITIVE, ["non_parametric_test", "statistical_test", "quantitative_analysis"])]
    assert all(s.verdict == VERDICT_POSITIVE for s in aggregate_tags(evs, evs[0].tags))


def test_every_given_tag_appears_in_the_given_order():
    tags = ("statistical_test", "effect_size", "quantitative_analysis")
    summaries = aggregate_tags([WORKED[2]], tags)
    assert [s.tag for s in summaries] == list(tags)
    assert [s.verdict for s in summaries] == [VERDICT_NONE, VERDICT_NONE, VERDICT_POSITIVE]


@given(st.permutations(WORKED))
def test_aggregation_is_permutation_invariant(shuffled):
    assert aggregate_tags(list(shuffled), WORKED_TAGS) == aggregate_tags(WORKED, WORKED_TAGS)


def test_removing_negative_analyzer_never_unclassifies():
    with_neg = {s.tag: s.verdict == VERDICT_POSITIVE for s in aggregate_tags(WORKED, WORKED_TAGS)}
    without = {s.tag: s.verdict == VERDICT_POSITIVE for s in aggregate_tags([WORKED[0], WORKED[2]], WORKED_TAGS)}
    for tag, classified in without.items():
        assert classified == with_neg[tag]


def test_decide_exclusion():
    assert decide_exclusion([_ev("sec", VERDICT_POSITIVE, [])])
    assert not decide_exclusion([_ev("sec", VERDICT_NEGATIVE, [])])
    assert not decide_exclusion([])
    assert not decide_exclusion([_ev("sec", VERDICT_NONE, [])])
