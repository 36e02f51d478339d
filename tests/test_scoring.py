from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from litscan.dsl import parse_analyzer
from litscan.ingest import Region
from litscan.matching import EvidenceMatch
from litscan.scoring import (
    VERDICT_NEGATIVE,
    VERDICT_NONE,
    VERDICT_POSITIVE,
    AnalyzerEvidence,
    aggregate_tags,
    decide_exclusion,
    resolve_analyzer,
)

SPEC = parse_analyzer(
    "analyzer: demo\ntags: ta, tb\n[positive]\nuse the [[[thing]]]\n[negative]\n__no__ [[[thing]]]\n"
)


def _match(polarity="positive", start=0, score=1, skipped=False, supports=0, example=0):
    return EvidenceMatch(
        analyzer="demo",
        example_index=example,
        polarity=polarity,
        matched_term="thing",
        span=Region(start, start + 5),
        matched_supports=tuple(("s", Region(0, 1)) for _ in range(supports)),
        supports_total=supports,
        score=score,
        skipped=skipped,
        skipped_by="pat" if skipped else None,
    )


def test_confirmed_negative_overrides_positives():
    matches = [_match(start=i, score=2) for i in (0, 10, 20)] + [_match("negative", start=30)]
    ev = resolve_analyzer(matches, SPEC)
    assert ev.verdict == VERDICT_NEGATIVE
    assert len(ev.positive_matches) == 3 and len(ev.negative_matches) == 1


def test_positives_alone_are_positive_with_summed_score():
    ev = resolve_analyzer([_match(score=2), _match(start=10, score=1)], SPEC)
    assert ev.verdict == VERDICT_POSITIVE
    assert ev.total_score == 3
    assert [m.score for m in ev.positive_matches] == [2, 1]  # score-descending


def test_no_matches_is_no_evidence():
    ev = resolve_analyzer([], SPEC)
    assert ev.verdict == VERDICT_NONE
    assert ev.total_score == 0


def test_skipped_positives_are_excluded_and_score_inert():
    live = [_match(score=3), _match(start=9, score=1)]
    ev = resolve_analyzer(live, SPEC)
    toggled = [replace(live[0], skipped=True, skipped_by="p"), live[1]]
    ev2 = resolve_analyzer(toggled, SPEC)
    assert ev2.total_score <= ev.total_score
    assert ev2.verdict == VERDICT_POSITIVE
    all_skipped = [replace(m, skipped=True, skipped_by="p") for m in live]
    assert resolve_analyzer(all_skipped, SPEC).verdict == VERDICT_NONE


@given(
    st.lists(
        st.tuples(st.sampled_from(["positive", "negative"]), st.booleans(), st.integers(0, 3)),
        max_size=8,
    )
)
def test_verdict_trichotomy(shape):
    matches = [
        _match(pol, start=i * 7, skipped=(skip and pol == "positive"), supports=sup, score=1 + sup)
        for i, (pol, skip, sup) in enumerate(shape)
    ]
    ev = resolve_analyzer(matches, SPEC)
    has_neg = bool(ev.negative_matches)
    has_pos = bool(ev.positive_matches)
    expected = VERDICT_NEGATIVE if has_neg else VERDICT_POSITIVE if has_pos else VERDICT_NONE
    assert ev.verdict == expected
    assert [has_neg, not has_neg and has_pos, not has_neg and not has_pos].count(True) == 1


def test_negative_dominance_property():
    for base in ([], [_match(score=4)], [_match(skipped=True)]):
        ev = resolve_analyzer(base + [_match("negative", start=50)], SPEC)
        assert ev.verdict == VERDICT_NEGATIVE


def _ev(name, verdict, tags):
    return AnalyzerEvidence(
        analyzer=name,
        verdict=verdict,
        positive_matches=(),
        negative_matches=(),
        skipped_matches=(),
        total_score=0,
        tags=tuple(tags),
    )


WORKED = [
    _ev("a1_mwu", VERDICT_POSITIVE, ["quantitative_analysis", "statistical_test", "non_parametric_test"]),
    _ev("a2_ttest", VERDICT_NEGATIVE, ["quantitative_analysis", "statistical_test", "parametric_test"]),
    _ev("a3_cliffs", VERDICT_POSITIVE, ["quantitative_analysis"]),
]


def test_three_analyzer_aggregation_scenario():
    summaries = {s.tag: s for s in aggregate_tags(WORKED)}
    qa = summaries["quantitative_analysis"]
    assert (len(qa.positive_analyzers), len(qa.negative_analyzers), qa.verdict) == (2, 1, VERDICT_POSITIVE)
    stt = summaries["statistical_test"]
    assert (len(stt.positive_analyzers), len(stt.negative_analyzers), stt.verdict) == (1, 1, VERDICT_POSITIVE)
    npt = summaries["non_parametric_test"]
    assert (len(npt.positive_analyzers), len(npt.negative_analyzers), npt.verdict) == (1, 0, VERDICT_POSITIVE)
    pt = summaries["parametric_test"]
    assert (len(pt.positive_analyzers), len(pt.negative_analyzers), pt.verdict) == (0, 1, VERDICT_NEGATIVE)
    assert pt.verdict == VERDICT_NEGATIVE


def test_all_no_evidence_classifies_nothing():
    evs = [_ev("x", VERDICT_NONE, ["ta", "tb"]), _ev("y", VERDICT_NONE, ["tb"])]
    for s in aggregate_tags(evs):
        assert not s.positive_analyzers and not s.negative_analyzers
        assert s.verdict == VERDICT_NONE


def test_single_positive_analyzer_propagates_to_all_its_tags():
    evs = [_ev("friedman", VERDICT_POSITIVE, ["non_parametric_test", "statistical_test", "quantitative_analysis"])]
    assert all(s.verdict == VERDICT_POSITIVE for s in aggregate_tags(evs))


@given(st.permutations(WORKED))
def test_aggregation_is_permutation_invariant(shuffled):
    assert aggregate_tags(list(shuffled)) == aggregate_tags(WORKED)


def test_removing_negative_analyzer_never_unclassifies():
    with_neg = {s.tag: s.verdict == VERDICT_POSITIVE for s in aggregate_tags(WORKED)}
    without = {s.tag: s.verdict == VERDICT_POSITIVE for s in aggregate_tags([WORKED[0], WORKED[2]])}
    for tag, classified in without.items():
        assert classified == with_neg[tag]


def test_decide_exclusion():
    assert decide_exclusion([_ev("sec", VERDICT_POSITIVE, [])])
    assert not decide_exclusion([_ev("sec", VERDICT_NEGATIVE, [])])
    assert not decide_exclusion([])
    assert not decide_exclusion([_ev("sec", VERDICT_NONE, [])])
