"""Verdict resolution and tag-level aggregation.

One analyzer's matches resolve to a single verdict: any confirmed negative
match outweighs every positive one, because negative evidence only fires
when all of its supporting phrases matched. Tag classification then counts
verdicts across analyzers; a tag holds as soon as one analyzer is positive,
and negative evidence never vetoes a different analyzer's positive.
"""

from typing import NamedTuple

from .dsl import AnalyzerSpec
from .matching import NEGATIVE, POSITIVE, EvidenceMatch

VERDICT_POSITIVE = "positive"
VERDICT_NEGATIVE = "negative"
VERDICT_NONE = "none"
VERDICTS = (VERDICT_POSITIVE, VERDICT_NEGATIVE, VERDICT_NONE)


class AnalyzerEvidence(NamedTuple):
    analyzer: str
    positive_matches: tuple[EvidenceMatch, ...]  # unskipped only
    negative_matches: tuple[EvidenceMatch, ...]  # confirmed only
    skipped_matches: tuple[EvidenceMatch, ...]
    tags: tuple[str, ...]

    @property
    def verdict(self) -> str:
        if self.negative_matches:
            return VERDICT_NEGATIVE
        if self.positive_matches:
            return VERDICT_POSITIVE
        return VERDICT_NONE

    @property
    def total_score(self) -> int:
        return sum(m.score for m in self.positive_matches)


class TagSummary(NamedTuple):
    """One tag's count of positive and of negative analyzers."""

    tag: str
    positives: int
    negatives: int

    @property
    def verdict(self) -> str:
        if self.positives:
            return VERDICT_POSITIVE
        if self.negatives:
            return VERDICT_NEGATIVE
        return VERDICT_NONE


def match_order(m: EvidenceMatch) -> tuple:
    """Report ordering: score descending, then span start, then example."""
    return (-m.score, m.span.start, m.example_index)


def resolve_analyzer(matches: list[EvidenceMatch], spec: AnalyzerSpec) -> AnalyzerEvidence:
    """One analyzer's verdict and its evidence, each kind in `match_order`.
    `run_analyzer` gives one match per polarity and span, so each match is
    one piece of evidence."""
    ordered = sorted(matches, key=match_order)
    return AnalyzerEvidence(
        analyzer=spec.name,
        positive_matches=tuple(m for m in ordered if m.polarity == POSITIVE and not m.skipped),
        negative_matches=tuple(m for m in ordered if m.polarity == NEGATIVE),
        skipped_matches=tuple(m for m in ordered if m.polarity == POSITIVE and m.skipped),
        tags=tuple(spec.tags),
    )


def aggregate_tags(evidences: list[AnalyzerEvidence], tags: tuple[str, ...]) -> list[TagSummary]:
    """Fold analyzer verdicts into one summary per tag of `tags`, in that
    order; a tag that no evidence carries gets verdict none."""
    verdicts = [(ev.tags, ev.verdict) for ev in evidences]
    return [
        TagSummary(
            tag,
            sum(tag in t and v == VERDICT_POSITIVE for t, v in verdicts),
            sum(tag in t and v == VERDICT_NEGATIVE for t, v in verdicts),
        )
        for tag in tags
    ]


def decide_exclusion(evidences: list[AnalyzerEvidence]) -> bool:
    """True when any exclusion analyzer found positive (and no negative)
    evidence; a confirmed negative already forces that analyzer's verdict
    away from positive."""
    return any(ev.verdict == VERDICT_POSITIVE for ev in evidences)
