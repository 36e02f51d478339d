"""Verdict resolution and tag-level aggregation.

One analyzer's matches resolve to a single verdict: any confirmed negative
match outweighs every positive one, because negative evidence only fires
when all of its supporting phrases matched. Tag classification then counts
verdicts across analyzers; a tag holds as soon as one analyzer is positive,
and negative evidence never vetoes a different analyzer's positive.
"""

from dataclasses import dataclass

from .dsl import AnalyzerSpec
from .matching import NEGATIVE, POSITIVE, EvidenceMatch

VERDICT_POSITIVE = "positive"
VERDICT_NEGATIVE = "negative"
VERDICT_NONE = "none"


@dataclass(frozen=True)
class AnalyzerEvidence:
    analyzer: str
    verdict: str
    positive_matches: tuple[EvidenceMatch, ...]  # unskipped only
    negative_matches: tuple[EvidenceMatch, ...]  # confirmed only
    skipped_matches: tuple[EvidenceMatch, ...]
    total_score: int
    tags: tuple[str, ...]


@dataclass(frozen=True)
class TagSummary:
    tag: str
    positive_analyzers: tuple[str, ...]
    negative_analyzers: tuple[str, ...]

    @property
    def verdict(self) -> str:
        if self.positive_analyzers:
            return VERDICT_POSITIVE
        if self.negative_analyzers:
            return VERDICT_NEGATIVE
        return VERDICT_NONE


def match_order(m: EvidenceMatch) -> tuple:
    """Report ordering: score descending, then span start, then example."""
    return (-m.score, m.span.start, m.example_index)


def resolve_analyzer(matches: list[EvidenceMatch], spec: AnalyzerSpec) -> AnalyzerEvidence:
    positives = sorted(
        (m for m in matches if m.polarity == POSITIVE and not m.skipped), key=match_order
    )
    negatives = [m for m in matches if m.polarity == NEGATIVE]
    skipped = [m for m in matches if m.polarity == POSITIVE and m.skipped]
    if negatives:
        verdict = VERDICT_NEGATIVE
    elif positives:
        verdict = VERDICT_POSITIVE
    else:
        verdict = VERDICT_NONE
    return AnalyzerEvidence(
        analyzer=spec.name,
        verdict=verdict,
        positive_matches=tuple(positives),
        negative_matches=tuple(negatives),
        skipped_matches=tuple(skipped),
        total_score=sum(m.score for m in positives),
        tags=tuple(spec.tags),
    )


def aggregate_tags(evidences: list[AnalyzerEvidence]) -> list[TagSummary]:
    """Fold analyzer verdicts into per-tag summaries, sorted by tag name.

    Every tag carried by any analyzer in the input appears, even when no
    evidence was found for it.
    """
    tags = sorted({t for ev in evidences for t in ev.tags})
    out = []
    for tag in tags:
        pos = sorted(ev.analyzer for ev in evidences if tag in ev.tags and ev.verdict == VERDICT_POSITIVE)
        neg = sorted(ev.analyzer for ev in evidences if tag in ev.tags and ev.verdict == VERDICT_NEGATIVE)
        out.append(TagSummary(tag=tag, positive_analyzers=tuple(pos), negative_analyzers=tuple(neg)))
    return out


def decide_exclusion(evidences: list[AnalyzerEvidence]) -> bool:
    """True when any exclusion analyzer found positive (and no negative)
    evidence; a confirmed negative already forces that analyzer's verdict
    away from positive."""
    return any(ev.verdict == VERDICT_POSITIVE for ev in evidences)
