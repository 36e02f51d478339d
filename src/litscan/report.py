"""Human-readable evidence report for a single document."""

from .ingest import (
    STATUS_EXCLUDED_SECONDARY,
    STATUS_SKIPPED_SHORT,
    DocumentText,
    Region,
    raw_index,
)
from .matching import EvidenceMatch
from .scoring import VERDICT_NONE, AnalyzerEvidence, TagSummary, match_order

CONTEXT_CHARS = 120


def _raw_span(doc: DocumentText, span: Region) -> tuple[int, int]:
    if span.end <= span.start:
        return (0, 0)
    return (raw_index(doc.offset_map, span.start), raw_index(doc.offset_map, span.end - 1) + 1)


# tab and every character str.splitlines() breaks on, pdftotext's form feed
# among them: each becomes a space, so an evidence line stays one line
# (str.replace, as str.translate is 30 times slower on non-ASCII snippets)
_LINE_BREAKS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def _clean(text: str) -> str:
    for ch in _LINE_BREAKS:
        text = text.replace(ch, " ")
    return text


def snippet(doc: DocumentText, span: Region, context: int = CONTEXT_CHARS) -> str:
    """Raw-text context around a normalized-text span, with the primary
    match delimited by » and «."""
    rs, re_ = _raw_span(doc, span)
    pre = doc.raw[max(0, rs - context): rs]
    post = doc.raw[re_: re_ + context]
    return _clean(f"{pre}»{doc.raw[rs:re_]}«{post}")


def _match_line(doc: DocumentText, m: EvidenceMatch) -> str:
    line = f"score={m.score} {snippet(doc, m.span)}"
    if m.matched_supports:
        line += " supports: [" + ", ".join(p for p, _ in m.matched_supports) + "]"
    return line


def render_report(
    doc: DocumentText,
    evidences: list[AnalyzerEvidence],
    summaries: list[TagSummary],
) -> str:
    """Full report: metadata header, per-tag summary table, then one section
    per analyzer that found anything, with snippets ordered by score and
    skipped matches listed separately."""
    meta = doc.meta
    lines = [
        f"paper: {meta.paper_id}",
        f"journal: {meta.journal}  year: {meta.year}",
        f"words: {doc.word_count}",
        f"status: {doc.status}",
    ]
    if doc.status == STATUS_SKIPPED_SHORT:
        lines.append("note: text below the word-count threshold; no analysis performed")
    if doc.status == STATUS_EXCLUDED_SECONDARY:
        lines.append("note: classified as a secondary study; excluded from corpus statistics")

    if summaries:
        lines.append("")
        lines.append("tags:")
        width = max(len(s.tag) for s in summaries)
        for s in summaries:
            lines.append(
                f"  {s.tag.ljust(width)}  {s.verdict:<8}  "
                f"positive={len(s.positive_analyzers)} negative={len(s.negative_analyzers)}"
            )

    for ev in evidences:
        if ev.verdict == VERDICT_NONE:
            continue
        lines.append("")
        lines.append(f"analyzer {ev.analyzer}: {ev.verdict} (total score {ev.total_score})")
        if ev.negative_matches:
            lines.append("  negative evidence:")
            for m in sorted(ev.negative_matches, key=match_order):
                lines.append("    " + _match_line(doc, m))
        if ev.positive_matches:
            lines.append("  positive evidence:")
            for m in ev.positive_matches:
                lines.append("    " + _match_line(doc, m))
        if ev.skipped_matches:
            lines.append("  skipped:")
            for m in sorted(ev.skipped_matches, key=match_order):
                lines.append(f"    skipped by {m.skipped_by}: " + _match_line(doc, m))
    return "\n".join(lines) + "\n"
