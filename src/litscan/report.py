"""Human-readable evidence report for a single document."""

from .ingest import (
    STATUS_EXCLUDED_SECONDARY,
    STATUS_SKIPPED_SHORT,
    DocumentText,
    Region,
    raw_index,
)
from .matching import EvidenceMatch
from .scoring import AnalyzerEvidence, TagSummary

CONTEXT_CHARS = 120


def _raw_span(doc: DocumentText, span: Region) -> tuple[int, int]:
    return (raw_index(doc.offset_map, span.start), raw_index(doc.offset_map, span.end - 1) + 1)


# tab and every character str.splitlines() breaks on, pdftotext's form feed
# among them: each becomes a space, so an evidence line stays one line
# (str.replace, as str.translate is 30 times slower on non-ASCII snippets)
_LINE_BREAKS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def _clean(text: str) -> str:
    for ch in _LINE_BREAKS:
        text = text.replace(ch, " ")
    return text


def snippet(doc: DocumentText, span: Region) -> str:
    """Raw-text context of CONTEXT_CHARS characters either side of a
    normalized-text span, with the primary match delimited by » and «."""
    rs, re_ = _raw_span(doc, span)
    pre = doc.raw[max(0, rs - CONTEXT_CHARS): rs]
    post = doc.raw[re_: re_ + CONTEXT_CHARS]
    return _clean(f"{pre}»{doc.raw[rs:re_]}«{post}")


def _match_line(doc: DocumentText, m: EvidenceMatch) -> str:
    line = f"score={m.score} {snippet(doc, m.span)}"
    if m.skipped:
        line = f"skipped by {m.skipped_by}: {line}"
    if m.matched_supports:
        line += " supports: [" + ", ".join(m.matched_supports) + "]"
    return line


def render_report(
    doc: DocumentText,
    evidences: list[AnalyzerEvidence],
    summaries: list[TagSummary],
) -> str:
    """Full report: metadata header, per-tag summary table, then one section
    per analyzer with any match, skipped ones included, with snippets
    ordered by score and skipped matches listed separately."""
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
                f"positive={s.positives} negative={s.negatives}"
            )

    for ev in evidences:
        blocks = (
            ("negative evidence", ev.negative_matches),
            ("positive evidence", ev.positive_matches),
            ("skipped", ev.skipped_matches),
        )
        if not any(matches for _, matches in blocks):
            continue
        lines.append("")
        lines.append(f"analyzer {ev.analyzer}: {ev.verdict} (total score {ev.total_score})")
        for title, matches in blocks:
            if matches:
                lines.append(f"  {title}:")
                lines.extend("    " + _match_line(doc, m) for m in matches)
    return "\n".join(lines) + "\n"
