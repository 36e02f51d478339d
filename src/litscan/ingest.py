"""Document ingestion: load extracted paper text, normalize it for matching,
gate out short texts, and carve out prefix regions.

Normalization neutralizes the noise PDF extraction leaves behind (line breaks
inside hyphenated words, unstable whitespace, apostrophe variants) while
keeping a per-character map back to the raw text so report snippets can show
the original context.
"""

import csv
import logging
import math
import shlex
import subprocess
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

STATUS_ANALYZED = "analyzed"
STATUS_SKIPPED_SHORT = "skipped_short"
STATUS_EXCLUDED_SECONDARY = "excluded_secondary"

DEFAULT_SHORT_THRESHOLD = 4000

_APOSTROPHES = frozenset("'’")
_HYPHENS = frozenset("-‐‑")


class Region(NamedTuple):
    """Half-open [start, end) span in normalized-text coordinates."""

    start: int
    end: int


@dataclass(frozen=True)
class SourceMeta:
    paper_id: str
    journal: str
    year: int
    path: str


@dataclass(frozen=True)
class DocumentText:
    """One paper's text, raw and normalized, plus the offset map linking the
    two. Immutable; safe to share across parallel workers."""

    meta: SourceMeta
    raw: str
    normalized: str
    offset_map: tuple[int, ...]
    word_count: int
    status: str = STATUS_ANALYZED


def normalize(raw: str) -> tuple[str, tuple[int, ...]]:
    """Normalize text for matching. Returns (normalized, offset_map).

    Rules, applied in one pass:
      1. a line break between "letter-" and a letter is removed (the word was
         split across lines); the hyphen itself then falls under rule 5
      2. every whitespace run collapses to a single space
      3. letters are lowercased
      4. apostrophes (straight and typographic) are removed
      5. every hyphen becomes a space (then collapses with neighbours)
    Leading and trailing whitespace is dropped.

    offset_map[i] is the raw index of the character normalized[i] derives
    from; a collapsed space maps to the first raw character of the run it
    replaces, and both characters of a lowered 'İ' map to the 'İ'. The map
    has one entry per normalized character, is non-decreasing, and normalize is
    idempotent (re-normalizing yields the same text and the identity map).
    """
    out: list[str] = []
    omap: list[int] = []
    pending_space_at = -1  # raw index of the first char of a pending space run
    for i, ch in enumerate(raw):
        if ch in _APOSTROPHES:
            continue
        if ch in _HYPHENS or ch.isspace():
            if pending_space_at < 0:
                pending_space_at = i
            continue
        if pending_space_at >= 0:
            if out:  # no leading space
                out.append(" ")
                omap.append(pending_space_at)
            pending_space_at = -1
        out.append(ch.lower())
        omap.append(i)
    at = raw.find("İ")  # the one code point that lowers to two characters
    while at != -1:
        omap.insert(bisect_left(omap, at), at)
        at = raw.find("İ", at + 1)
    return "".join(out), tuple(omap)


def word_count_of(normalized: str) -> int:
    """Number of maximal non-space runs."""
    return len(normalized.split())


def make_document(meta: SourceMeta, raw: str) -> DocumentText:
    normalized, omap = normalize(raw)
    return DocumentText(
        meta=meta,
        raw=raw,
        normalized=normalized,
        offset_map=omap,
        word_count=word_count_of(normalized),
    )


def gate_short(doc: DocumentText, short_threshold: int = DEFAULT_SHORT_THRESHOLD) -> DocumentText:
    """Mark documents below the word-count threshold (strict less-than) as
    skipped. Text content is never touched, only the status."""
    if doc.word_count < short_threshold:
        log.warning(
            "skipping %s: %d words is below the %d-word threshold",
            doc.meta.paper_id, doc.word_count, short_threshold,
        )
        return replace(doc, status=STATUS_SKIPPED_SHORT)
    return doc


def prefix_region(doc: DocumentText, fraction: float) -> Region:
    """Region covering the first `fraction` of the normalized text,
    measured in characters."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"region fraction must be in (0, 1], got {fraction!r}")
    return Region(0, math.floor(fraction * len(doc.normalized)))


def load_manifest(path: str | Path) -> list[SourceMeta]:
    """Read a corpus manifest CSV with header paper_id,journal,year,path.

    Relative paths are resolved against the manifest's directory. Raises
    ValueError listing every problem found.
    """
    path = Path(path)
    base = path.parent
    metas: list[SourceMeta] = []
    errors: list[str] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"paper_id", "journal", "year", "path"}
        missing = required - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: manifest is missing columns: {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            pid = (row["paper_id"] or "").strip()
            if not pid:
                errors.append(f"line {lineno}: empty paper_id")
                continue
            if any(ch in pid for ch in "/\\\0"):  # paper_id names the report file
                errors.append(f"line {lineno}: paper_id {pid!r} contains path separators")
                continue
            if pid in seen:
                errors.append(f"line {lineno}: duplicate paper_id {pid!r}")
                continue
            seen.add(pid)
            try:
                year = int(row["year"])
            except (TypeError, ValueError):
                errors.append(f"line {lineno}: year {row['year']!r} is not an integer")
                continue
            if not 1900 <= year <= 2100:
                errors.append(f"line {lineno}: year {year} outside [1900, 2100]")
                continue
            p = Path(row["path"])
            if not p.is_absolute():
                p = base / p
            metas.append(SourceMeta(paper_id=pid, journal=row["journal"].strip(), year=year, path=str(p)))
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return metas


def read_raw_text(meta: SourceMeta, converter: str | None = None) -> str:
    """Fetch a paper's raw text, optionally through an external converter
    command template with an {input} placeholder (stdout is taken as the
    text)."""
    if converter is None:
        return Path(meta.path).read_text(encoding="utf-8", errors="replace")
    argv = [tok.replace("{input}", meta.path) for tok in shlex.split(converter)]
    proc = subprocess.run(argv, capture_output=True, check=True)
    return proc.stdout.decode("utf-8", errors="replace")


def load_document(meta: SourceMeta, converter: str | None = None) -> DocumentText:
    return make_document(meta, read_raw_text(meta, converter))
