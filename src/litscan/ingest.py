"""Document ingestion: load extracted paper text, normalize it for matching,
gate out short texts, and carve out prefix regions.

Normalization neutralizes the noise PDF extraction leaves behind (line breaks
inside hyphenated words, unstable whitespace, apostrophe variants, soft
hyphens, Latin ligatures) while keeping an offset map back to the raw text so
report snippets can show the original context. The map is piecewise linear:
a short tuple of (norm_start, raw_start) breakpoints, one wherever the
one-to-one correspondence breaks, read with `raw_index`.
"""

import csv
import logging
import math
import re
import shlex
import subprocess
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

STATUS_ANALYZED = "analyzed"
STATUS_SKIPPED_SHORT = "skipped_short"
STATUS_EXCLUDED_SECONDARY = "excluded_secondary"

DEFAULT_SHORT_THRESHOLD = 4000
CONVERTER_TIMEOUT = 300  # seconds a converter may run on one paper

# apostrophes (straight and typographic), soft hyphen, zero-width space
_DROPPED = "'’\xad\u200b"
# hyphens (U+002D, U+2010, U+2011), dashes (U+2012-U+2015) and the minus sign
_HYPHENS = "-\u2010\u2011\u2012\u2013\u2014\u2015\u2212"
# every code point str.isspace() accepts except " "; str.split() splits on
# the same set. A literal, because scanning Unicode costs import time.
_OTHER_SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# separators and dropped characters; a maximal run of them is a gap
_GAP = " " + _OTHER_SPACES + _HYPHENS + _DROPPED
# U+FB00-U+FB06, each with its NFKC form
_LIGATURES = {"ﬀ": "ff", "ﬁ": "fi", "ﬂ": "fl", "ﬃ": "ffi", "ﬄ": "ffl", "ﬅ": "st", "ﬆ": "st"}
_GAP_RUN = re.compile(f"[{re.escape(_GAP)}]+")
# Where the offset map can break, apart from double spaces (str.find): every
# dropped character and ligature, and every separator other than " " with a
# gap character next to it. A lone separator between two words maps one to
# one. The pattern opens with one character class, which lets the regex
# engine skip plain text at C speed; the lookarounds drop lone separators.
_IRREGULAR = re.compile(
    "[{irregular}](?:(?<=[{always}])|(?<=[{gap}][{irregular}])|(?=[{gap}]))".format(
        irregular=re.escape(_OTHER_SPACES + _HYPHENS + _DROPPED + "".join(_LIGATURES)),
        always=re.escape(_DROPPED + "".join(_LIGATURES)),
        gap=re.escape(_GAP),
    )
)


# (norm_start, raw_start) breakpoints; see normalize
OffsetMap = tuple[tuple[int, int], ...]


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
    two (see `normalize`). Immutable; safe to share across parallel workers."""

    meta: SourceMeta
    raw: str
    normalized: str
    offset_map: OffsetMap
    word_count: int
    status: str = STATUS_ANALYZED


def normalize(raw: str) -> tuple[str, OffsetMap]:
    """Normalize text for matching. Returns (normalized, offset_map).

    Rules:
      1. a line break between "letter-" and a letter is removed (the word was
         split across lines); the hyphen itself then falls under rule 5
      2. every whitespace run collapses to a single space
      3. letters are lowercased, each on its own ('Σ' always gives 'σ'), and
         'İ' gives a plain 'i'
      4. apostrophes (straight and typographic), soft hyphens and zero-width
         spaces are removed
      5. every hyphen, dash and minus sign becomes a space (then collapses
         with neighbours)
      6. the Latin ligatures U+FB00-U+FB06 expand to their letters ('ﬁ' to
         'fi')
    Leading and trailing whitespace is dropped.

    offset_map holds (norm_start, raw_start) breakpoints, sorted, the first
    at norm_start 0; raw_index(offset_map, i) is the raw index of the
    character normalized[i] derives from, raw_start + i - norm_start under
    the last breakpoint at or before i. A collapsed space maps to the first
    separator of the run it replaces, and every letter of an expanded
    ligature maps to the ligature. When nothing between the first and last
    characters kept was dropped, collapsed or expanded, the map is the one
    breakpoint (0, raw_start) of the first kept character. The map is
    non-decreasing, and normalize is idempotent (re-normalizing yields the
    same text and the identity map, ((0, 0),)).
    """
    text = raw
    for dropped in _DROPPED:
        text = text.replace(dropped, "")
    for hyphen in _HYPHENS:
        text = text.replace(hyphen, " ")
    length = len(text)
    for ligature, letters in _LIGATURES.items():
        text = text.replace(ligature, letters)
    expanded = len(text) != length
    # str.split() splits on " " and _OTHER_SPACES; collapsing them in place
    # gives the same text without building a list of words
    for space in _OTHER_SPACES:
        text = text.replace(space, " ")
    while "  " in text:
        text = text.replace("  ", " ")
    text = text.strip(" ").replace("İ", "i").replace("Σ", "σ").lower()
    start = len(raw) - len(raw.lstrip(_GAP))
    stop = len(raw.rstrip(_GAP))
    # with no ligature, one normalized character per raw one between the
    # edges means every gap there is a lone separator: nothing moved
    if not expanded and len(text) == stop - start:
        return text, ((0, start),)
    return text, _offset_map(raw, start, stop)


def _offset_map(raw: str, start: int, stop: int) -> OffsetMap:
    """Breakpoints of normalize's offset map; start and stop bound raw
    without its leading and trailing gaps. Python runs once per gap that is
    not a lone separator and once per ligature."""
    hits = [m.start() for m in _IRREGULAR.finditer(raw, start, stop)]
    at = raw.find("  ", start, stop)
    while at != -1:
        hits.append(at)
        at = raw.find("  ", _GAP_RUN.match(raw, at).end(), stop)
    omap = [(0, start)]
    gap_end = 0
    for at in sorted(hits):
        if at < gap_end:
            continue  # inside a gap already mapped
        n0, r0 = omap[-1]
        letters = _LIGATURES.get(raw[at])
        if letters:
            n = at - r0 + n0
            omap.extend((n + k, at) for k in range(1, len(letters)))
            continue
        # the gap's first character is the one before `at` only if that is
        # a lone space: a double space is itself a hit
        gap_start = at - 1 if raw[at - 1] == " " else at
        gap_end = _GAP_RUN.match(raw, at).end()
        n = gap_start - r0 + n0
        separators = raw[gap_start:gap_end].lstrip(_DROPPED)
        if separators:  # a space at n from the first separator, then the next word
            points = ((n, gap_end - len(separators)), (n + 1, gap_end))
        else:  # dropped characters alone vanish
            points = ((n, gap_end),)
        for n, r in points:
            n0, r0 = omap[-1]
            if r - n != r0 - n0:
                omap.append((n, r))
    return tuple(omap)


def raw_index(offset_map: OffsetMap, i: int) -> int:
    """Raw index of normalized character i under normalize's offset map."""
    n, r = offset_map[bisect_right(offset_map, (i, math.inf)) - 1]
    return r + i - n


def word_count_of(normalized: str) -> int:
    """Number of maximal non-space runs; normalized text has single inner
    spaces and none at its edges."""
    return normalized.count(" ") + 1 if normalized else 0


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


def read_table(
    path: str | Path, columns: Sequence[str], what: str, parse_row: Callable[[dict], object]
) -> list:
    """Read a CSV file whose header has `columns` and return parse_row(row)
    for each row; `what` names the file when a column is missing. A row holds
    the cells csv gives, None for a short row's missing ones. Each ValueError
    parse_row raises, and each row with extra cells, becomes `line N: ...`
    (N the row's last physical line); one ValueError lists them all."""
    parsed, errors = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = set(columns) - set(header)
        if missing:
            raise ValueError(f"{path}: {what} is missing columns: {sorted(missing)}")
        for row in reader:
            lineno = reader.line_num  # a quoted cell may hold a line break
            if None in row:  # csv puts the cells past the header under None
                cells = len(header) + len(row[None])
                errors.append(f"line {lineno}: {cells} cells, the header has {len(header)}")
                continue
            try:
                parsed.append(parse_row(row))
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return parsed


def load_manifest(path: str | Path) -> list[SourceMeta]:
    """Read a corpus manifest CSV with header paper_id,journal,year,path.

    Relative paths are resolved against the manifest's directory. Raises
    ValueError listing every problem found.
    """
    path = Path(path)
    seen: set[str] = set()

    def parse(row: dict) -> SourceMeta:
        pid = (row["paper_id"] or "").strip()
        if not pid:
            raise ValueError("empty paper_id")
        if any(ch in pid for ch in "/\\\0"):  # paper_id names the report file
            raise ValueError(f"paper_id {pid!r} contains path separators")
        if pid in seen:
            raise ValueError(f"duplicate paper_id {pid!r}")
        seen.add(pid)
        try:
            year = int(row["year"])
        except (TypeError, ValueError):
            raise ValueError(f"year {row['year']!r} is not an integer") from None
        if not 1900 <= year <= 2100:
            raise ValueError(f"year {year} outside [1900, 2100]")
        journal, cell = (row["journal"] or "").strip(), row["path"] or ""
        if not journal:
            raise ValueError("empty journal")
        if not cell.strip():
            raise ValueError("empty path")
        p = Path(cell)
        if not p.is_absolute():
            p = path.parent / p
        return SourceMeta(paper_id=pid, journal=journal, year=year, path=str(p))

    return read_table(path, ("paper_id", "journal", "year", "path"), "manifest", parse)


def read_raw_text(meta: SourceMeta, converter: str | None = None) -> str:
    """Fetch a paper's raw text, optionally through an external converter
    command template with an {input} placeholder (stdout is taken as the
    text). A converter still running after CONVERTER_TIMEOUT seconds is
    killed and subprocess.TimeoutExpired raised."""
    if converter is None:
        return Path(meta.path).read_text(encoding="utf-8", errors="replace")
    argv = [tok.replace("{input}", meta.path) for tok in shlex.split(converter)]
    proc = subprocess.run(argv, capture_output=True, check=True, timeout=CONVERTER_TIMEOUT)
    return proc.stdout.decode("utf-8", errors="replace")


def load_document(meta: SourceMeta, converter: str | None = None) -> DocumentText:
    return make_document(meta, read_raw_text(meta, converter))
