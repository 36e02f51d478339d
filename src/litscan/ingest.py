"""Document ingestion: load extracted paper text, normalize it for matching,
gate out short texts, and carve out prefix regions.

Normalization neutralizes the noise PDF extraction leaves behind (line breaks
inside hyphenated words, unstable whitespace, apostrophe variants, soft
hyphens, Latin ligatures) while keeping an offset map back to the raw text so
report snippets can show the original context. The map is piecewise linear:
a short tuple of (norm_start, raw_start) breakpoints, one wherever the
one-to-one correspondence breaks, read with `raw_index`. Damaged text takes
one pass that builds the normalized text and the map together.
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
# U+FB00-U+FB06, each with its NFKC form
_LIGATURES = {"ﬀ": "ff", "ﬁ": "fi", "ﬂ": "fl", "ﬃ": "ffi", "ﬄ": "ffl", "ﬅ": "st", "ﬆ": "st"}
# Once every separator is " " and every dropped character "'", a gap is a
# maximal run of both; one that is not a lone space starts with "'" or "  ".
# Each pattern opens with a literal, which the regex engine skips to in C.
_APOSTROPHE_GAPS = re.compile("'[ ']*")
_DOUBLE_SPACE_GAPS = re.compile("  [ ']*")

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

    First every separator becomes " ", every dropped character "'", 'İ' 'i'
    and 'Σ' 'σ', one for one. An ASCII text in which nothing moved is then
    done with str methods; any other text takes one pass over its ligatures
    and the gaps that are not a lone space, which joins the lowered slices
    between them and adds a breakpoint wherever raw - norm changes (lowering
    slices is exact: 'Σ', the one character lowered by context, is gone).
    """
    text = raw
    for separator in _OTHER_SPACES + _HYPHENS:
        text = text.replace(separator, " ")
    for dropped in _DROPPED[1:]:  # all but the leading "'"
        text = text.replace(dropped, "'")
    text = text.replace("İ", "i").replace("Σ", "σ")
    start = len(text) - len(text.lstrip(" '"))
    stop = len(text.rstrip(" '"))
    if text.isascii() and text.find("'", start, stop) < 0 and text.find("  ", start, stop) < 0:
        return text[start:stop].lower(), ((0, start),)  # nothing moved
    spots = [m.span() for m in _APOSTROPHE_GAPS.finditer(text, start, stop)]
    spots += [m.span() for m in _DOUBLE_SPACE_GAPS.finditer(text, start, stop)]
    for ligature in _LIGATURES:
        at = text.find(ligature, start, stop)
        while at != -1:
            spots.append((at, at + 1))
            at = text.find(ligature, at + 1, stop)
    spots.sort()
    parts, omap = [], [(0, start)]
    pos, n, offset = start, 0, start  # next raw index, text length so far, raw - norm
    for at, end in spots:
        if at < pos:
            continue  # inside a gap already passed
        letters = _LIGATURES.get(text[at])
        if letters:  # every letter maps to the ligature
            parts += text[pos:at].lower(), letters
            n += at - pos
            omap.extend((n + k, at) for k in range(1, len(letters)))
            n += len(letters)
            pos = at + 1
            offset = pos - n
            continue
        if text[at - 1] == " ":  # a lone space opened the gap (a double one is a spot)
            at -= 1
        parts.append(text[pos:at].lower())
        n += at - pos
        space = text.find(" ", at, end)
        if space == -1:  # dropped characters alone vanish
            points = ((n, end),)
        else:  # a space at n from the first separator, then the next word
            parts.append(" ")
            points = ((n, space), (n + 1, end))
            n += 1
        for point in points:
            if point[1] - point[0] != offset:
                omap.append(point)
                offset = point[1] - point[0]
        pos = end
    parts.append(text[pos:stop].lower())
    return "".join(parts), tuple(omap)


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
    killed (TimeoutExpired); a non-zero exit raises RuntimeError with the
    exit status and the last line of the converter's stderr."""
    if converter is None:
        return Path(meta.path).read_text(encoding="utf-8", errors="replace")
    argv = [tok.replace("{input}", meta.path) for tok in shlex.split(converter)]
    proc = subprocess.run(argv, capture_output=True, timeout=CONVERTER_TIMEOUT)
    if proc.returncode:
        last = proc.stderr.decode("utf-8", errors="replace").strip().rpartition("\n")[2]
        raise RuntimeError(f"converter {argv[0]!r} exited with status {proc.returncode}: {last}")
    return proc.stdout.decode("utf-8", errors="replace")


def load_document(meta: SourceMeta, converter: str | None = None) -> DocumentText:
    return make_document(meta, read_raw_text(meta, converter))
