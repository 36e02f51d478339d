"""Fuzzy matching of analyzer examples against normalized document text.

Primary terms are located by substring search (deliberately not anchored to
word boundaries, so skip matchers keep their job of cancelling matches like
"t test" inside "unit tests"). Terms of at least `fuzzy_min_len` normalized
characters also match at restricted Damerau-Levenshtein distance 1, which
picks up misspellings and leftover line-break damage.

The distance-1 search is pigeonhole-based: any substring within one edit of
the term contains either the term's first half or its second half verbatim
(shifted by at most one position), except for a transposition straddling the
midpoint, which is searched for directly. Exact occurrences of those three
strings (C-speed str.find) propose candidate starts. Each candidate is
verified by a first-mismatch test: past the common prefix, what is left must
be equal after one substitution, one insertion or deletion, or one adjacent
swap.
"""

from dataclasses import dataclass, replace

from .dsl import AnalyzerSpec, SkipMatcher
from .ingest import DocumentText, Region, prefix_region

DEFAULT_SUPPORT_WINDOW = 500
DEFAULT_SKIP_WINDOW = 20
DEFAULT_MAX_EDITS = 1
DEFAULT_FUZZY_MIN_LEN = 8

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class MatchConfig:
    support_window: int = DEFAULT_SUPPORT_WINDOW
    skip_window: int = DEFAULT_SKIP_WINDOW
    max_edits: int = DEFAULT_MAX_EDITS
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LEN

    def __post_init__(self) -> None:
        if self.max_edits not in (0, 1):
            raise ValueError(f"max_edits must be 0 or 1, got {self.max_edits}")
        if self.support_window <= 0:
            raise ValueError("support_window must be positive")


@dataclass(frozen=True)
class EvidenceMatch:
    """A located primary match with its supporting matches and skip status."""

    analyzer: str
    example_index: int
    polarity: str
    matched_term: str
    span: Region
    matched_supports: tuple[tuple[str, Region], ...]
    supports_total: int
    score: int
    skipped: bool = False
    skipped_by: str | None = None

    @property
    def supports_matched(self) -> int:
        return len(self.matched_supports)


def osa_distance(a: str, b: str) -> int:
    """Restricted Damerau-Levenshtein distance (substitution, insertion,
    deletion, adjacent transposition; no substring edited twice)."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        row = [i] + [0] * lb
        ai = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ai == b[j - 1] else 1
            best = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and ai == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, prev2[j - 2] + 1)
            row[j] = best
        prev2, prev = prev, row
    return prev[lb]


def _one_edit_distance(a: str, b: str) -> int:
    """min(osa_distance(a, b), 2), by first-mismatch analysis.

    An alignment of cost 1 can put its one edit at the first mismatch, so
    past the common prefix the rest must be equal after one substitution,
    one insertion or deletion, or one adjacent swap made there.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return 2
    i = 0
    while i < la and i < lb and a[i] == b[i]:
        i += 1
    if la == lb:
        # a[i + 1] exists once the substitution test fails
        same = a[i + 1 :] == b[i + 1 :] or (
            a[i] == b[i + 1] and a[i + 1] == b[i] and a[i + 2 :] == b[i + 2 :]
        )
    elif la > lb:
        same = a[i + 1 :] == b[i:]
    else:
        same = a[i:] == b[i + 1 :]
    return 1 if same else 2


def _exact_spans(text: str, lo: int, hi: int, term: str) -> list[int]:
    starts = []
    i = text.find(term, lo, hi)
    while i != -1:
        starts.append(i)
        i = text.find(term, i + 1, hi)
    return starts


def find_term(
    text: str,
    region: Region,
    term: str,
    max_edits: int,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LEN,
) -> list[Region]:
    """All spans inside `region` whose substring is within edit distance E of
    `term`, where E = 1 when the term is fuzzy-eligible and max_edits allows
    it, else 0.

    One occurrence is reported once: candidates sharing a start position keep
    the closest (then longest) span, and a span overlapped by a strictly
    closer span is dropped, so the one-edit halo around an exact occurrence
    does not multiply it. With E = 0 this degrades to naive substring search.
    Results are sorted by start.
    """
    if not term:
        raise ValueError("term must be non-empty")
    lo, hi = max(region.start, 0), min(region.end, len(text))
    length = len(term)
    fuzzy = max_edits >= 1 and length >= max(fuzzy_min_len, 2)
    if not fuzzy:
        return [Region(s, s + length) for s in _exact_spans(text, lo, hi, term)]

    mid = length // 2
    candidates: set[int] = set()
    for off, piece in ((0, term[:mid]), (mid, term[mid:])):
        for q in _exact_spans(text, lo, hi, piece):
            s0 = q - off
            candidates.update((s0 - 1, s0, s0 + 1))
    swapped = term[: mid - 1] + term[mid] + term[mid - 1] + term[mid + 1 :]
    candidates.update(_exact_spans(text, lo, hi, swapped))
    found: list[tuple[int, int, int]] = []  # (start, length, distance)
    for s in sorted(candidates):
        if s < lo:
            continue
        if s + length <= hi and text.startswith(term, s):
            found.append((s, length, 0))
            continue
        for sub_len in (length + 1, length, length - 1):  # the longest one-edit span wins
            if s + sub_len <= hi and _one_edit_distance(term, text[s : s + sub_len]) == 1:
                found.append((s, sub_len, 1))
                break
    spans = [
        Region(s, s + ln)
        for s, ln, d in found
        if not any(
            od < d and os_ < s + ln and os_ + oln > s for os_, oln, od in found
        )
    ]
    return spans


def find_supports(
    text: str,
    primary_span: Region,
    supports: tuple[str, ...],
    window: int,
) -> list[tuple[str, Region]]:
    """Supports (normalized phrases) that occur exactly, starting within
    `window` characters of the primary span. Each support counts at most
    once; the first occurrence in the window is recorded."""
    lo = max(0, primary_span.start - window)
    hi = min(len(text), primary_span.end + window)
    matched: list[tuple[str, Region]] = []
    for phrase in supports:
        idx = text.find(phrase, lo)
        if idx != -1 and idx < hi:
            matched.append((phrase, Region(idx, idx + len(phrase))))
    return matched


def apply_skips(
    matches: list[EvidenceMatch],
    skips: tuple[SkipMatcher, ...],
    text: str,
    skip_window: int = DEFAULT_SKIP_WINDOW,
) -> list[EvidenceMatch]:
    """Mark positive matches whose neighbourhood triggers a skip regex.

    Each skip pattern is evaluated against the window span +/- skip_window;
    a regex hit overlapping the primary span flips `skipped` to true.
    Negative matches are never skipped. Idempotent; never adds, removes, or
    reorders matches.
    """
    if not skips:
        return list(matches)
    out: list[EvidenceMatch] = []
    for m in matches:
        if m.polarity != POSITIVE or m.skipped:
            out.append(m)
            continue
        lo = max(0, m.span.start - skip_window)
        hi = min(len(text), m.span.end + skip_window)
        window = text[lo:hi]
        hit: str | None = None
        for sk in skips:
            for rm in sk.compiled().finditer(window):
                if lo + rm.start() < m.span.end and lo + rm.end() > m.span.start:
                    hit = sk.pattern
                    break
            if hit:
                break
        out.append(replace(m, skipped=True, skipped_by=hit) if hit else m)
    return out


def _polarity_key(polarity: str) -> int:
    return 0 if polarity == POSITIVE else 1


def run_analyzer(
    doc: DocumentText,
    spec: AnalyzerSpec,
    config: MatchConfig,
) -> list[EvidenceMatch]:
    """Locate all evidence one analyzer finds in a document.

    For every example, every candidate term (primary plus synonyms) is
    searched inside the analyzer's region; a term shared by several examples
    is searched once per call. One stretch of text is one piece
    of evidence: a span contained in a longer span from the same example's
    term set is dropped, so "t test" inside an occurrence of "students t
    test" does not double-count. Positives gain supporting matches and pass
    through the skip matchers; negatives are kept only when all supports
    matched. Output is sorted by (polarity, span start, example index).
    """
    region = prefix_region(doc, spec.region_fraction)
    text = doc.normalized
    spans_of: dict[str, list[Region]] = {}
    matches: list[EvidenceMatch] = []
    for polarity, examples in ((POSITIVE, spec.positives), (NEGATIVE, spec.negatives)):
        for idx, example in enumerate(examples):
            by_span: dict[Region, str] = {}  # first term wins: primary, then synonyms
            for term in spec.candidate_terms(example):
                spans = spans_of.get(term)
                if spans is None:
                    spans = spans_of[term] = find_term(
                        text, region, term, config.max_edits, config.fuzzy_min_len
                    )
                for span in spans:
                    by_span.setdefault(span, term)
            kept = [
                (span, term)
                for span, term in by_span.items()
                if not any(
                    o.start <= span.start
                    and o.end >= span.end
                    and o.end - o.start > span.end - span.start
                    for o in by_span
                )
            ]
            for span, term in sorted(kept):
                found = find_supports(text, span, example.normalized_supports, config.support_window)
                total = len(example.normalized_supports)
                if polarity == NEGATIVE and len(found) < total:
                    continue  # unconfirmed negative evidence is discarded
                matches.append(
                    EvidenceMatch(
                        analyzer=spec.name,
                        example_index=idx,
                        polarity=polarity,
                        matched_term=term,
                        span=span,
                        matched_supports=tuple(found),
                        supports_total=total,
                        score=1 + len(found),
                    )
                )
    matches = apply_skips(matches, spec.skips, text, config.skip_window)
    matches.sort(key=lambda m: (_polarity_key(m.polarity), m.span.start, m.example_index))
    return matches
