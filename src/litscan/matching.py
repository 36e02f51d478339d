"""Fuzzy matching of analyzer examples against normalized document text.

Primary terms are located by substring search (deliberately not anchored to
word boundaries, so skip matchers keep their job of cancelling matches like
"t test" inside "unit tests"). Terms of at least `fuzzy_min_len` normalized
characters also match at restricted Damerau-Levenshtein distance 1, which
picks up misspellings and leftover line-break damage.

The distance-1 search is a partition filter. Each fuzzy term gets a start
piece term[a:b] and an end piece term[c:] with at least one character
between them (b < c). One edit, an adjacent swap included, then leaves one
of them whole where it sits: an edit at or after b leaves term[:b] at the
span's start, and an edit before c leaves term[c:] at its end. So each piece
fixes where a span starts or ends, and its length is one of the term's length
and one either side. A 2-character term has no room for a gap; its pieces
touch, and the swap across them is a third piece. A term that gets no edit
budget anchors on a suffix of at least MIN_PIECE characters (or on all of
a shorter term) and is checked whole.

The exact occurrences of every piece of a group of analyzers are found
together: the pieces with the same first character are compiled once into a
trie-shaped regex whose longest match at a position names every piece that
starts there, and one search loop per regex over the group's region records
them all. Each regex opens with its literal character, which the regex
engine skips to in C, so it only tries the positions holding it; the pieces
of a group therefore begin with as few and as rare characters as its terms
allow: starting from every character of the terms, the commonest (by
LETTER_ORDER) are dropped while every term can still place its pieces on the
letters left, and each term then takes its longest pieces on them. A term
searched for on its own is a group of one.

In near-miss prose most piece hits can begin or end no span, so each hit is
tested where it is found, inside the regex and so in C. The part of the term
on the edit's side of the piece is cut at one of its characters; one edit,
an adjacent swap included, leaves whole either the term before that
character or the term after it, and lookarounds at the piece's end look for
both. A hit that fails is not recorded, and a term with no recorded hit
cannot match: the scan names the terms it hit, and only those are searched.

A candidate span is first tested the same way, per span length, by string
comparisons that also run in C, and each candidate that passes is verified
once by a first-mismatch test: past the common prefix, what is left must be
equal outright (an exact match) or after one substitution, one insertion or
deletion, or one adjacent swap.
"""

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace

from .dsl import AnalyzerSpec, SkipMatcher
from .ingest import DocumentText, Region, prefix_region

DEFAULT_SUPPORT_WINDOW = 500
DEFAULT_SKIP_WINDOW = 20
DEFAULT_MAX_EDITS = 1
DEFAULT_FUZZY_MIN_LEN = 8

POSITIVE = "positive"
NEGATIVE = "negative"

# shortest piece a term anchors on where it is long enough: shorter pieces
# hit too often, and longer ones need more start letters (4 adds s and d)
MIN_PIECE = 3
# commonest first in English text; a group's start letters drop them in this
# order, and a character not listed is never dropped
LETTER_ORDER = " etaoinshrdlcumwfgypbvkjxqz"

# (a, b, c): a term's start piece is term[a:b], empty when a == b, and its
# end piece is term[c:]
Layout = tuple[int, int, int]


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


def _fuzzy(term: str, max_edits: int, fuzzy_min_len: int) -> bool:
    return max_edits >= 1 and len(term) >= max(fuzzy_min_len, 2)


def _layout(term: str, fuzzy: bool, letters: frozenset[str]) -> Layout | None:
    """The layout of the term's longest pieces that begin with one of
    `letters`, or None when no pieces do. A term with no edit budget has
    only an end piece. A fuzzy term leaves a gap (b < c), so one edit,
    adjacent swap included, leaves one piece whole where it sits; only a
    2-character term has touching pieces (b == c), and then the swap across
    them is a third piece."""
    length = len(term)
    fit = [i for i in range(length) if term[i] in letters]
    if not fuzzy:
        return next(((0, 0, c) for c in fit if c <= length - min(MIN_PIECE, length)), None)
    if length == 2:
        return (0, 1, 1) if len(fit) == 2 else None
    least = min(MIN_PIECE, (length - 1) // 2)
    ends = [c for c in fit if fit[0] + least < c <= length - least]
    if not ends:
        return None
    a = fit[0]  # the longest start piece for any c
    # the longest shorter piece, since its hits dominate, then the longer end piece
    c = min(ends, key=lambda c: (-min(c - 1 - a, length - c), c))
    return a, c - 1, c


def _pieces(term: str, layout: Layout) -> tuple[str, ...]:
    a, b, c = layout
    if a == b:
        return (term[c:],)
    if b < c:
        return term[a:b], term[c:]
    return term[a:b], term[c:], term[::-1]  # a 2-character term and its swap


def _start_letters(terms: set[tuple[str, bool]]) -> frozenset[str]:
    """The characters the pieces of `terms` ((term, fuzzy) pairs) may begin
    with: every character of the terms, less the commonest ones (by
    LETTER_ORDER) that every term can do without. The scan only tries the
    positions holding one of them."""
    letters = frozenset(ch for term, _ in terms for ch in term)
    for ch in LETTER_ORDER:
        fewer = letters - {ch}
        if ch in letters and all(_layout(term, fuzzy, fewer) for term, fuzzy in terms if ch in term):
            letters = fewer
    return letters


def _piece_tests(term: str, layout: Layout) -> list[tuple[str, str]]:
    """(piece, test) for each piece of the term, where the test is a regex
    of lookarounds, matched where the piece ends, that a hit of the piece
    passes when a span of the term can begin or end there; "" when every hit
    passes. It is the split test of `find_term`. A term whose start and end
    pieces are equal gives that piece both tests."""
    a, b, c = layout
    length = len(term)
    if a == b:  # the suffix of a term with no edit budget: the whole term ends here
        return [(term[c:], f"(?<={re.escape(term[:c])}.{{{length - c}}})" if c else "")]
    if b == c:  # a 2-character term
        return [(piece, "") for piece in _pieces(term, layout)]
    # A start-piece hit ends at the span's start + b, and the edit lies in
    # term[b:], cut with a gap at find_term's m: term[b:m] follows the piece,
    # or term[m + 1:] ends the span at one of its three lengths.
    m = (b + length) // 2
    start = (f"(?<={re.escape(term[:a])}.{{{b - a}}})" if a else "") + (
        f"(?={re.escape(term[b:m])}|.{{{m - b},{m - b + 2}}}{re.escape(term[m + 1 :])})"
    )
    # An end-piece hit ends where the span does, and the edit lies in
    # term[:c], cut with a gap at find_term's k: term[k + 1:c] precedes the
    # piece, or term[:k] begins the span at one of its three lengths (one
    # fixed-width lookbehind each).
    k = c // 2
    end = ""
    if k + 1 < c:
        lead = (f"(?<={re.escape(term[:k])}.{{{n - k}}})" for n in (length - 1, length, length + 1))
        end = "|".join((f"(?<={re.escape(term[k + 1 : c])}.{{{length - c}}})", *lead))
    return [(term[a:b], start), (term[c:], end)]


def _trie_pattern(tests: Mapping[str, str]) -> str:
    """A regex alternation of the pieces in `tests`, nested by shared
    prefix. At every node the text picks at most one branch, and where a
    piece ends its test is the last branch, so the match at a position is the
    longest piece that starts there and passes its test."""
    trie: dict = {}
    for piece, test in tests.items():
        node = trie
        for ch in piece:
            node = node.setdefault(ch, {})
        node[""] = test  # a piece ends here

    def alternation(node: dict) -> str:
        branches = [re.escape(ch) + alternation(child) for ch, child in sorted(node.items()) if ch]
        if "" in node:
            branches.append(node[""])
        return f"(?:{'|'.join(branches)})" if len(branches) > 1 or "" in node else branches[0]

    return alternation(trie)


class PieceStarts(dict[str, list[int]]):
    """piece -> the start positions of its hits in a scanned range that
    passed the scan's tests, ascending: a subset of its exact starts that
    holds every start a span of its terms can be built from. `layouts` maps
    each term whose pieces were scanned for to the layout they were cut by,
    so that `find_term` uses the same pieces. `hit` holds the terms with at
    least one piece start recorded; `find_term` finds nothing for any other
    term."""

    def __init__(self, layouts: Mapping[str, Layout]):
        super().__init__()
        self.layouts = layouts
        self.hit: set[str] = set()


class PieceScanner:
    """Finds the starts of the pieces of a set of terms ((term, fuzzy)
    pairs), overlapping starts included, with one regex search loop per
    first character of the pieces. The pieces begin with the start letters
    chosen for the terms together, and a start is kept only where its piece
    passes the test of at least one term it is cut from, or is a prefix of
    a kept piece.

    Building one picks the letters and compiles the regexes, which takes
    milliseconds (tens for a large group), so a scanner is built once per
    group and reused for every text: `corpus.Bundle` builds its two the
    first time a paper needs them, once in each process that classifies."""

    def __init__(self, terms: Iterable[tuple[str, bool]]):
        terms = set(terms)
        letters = _start_letters(terms)
        self.layouts = {term: _layout(term, fuzzy, letters) for term, fuzzy in terms}
        self._terms_of: dict[str, set[str]] = {}  # piece -> the terms it is cut from
        tests: dict[str, set[str]] = {}  # piece -> its tests, for each term it is cut from
        for term, layout in self.layouts.items():
            for piece, test in _piece_tests(term, layout):
                self._terms_of.setdefault(piece, set()).add(term)
                tests.setdefault(piece, set()).add(test)
        by_letter: dict[str, dict[str, str]] = {}
        for piece, either in tests.items():  # a hit passes when one test does; any hit passes ""
            by_letter.setdefault(piece[0], {})[piece] = "" if "" in either else "|".join(sorted(either))
        # each pattern opens with a literal character, which `re` skips to in C
        self._searches = [re.compile(_trie_pattern(by_letter[ch]), re.S).search for ch in sorted(by_letter)]
        # a hit on the longest piece at a position is a hit on each piece that is its prefix
        self._prefixes = {
            p: tuple(p[:i] for i in range(1, len(p) + 1) if p[:i] in self._terms_of) for p in self._terms_of
        }

    def scan(self, text: str, lo: int, hi: int) -> PieceStarts:
        """The starts of the pieces lying wholly inside text[lo:hi] whose
        hits pass their tests; every start from which a span inside
        text[lo:hi] can be built is among them. Only one pattern can match
        at a position, the one for its character, so each piece's starts
        come from one loop and stay ascending."""
        starts = PieceStarts(self.layouts)
        prefixes = self._prefixes
        for search in self._searches:
            m = search(text, lo, hi)
            while m:
                s = m.start()
                for piece in prefixes[m.group()]:
                    starts.setdefault(piece, []).append(s)
                m = search(text, s + 1, hi)
        starts.hit = {term for piece in starts for term in self._terms_of[piece]}
        return starts


def group_scanner(specs: Iterable[AnalyzerSpec], config: MatchConfig) -> PieceScanner:
    """The scanner of the terms of a group of analyzers under `config`."""
    return PieceScanner(
        (term, _fuzzy(term, config.max_edits, config.fuzzy_min_len)) for spec in specs for term in spec.terms
    )


def scan_pieces(doc: DocumentText, specs: Sequence[AnalyzerSpec], scanner: PieceScanner) -> PieceStarts:
    """The starts of the pieces of the analyzers' terms from which a span
    can be built, in one scan of the furthest of their regions. `scanner` is
    the group's `group_scanner`; the caller builds it and keeps it for as
    long as the group and config stay the same, as `corpus.Bundle` does for
    a run."""
    end = max((prefix_region(doc, spec.region_fraction).end for spec in specs), default=0)
    return scanner.scan(doc.normalized, 0, end)


def find_term(
    text: str,
    region: Region,
    term: str,
    max_edits: int,
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LEN,
    piece_starts: PieceStarts | None = None,
) -> list[Region]:
    """All spans inside `region` whose substring is within edit distance E of
    `term`, where E = 1 when the term is fuzzy-eligible and max_edits allows
    it, else 0.

    `piece_starts` holds the starts of the term's pieces in a range covering
    `region`, as `scan_pieces` gives them for a group of analyzers, with the
    layout the term's pieces were cut by; a term it has no layout for raises
    KeyError. Those are only the starts whose hits passed the scan's tests,
    which every start a span can be built from does. Without it the term's
    own pieces are chosen and scanned for, by the same filtered scan.

    With E = 0 a hit of the suffix term[c:] at q proposes the span starting
    at q - c. With E = 1 a hit of the start piece term[a:b] at q proposes
    the spans starting at q - a, a hit of the end piece term[c:] the spans
    ending where it ends, each at the term's length and one either side, and
    for a 2-character term a hit of the swapped term the span it covers.
    Each proposed span inside `region` that passes a split test of the rest
    of the term is checked once.

    One occurrence is reported once: spans sharing a start position keep
    the closest (then longest) span, and a span overlapped by a strictly
    closer span is dropped, so the one-edit halo around an exact occurrence
    does not multiply it. With E = 0 this degrades to naive substring search.
    Results are sorted by start.
    """
    if not term:
        raise ValueError("term must be non-empty")
    lo, hi = max(region.start, 0), min(region.end, len(text))
    fuzzy = _fuzzy(term, max_edits, fuzzy_min_len)
    if piece_starts is None:
        piece_starts = PieceScanner([(term, fuzzy)]).scan(text, lo, hi)
    a, b, c = piece_starts.layouts[term]
    length = len(term)
    ends = piece_starts.get(term[c:], ())
    if not fuzzy:  # the suffix ends where the term does
        starts = (q - c for q in ends)
        return sorted(
            Region(s, s + length) for s in starts if lo <= s <= hi - length and text.startswith(term, s)
        )

    lengths = (length - 1, length, length + 1)
    # A span that a start-piece hit stands for begins with term[:b] whole and
    # has its one edit in term[b:]: cut there with a gap at m, so the span
    # also begins with term[:m] or ends with term[m + 1:]. A span that an
    # end-piece hit stands for has its edit in term[:c]: cut with a gap at k,
    # so it begins with term[:k] or term[k + 1:c] precedes the piece. These
    # tests run in C and spare the full check most candidates.
    m, k = (b + length) // 2, c // 2
    head, longer, rest = term[:b], term[:m], term[m + 1 :]
    candidates = [
        (s, n)
        for s in (q - a for q in piece_starts.get(term[a:b], ()))
        if lo <= s and text.startswith(head, s)
        for n in lengths
        if text.startswith(longer, s) or text.endswith(rest, 0, s + n)
    ]
    lead, before = term[:k], term[k + 1 : c]
    for q in ends:
        e, whole = q + length - c, text.endswith(before, 0, q)
        candidates += [(e - n, n) for n in lengths if lo <= e - n and (whole or text.startswith(lead, e - n))]
    if b == c:
        candidates += [(q, length) for q in piece_starts.get(term[::-1], ())]
    best: dict[int, tuple[int, int]] = {}  # start -> (distance, -length): closest, then longest
    for s, n in candidates:
        if lo <= s and s + n <= hi:
            d = _one_edit_distance(term, text[s : s + n])
            if d < 2 and (d, -n) < best.get(s, (2, 0)):
                best[s] = (d, -n)
    found = sorted((s, s - neg_len, d) for s, (d, neg_len) in best.items())  # (start, end, distance)
    return [
        Region(s, e) for s, e, d in found if not any(od < d and os_ < e and oe > s for os_, oe, od in found)
    ]


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
        idx = text.find(phrase, lo, hi + len(phrase) - 1)  # only starts before hi
        if idx != -1:
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
            for rm in sk.compiled.finditer(window):
                if lo + rm.start() < m.span.end and lo + rm.end() > m.span.start:
                    hit = sk.pattern
                    break
            if hit:
                break
        out.append(replace(m, skipped=True, skipped_by=hit) if hit else m)
    return out


def _contains(outer: Region, inner: Region) -> bool:
    """True when `outer` covers `inner` and is longer."""
    return (
        outer.start <= inner.start
        and outer.end >= inner.end
        and outer.end - outer.start > inner.end - inner.start
    )


def _padded(outer: Region, inner: Region, exact: set[Region]) -> bool:
    """True when `outer` is a one-edit span that is the exact span `inner`
    plus one character at either end."""
    return (
        inner in exact
        and outer not in exact
        and _contains(outer, inner)
        and outer.end - outer.start == inner.end - inner.start + 1
    )


def _polarity_key(polarity: str) -> int:
    return 0 if polarity == POSITIVE else 1


def run_analyzer(
    doc: DocumentText,
    spec: AnalyzerSpec,
    config: MatchConfig,
    piece_starts: PieceStarts | None = None,
) -> list[EvidenceMatch]:
    """Locate all evidence one analyzer finds in a document.

    For every example, every candidate term (primary plus synonyms) is
    searched inside the analyzer's region; a term shared by several examples
    is searched once per call. `piece_starts` comes from `scan_pieces` over a
    group of analyzers that includes this one, with the group's scanner;
    without it this call builds the analyzer's own scanner and scans with it
    once, which costs far more than the search. Only the terms in its `hit`
    set are searched, as no other term can match; an analyzer with none of
    its terms hit returns nothing at once.

    One stretch of text is one piece of evidence: a span contained in a
    longer span from the same example's term set is dropped, so "t test"
    inside an occurrence of "students t test" does not double-count. The
    exception is a one-edit span that only adds one character to an exact
    span: the exact span is kept and the one-edit span dropped, so in "the
    effect size of" the match is "effect size", not "effect sizes" one edit
    from "effect size ". Positives gain supporting matches and pass through
    the skip matchers; negatives are kept only when all supports matched.
    Output is sorted by (polarity, span start, example index).
    """
    region = prefix_region(doc, spec.region_fraction)
    text = doc.normalized
    if piece_starts is None:
        piece_starts = group_scanner((spec,), config).scan(text, 0, region.end)
    hit = piece_starts.hit
    if hit.isdisjoint(spec.terms):
        return []
    spans_of: dict[str, list[Region]] = {}
    matches: list[EvidenceMatch] = []
    for polarity, examples in ((POSITIVE, spec.positives), (NEGATIVE, spec.negatives)):
        for idx, example in enumerate(examples):
            by_span: dict[Region, str] = {}  # first term wins: primary, then synonyms
            for term in spec.candidate_terms(example):
                spans = spans_of.get(term)
                if spans is None:
                    spans = spans_of[term] = (
                        find_term(text, region, term, config.max_edits, config.fuzzy_min_len, piece_starts)
                        if term in hit
                        else []
                    )
                for span in spans:
                    by_span.setdefault(span, term)
            exact = {span for span, term in by_span.items() if text[span.start : span.end] == term}
            kept = [
                (span, term)
                for span, term in by_span.items()
                if not any(
                    (_contains(o, span) and not _padded(o, span, exact)) or _padded(span, o, exact)
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
