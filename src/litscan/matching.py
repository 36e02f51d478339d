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
and one either side. A term that gets no edit budget has one piece, its
suffix from its first start letter however short, and the piece's test
checks the whole term.

The exact occurrences of every piece of a group of analyzers are found
together: the pieces with the same first character are compiled once into a
trie-shaped regex whose match at a position sets an empty group for every
piece that starts there (and passes its test, below), and one search loop
per regex over the group's region records them all. Each regex opens with
its literal character, which the regex engine skips to in C, so it only
tries the positions holding it; the pieces of a group therefore begin with
as few and as rare characters as its terms allow: starting from every
character of the terms, the commonest (by LETTER_ORDER) are dropped while
every term can still place its pieces on the letters left, and each term
then takes its longest pieces on them.

In near-miss prose most piece hits can begin or end no span, so each hit is
tested where it is found, inside the regex and so in C. The part of the term
on the edit's side of the piece is cut at its middle character and again at
the middle of each side, and one edit, an adjacent swap included, lies
wholly in one window between two neighbouring cuts. So the term is whole
from the piece up to that window and again past it, and lookarounds at the
piece's end look for that, window by window. A hit that shares only one
word of a two-word term fails. A hit that fails is not recorded, not even
where a longer piece that it begins passes; a term with no recorded hit
cannot match: the scan names the terms it hit, and only those are searched.

That scan test is the only split test. Each span a recorded hit proposes is
checked once by a first-mismatch test: past the common prefix, what is left
must be equal outright (an exact match) or after one substitution, one
insertion or deletion, or one adjacent swap.
"""

import re
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .dsl import AnalyzerSpec
from .ingest import DocumentText, Region, prefix_region

DEFAULT_SUPPORT_WINDOW = 500
DEFAULT_SKIP_WINDOW = 20
DEFAULT_FUZZY_MIN_LEN = 8

POSITIVE = "positive"
NEGATIVE = "negative"

# shortest piece a fuzzy term anchors on where it is long enough: shorter
# pieces hit too often, and longer ones need more start letters
MIN_PIECE = 3
# commonest first in English text; a group's start letters drop them in this
# order, and a character not listed is never dropped
LETTER_ORDER = " etaoinshrdlcumwfgypbvkjxqz"

# (a, b, c): a term's start piece is term[a:b], empty when a == b, and its
# end piece is term[c:]
Layout = tuple[int, int, int]


class _MatchFields(NamedTuple):
    support_window: int = DEFAULT_SUPPORT_WINDOW
    skip_window: int = DEFAULT_SKIP_WINDOW
    fuzzy_min_len: int = DEFAULT_FUZZY_MIN_LEN


class MatchConfig(_MatchFields):
    """The matching flags; a value out of range raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.support_window <= 0:
            raise ValueError("support_window must be positive")
        if self.skip_window < 0:
            raise ValueError("skip_window must not be negative")
        return self


class EvidenceMatch(NamedTuple):
    """A located primary match with the supporting phrases found near it and
    the skip pattern that cancelled it, if one did."""

    example_index: int
    polarity: str
    matched_term: str
    span: Region
    matched_supports: tuple[str, ...]
    skipped_by: str | None = None

    @property
    def score(self) -> int:
        return 1 + len(self.matched_supports)

    @property
    def skipped(self) -> bool:
        return self.skipped_by is not None


def _one_edit_distance(a: str, b: str) -> int:
    """The restricted Damerau-Levenshtein distance of a and b, capped at 2,
    by first-mismatch analysis.

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


def _layout(term: str, fuzzy: bool, letters: frozenset[str]) -> Layout | None:
    """The layout of the term's longest pieces that begin with one of
    `letters`, or None when no pieces do. A term with no edit budget has
    only an end piece, which starts at its first such letter wherever that
    stands: its test checks the whole term in C, so a short piece costs no
    Python work. A fuzzy term leaves a gap (b < c), so one edit, adjacent
    swap included, leaves one piece whole where it sits."""
    length = len(term)
    fit = [i for i in range(length) if term[i] in letters]
    if not fuzzy:
        return (0, 0, fit[0]) if fit else None
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
    return (term[c:],) if a == b else (term[a:b], term[c:])


def _start_letters(terms: set[tuple[str, bool]]) -> frozenset[str]:
    """The characters the pieces of `terms` ((term, fuzzy) pairs) may begin
    with: every character of the terms, less the commonest ones (by
    LETTER_ORDER) that every term can do without. The scan only tries the
    positions holding one of them."""
    letters = frozenset(ch for term, _ in terms for ch in term)
    # a layout whose pieces begin with other letters than ch still fits
    # without ch, so only the terms whose pieces may begin with ch are laid
    # out again; (term, fuzzy) -> the letters its pieces may begin with
    firsts = {key: set(key[0]) for key in terms}
    for ch in LETTER_ORDER:
        fewer = letters - {ch}
        moved = {key: _layout(*key, fewer) for key, used in firsts.items() if ch in used}
        if all(moved.values()):
            letters = fewer
            firsts.update({key: {p[0] for p in _pieces(key[0], layout)} for key, layout in moved.items()})
    return letters


def _cuts(lo: int, hi: int) -> list[int]:
    """Where to cut term[lo:hi + 1], the part of a term on the edit's side
    of a piece: at its middle, then at the middle of each side, keeping the
    cuts in lo < x < hi (a cut at either end adds only a window that implies
    its neighbour). Each cut is a character of its own; windows between
    neighbouring cuts share it, so one edit, an adjacent swap included,
    lies wholly in one window."""
    mid = (lo + hi + 1) // 2
    return sorted({x for x in ((lo + mid) // 2, mid, (mid + hi + 1) // 2) if lo < x < hi})


def _piece_tests(term: str, layout: Layout) -> list[tuple[str, str]]:
    """(piece, test) for each piece of the term, where the test is a regex
    of lookarounds, matched where the piece ends, that a hit of the piece
    passes when a span of the term can begin or end there; "" when every hit
    passes. It is the only split test: `find_term` checks every span a
    recorded hit proposes in full. A term whose start and end pieces are
    equal gives that piece both tests.

    The part of the term on the edit's side of the piece is cut twice over
    (`_cuts`), and the test has one alternative per window between two
    cuts: the edit lies in that window, so the term is whole from the piece
    up to the window and again past it, at one of the span's three lengths.
    A hit that shares only one word of a term ("the regression and" for
    "linear regression") fails in C, not in `find_term`."""
    a, b, c = layout
    length = len(term)
    if a == b:  # the suffix of a term with no edit budget: the whole term ends here
        return [(term[c:], f"(?<={re.escape(term[:c])}.{{{length - c}}})" if c else "")]
    # A start-piece hit ends at the span's start + b, and the edit lies in
    # term[b:]: for the window term[x:y + 1], term[b:x] follows the piece
    # and term[y + 1:] ends the span (the last window ends the term).
    bounds = [b, *_cuts(b, length - 1), length - 1]
    ahead = [
        f"{re.escape(term[b:x])}.{{{y - x},{y - x + 2}}}{re.escape(term[y + 1 :])}"
        for x, y in zip(bounds, bounds[1:-1])
    ]
    ahead.append(re.escape(term[b : bounds[-2]]))
    start = (f"(?<={re.escape(term[:a])}.{{{b - a}}})" if a else "") + f"(?={'|'.join(ahead)})"
    # An end-piece hit ends where the span does, and the edit lies in
    # term[:c]: for the window term[x:y + 1], term[y + 1:c] precedes the
    # piece and term[:x] begins the span at one of its three lengths. One
    # lookbehind as long as the longest span looks ahead from that span's
    # start for both. It fails where fewer characters precede the hit; the
    # spans that still fit there end at the text's offsets length - 1 and
    # length, and every hit ending there passes.
    bounds = [0, *_cuts(0, c - 1), c - 1]
    behind = []
    for x, y in zip(bounds, bounds[1:]):
        before = f".{{{y + 2}}}{re.escape(term[y + 1 : c])}" if y + 1 < c else ""
        lead = f".{{0,2}}{re.escape(term[:x])}" if x else ""
        behind.append(f"(?={lead}){before}" if lead and before else lead or before)
    end = f"(?<=(?={'|'.join(behind)}).{{{length + 1}}})|(?<=^.{{{length - 1}}})|(?<=^.{{{length}}})"
    return [(term[a:b], start), (term[c:], end)]


def _trie_pattern(tests: Mapping[str, str]) -> tuple[str, list[str]]:
    """A regex alternation of the pieces in `tests`, nested by shared
    prefix, and the pieces in the order of its groups. At every node the
    text picks at most one branch. Where a piece ends, its test is tried
    first and sets the piece's empty group when it passes, and the node
    matches when a longer piece does or that group is set; so a match sets
    the group of every piece that starts there and passes its test."""
    trie: dict = {}
    for piece, test in tests.items():
        node = trie
        for ch in piece:
            node = node.setdefault(ch, {})
        node[""] = piece  # a piece ends here
    pieces: list[str] = []

    def alternation(node: dict) -> str:
        piece = node.get("")
        if piece is not None:
            pieces.append(piece)  # before its children's, as its group opens before theirs
            group, test = len(pieces), tests[piece]
        branches = [re.escape(ch) + alternation(child) for ch, child in sorted(node.items()) if ch]
        if piece is None:
            return f"(?:{'|'.join(branches)})" if len(branches) > 1 else branches[0]
        passed = f"(?:{test})()" if test else "()"
        if not branches:
            return passed
        return f"(?={passed}|)(?:{'|'.join(branches)}|(?({group})|(?!)))"

    return alternation(trie), pieces


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
    passes the test of at least one term it is cut from.

    Building one picks the letters and compiles the regexes, which takes
    milliseconds (tens for a large group), so a scanner is built once per
    group and reused for every text: `corpus.Bundle` builds its two once
    per run, the first time a paper needs them or, with `--jobs` workers,
    before they are forked, so the workers inherit them."""

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
        self._searches = []
        for ch in sorted(by_letter):
            pattern, pieces = _trie_pattern(by_letter[ch])
            self._searches.append((re.compile(pattern, re.S).search, pieces))

    def scan(self, text: str, lo: int, hi: int) -> PieceStarts:
        """The starts of the pieces lying wholly inside text[lo:hi] whose
        hits pass their tests; every start from which a span inside
        text[lo:hi] can be built is among them. Only one pattern can match
        at a position, the one for its character, so each piece's starts
        come from one loop and stay ascending."""
        starts = PieceStarts(self.layouts)
        for search, pieces in self._searches:
            m = search(text, lo, hi)
            while m:
                s = m.start()
                for piece, passed in zip(pieces, m.groups()):
                    if passed is not None:
                        starts.setdefault(piece, []).append(s)
                m = search(text, s + 1, hi)
        starts.hit = {term for piece in starts for term in self._terms_of[piece]}
        return starts


def group_scanner(specs: Iterable[AnalyzerSpec], config: MatchConfig) -> PieceScanner:
    """The scanner of the terms of a group of analyzers under `config`: a
    term is fuzzy when it has at least fuzzy_min_len characters, and at
    least 3: a start piece, a character between the pieces and an end
    piece. A fuzzy_min_len above the longest term makes every term exact."""
    min_len = max(config.fuzzy_min_len, 3)
    return PieceScanner((term, len(term) >= min_len) for spec in specs for term in spec.terms)


def scan_pieces(doc: DocumentText, specs: Sequence[AnalyzerSpec], scanner: PieceScanner) -> PieceStarts:
    """The starts of the pieces of the analyzers' terms from which a span
    can be built, in one scan of the furthest of their regions. `scanner` is
    the group's `group_scanner`; the caller builds it and keeps it for as
    long as the group and config stay the same, as `corpus.Bundle` does for
    a run. A larger fraction never gives a shorter region, so the furthest
    region is the one of the largest fraction."""
    end = prefix_region(doc, max(spec.region_fraction for spec in specs)).end if specs else 0
    return scanner.scan(doc.normalized, 0, end)


def find_term(text: str, region: Region, term: str, piece_starts: PieceStarts) -> list[Region]:
    """All spans inside `region` whose substring is within edit distance E of
    `term`, where E, the edit budget, is 1 when the term's layout has a
    start piece (a < b), else 0.

    `piece_starts` is required: the starts of the term's pieces in a range
    covering `region`, as `scan_pieces` gives them for a group of analyzers,
    with the layout the term's pieces were cut by; a term it has no layout
    for raises KeyError. Those are only the starts whose hits passed the
    scan's tests, which every start a span can be built from does.

    One propose-and-verify loop serves both budgets. A span is L - E to
    L + E characters long (L the term's length). A hit of the end piece
    term[c:] proposes the spans ending where it ends, at each of those
    lengths; with E = 1 a hit of the start piece term[a:b] at q also
    proposes the spans starting at q - a. The scan's tests are the only
    filter: each proposed span inside `region` is checked once in full and
    kept when its distance is at most E.

    One occurrence is reported once: spans sharing a start position keep
    the closest (then longest) span, and a span overlapped by a strictly
    closer span is dropped, so the one-edit halo around an exact occurrence
    does not multiply it. With E = 0 this is naive substring search.
    Results are sorted by start.
    """
    if not term:
        raise ValueError("term must be non-empty")
    lo, hi = max(region.start, 0), min(region.end, len(text))
    a, b, c = piece_starts.layouts[term]
    edits = int(a < b)
    length = len(term)
    lengths = range(length - edits, length + edits + 1)
    candidates = [(q + length - c - n, n) for q in piece_starts.get(term[c:], ()) for n in lengths]
    if edits:
        candidates += [(q - a, n) for q in piece_starts.get(term[a:b], ()) for n in lengths]
    best: dict[int, tuple[int, int]] = {}  # start -> (distance, -length): closest, then longest
    for s, n in candidates:
        if lo <= s and s + n <= hi:
            d = _one_edit_distance(term, text[s : s + n])
            if d <= edits and (d, -n) < best.get(s, (2, 0)):
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
) -> list[str]:
    """The supports (normalized phrases) that occur exactly, starting within
    `window` characters of the primary span, in their given order."""
    lo = max(0, primary_span.start - window)
    hi = min(len(text), primary_span.end + window)
    # a phrase counts when it starts before hi
    return [phrase for phrase in supports if text.find(phrase, lo, hi + len(phrase) - 1) != -1]


def apply_skips(
    matches: list[EvidenceMatch],
    skips: tuple[re.Pattern, ...],
    text: str,
    skip_window: int = DEFAULT_SKIP_WINDOW,
) -> list[EvidenceMatch]:
    """Mark positive matches whose neighbourhood triggers a skip regex.

    Each skip pattern is searched in the window span +/- skip_window; the
    first hit overlapping the primary span sets `skipped_by` to its pattern's
    source text. Negative matches are never skipped. Idempotent; never adds,
    removes, or reorders matches.
    """
    out: list[EvidenceMatch] = []
    for m in matches:
        hit = _skip_hit(m.span, skips, text, skip_window) if m.polarity == POSITIVE else None
        out.append(m._replace(skipped_by=hit) if hit else m)
    return out


def _skip_hit(span: Region, skips: tuple[re.Pattern, ...], text: str, skip_window: int) -> str | None:
    """The source text of the first skip with a hit overlapping `span` in its window, or None."""
    lo = max(0, span.start - skip_window)
    window = text[lo : span.end + skip_window]
    for skip in skips:
        for rm in skip.finditer(window):
            if lo + rm.start() < span.end and lo + rm.end() > span.start:
                return skip.pattern
    return None


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


def run_analyzer(
    doc: DocumentText, spec: AnalyzerSpec, config: MatchConfig, piece_starts: PieceStarts
) -> list[EvidenceMatch]:
    """Locate all evidence one analyzer finds in a document.

    Each term of the analyzer (every example's primary plus the synonyms)
    is searched once inside the analyzer's region, up front; the examples
    then share those spans. `piece_starts` is required: it comes from
    `scan_pieces` over a group of analyzers that includes this one, with the
    group's scanner. Only the terms in its `hit` set are searched, as no
    other term can match; an analyzer with none of its terms hit returns
    nothing at once.

    One stretch of text is one piece of evidence: a span contained in a
    longer span from the same example's term set is dropped, so "t test"
    inside an occurrence of "students t test" does not double-count. The
    exception is a one-edit span that only adds one character to an exact
    span: the exact span is kept and the one-edit span dropped, so in "the
    effect size of" the match is "effect size", not "effect sizes" one edit
    from "effect size ". Positives gain supporting phrases and pass through
    the skip matchers; negatives are kept only when all supports matched.

    Examples share the analyzer's synonyms, so several may match one span.
    That span is one piece of evidence, kept once per polarity: from the
    example that scores highest, then from the first such example. Output is
    in the order it is built: positives then negatives, each by the first
    example that matched its span, then by span;
    `scoring.resolve_analyzer` orders the evidence it reports.
    """
    hit = piece_starts.hit
    if hit.isdisjoint(spec.terms):
        return []
    region = prefix_region(doc, spec.region_fraction)
    text = doc.normalized
    spans_of = {term: find_term(text, region, term, piece_starts) for term in spec.terms if term in hit}
    evidence: dict[tuple[str, Region], EvidenceMatch] = {}  # (polarity, span) -> its match
    for polarity, examples in ((POSITIVE, spec.positives), (NEGATIVE, spec.negatives)):
        for idx, example in enumerate(examples):
            by_span: dict[Region, str] = {}  # first term wins: primary, then synonyms
            for term in spec.candidate_terms(example):
                for span in spans_of.get(term, ()):
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
                if polarity == NEGATIVE and len(found) < len(example.normalized_supports):
                    continue  # unconfirmed negative evidence is discarded
                rival = evidence.get((polarity, span))
                if rival is None or len(found) > len(rival.matched_supports):
                    evidence[polarity, span] = EvidenceMatch(idx, polarity, term, span, tuple(found))
    return apply_skips(list(evidence.values()), spec.skips, text, config.skip_window)
