import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filler, make_doc, osa_distance, scan_alone
from litscan.dsl import parse_analyzer, parse_skip_matcher
from litscan.ingest import Region
from litscan.matching import (
    EvidenceMatch,
    MatchConfig,
    PieceScanner,
    PieceStarts,
    _one_edit_distance,
    _pieces,
    apply_skips,
    find_supports,
    find_term,
    run_analyzer,
    group_scanner,
    scan_pieces,
)
from litscan.scoring import resolve_analyzer
from litscan.synthetic import strip_markers

# --- independent oracle -----------------------------------------------------
# Distance decided by first-mismatch analysis (prefix/suffix slicing), written
# apart from the implementation's own first-mismatch check; that check is
# compared with the osa_distance matrix below instead.


def one_edit_distance(a: str, b: str) -> int:
    """Exact edit distance capped at 2 ("more than one")."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return 2
    i = 0
    m = min(la, lb)
    while i < m and a[i] == b[i]:
        i += 1
    if la == lb:
        if a[i + 1 :] == b[i + 1 :]:
            return 1  # one substitution
        if a[i] == b[i + 1] and a[i + 1] == b[i] and a[i + 2 :] == b[i + 2 :]:
            return 1  # one adjacent transposition
        return 2
    if la < lb:
        a, b = b, a
    return 1 if a[:i] + a[i + 1 :] == b else 2  # one insertion/deletion


def oracle_find(text: str, region: Region, term: str, fuzzy_min_len: int = 8):
    """Brute force: score every substring of length |term|-1..|term|+1, then
    apply the span-selection contract (closest-then-longest per start; spans
    overlapped by a strictly closer span are dropped). A term gets one edit
    when it has at least fuzzy_min_len characters, and at least 3."""
    lo, hi = max(region.start, 0), min(region.end, len(text))
    length = len(term)
    fuzzy = length >= max(fuzzy_min_len, 3)
    lengths = (length,) if not fuzzy else (length - 1, length, length + 1)
    limit = 0 if not fuzzy else 1
    found = []
    for s in range(lo, hi):
        best = None
        for ln in lengths:
            if ln <= 0 or s + ln > hi:
                continue
            d = one_edit_distance(term, text[s : s + ln])
            if d <= limit and (best is None or (d, -ln) < best):
                best = (d, -ln)
        if best is not None:
            found.append((s, -best[1], best[0]))
    return [
        Region(s, s + ln)
        for s, ln, d in found
        if not any(od < d and os < s + ln and os + oln > s for os, oln, od in found)
    ]


def exact_starts(text: str, lo: int, hi: int, piece: str) -> list[int]:
    """Every start of `piece` lying wholly inside text[lo:hi], one str.find
    pass per piece."""
    starts = []
    i = text.find(piece, lo, hi)
    while i != -1:
        starts.append(i)
        i = text.find(piece, i + 1, hi)
    return starts


# --- find_term --------------------------------------------------------------


def test_exact_occurrence_yields_one_exact_span():
    text, term = "we used a students t test to check", "students t test"
    spans = find_term(text, Region(0, len(text)), term, scan_alone(text, [term]))
    assert spans == [Region(10, 25)]


def test_substring_semantics_fire_inside_words():
    text = "several unit tests were written"
    spans = find_term(text, Region(0, len(text)), "t test", scan_alone(text, ["t test"]))
    assert spans == [Region(11, 17)]
    assert text[11:17] == "t test"


def test_single_deletion_matched_for_long_terms():
    text = "we ran the kolmogrov smirnov check"
    term = "kolmogorov smirnov"
    spans = find_term(text, Region(0, len(text)), term, scan_alone(text, [term]))
    assert spans == [Region(11, 28)]
    assert osa_distance(term, text[11:28]) == 1
    assert spans == oracle_find(text, Region(0, len(text)), term)


def test_transposition_across_the_midpoint_matched():
    # a swap across the term's middle: the pieces leave a gap there, so the
    # start piece still occurs whole where the span begins
    text = "we ran the kolmogorvo smirnov check"
    term = "kolmogorov smirnov"
    region = Region(0, len(text))
    shared = scan_alone(text, [term, "t test", "shapiro wilk"])
    assert find_term(text, region, term, scan_alone(text, [term])) == [Region(11, 29)]
    assert find_term(text, region, term, shared) == [Region(11, 29)]
    assert oracle_find(text, region, term) == [Region(11, 29)]
    assert osa_distance(term, text[11:29]) == 1


def test_short_terms_never_fuzzy():
    text = "a t tost here"
    assert find_term(text, Region(0, len(text)), "t test", scan_alone(text, ["t test"])) == []


def test_region_bounds_respected():
    text = "students t test early and students t test late"
    region = Region(0, 25)
    spans = find_term(text, region, "students t test", scan_alone(text, ["students t test"], region=region))
    assert spans == [Region(0, 15)]
    assert all(s.start >= region.start and s.end <= region.end for s in spans)


def test_empty_term_rejected():
    with pytest.raises(ValueError):
        find_term("abc", Region(0, 3), "", scan_alone("abc", []))


def test_one_edit_check_equals_capped_osa_distance_exhaustively():
    def strings(n):
        return ("".join(p) for p in itertools.product("ab", repeat=n))

    pairs = 0
    for n in range(7):
        for a in strings(n):
            for m in range(max(0, n - 2), n + 3):
                for b in strings(m):
                    assert _one_edit_distance(a, b) == min(osa_distance(a, b), 2), (a, b)
                    pairs += 1
    assert pairs == 42_321


norm_text = st.text(alphabet=st.sampled_from(list("ab ")), max_size=80)
norm_term = st.text(alphabet=st.sampled_from(list("ab ")), min_size=1, max_size=12)
# fuzzy_min_len values; 13, above every norm_term, makes every term exact
fuzzy_min_lens = st.sampled_from([2, 5, 8, 13])
EXACT = MatchConfig(fuzzy_min_len=13)


@settings(max_examples=200)
@given(norm_text, norm_term)
def test_exact_mode_equals_naive_substring_search(text, term):
    expected = []
    start = text.find(term)
    while start != -1:
        expected.append(Region(start, start + len(term)))
        start = text.find(term, start + 1)
    starts = scan_alone(text, [term], EXACT)
    assert find_term(text, Region(0, len(text)), term, starts) == expected


@settings(max_examples=200, deadline=None)
@given(norm_text, st.text(alphabet=st.sampled_from(list("ab ")), min_size=8, max_size=12))
def test_fuzzy_mode_agrees_with_oracle(text, term):
    region = Region(0, len(text))
    starts = scan_alone(text, [term])
    assert find_term(text, region, term, starts) == oracle_find(text, region, term)


def _draw_region(data, text):
    """A region lo <= hi drawn over the whole text."""
    lo = data.draw(st.integers(0, len(text)))
    return Region(lo, data.draw(st.integers(lo, len(text))))


@settings(max_examples=60, deadline=None)
@given(norm_text, norm_term, st.sampled_from([2, 5, 8]), st.data())
def test_fuzzy_oracle_agreement_on_subregions(text, term, fuzzy_min_len, data):
    # the term is planted, so that regions often hold a span of it
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + term + text[at:]
    region = _draw_region(data, text)
    got = find_term(text, region, term, scan_alone(text, [term], MatchConfig(fuzzy_min_len=fuzzy_min_len), region))
    assert got == oracle_find(text, region, term, fuzzy_min_len)
    assert all(s.start >= region.start and s.end <= region.end for s in got)


# --- shared piece scan ------------------------------------------------------


def _assert_scan_agrees_with_oracle(text, lo, hi, got):
    """The scan of text[lo:hi] that gave `got` kept some exact starts of
    each piece, ascending, and marked hit only terms with an exact piece
    start; find_term through it finds what the oracle finds there."""
    pieces = {p for term, layout in got.layouts.items() for p in _pieces(term, layout)}
    assert set(got) <= pieces
    for piece, starts in got.items():
        exact = exact_starts(text, lo, hi, piece)
        assert starts == sorted(set(starts)) and set(starts) <= set(exact), piece
    assert got.hit <= {
        term
        for term, layout in got.layouts.items()
        if any(exact_starts(text, lo, hi, p) for p in _pieces(term, layout))
    }
    region = Region(lo, hi)
    for term, (a, b, _) in got.layouts.items():
        # a term is fuzzy when its layout has a start piece; a fuzzy_min_len
        # of 3, the least length that gets an edit, or above its length,
        # then gives the oracle the same budget
        spans = find_term(text, region, term, got)
        assert spans == oracle_find(text, region, term, 3 if a != b else len(term) + 1), term
        assert not spans or term in got.hit, term


@settings(max_examples=300, deadline=None)
@given(
    norm_text,
    st.lists(norm_term, min_size=1, max_size=5),
    fuzzy_min_lens,
    st.data(),
)
def test_shared_scan_equals_single_term_search_and_oracle(text, terms, fuzzy_min_len, data):
    # over "ab " one piece is often a prefix of another, so hits fan out
    region = _draw_region(data, text)
    config = MatchConfig(fuzzy_min_len=fuzzy_min_len)
    shared = scan_alone(text, terms, config)
    _assert_scan_agrees_with_oracle(text, 0, len(text), shared)
    for term in terms:
        alone = find_term(text, region, term, scan_alone(text, [term], config, region))
        assert find_term(text, region, term, shared) == alone
        assert alone == oracle_find(text, region, term, fuzzy_min_len)


@settings(max_examples=300, deadline=None)
@given(st.lists(norm_term, min_size=1, max_size=5), fuzzy_min_lens, st.data())
def test_find_term_is_sound_on_every_exact_piece_start(terms, fuzzy_min_len, data):
    # text made of the terms' tails, where pieces occur with no span of their
    # term around them; no scan test is applied, so find_term alone must
    # keep only the true spans
    tails = sorted({term[i:] for term in terms for i in range(len(term))} | set("ab "))
    text = "".join(data.draw(st.lists(st.sampled_from(tails), max_size=20)))
    region = Region(0, len(text))
    layouts = scan_alone(text, terms, MatchConfig(fuzzy_min_len=fuzzy_min_len)).layouts
    every = PieceStarts(layouts)
    for term, layout in layouts.items():
        for piece in _pieces(term, layout):
            every[piece] = exact_starts(text, 0, len(text), piece)
    every.hit = set(layouts)
    for term in terms:
        got = find_term(text, region, term, every)
        assert got == oracle_find(text, region, term, fuzzy_min_len), term


def test_shared_scan_escapes_regex_metacharacters():
    terms = ["p.value", "a+b", "f(x)", "back\\slash", "cost $5", "mean (sd) + 1.5$"]
    text = (
        "pxvalue aab f(x) backslash cost $5 p.value a+b back\\slash mean (sd) + 1.5$ "
        "mean (sd) + 1,5$ f(x)) meann (sd) + 1.5$"
    )
    shared = scan_alone(text, terms)
    _assert_scan_agrees_with_oracle(text, 0, len(text), shared)
    region = Region(0, len(text))
    for term in terms:
        got = find_term(text, region, term, shared)
        assert got == oracle_find(text, region, term)
        assert got, term  # every term occurs at least once
    # unescaped, "." and "+" would also match "pxvalue" and "aab"
    assert [text[s:e] for s, e in find_term(text, region, "p.value", shared)] == ["p.value"]
    assert [text[s:e] for s, e in find_term(text, region, "a+b", shared)] == ["a+b"]


def test_scan_end_cuts_off_a_longer_piece_but_keeps_its_prefix():
    text = "xx zxqjv zxqjv"
    scanner = PieceScanner([("zx", False), ("zxqjv", False), ("qj", False)])
    # each term anchors on its first letter, so "zx" is a prefix of "zxqjv"
    assert scanner.layouts == {"zx": (0, 0, 0), "zxqjv": (0, 0, 0), "qj": (0, 0, 0)}
    assert scanner.scan(text, 0, 7) == {"zx": [3], "qj": [5]}
    assert scanner.scan(text, 0, 8) == {"zx": [3], "zxqjv": [3], "qj": [5]}
    assert scanner.scan(text, 4, len(text)) == {"zx": [9], "zxqjv": [9], "qj": [5, 11]}
    assert find_term(text, Region(0, 7), "zx", scan_alone(text, ["zx"], EXACT, Region(0, 7))) == [Region(3, 5)]
    assert find_term(text, Region(0, 7), "zxqjv", scan_alone(text, ["zxqjv"], EXACT, Region(0, 7))) == []


def test_a_piece_hit_only_as_a_prefix_still_hits_its_term():
    text = "xx zxcv yy"
    starts = PieceScanner([("zx", False), ("zxcv", False)]).scan(text, 0, len(text))
    _assert_scan_agrees_with_oracle(text, 0, len(text), starts)
    assert starts.layouts == {"zx": (0, 0, 0), "zxcv": (0, 0, 0)}
    assert starts == {"zx": [3], "zxcv": [3]}  # the regex matched only "zxcv"
    assert starts.hit == {"zx", "zxcv"}
    region = Region(0, len(text))
    assert find_term(text, region, "zx", starts) == [Region(3, 5)]
    assert find_term(text, region, "zxcv", starts) == [Region(3, 7)]
    spec = parse_analyzer("analyzer: nested\ntags: t\n\n[positive]\n[[[zx]]]\n[[[zxcv]]]\n")
    doc = make_doc(text)
    matches = run_analyzer(doc, spec, MatchConfig(), scan_alone(doc, spec))
    assert [(m.matched_term, m.span) for m in matches] == [("zx", Region(3, 5)), ("zxcv", Region(3, 7))]


@pytest.mark.parametrize("term, layout", [("abz", (0, 0, 2)), ("abzd", (0, 0, 2))])
def test_an_exact_term_anchored_near_its_end_is_checked_whole(term, layout):
    # the term's only start letter is its last or second-to-last character,
    # so its piece is one or two characters and its test checks the rest
    scanner = PieceScanner([(term, False)])
    assert scanner.layouts == {term: layout}
    piece = _pieces(term, layout)[0]
    for text in (
        term,
        f"{term} {term}{term}",
        f"b{piece} ab{piece}{piece} xb{piece} a{term[1:]} {term}",
        f"{piece}{term[:-1]}",
    ):
        for lo, hi in ((0, len(text)), (1, len(text)), (0, len(text) - 1)):
            starts = scanner.scan(text, lo, hi)
            _assert_scan_agrees_with_oracle(text, lo, hi, starts)
            assert find_term(text, Region(lo, hi), term, starts) == oracle_find(text, Region(lo, hi), term)
    text = f"b{piece} {term} xb{piece}"
    assert find_term(text, Region(0, len(text)), term, scanner.scan(text, 0, len(text))) == [
        Region(len(piece) + 2, len(piece) + 2 + len(term))
    ]


def test_pieces_that_can_make_no_span_are_not_recorded():
    # both pieces occur, but "power ana" runs on into "tomy", and "ysis"
    # follows "ral", not "anal", in a span that does not begin with "power"
    text = "paralysis of power anatomy"
    scanner = PieceScanner([("power analysis", True)])
    pieces = _pieces("power analysis", scanner.layouts["power analysis"])
    assert all(exact_starts(text, 0, len(text), p) for p in pieces), pieces
    starts = scanner.scan(text, 0, len(text))
    _assert_scan_agrees_with_oracle(text, 0, len(text), starts)
    assert starts == {} and starts.hit == set()


@pytest.mark.parametrize(
    "text, term",
    [
        ("the regression and", "linear regression"),
        ("the effect change", "effect size"),
        ("the confidence of the", "confidence interval"),
    ],
)
def test_a_lone_shared_word_records_no_start(compiled, text, term):
    # the text holds a piece of the term as the classification group cuts
    # it, and one word of the term without the other
    scanner = compiled.classification_scanner
    assert any(exact_starts(text, 0, len(text), p) for p in _pieces(term, scanner.layouts[term]))
    starts = scanner.scan(text, 0, len(text))
    assert starts == {} and starts.hit == set()


def test_a_prefix_piece_is_recorded_only_where_its_own_test_passes():
    # both terms anchor on "q", so "qvx" is a prefix of "qvxj"; in "cd qvxj"
    # only the longer piece has the rest of its term before it
    scanner = PieceScanner([("ab qvx", False), ("cd qvxj", False)])
    assert scanner.layouts == {"ab qvx": (0, 0, 3), "cd qvxj": (0, 0, 3)}
    for text, want in (
        ("cd qvxj", {"qvxj": [3]}),
        ("ab qvxj", {"qvx": [3]}),
        ("ab qvx cd qvxj", {"qvx": [3], "qvxj": [10]}),
    ):
        starts = scanner.scan(text, 0, len(text))
        _assert_scan_agrees_with_oracle(text, 0, len(text), starts)
        assert starts == want, text
        assert starts.hit == {term for term in scanner.layouts if term.endswith(tuple(want))}, text


@pytest.mark.parametrize(
    "term", ["effect size", "bayes factor", "power analysis", "linear regression", "mann whitney u test"]
)
def test_group_scan_is_sound_for_every_one_edit_variant_at_the_text_edges(compiled, term):
    # the end piece's test looks back as far as the longest span, which the
    # first characters of a text do not reach; offsets 0-2 put spans there
    scanner = compiled.classification_scanner
    assert 8 <= len(term) <= 20 and " " in term and term in scanner.layouts
    for variant in _one_edit_variants(term):
        placed = [(left, variant + " of the data") for left in ("", "a", "a ")]
        placed += [("we ran a ", variant + " of the data"), ("we ran a ", variant)]
        for left, right in placed:
            text = left + right
            starts = scanner.scan(text, 0, len(text))
            for region in (Region(0, len(text)), Region(0, len(left) + len(variant))):
                got = find_term(text, region, term, starts)
                assert got == oracle_find(text, region, term), (text, region)
                if variant == term:
                    assert Region(len(left), len(left) + len(term)) in got, (text, region)


@pytest.mark.parametrize("term", ["t test", "f test", "ks test", "anova", "mwu", "cohen d"])
def test_group_scan_finds_every_exact_term_whole_at_the_text_edges(compiled, term):
    # an exact term's one piece may be short, as its test checks the whole
    # term behind it; a term at offsets 0-2 or flush with the text end is
    # still found whole
    scanner = compiled.classification_scanner
    a, b, _ = scanner.layouts[term]
    assert a == b
    for variant in _one_edit_variants(term):
        placed = [(left, variant + " of the data") for left in ("", "a", "a ")]
        placed += [("we ran a ", variant), ("", variant)]
        for left, right in placed:
            text = left + right
            starts = scanner.scan(text, 0, len(text))
            for region in (Region(0, len(text)), Region(0, len(left) + len(variant))):
                got = find_term(text, region, term, starts)
                assert got == oracle_find(text, region, term), (text, region)
                if variant == term:
                    assert Region(len(left), len(left) + len(term)) in got, (text, region)


def test_a_piece_that_is_both_start_and_end_piece_keeps_both_tests():
    # "ab ab" on its own letters cuts "ab" twice; the one hit of "ab" fails
    # the end piece's test but passes the start piece's
    scanner = PieceScanner([("ab ab", True)])
    assert scanner.layouts["ab ab"] == (0, 2, 3)
    text = "ab aa"
    starts = scanner.scan(text, 0, len(text))
    _assert_scan_agrees_with_oracle(text, 0, len(text), starts)
    assert starts == {"ab": [0]} and starts.hit == {"ab ab"}
    region = Region(0, len(text))
    alone = scan_alone(text, ["ab ab"], MatchConfig(fuzzy_min_len=5), region)
    assert find_term(text, region, "ab ab", alone) == oracle_find(text, region, "ab ab", 5) == [region]


def test_scanner_without_pieces_finds_nothing():
    starts = PieceScanner([]).scan("any text", 0, 8)
    assert starts == {} and starts.hit == set()


def test_a_term_missing_from_the_scan_is_an_error():
    text = "we used a students t test"
    starts = PieceScanner([("t test", False)]).scan(text, 0, len(text))
    assert find_term(text, Region(0, len(text)), "t test", starts) == [Region(19, 25)]
    with pytest.raises(KeyError):
        find_term(text, Region(0, len(text)), "students t test", starts)


# --- start letters chosen per group -----------------------------------------


def _one_edit_variants(term):
    """The term, then every deletion, every adjacent swap, and every
    insertion or substitution of a character the term lacks."""
    outside = next(ch for ch in "qxzj" if ch not in term)
    yield term
    for i in range(len(term) + 1):
        yield term[:i] + outside + term[i:]
    for i in range(len(term)):
        yield term[:i] + term[i + 1 :]
        yield term[:i] + outside + term[i + 1 :]
        if i + 1 < len(term) and term[i] != term[i + 1]:
            yield term[:i] + term[i + 1] + term[i] + term[i + 2 :]


@pytest.mark.parametrize("mode", ["exclude", "classify"])
def test_group_start_letters_lose_no_one_edit_match(bundle, match_config, mode):
    # the whole text is scanned, whatever region the analyzers keep
    group = [spec._replace(region_fraction=1.0) for spec in bundle if spec.mode == mode]
    scanner = group_scanner(group, match_config)
    examples = [(spec, ex) for spec in group for ex in spec.positives + spec.negatives]
    terms = sorted({term for spec, ex in examples for term in spec.candidate_terms(ex)})
    words = itertools.cycle(filler(1000))
    for term in terms:
        fuzzy = len(term) >= match_config.fuzzy_min_len
        parts, slots = [], []
        for variant in _one_edit_variants(term):
            if variant != " ".join(variant.split()):
                continue  # normalized text has no runs of spaces
            parts.append(" ".join(next(words) for _ in range(3)) + " ")
            start = sum(map(len, parts))
            parts.append(variant + " ")
            slots.append((variant, Region(start, start + len(variant))))
        doc = make_doc("".join(parts) + "end")
        text, region = doc.normalized, Region(0, len(doc.normalized))
        assert text == "".join(parts) + "end"
        starts = scan_pieces(doc, group, scanner)
        a, b, c = starts.layouts[term]
        # two pieces with a gap between them, or a suffix alone
        assert (a < b < c if fuzzy else a == b) and c < len(term), term
        got = find_term(text, region, term, starts)
        assert got == find_term(text, region, term, scan_alone(text, [term], match_config, region)), term
        assert got == oracle_find(text, region, term), term
        for variant, slot in slots:
            if fuzzy or variant == term:
                assert any(s.start <= slot.end and slot.start <= s.end for s in got), (term, variant)


def test_terms_under_three_characters_match_only_exactly():
    spec = parse_analyzer("analyzer: short\ntags: t\n\n[positive]\n[[[aa]]]\n[[[xy]]]\n[[[ci]]]\n")
    config = MatchConfig(fuzzy_min_len=2)
    doc = make_doc("a xy yx x aa ba a q xyx aqa; we report a ci of an ic here; cancer incidence")
    text, region = doc.normalized, Region(0, len(doc.normalized))
    starts = scan_pieces(doc, [spec], group_scanner([spec], config))
    for term in ("aa", "xy", "ci"):
        exact = [Region(s, s + len(term)) for s in exact_starts(text, 0, len(text), term)]
        assert exact, term
        assert find_term(text, region, term, starts) == exact, term
        assert find_term(text, region, term, scan_alone(text, [term], config, region)) == exact, term
    matched = {(m.matched_term, text[m.span.start : m.span.end]) for m in run_analyzer(doc, spec, config, starts)}
    assert matched == {("aa", "aa"), ("xy", "xy"), ("ci", "ci")}


def _every_term_hit(starts: PieceStarts, group) -> PieceStarts:
    """The same piece starts with every candidate term of the group's
    examples marked hit, so that run_analyzer calls find_term for every term
    (and find_term raises KeyError for a term the scan left out)."""
    every = PieceStarts(starts.layouts)
    every.update(starts)
    every.hit = {t for spec in group for ex in spec.positives + spec.negatives for t in spec.candidate_terms(ex)}
    return every


def _bundle_vocabulary(bundle) -> list[str]:
    """Words, halves and one-edit variants of the bundle's terms, its
    supports, and filler, to build documents near its matches from."""
    vocab = set(filler(40))
    for spec in bundle:
        for term in spec.terms:
            mid = len(term) // 2
            vocab.update(term.split())
            vocab.update((term, term[:mid], term[mid:], term[:mid] + term[mid + 1 :]))
            vocab.add(term[: mid - 1] + term[mid] + term[mid - 1] + term[mid + 1 :])
        for example in spec.positives + spec.negatives:
            vocab.update(example.normalized_supports)
    return sorted(vocab)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_occurrence_gives_one_piece_of_evidence(bundle, compiled, match_config, data):
    # the examples of an analyzer share its synonyms, and its example lines
    # hold them, so several examples match one span; run_analyzer keeps one
    # match of each polarity there, and its evidence reports every one it keeps
    chunks = [strip_markers(ex.raw_line) for spec in bundle for ex in spec.positives + spec.negatives]
    chunks += [syn for spec in bundle for syn in spec.synonyms] + filler(20)
    doc = make_doc(" ".join(data.draw(st.lists(st.sampled_from(chunks), max_size=30))))
    groups = ((compiled.excluders, compiled.exclusion_scanner), (compiled.classifiers, compiled.classification_scanner))
    for group, scanner in groups:
        starts = scan_pieces(doc, group, scanner)
        for spec in group:
            matches = run_analyzer(doc, spec, match_config, starts)
            assert len({(m.polarity, m.span) for m in matches}) == len(matches), spec.name
            ev = resolve_analyzer(matches, spec)
            kept = ev.positive_matches + ev.negative_matches + ev.skipped_matches
            assert len(kept) == len(matches) and set(kept) == set(matches), spec.name


def test_a_span_two_examples_match_keeps_the_higher_score_then_the_first(match_config):
    spec = parse_analyzer(
        "analyzer: x\ntags: t\n[positive]\nthe [[[alpha test]]]\n__we ran__ the [[[beta test]]]\n"
        '[synonyms]\n"gamma test"\n'
    )
    for text, index, score in (("so we ran the gamma test", 1, 2), ("so the gamma test", 0, 1)):
        doc = make_doc(text)
        (m,) = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
        assert (m.example_index, m.score, m.matched_term) == (index, score, "gamma test")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_analyzer_on_hit_terms_equals_searching_every_term(bundle, compiled, match_config, data):
    vocab = _bundle_vocabulary(bundle)
    doc = make_doc(" ".join(data.draw(st.lists(st.sampled_from(vocab), max_size=60))))
    groups = ((compiled.excluders, compiled.exclusion_scanner), (compiled.classifiers, compiled.classification_scanner))
    for group, scanner in groups:
        starts = scan_pieces(doc, group, scanner)
        every = _every_term_hit(starts, group)
        for spec in group:
            got = run_analyzer(doc, spec, match_config, starts)
            assert got == run_analyzer(doc, spec, match_config, every), spec.name
            alone = scan_alone(doc, spec, match_config)
            assert got == run_analyzer(doc, spec, match_config, alone), spec.name


# --- find_supports ----------------------------------------------------------


def _support_doc(gap: int) -> tuple[str, Region]:
    primary = "anchorterm"
    text = primary + " " + "f" * (gap - 2) + " " + "needle words"
    return text, Region(0, len(primary))


def test_support_window_boundary_inclusive_exclusive():
    # support starting 499 characters past the span end is inside a 500 window
    text, span = _support_doc(499)
    assert text.find("needle") - span.end == 499
    assert find_supports(text, span, ("needle words",), 500) == ["needle words"]
    # at exactly 500 the half-open window excludes it
    text, span = _support_doc(500)
    assert find_supports(text, span, ("needle words",), 500) == []
    # well outside
    text, span = _support_doc(600)
    assert find_supports(text, span, ("needle words",), 500) == []


def test_supports_vacuous_and_counted_once():
    text = "used used used a students t test"
    span = Region(17, 32)
    assert find_supports(text, span, (), 500) == []
    assert find_supports(text, span, ("used",), 500) == ["used"]


def test_supports_search_before_and_after_span():
    text = "alpha anchorterm omega"
    span = Region(6, 16)
    assert find_supports(text, span, ("alpha", "omega", "missing"), 500) == ["alpha", "omega"]


@settings(max_examples=200)
@given(
    norm_text,
    st.lists(norm_term, max_size=4, unique=True),
    st.integers(0, 80),
    st.integers(0, 20),
    st.integers(1, 30),
)
def test_supports_are_the_phrases_starting_in_the_window(text, supports, start, length, window):
    span = Region(start, start + length)
    lo, hi = max(0, span.start - window), min(len(text), span.end + window)
    expected = [phrase for phrase in supports if any(text.startswith(phrase, i) for i in range(lo, hi))]
    assert find_supports(text, span, tuple(supports), window) == expected


# --- apply_skips ------------------------------------------------------------

SKIP = parse_skip_matcher(r'#RegexpMatcher(r"[a-zA-Z]{1}t(\s+|-)test"i)#')


def _match_at(text: str, term: str) -> EvidenceMatch:
    start = text.find(term)
    return EvidenceMatch(
        example_index=0,
        polarity="positive",
        matched_term=term,
        span=Region(start, start + len(term)),
        matched_supports=(),
    )


@pytest.mark.parametrize("field, value, message", [
    ("skip_window", -1, "skip_window must not be negative"),
    ("support_window", 0, "support_window must be positive"),
])
def test_match_config_rejects_bad_windows(field, value, message):
    with pytest.raises(ValueError, match=message):
        MatchConfig(**{field: value})
    assert MatchConfig(skip_window=0).skip_window == 0


def test_skip_fires_inside_unit_tests():
    text = "several unit tests were written"
    m = _match_at(text, "t test")
    (out,) = apply_skips([m], (SKIP,), text)
    assert out.skipped and out.skipped_by == SKIP.pattern


def test_skip_does_not_fire_on_plain_t_test():
    # hand evaluation: no letter immediately precedes the 't'
    text = "we used a t test for this"
    m = _match_at(text, "t test")
    (out,) = apply_skips([m], (SKIP,), text)
    assert not out.skipped


def test_skip_empty_list_is_identity():
    text = "several unit tests were written"
    matches = [_match_at(text, "t test")]
    assert apply_skips(matches, (), text) == matches


def test_skip_is_idempotent_and_only_flips_forward():
    text = "several unit tests were written"
    matches = [_match_at(text, "t test")]
    once = apply_skips(matches, (SKIP,), text)
    twice = apply_skips(once, (SKIP,), text)
    assert once == twice
    assert [m.span for m in once] == [m.span for m in matches]


def test_skip_never_touches_negative_matches():
    text = "several unit tests were written"
    m = _match_at(text, "t test")._replace(polarity="negative")
    (out,) = apply_skips([m], (SKIP,), text)
    assert not out.skipped


# --- run_analyzer -----------------------------------------------------------


def test_positive_example_with_supports_scores_high(by_name, match_config):
    doc = make_doc("We used a Student's t-test with the significance level α set to 0.05")
    spec = by_name["students_t_test"]
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    ev = resolve_analyzer(matches, spec)
    assert ev.verdict == "positive"
    assert ev.positive_matches
    top = ev.positive_matches[0]
    assert len(top.matched_supports) >= 1
    assert top.score >= 2


def test_negative_example_confirms(by_name, match_config):
    doc, spec = make_doc("We did not use a Student's t-test to compare"), by_name["students_t_test"]
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    negatives = [m for m in matches if m.polarity == "negative"]
    assert len(negatives) == 1
    assert len(negatives[0].matched_supports) == len(spec.negatives[negatives[0].example_index].normalized_supports)


class _CountingPattern:
    """Stands in for a compiled skip pattern and records each window it searches."""

    def __init__(self, compiled):
        self.pattern = compiled.pattern
        self.compiled = compiled
        self.windows: list[str] = []

    def finditer(self, window):
        self.windows.append(window)
        return self.compiled.finditer(window)


def test_skips_evaluate_each_distinct_span_once(by_name, match_config):
    # every example matches both spans, and only the two positive ones are searched
    doc, spec = make_doc("We did not use a Student's t-test; the unit tests ran."), by_name["students_t_test"]
    counting = _CountingPattern(SKIP)
    matches = run_analyzer(doc, spec._replace(skips=(counting,)), match_config, scan_alone(doc, spec, match_config))
    assert len(counting.windows) == 2
    assert sorted((m.polarity, m.matched_term, m.skipped_by) for m in matches) == [
        ("negative", "students t test", None),
        ("negative", "t test", None),
        ("positive", "students t test", None),
        ("positive", "t test", SKIP.pattern),
    ]
    assert matches == run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))


def test_empty_document_yields_nothing(by_name, match_config):
    doc, spec = make_doc(""), by_name["students_t_test"]
    assert run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config)) == []


def test_run_analyzer_deterministic(by_name, match_config):
    doc = make_doc("We used a Student's t-test and unit tests and a t test again")
    spec = by_name["students_t_test"]
    a = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    b = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert a == b


def test_region_restricted_analyzer_ignores_late_text(by_name, match_config):
    spec = by_name["secondary_study"]
    words = ["word"] * 3000
    late = " ".join(words) + " this systematic literature review surveys published evidence"
    doc = make_doc(late)
    assert run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config)) == []

    early = "this systematic literature review surveys published evidence " + " ".join(words)
    doc = make_doc(early)
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert matches
    limit = 0.05 * len(doc.normalized)
    assert all(m.span.end <= limit for m in matches)


def test_score_monotone_in_supports(by_name, match_config):
    spec = by_name["friedman_test"]
    bare = make_doc("the friedman test ran on ranked data")
    with_support = make_doc("we applied the friedman test ran on ranked data")
    score_bare = max(m.score for m in run_analyzer(bare, spec, match_config, scan_alone(bare, spec, match_config)))
    supported = run_analyzer(with_support, spec, match_config, scan_alone(with_support, spec, match_config))
    score_supported = max(m.score for m in supported)
    assert score_bare == 1
    assert score_supported >= score_bare + 1


def test_exact_span_beats_a_one_edit_span_one_character_longer(by_name, match_config):
    # "effect size " is one edit from the synonym "effect sizes"
    doc, spec = make_doc("the effect size of the treatment was large"), by_name["effect_size"]
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert matches
    for m in matches:
        assert m.matched_term == "effect size"
        assert m.span == Region(4, 15)
        assert doc.normalized[m.span.start : m.span.end] == "effect size"


def test_longer_one_edit_span_still_beats_an_exact_span_inside_it(by_name, match_config):
    # exact "t test" inside a misspelt "students t test"
    doc, spec = make_doc("we used a stkdents t test here"), by_name["students_t_test"]
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert matches
    assert {(m.matched_term, m.span) for m in matches} == {("students t test", Region(10, 25))}


def test_randomized_injections_agree_with_oracle():
    rng = random.Random(20240915)
    vocab = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "theta", "kappa"]
    for _ in range(150):
        words = [rng.choice(vocab) for _ in range(rng.randint(5, 60))]
        term = " ".join(rng.choice(vocab) for _ in range(2))[: rng.randint(8, 14)].strip()
        doc_words = words[:]
        variant = term
        for _ in range(rng.randint(0, 2)):
            pos = rng.randrange(len(variant))
            variant = variant[:pos] + rng.choice("abcdefgh") + variant[pos + 1 :]
        doc_words.insert(rng.randrange(len(doc_words) + 1), variant)
        text = " ".join(doc_words)
        region = Region(0, len(text))
        starts = scan_alone(text, [term])
        assert find_term(text, region, term, starts) == oracle_find(text, region, term)
