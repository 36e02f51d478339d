"""The benchmark's own text model and one-edit term detector.

Nothing here imports litscan.ingest or litscan.matching: the generators use
this module to prove their filler inert, so a change to the matcher under
test cannot change what the benchmark counts as inert.

Two normalization models are checked, because filler must stay inert both
under litscan's documented rules and under a stricter future normalize:

current  apostrophes dropped, hyphens and whitespace runs collapse to one
         space, lowercased (litscan's documented rules)
folded   NFKC (ligatures), hyphenated line breaks joined, soft hyphens and
         zero-width spaces dropped, dashes as spaces, casefolded, combining
         marks stripped
"""

import re
import unicodedata

# litscan's default --fuzzy-min-len: shorter terms match only exactly.
FUZZY_MIN_LEN = 8

_CURRENT_APOSTROPHES = re.compile("['\u2019]")
_CURRENT_SEPARATORS = re.compile("[\\s\\-\u2010\u2011]+")
_FOLDED_LINE_HYPHEN = re.compile(r"(?<=\w)-[ \t]*\r?\n\s*(?=\w)")
_FOLDED_DROPPED = re.compile("['\u2018\u2019\u02bc\u00ad\u200b]")
_FOLDED_SEPARATORS = re.compile("[\\s\\-\u2010-\u2015\u2212]+")


def normalize_current(raw: str) -> str:
    text = _CURRENT_APOSTROPHES.sub("", raw)
    return _CURRENT_SEPARATORS.sub(" ", text).strip().lower()


def normalize_folded(raw: str) -> str:
    text = unicodedata.normalize("NFKC", raw)
    text = _FOLDED_LINE_HYPHEN.sub("", text)
    text = _FOLDED_DROPPED.sub("", text)
    text = _FOLDED_SEPARATORS.sub(" ", text).strip().casefold()
    return "".join(c for c in unicodedata.normalize("NFKD", text) if not unicodedata.combining(c))


MODELS = (normalize_current, normalize_folded)


def word_count(raw: str) -> int:
    """Words as litscan's short-text gate counts them."""
    return len(normalize_current(raw).split())


def within_one_edit(a: str, b: str) -> bool:
    """True when the restricted Damerau-Levenshtein distance of a and b is
    at most 1 (one substitution, insertion, deletion or adjacent swap)."""
    if a == b:
        return True
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if la - lb > 1:
        return False
    i = 0
    while i < lb and a[i] == b[i]:
        i += 1
    if la > lb:
        return a[i + 1:] == b[i:]
    return a[i + 1:] == b[i + 1:] or (
        a[i + 1:i + 2] == b[i:i + 1] and a[i:i + 1] == b[i + 1:i + 2] and a[i + 2:] == b[i + 2:]
    )


class TermIndex:
    """Finds which terms occur in a text: exactly for terms shorter than
    FUZZY_MIN_LEN, within one edit for the others.

    The one-edit search is exhaustive. Split a term into thirds; one edit
    touches at most two adjacent characters, so at least one third occurs
    verbatim in any window within one edit, shifted by at most one
    position. Every occurrence of every third proposes three window starts
    and each is tested at lengths L-1, L and L+1.
    """

    def __init__(self, terms):
        self.terms = sorted(set(terms))
        self.exact = [t for t in self.terms if len(t) < FUZZY_MIN_LEN]
        self.pieces: list[tuple[str, int, str]] = []
        for t in self.terms:
            if len(t) >= FUZZY_MIN_LEN:
                a, b = len(t) // 3, 2 * len(t) // 3
                self.pieces += [(t[:a], 0, t), (t[a:b], a, t), (t[b:], b, t)]
        self.alphabet = frozenset("".join(self.terms))

    def hits(self, text: str) -> set[str]:
        found = {t for t in self.exact if t in text}
        for piece, off, term in self.pieces:
            if term not in found and _fuzzy_hit(text, piece, off, term):
                found.add(term)
        return found


def _fuzzy_hit(text: str, piece: str, off: int, term: str) -> bool:
    n, length = len(text), len(term)
    q = text.find(piece)
    while q != -1:
        for s in (q - off - 1, q - off, q - off + 1):
            if s < 0:
                continue
            for ln in (length - 1, length, length + 1):
                if s + ln <= n and within_one_edit(text[s:s + ln], term):
                    return True
        q = text.find(piece, q + 1)
    return False
