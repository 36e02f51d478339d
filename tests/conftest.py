import random
import re
from pathlib import Path

import pytest

from litscan.corpus import Bundle
from litscan.dsl import AnalyzerSpec, load_bundle
from litscan.ingest import Region, SourceMeta, make_document
from litscan.matching import MatchConfig, PieceScanner, PieceStarts, group_scanner, scan_pieces
from litscan.synthetic import FILLER_WORDS

REPO_ROOT = Path(__file__).resolve().parent.parent
ANALYZER_DIR = REPO_ROOT / "analyzers"
REGRESSION_DIR = Path(__file__).resolve().parent / "regression"


def make_doc(text: str, paper_id: str = "doc", journal: str = "J", year: int = 2015):
    return make_document(SourceMeta(paper_id=paper_id, journal=journal, year=year, path=""), text)


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


def scan_alone(text, target, config: MatchConfig = MatchConfig(), region: Region | None = None) -> PieceStarts:
    """The piece starts that `target` has when it is scanned for on its own.

    An analyzer (an AnalyzerSpec) is scanned for in `text`, a document, up
    to its region's end by `matching.group_scanner` for it alone. A list of
    terms is scanned for in `region` of `text`, a string (all of it by
    default), by their own scanner, in which a term is fuzzy when it has
    at least config.fuzzy_min_len characters, and at least 3: the rule
    group_scanner applies."""
    if isinstance(target, AnalyzerSpec):
        return scan_pieces(text, [target], group_scanner([target], config))
    min_len = max(config.fuzzy_min_len, 3)
    scanner = PieceScanner((term, len(term) >= min_len) for term in target)
    lo, hi = region or (0, len(text))
    return scanner.scan(text, max(lo, 0), min(hi, len(text)))


def skip_token(skip: re.Pattern) -> str:
    """The `[skip]` line that parses to `skip`."""
    flags = "i" if skip.flags & re.IGNORECASE else ""
    return f'#RegexpMatcher(r"{skip.pattern}"{flags})#'


def serialize_analyzer(spec: AnalyzerSpec) -> str:
    """Render a spec back to the file format. parse(serialize(spec)) is
    structurally equal to spec."""
    out = [f"analyzer: {spec.name}"]
    if spec.tags:
        out.append("tags: " + ", ".join(spec.tags))
    if spec.region_fraction != 1.0:
        out.append(f"region: prefix:{spec.region_fraction!r}")
    if spec.mode != "classify":
        out.append(f"mode: {spec.mode}")
    out.append("")
    out.append("[positive]")
    out.extend(ex.raw_line for ex in spec.positives)
    if spec.negatives:
        out.append("")
        out.append("[negative]")
        out.extend(ex.raw_line for ex in spec.negatives)
    if spec.skips:
        out.append("")
        out.append("[skip]")
        out.extend(skip_token(sk) for sk in spec.skips)
    if spec.synonyms:
        out.append("")
        out.append("[synonyms]")
        out.append(", ".join(f'"{s}"' for s in spec.synonyms))
    return "\n".join(out) + "\n"


def filler(n_words: int, seed: int = 11) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(FILLER_WORDS) for _ in range(n_words)]


@pytest.fixture(scope="session")
def bundle():
    return load_bundle(ANALYZER_DIR)


@pytest.fixture(scope="session")
def compiled(bundle):
    """The bundle compiled with the default match config; its scanners are
    built once for the session."""
    return Bundle(bundle)


@pytest.fixture(scope="session")
def by_name(bundle):
    return {spec.name: spec for spec in bundle}


@pytest.fixture(scope="session")
def match_config():
    return MatchConfig()
