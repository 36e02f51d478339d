import random
from pathlib import Path

import pytest

from litscan.corpus import Bundle
from litscan.dsl import load_bundle
from litscan.ingest import SourceMeta, make_document
from litscan.matching import MatchConfig
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
