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
