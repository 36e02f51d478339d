"""Seeded synthetic-corpus generator with ground-truth labels.

Documents are built from an inert filler vocabulary (checked to trigger no
analyzer) into which the generator plants, at well-separated positions:

  * exact positive example sentences (analyzer must fire),
  * variants of long primary terms with a single injected typo (the fuzzy
    matcher must still fire),
  * negation template sentences (the analyzer must resolve negative),
  * "unit tests" trap phrases (skip matchers must cancel the match).

Planted chunks are kept far enough apart that one chunk's support phrases
cannot confirm evidence around another chunk's primary match. Typo variants
are re-drawn until the target analyzer verifies positive on a miniature
document, so every planting is guaranteed detectable by construction.
"""

import csv
import random
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus import Bundle
from .dsl import AnalyzerSpec
from .ingest import SourceMeta, make_document, normalize, word_count_of
from .matching import MatchConfig, osa_distance, run_analyzer
from .scoring import VERDICT_POSITIVE, resolve_analyzer

FILLER_WORDS = (
    "the of and to in for with on by from as at about under over between "
    "during within without across many several some each both more most "
    "other same different common general simple large small new early "
    "later recent overall given using based according results findings "
    "section figure table chapter approach method technique framework "
    "process project software source code module component service "
    "interface design structure pattern feature version release change "
    "update issue defect fault failure quality metric measure value "
    "number level degree extent range scope goal task activity practice "
    "guideline standard criterion context environment domain industry "
    "organization team developer engineer researcher participant subject "
    "case example instance detail aspect factor element item point idea "
    "concept topic question answer discussion conclusion summary "
    "introduction background motivation evaluation assessment"
).split()

TRAP_CHUNK = "the unit tests were run on every build"

_SEPARATION_WORDS = 150  # keeps chunks outside each other's support windows
_WRAP_WIDTH = 12  # words per line in the written text files


@dataclass(frozen=True)
class DocPlan:
    paper_id: str
    journal: str
    year: int
    words: int
    exact: tuple[str, ...]
    typo: tuple[str, ...]
    negated: tuple[str, ...]
    traps: int


@dataclass(frozen=True)
class SyntheticCorpus:
    out_dir: Path
    manifest_path: Path
    truth_path: Path
    plans: tuple[DocPlan, ...]
    tags: tuple[str, ...]


def strip_markers(raw_line: str) -> str:
    """Turn an annotated example line back into plain prose."""
    return raw_line.replace("[[[", "").replace("]]]", "").replace("__", "")


def fuzzy_terms(spec: AnalyzerSpec, min_len: int) -> list[str]:
    terms: list[str] = []
    for ex in spec.positives:
        for t in spec.candidate_terms(ex):
            if len(t) >= min_len and t not in terms:
                terms.append(t)
    return terms


def inject_typo(term: str, rng: random.Random) -> str | None:
    """One random edit (substitution, deletion, insertion, or adjacent swap)
    that keeps the variant in normalized form at distance exactly 1."""
    letters = string.ascii_lowercase
    for _ in range(50):
        op = rng.choice(("sub", "delete", "insert", "swap"))
        if op == "sub":
            i = rng.randrange(len(term))
            if term[i] == " ":
                continue
            variant = term[:i] + rng.choice(letters.replace(term[i], "a" if term[i] != "a" else "b")) + term[i + 1 :]
        elif op == "delete":
            i = rng.randrange(len(term))
            variant = term[:i] + term[i + 1 :]
        elif op == "insert":
            i = rng.randrange(len(term) + 1)
            variant = term[:i] + rng.choice(letters) + term[i:]
        else:
            i = rng.randrange(len(term) - 1)
            if term[i] == term[i + 1]:
                continue
            variant = term[:i] + term[i + 1] + term[i] + term[i + 2 :]
        if (
            variant != term
            and "  " not in variant
            and not variant.startswith(" ")
            and not variant.endswith(" ")
            and osa_distance(term, variant) == 1
        ):
            return variant
    return None


def _mini_doc_verdict(chunk: str, spec: AnalyzerSpec, config: MatchConfig, rng: random.Random) -> str:
    pad = " ".join(rng.choice(FILLER_WORDS) for _ in range(8))
    meta = SourceMeta(paper_id="probe", journal="probe", year=2000, path="")
    doc = make_document(meta, f"{pad} {chunk} {pad}")
    return resolve_analyzer(run_analyzer(doc, spec, config), spec).verdict


def _pick_typo_chunk(
    spec: AnalyzerSpec, config: MatchConfig, rng: random.Random
) -> str | None:
    terms = fuzzy_terms(spec, config.fuzzy_min_len)
    if not terms:
        return None
    for _ in range(20):
        term = rng.choice(terms)
        variant = inject_typo(term, rng)
        if variant is None:
            continue
        if _mini_doc_verdict(variant, spec, config, rng) == VERDICT_POSITIVE:
            return variant
    return None


def _spaced_positions(rng: random.Random, n_chunks: int, n_words: int) -> list[int]:
    if n_chunks == 0:
        return []
    for _ in range(200):
        positions = sorted(rng.sample(range(n_words), n_chunks))
        if all(b - a >= _SEPARATION_WORDS for a, b in zip(positions, positions[1:])):
            return positions
    # corpus parameters make this unreachable for sane chunk counts
    return sorted(rng.sample(range(n_words), n_chunks))


def _wrap(words: list[str]) -> str:
    lines = [
        " ".join(words[i : i + _WRAP_WIDTH]) for i in range(0, len(words), _WRAP_WIDTH)
    ]
    return "\n".join(lines) + "\n"


def generate_corpus(
    bundle: list[AnalyzerSpec],
    out_dir: str | Path,
    n_docs: int = 200,
    words_per_doc: int = 6000,
    seed: int = 20240601,
    config: MatchConfig | None = None,
    journals: tuple[str, ...] = ("JA", "JB", "JC", "JD", "JE"),
    years: tuple[int, ...] = (2011, 2012, 2013, 2014, 2015),
) -> SyntheticCorpus:
    """Write a labelled corpus under out_dir: docs/, manifest.csv, truth.csv,
    plantings.csv. Fully deterministic for a given bundle and seed."""
    out_dir = Path(out_dir)
    docs_dir = out_dir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    config = config or MatchConfig()
    rng = random.Random(seed)

    compiled = Bundle(bundle, config)
    classifiers = compiled.classifiers
    typo_capable = [s for s in classifiers if fuzzy_terms(s, config.fuzzy_min_len)]
    negation_capable = [s for s in classifiers if s.negatives]
    tags = compiled.tags
    by_name = {s.name: s for s in classifiers}

    plans: list[DocPlan] = []
    manifest_rows: list[list] = []
    truth_rows: list[list[str]] = []

    for i in range(n_docs):
        paper_id = f"synth-{i:04d}"
        journal = rng.choice(journals)
        year = rng.choice(years)

        n_pos = rng.randint(0, 3)
        planted = rng.sample(classifiers, min(n_pos, len(classifiers)))
        exact: list[tuple[str, str]] = []  # (analyzer, chunk)
        typo: list[tuple[str, str]] = []
        for spec in planted:
            chunk = None
            if spec in typo_capable and rng.random() < 0.35:
                chunk = _pick_typo_chunk(spec, config, rng)
                if chunk is not None:
                    typo.append((spec.name, chunk))
            if chunk is None:
                example = rng.choice(spec.positives)
                exact.append((spec.name, strip_markers(example.raw_line)))

        negated: list[tuple[str, str]] = []
        if rng.random() < 0.30:
            candidates = [s for s in negation_capable if s.name not in {n for n, _ in exact + typo}]
            if candidates:
                spec = rng.choice(candidates)
                negated.append((spec.name, strip_markers(rng.choice(spec.negatives).raw_line)))

        traps = rng.randint(1, 3) if rng.random() < 0.30 else 0

        chunks = [c for _, c in exact + typo + negated] + [TRAP_CHUNK] * traps
        rng.shuffle(chunks)
        # words counted as the engine will see them ("Mann-Whitney" is two)
        chunk_words = sum(word_count_of(normalize(c)[0]) for c in chunks)
        n_filler = max(words_per_doc - chunk_words, _SEPARATION_WORDS * (len(chunks) + 1))
        words = [rng.choice(FILLER_WORDS) for _ in range(n_filler)]
        for pos, chunk in zip(reversed(_spaced_positions(rng, len(chunks), n_filler)), reversed(chunks)):
            words[pos:pos] = chunk.split()

        text = _wrap(words)
        (docs_dir / f"{paper_id}.txt").write_text(text, encoding="utf-8")
        manifest_rows.append([paper_id, journal, year, f"docs/{paper_id}.txt"])

        positive_analyzers = {n for n, _ in exact} | {n for n, _ in typo}
        positive_tags = {t for n in positive_analyzers for t in by_name[n].tags}
        for tag in tags:
            truth_rows.append([paper_id, tag, "present" if tag in positive_tags else "absent"])

        plans.append(
            DocPlan(
                paper_id=paper_id,
                journal=journal,
                year=year,
                words=n_filler + chunk_words,
                exact=tuple(sorted(n for n, _ in exact)),
                typo=tuple(sorted(n for n, _ in typo)),
                negated=tuple(sorted(n for n, _ in negated)),
                traps=traps,
            )
        )

    manifest_path = out_dir / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["paper_id", "journal", "year", "path"])
        writer.writerows(manifest_rows)

    truth_path = out_dir / "truth.csv"
    with open(truth_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["paper_id", "tag", "label"])
        writer.writerows(truth_rows)

    with open(out_dir / "plantings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["paper_id", "exact", "typo", "negated", "traps"])
        for p in plans:
            writer.writerow(
                [p.paper_id, ";".join(p.exact), ";".join(p.typo), ";".join(p.negated), p.traps]
            )

    return SyntheticCorpus(
        out_dir=out_dir,
        manifest_path=manifest_path,
        truth_path=truth_path,
        plans=tuple(plans),
        tags=tags,
    )
