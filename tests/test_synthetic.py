import random
from pathlib import Path

from conftest import make_doc, osa_distance, scan_alone
from litscan.ingest import normalize
from litscan.matching import run_analyzer
from litscan.scoring import VERDICT_NEGATIVE, VERDICT_NONE, VERDICT_POSITIVE, resolve_analyzer
from litscan.synthetic import (
    FILLER_WORDS,
    TRAP_CHUNK,
    fuzzy_terms,
    generate_corpus,
    inject_typo,
    strip_markers,
)


def _verdicts(doc, bundle, match_config):
    return {
        spec.name: resolve_analyzer(
            run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config)), spec
        ).verdict
        for spec in bundle
        if spec.mode == "classify"
    }


def _pad(seed: int) -> str:
    rng = random.Random(seed)
    return " ".join(rng.choice(FILLER_WORDS) for _ in range(10))


def test_filler_vocabulary_is_inert(bundle, match_config):
    # every ordered word bigram, so no two-word window can trigger a matcher
    pairs = " ".join(f"{a} {b}" for a in FILLER_WORDS for b in FILLER_WORDS)
    doc = make_doc(pairs)
    for spec in bundle:
        assert run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config)) == [], spec.name


def test_exact_chunks_fire_only_their_analyzer(bundle, match_config):
    classify = [s for s in bundle if s.mode == "classify"]
    for spec in classify:
        for example in spec.positives:
            chunk = strip_markers(example.raw_line)
            doc = make_doc(f"{_pad(1)} {chunk} {_pad(2)}")
            verdicts = _verdicts(doc, classify, match_config)
            assert verdicts[spec.name] == VERDICT_POSITIVE, (spec.name, chunk)
            for other, verdict in verdicts.items():
                if other != spec.name:
                    assert verdict == VERDICT_NONE, (spec.name, other, chunk)


def test_negation_chunks_resolve_negative(bundle, match_config):
    classify = [s for s in bundle if s.mode == "classify"]
    for spec in classify:
        for example in spec.negatives:
            chunk = strip_markers(example.raw_line)
            doc = make_doc(f"{_pad(3)} {chunk} {_pad(4)}")
            verdicts = _verdicts(doc, classify, match_config)
            assert verdicts[spec.name] == VERDICT_NEGATIVE, (spec.name, chunk)
            for other, verdict in verdicts.items():
                if other != spec.name:
                    assert verdict == VERDICT_NONE, (spec.name, other, chunk)


def test_trap_chunk_is_skipped_everywhere(bundle, match_config, by_name):
    doc = make_doc(f"{_pad(5)} {TRAP_CHUNK} {_pad(6)}")
    verdicts = _verdicts(doc, bundle, match_config)
    assert all(v == VERDICT_NONE for v in verdicts.values())
    spec = by_name["students_t_test"]
    matches = run_analyzer(doc, spec, match_config, scan_alone(doc, spec, match_config))
    assert matches and all(m.skipped for m in matches)


def test_inject_typo_produces_normalized_distance_one():
    rng = random.Random(9)
    for term in ("students t test", "kolmogorov smirnov", "bonferroni", "cohens d"):
        for _ in range(25):
            variant = inject_typo(term, rng)
            assert variant is not None
            assert osa_distance(term, variant) == 1
            assert normalize(variant)[0] == variant  # already in normalized form


def test_fuzzy_terms_only_long_ones(by_name, compiled):
    terms = fuzzy_terms(by_name["students_t_test"], compiled)
    assert "t test" not in terms
    assert "students t test" in terms


def test_generate_corpus_is_deterministic(bundle, tmp_path):
    a = generate_corpus(bundle, tmp_path / "a", n_docs=12, words_per_doc=4500, seed=77)
    b = generate_corpus(bundle, tmp_path / "b", n_docs=12, words_per_doc=4500, seed=77)
    assert a.plans == b.plans
    assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
    for plan in a.plans:
        pa = (Path(a.out_dir) / "docs" / f"{plan.paper_id}.txt").read_bytes()
        pb = (Path(b.out_dir) / "docs" / f"{plan.paper_id}.txt").read_bytes()
        assert pa == pb
    assert a.truth_path.read_bytes() == b.truth_path.read_bytes()


def test_generated_documents_hit_word_target(bundle, tmp_path):
    corpus = generate_corpus(bundle, tmp_path, n_docs=6, words_per_doc=4200, seed=5)
    for plan in corpus.plans:
        doc = make_doc((tmp_path / "docs" / f"{plan.paper_id}.txt").read_text())
        assert doc.word_count == 4200
