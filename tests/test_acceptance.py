"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

import pytest

from conftest import ANALYZER_DIR, filler, make_doc
from litscan.cli import main as cli_main
from litscan.corpus import CorpusResult, RunConfig, classify_paper, run_corpus
from litscan.dsl import parse_analyzer, serialize_analyzer
from litscan.ingest import Region, SourceMeta, load_manifest
from litscan.matching import find_term, run_analyzer
from litscan.scoring import aggregate_tags, resolve_analyzer
from litscan.synthetic import generate_corpus
from litscan.validation import GroundTruth, confusion, load_truth
from test_matching import oracle_find


def _insert(words: list[str], chunks: list[tuple[int, str]]) -> str:
    out = list(words)
    for pos, chunk in sorted(chunks, reverse=True):
        out[pos:pos] = chunk.split()
    return " ".join(out)


@pytest.fixture(scope="module")
def synthetic(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic-corpus")
    return generate_corpus(bundle, out, n_docs=200, words_per_doc=6000, seed=20240601)


def test_criterion_01_three_analyzer_tag_aggregation(compiled, by_name, match_config):
    words = filler(4200, seed=21)
    text = _insert(words, [
        (500, "We compared the two samples using the Mann-Whitney U test."),
        (1200, "We did not use a t-test to compare the two conditions."),
        (2400, "We report Cliffs delta for all pairwise comparisons."),
        (3600, "The Cliffs d statistic indicated a large difference across modules."),
    ])
    doc = make_doc(text)
    started = time.perf_counter()

    evidences = {
        name: resolve_analyzer(run_analyzer(doc, by_name[name], match_config), by_name[name])
        for name in ("mann_whitney_u", "students_t_test", "cliffs_delta")
    }
    assert evidences["mann_whitney_u"].verdict == "positive"
    assert len(evidences["mann_whitney_u"].positive_matches) == 2
    assert evidences["students_t_test"].verdict == "negative"
    assert len(evidences["students_t_test"].positive_matches) == 3
    assert len(evidences["students_t_test"].negative_matches) == 1
    assert evidences["cliffs_delta"].verdict == "positive"
    assert len(evidences["cliffs_delta"].positive_matches) == 4

    result, _ = classify_paper(doc, compiled, RunConfig())
    assert result.status == "analyzed"
    assert result.tag_verdicts["quantitative_analysis"] == "positive"
    assert result.tag_verdicts["statistical_test"] == "positive"
    assert result.tag_verdicts["non_parametric_test"] == "positive"
    assert result.tag_verdicts["parametric_test"] == "negative"

    classify_evidence = [
        resolve_analyzer(run_analyzer(doc, s, match_config), s)
        for s in compiled.classifiers
    ]
    counts = {
        s.tag: (len(s.positive_analyzers), len(s.negative_analyzers))
        for s in aggregate_tags(classify_evidence)
    }
    assert counts["quantitative_analysis"] == (2, 1)
    assert counts["statistical_test"] == (1, 1)
    assert counts["non_parametric_test"] == (1, 0)
    assert counts["parametric_test"] == (0, 1)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS: worked tag aggregation exact in {elapsed:.2f}s")


def test_criterion_02_skip_matchers_cancel_unit_tests(compiled, by_name, match_config):
    words = filler(4950, seed=22)
    traps = [(150 + 190 * i, "unit tests") for i in range(25)]
    text = _insert(words, traps)
    doc = make_doc(text)
    assert doc.word_count == 5000
    assert doc.normalized.count("unit tests") == 25

    matches = run_analyzer(doc, by_name["students_t_test"], match_config)
    assert len(matches) >= 25
    assert all(m.skipped for m in matches)
    result, _ = classify_paper(doc, compiled, RunConfig())
    assert result.tag_verdicts["parametric_test"] == "none"

    flipped = make_doc(text + " We used a Student's t-test")
    result, _ = classify_paper(flipped, compiled, RunConfig())
    assert result.tag_verdicts["parametric_test"] == "positive"
    print(f"ACCEPTANCE 02 PASS: 25 unit-test traps skipped ({len(matches)} matches), real t-test flips to positive")


def test_criterion_03_negative_evidence_overrides(by_name, match_config):
    text = (
        "We computed the effect size for all comparisons. "
        + " ".join(filler(200, seed=23))
        + " Furthermore, we have not conducted an effect size analysis on the data and results."
    )
    doc = make_doc(text)
    spec = by_name["effect_size"]
    ev = resolve_analyzer(run_analyzer(doc, spec, match_config), spec)
    assert ev.positive_matches, "positive phrasing should still match"
    assert ev.negative_matches, "the negation sentence must confirm"
    assert ev.verdict == "negative"
    print("ACCEPTANCE 03 PASS: confirmed negative overrides positive evidence")


def test_criterion_04_short_text_gate_boundary(compiled):
    short, _ = classify_paper(make_doc(" ".join(filler(3999, seed=24))), compiled, RunConfig())
    assert short.status == "skipped_short"
    long_enough, _ = classify_paper(make_doc(" ".join(filler(4000, seed=24))), compiled, RunConfig())
    assert long_enough.status == "analyzed"
    print("ACCEPTANCE 04 PASS: 3999 words skipped, 4000 words analyzed")


def test_criterion_05_prefix_region_rule(compiled):
    marker = "This systematic literature review surveys published evidence on the topic."
    words = filler(5000, seed=25)

    early = make_doc(_insert(words, [(200, marker)]))  # ~4% of the text
    limit = int(0.05 * len(early.normalized))
    start = early.normalized.find("systematic literature review")
    assert 0 < start and start + len("systematic literature review") <= limit
    result, _ = classify_paper(early, compiled, RunConfig())
    assert result.status == "excluded_secondary"

    late = make_doc(_insert(words, [(500, marker)]))  # ~10% of the text
    limit = int(0.05 * len(late.normalized))
    assert late.normalized.find("systematic literature review") > limit
    result, _ = classify_paper(late, compiled, RunConfig())
    assert result.status == "analyzed"
    print("ACCEPTANCE 05 PASS: marker at 4% excludes, at 10% does not")


def test_criterion_06_fuzzy_matcher_oracle_equivalence():
    rng = random.Random(614)
    alphabet = "abcdefghijklmnopqrstuvwxyz"

    def rand_words(target_chars: int) -> str:
        parts: list[str] = []
        size = 0
        while size < target_chars:
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 9)))
            parts.append(word)
            size += len(word) + 1
        return " ".join(parts)[:target_chars]

    started = time.perf_counter()
    trials = 0
    for _ in range(1000):
        doc = rand_words(rng.randint(200, 2000))
        term = rand_words(rng.randint(8, 30)).strip()
        if len(term) < 8:
            term = term + "x" * (8 - len(term))
        variant = term
        for _ in range(rng.randint(0, 2)):
            pos = rng.randrange(len(variant))
            op = rng.choice(("sub", "del", "ins"))
            if op == "sub":
                variant = variant[:pos] + rng.choice(alphabet) + variant[pos + 1 :]
            elif op == "del" and len(variant) > 1:
                variant = variant[:pos] + variant[pos + 1 :]
            else:
                variant = variant[:pos] + rng.choice(alphabet) + variant[pos:]
        cut = rng.randrange(len(doc) + 1)
        doc = doc[:cut] + " " + variant + " " + doc[cut:]
        region = Region(0, len(doc))
        assert find_term(doc, region, term, 1) == oracle_find(doc, region, term, 1)
        trials += 1
    elapsed = time.perf_counter() - started
    assert trials == 1000
    assert elapsed < 30.0
    print(f"ACCEPTANCE 06 PASS: 1000/1000 oracle agreements in {elapsed:.1f}s")


def test_criterion_07_synthetic_corpus_precision_recall(compiled, synthetic):
    metas = load_manifest(synthetic.manifest_path)
    started = time.perf_counter()
    rows = run_corpus(metas, compiled, RunConfig(), None, jobs=1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert all(error is None for _, _, error in rows)
    results = {r.meta.paper_id: r for _, r, _ in rows}
    assert all(r.status == "analyzed" for r in results.values())

    truth = load_truth(synthetic.truth_path)
    exact_ids = {p.paper_id for p in synthetic.plans if not p.typo}
    typo_ids = {p.paper_id for p in synthetic.plans if p.typo}
    assert typo_ids and exact_ids
    assert any(p.negated for p in synthetic.plans)
    assert any(p.traps for p in synthetic.plans)

    exact_rows = confusion(
        [results[i] for i in sorted(exact_ids)],
        [t for t in truth if t.paper_id in exact_ids],
    )
    for row in exact_rows:
        assert row.false_positive == 0, row
        assert row.false_negative == 0, row

    typo_rows = confusion(
        [results[i] for i in sorted(typo_ids)],
        [t for t in truth if t.paper_id in typo_ids],
    )
    for row in typo_rows:
        assert row.false_negative == 0, row
    print(
        f"ACCEPTANCE 07 PASS: FP=0 FN=0 on {len(exact_ids)} exact docs, "
        f"FN=0 on {len(typo_ids)} typo docs, {elapsed:.1f}s single-threaded"
    )


def test_criterion_08_determinism_and_throughput(bundle, synthetic, tmp_path):
    assert len(bundle) >= 20
    out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
    base = [
        "classify", "--manifest", str(synthetic.manifest_path),
        "--analyzers", str(ANALYZER_DIR),
    ]
    started = time.perf_counter()
    assert cli_main(base + ["--out", str(out1), "--jobs", "1"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert cli_main(base + ["--out", str(out8), "--jobs", "8"]) == 0

    assert (out1 / "results.csv").read_bytes() == (out8 / "results.csv").read_bytes()
    assert (out1 / "aggregates.csv").read_bytes() == (out8 / "aggregates.csv").read_bytes()
    reports1 = sorted(p.name for p in (out1 / "reports").iterdir())
    reports8 = sorted(p.name for p in (out8 / "reports").iterdir())
    assert reports1 == reports8 and len(reports1) == 200
    for name in reports1:
        assert (out1 / "reports" / name).read_bytes() == (out8 / "reports" / name).read_bytes()
    print(f"ACCEPTANCE 08 PASS: byte-identical outputs at jobs 1 vs 8, {elapsed:.1f}s at jobs 1")


def test_criterion_09_dsl_round_trip(bundle, by_name):
    for spec in bundle:
        assert parse_analyzer(serialize_analyzer(spec), spec.name) == spec
    ttest = by_name["students_t_test"]
    assert len(ttest.positives) == 3
    assert len(ttest.negatives) == 1
    assert len(ttest.skips) == 1
    assert len(ttest.synonyms) == 12
    assert len(ttest.tags) == 3
    print(f"ACCEPTANCE 09 PASS: {len(bundle)} analyzers round-trip; t-test anatomy 3/1/1/12/3")


def test_criterion_10_confusion_table_arithmetic():
    tag = "multiple_testing_correction"
    results, truth = [], []
    for i in range(42):
        if i < 5:
            verdict, label = "positive", "present"   # true positives
        elif i == 5:
            verdict, label = "positive", "absent"    # one false positive
        else:
            verdict, label = "none", "absent"        # 36 true negatives
        results.append(
            CorpusResult(
                meta=SourceMeta(f"v{i:02d}", "J", 2008, ""),
                status="analyzed",
                tag_verdicts={tag: verdict},
                word_count=5000,
            )
        )
        truth.append(GroundTruth(f"v{i:02d}", tag, label))
    (row,) = confusion(results, truth)
    assert (row.true_positive, row.false_positive, row.true_negative, row.false_negative) == (5, 1, 36, 0)
    assert row.total_labeled == 42
    print("ACCEPTANCE 10 PASS: confusion row P=5 FP=1 TN=36 FN=0 total=42")
