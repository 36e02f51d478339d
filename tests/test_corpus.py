import csv
import io
import os
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANALYZER_DIR, REGRESSION_DIR, filler, make_doc
from litscan import corpus, ingest, matching
from litscan.cli import main
from litscan.corpus import (
    RESULT_COLUMNS,
    Bundle,
    CorpusResult,
    RunConfig,
    aggregate,
    aggregates_csv,
    classify_paper,
    emit_csv,
    read_results_csv,
    run_corpus,
)
from litscan.dsl import load_bundle
from litscan.ingest import (
    STATUS_ANALYZED,
    STATUSES,
    Region,
    SourceMeta,
    gate_short,
    load_manifest,
    normalize,
    prefix_region,
)
from litscan.matching import EvidenceMatch, run_analyzer, scan_pieces
from litscan.pool import fork_map
from litscan.report import _raw_span, render_report
from litscan.scoring import VERDICTS, AnalyzerEvidence, aggregate_tags, decide_exclusion, resolve_analyzer
from litscan.synthetic import FILLER_WORDS, TRAP_CHUNK, strip_markers
from test_ingest import RAW_ALPHABET


def _result(pid, journal, year, status="analyzed", verdicts=None, words=5000):
    return CorpusResult(
        meta=SourceMeta(pid, journal, year, ""),
        status=status,
        tag_verdicts=verdicts or {},
        word_count=words,
    )


def test_classify_paper_short_text(compiled):
    doc = make_doc(" ".join(filler(3000)))
    result, report = classify_paper(doc, compiled, RunConfig())
    assert result.status == "skipped_short"
    assert result.tag_verdicts == {}
    assert "skipped_short" in report


def test_classify_paper_secondary_exclusion(compiled):
    words = filler(5000)
    words[10:10] = "we present a systematic mapping study of research on testing".split()
    doc = make_doc(" ".join(words))
    result, report = classify_paper(doc, compiled, RunConfig())
    assert result.status == "excluded_secondary"
    assert result.tag_verdicts == {}
    assert any(line.startswith("analyzer secondary_study: positive ") for line in report.splitlines())
    assert "excluded" in report


def test_exclusion_pass_scans_only_the_exclusion_region(compiled, monkeypatch):
    (fraction,) = {s.region_fraction for s in compiled.excluders}
    ranges = []
    real = matching.PieceScanner.scan

    def scan(self, text, lo, hi):
        ranges.append((lo, hi))
        return real(self, text, lo, hi)

    monkeypatch.setattr(matching.PieceScanner, "scan", scan)
    words = filler(5000)
    words[10:10] = "we present a systematic mapping study of research on testing".split()
    doc = make_doc(" ".join(words))
    result, _ = classify_paper(doc, compiled, RunConfig())
    assert result.status == "excluded_secondary"
    assert ranges == [(0, prefix_region(doc, fraction).end)]
    assert 0 < ranges[0][1] < len(doc.normalized) / 10

    ranges.clear()
    doc = make_doc(" ".join(filler(5000)))
    result, _ = classify_paper(doc, compiled, RunConfig())
    assert result.status == "analyzed"
    assert ranges == [(0, prefix_region(doc, fraction).end), (0, len(doc.normalized))]


def test_classify_paper_reports_evidence(compiled):
    words = filler(4500)
    words[200:200] = "We used a Student's t-test and also ran unit tests daily".split()
    doc = make_doc(" ".join(words))
    result, report = classify_paper(doc, compiled, RunConfig())
    assert result.status == "analyzed"
    assert result.tag_verdicts["parametric_test"] == "positive"
    assert "»" in report and "«" in report
    assert "supports: [used]" in report
    assert "skipped by" in report  # the unit-tests trap shows up separately


def test_report_keeps_evidence_lines_whole_across_line_breaks(compiled):
    breaks = "".join(chr(c) for c in range(sys.maxunicode + 1) if len(f"a{chr(c)}b".splitlines()) > 1)
    assert "\x0c" in breaks  # pdftotext's page break
    words = filler(4500)
    words[200:200] = ["We", f"used{breaks}a", "Student's", f"t{breaks}test", f"and{breaks}so", "on"]
    result, report = classify_paper(make_doc(" ".join(words)), compiled, RunConfig())
    assert result.tag_verdicts["parametric_test"] == "positive"
    evidence = [line for line in report.splitlines() if "»" in line]
    assert evidence and all("«" in line for line in evidence)
    assert any(line.endswith("supports: [used]") for line in evidence)


def test_report_section_lists_negative_positive_then_skipped_evidence():
    doc = make_doc("We did not use a t-test. We used a t-test here. The unit tests ran.")
    skip = r"[a-zA-Z]{1}t(\s+|-)test"
    negative = EvidenceMatch(0, "negative", "t test", Region(17, 23), ("did not use",))
    positive = EvidenceMatch(0, "positive", "t test", Region(35, 41), ("used",))
    skipped = EvidenceMatch(1, "positive", "t test", Region(55, 61), ("ran",), skip)
    evidence = AnalyzerEvidence("students_t_test", (positive,), (negative,), (skipped,), ("parametric_test",))
    assert render_report(doc, [evidence], []).splitlines() == [
        "paper: doc",
        "journal: J  year: 2015",
        "words: 17",
        "status: analyzed",
        "",
        "analyzer students_t_test: negative (total score 2)",
        "  negative evidence:",
        "    score=2 We did not use a »t-test«. We used a t-test here. The unit tests ran. supports: [did not use]",
        "  positive evidence:",
        "    score=2 We did not use a t-test. We used a »t-test« here. The unit tests ran. supports: [used]",
        "  skipped:",
        f"    skipped by {skip}: score=2 We did not use a t-test. We used a t-test here. The uni»t test«s ran."
        " supports: [ran]",
    ]


@pytest.mark.parametrize("fixture", sorted(REGRESSION_DIR.glob("*.txt")), ids=lambda p: p.stem)
def test_report_snippets_quote_the_raw_text_of_each_match(fixture, compiled, monkeypatch):
    # the regression fixtures hold ligatures, soft hyphens, dashes and 'İ':
    # the raw span a report quotes must normalize back to the matched span
    rendered = []
    monkeypatch.setattr(corpus, "render_report", lambda doc, evidences, _: rendered.append((doc, evidences)))
    meta = SourceMeta(fixture.stem, "regression", 2000, str(fixture))
    classify_paper(ingest.load_document(meta), compiled, RunConfig(short_threshold=0))
    [(doc, evidences)] = rendered
    matches = [m for ev in evidences for m in ev.positive_matches + ev.negative_matches + ev.skipped_matches]
    assert matches
    for span in (m.span for m in matches):
        rs, re_ = _raw_span(doc, span)
        assert doc.normalized[span.start:span.end] in normalize(doc.raw[rs:re_])[0]


def _classify_every_analyzer(doc, bundle, config):
    """`classify_paper` composed as when every analyzer was resolved and the
    tags were those of all classifier evidence: the reference that building
    evidence only for the analyzers that matched must equal."""
    doc = gate_short(doc, config.short_threshold)
    evidences, summaries, tag_verdicts = [], [], {}
    if doc.status == "analyzed":
        starts = scan_pieces(doc, bundle.excluders, bundle.exclusion_scanner)
        evidences = [resolve_analyzer(run_analyzer(doc, s, bundle.match, starts), s) for s in bundle.excluders]
        if decide_exclusion(evidences):
            doc = doc._replace(status="excluded_secondary")
        else:
            starts = scan_pieces(doc, bundle.classifiers, bundle.classification_scanner)
            found = [resolve_analyzer(run_analyzer(doc, s, bundle.match, starts), s) for s in bundle.classifiers]
            summaries = aggregate_tags(found, tuple(sorted({t for ev in found for t in ev.tags})))
            tag_verdicts = {s.tag: s.verdict for s in summaries}
            evidences += found
    result = CorpusResult(meta=doc.meta, status=doc.status, tag_verdicts=tag_verdicts, word_count=doc.word_count)
    return result, render_report(doc, evidences, summaries)


_SPECS = load_bundle(ANALYZER_DIR)
_LINES = [strip_markers(e.raw_line) for s in _SPECS for e in s.positives + s.negatives]
_LEADS = [strip_markers(e.raw_line) for s in _SPECS if s.mode == "exclude" for e in s.positives + s.negatives]
_SYNONYMS = [syn for s in _SPECS for syn in s.synonyms]
_CHUNK = st.one_of(*map(st.sampled_from, (_LINES, _SYNONYMS, [TRAP_CHUNK], FILLER_WORDS)))
_DAMAGE = [p for p in RAW_ALPHABET if not p.isalnum()]


@settings(max_examples=150, deadline=None)
@given(
    lead=st.sampled_from([""] + _LEADS),
    body=st.lists(st.tuples(_CHUNK, st.sampled_from([" "] * 4 + _DAMAGE)), max_size=30),
    pad=st.integers(0, 600),
)
def test_evidence_of_matched_analyzers_equals_resolving_every_analyzer(compiled, lead, body, pad):
    # an exclusion line as the lead, followed by enough filler, falls in the
    # exclusion region, so some drawn texts are excluded
    text = " ".join([lead, "".join(chunk + sep for chunk, sep in body)] + filler(pad, seed=pad))
    doc = make_doc(text)
    config = RunConfig(short_threshold=0)
    assert classify_paper(doc, compiled, config) == _classify_every_analyzer(doc, compiled, config)


def test_emit_csv_worked_row_ordering():
    tags = sorted(["non_parametric_test", "parametric_test", "quantitative_analysis", "statistical_test"])
    assert tags == ["non_parametric_test", "parametric_test", "quantitative_analysis", "statistical_test"]
    verdicts = {
        "quantitative_analysis": "positive",
        "statistical_test": "positive",
        "non_parametric_test": "positive",
        "parametric_test": "negative",
    }
    out = emit_csv([_result("p1", "EMSE", 2015, verdicts=verdicts)], tags)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["paper_id", "journal", "year", "words", "status"] + tags
    assert rows[1] == ["p1", "EMSE", "2015", "5000", "analyzed", "positive", "negative", "positive", "positive"]


def test_emit_csv_shapes_and_empty_cells():
    tags = ["ta", "tb"]
    results = [
        _result("p1", "J", 2001, verdicts={"ta": "positive", "tb": "none"}),
        _result("p2", "J", 2001, status="skipped_short", words=10),
    ]
    out = emit_csv(results, tags)
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(r) == 5 + len(tags) for r in rows)
    assert rows[2][5:] == ["", ""]
    assert out.endswith("\r\n")


def test_emit_csv_rfc4180_quoting():
    out = emit_csv([_result("p1", 'Jour,nal "X"', 2001, verdicts={})], [])
    assert '"Jour,nal ""X"""' in out


# cell text, often holding the characters CSV must quote; NUL is left out, as
# the csv module of Python 3.10 cannot read it back
_CELL = st.text(
    st.sampled_from(',"\r\n ') | st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    max_size=8,
)


@st.composite
def _results_and_tags(draw):
    tags = draw(st.lists(_CELL.filter(lambda t: t and t not in RESULT_COLUMNS), unique=True, max_size=4))
    results = []
    # classify writes each paper once, with a paper_id and a journal that are not blank
    for pid in draw(st.lists(_CELL.filter(str.strip), unique=True, max_size=6)):
        status = draw(st.sampled_from(STATUSES))
        verdicts = {t: draw(st.sampled_from(VERDICTS)) for t in tags} if status == STATUS_ANALYZED else {}
        meta = SourceMeta(pid, draw(_CELL.filter(str.strip)), draw(st.integers(1900, 2100)), "")
        results.append(CorpusResult(meta, status, verdicts, draw(st.integers(0, 10**6))))
    return results, tags


# each example writes a file, which can take longer than the default deadline on a busy host
@settings(deadline=None)
@given(_results_and_tags())
def test_read_results_csv_reads_back_what_emit_csv_writes(tmp_path_factory, results_and_tags):
    results, tags = results_and_tags
    path = tmp_path_factory.getbasetemp() / "results.csv"
    path.write_text(emit_csv(results, tags), encoding="utf-8", newline="")
    assert read_results_csv(path) == (results, tags)


def test_aggregate_arithmetic():
    results = [
        _result(f"p{i}", "EMSE", 2015, verdicts={"non_parametric_test": "positive" if i < 4 else "none"})
        for i in range(10)
    ]
    (row,) = aggregate(results, ["non_parametric_test"])
    assert row.papers_total == 10 and row.papers_analyzed == 10
    assert row.positives["non_parametric_test"] == 4
    assert list(csv.reader(io.StringIO(aggregates_csv([row], ["non_parametric_test"]))))[1][-1] == "0.4"


def test_aggregate_degenerate_cell():
    results = [_result("p1", "J", 2001, status="excluded_secondary")]
    (row,) = aggregate(results, ["ta"])
    assert row.papers_total == 1 and row.papers_analyzed == 0
    assert row.positives == {"ta": 0}
    assert list(csv.reader(io.StringIO(aggregates_csv([row], ["ta"]))))[1][-2:] == ["0", "0"]


def test_aggregate_row_per_journal_year():
    results = [
        _result(f"p{j}{y}", j, y)
        for j in ("A", "B", "C")
        for y in (2001, 2002)
    ]
    rows = aggregate(results, [])
    assert [(r.journal, r.year) for r in rows] == [
        ("A", 2001), ("A", 2002), ("B", 2001), ("B", 2002), ("C", 2001), ("C", 2002)
    ]


def _write_corpus(tmp_path: Path, texts: dict[str, str]) -> Path:
    docs = tmp_path / "docs"
    docs.mkdir(exist_ok=True)
    rows = ["paper_id,journal,year,path"]
    for i, (pid, text) in enumerate(texts.items()):
        (docs / f"{pid}.txt").write_text(text, encoding="utf-8")
        rows.append(f"{pid},EMSE,{2010 + i % 3},docs/{pid}.txt")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_corpus_isolates_per_paper_errors(compiled, tmp_path):
    manifest = _write_corpus(tmp_path, {"ok": "We used a Student's t-test. " + " ".join(filler(80))})
    metas = load_manifest(manifest) + [SourceMeta("missing", "J", 2011, str(tmp_path / "nope.txt"))]
    rows = run_corpus(metas, compiled, RunConfig(short_threshold=10), tmp_path, jobs=1)
    assert rows[0][2] is None
    assert rows[1][1] is None and "missing" in rows[1][2]



def test_a_run_builds_each_group_scanner_once(bundle, tmp_path, monkeypatch):
    builds = []  # the terms of each scanner built
    real = matching.PieceScanner.__init__

    def counting(self, terms):
        terms = set(terms)
        builds.append({term for term, _ in terms})
        real(self, terms)

    monkeypatch.setattr(matching.PieceScanner, "__init__", counting)
    texts = {f"p{i}": "We used a Student's t-test. " + " ".join(filler(60, seed=i)) for i in range(4)}
    metas = load_manifest(_write_corpus(tmp_path, texts))
    compiled = Bundle(bundle)
    rows = run_corpus(metas, compiled, RunConfig(short_threshold=10), tmp_path, jobs=1)
    assert [result.status for _, result, _ in rows] == ["analyzed"] * 4
    assert builds == [{t for s in group for t in s.terms} for group in (compiled.excluders, compiled.classifiers)]

    builds.clear()
    empty = tmp_path / "empty.csv"
    empty.write_text("paper_id,journal,year,path\n", encoding="utf-8")
    assert main(["classify", "--manifest", str(empty), "--analyzers", str(ANALYZER_DIR),
                 "--out", str(tmp_path / "out")]) == 0
    assert builds == []


@pytest.mark.parametrize("flags", [[], ["--fuzzy-min-len", "40"], ["--fuzzy-min-len", "19"]])
def test_match_flags_reach_the_scanners(flags, tmp_path, capsys):
    # the fixture's one match is a misspelt term, "Kolmogrov Smirnov"; the
    # term it matches, "kolmogorov smirnov", has 18 characters, so 19 is the
    # least --fuzzy-min-len that makes it exact
    tags = ("normality", "quantitative_analysis", "statistical_test")
    verdict = "none" if flags else "positive"
    fixture = REGRESSION_DIR / "fuzzy-term-typo.txt"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"paper_id,journal,year,path\n{fixture.stem},J,2015,{fixture}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
                 "--out", str(out), "--short-threshold", "0", *flags]) == 0
    header, row = _csv_rows(out / "results.csv")
    assert [row[header.index(tag)] for tag in tags] == [verdict] * 3

    capsys.readouterr()
    assert main(["report", str(fixture), "--analyzers", str(ANALYZER_DIR), "--journal", "J",
                 "--year", "2015", "--short-threshold", "0", *flags]) == 0
    report = capsys.readouterr().out
    assert all(re.search(rf"^  {tag} +{verdict} ", report, re.M) for tag in tags)
    assert report == (out / "reports" / f"{fixture.stem}.txt").read_text(encoding="utf-8")

    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for path in REGRESSION_DIR.glob(f"{fixture.stem}.*"):
        shutil.copy(path, fixtures)
    assert main(["regress", "--fixtures", str(fixtures), "--analyzers", str(ANALYZER_DIR), *flags]) == (
        1 if flags else 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert all((f"  {tag}: expected positive, got none" in lines) == bool(flags) for tag in tags)


def test_cli_classify_end_to_end(compiled, tmp_path):
    texts = {
        "pos": "We used a Student's t-test for the comparison. " + " ".join(filler(120, seed=1)),
        "neg": "we have not conducted an effect size analysis on the data and results "
               + " ".join(filler(120, seed=2)),
        "plain": " ".join(filler(120, seed=3)),
        "short": "too small",
    }
    manifest = _write_corpus(tmp_path, texts)
    out = tmp_path / "out"
    rc = main([
        "classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
        "--out", str(out), "--short-threshold", "50",
    ])
    assert rc == 0
    rows = _csv_rows(out / "results.csv")
    header = rows[0]
    tags = list(compiled.tags)
    assert header == ["paper_id", "journal", "year", "words", "status"] + tags
    by_id = {r[0]: r for r in rows[1:]}
    assert [r[0] for r in rows[1:]] == ["pos", "neg", "plain", "short"]  # manifest order
    assert by_id["pos"][header.index("parametric_test")] == "positive"
    assert by_id["neg"][header.index("effect_size")] == "negative"
    assert by_id["plain"][header.index("parametric_test")] == "none"
    assert by_id["short"][4] == "skipped_short" and by_id["short"][5:] == [""] * len(tags)
    assert (out / "reports" / "pos.txt").exists()
    agg = (out / "aggregates.csv").read_text()
    assert agg.splitlines()[0].startswith("journal,year,papers_total,papers_analyzed")


def test_cli_aggregate_matches_classify_output(bundle, tmp_path):
    texts = {"a": "We used a Student's t-test. " + " ".join(filler(100, seed=4)),
             "b": " ".join(filler(100, seed=5))}
    manifest = _write_corpus(tmp_path, texts)
    out = tmp_path / "out"
    assert main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
                 "--out", str(out), "--short-threshold", "50"]) == 0
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["aggregate", "--results", str(out / "results.csv")]) == 0
    assert buf.getvalue().replace("\r\n", "\n") == (out / "aggregates.csv").read_text().replace("\r\n", "\n")


def test_cli_converter_template(tmp_path):
    texts = {"c": "placeholder"}
    manifest = _write_corpus(tmp_path, texts)
    real = tmp_path / "docs" / "c.txt"
    real.write_text("We used a Student's t-test today. " + " ".join(filler(100, seed=6)), encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
        "--out", str(out), "--short-threshold", "50", "--converter", "cat {input}",
    ])
    assert rc == 0
    rows = _csv_rows(out / "results.csv")
    assert rows[1][4] == "analyzed"


def test_cli_converter_gets_an_empty_stdin(tmp_path):
    # a converter that reads stdin gets end-of-file at once, not litscan's own stdin
    manifest = _write_corpus(tmp_path, {"c": "We used a Student's t-test today. " + " ".join(filler(60))})
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(corpus.__file__).parents[1])}
    argv = [sys.executable, "-m", "litscan", "classify", "--manifest", str(manifest),
            "--analyzers", str(ANALYZER_DIR), "--out", str(out), "--short-threshold", "0",
            "--converter", "sh -c 'cat >/dev/null; cat {input}'"]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        assert proc.wait(timeout=60) == 0  # stdin stays open until the run ends
    finally:
        proc.kill()
        proc.stdin.close()
        proc.wait()
    assert _csv_rows(out / "results.csv")[1][4] == "analyzed"


@pytest.mark.parametrize("command", ["classify", "report"])
def test_cli_rejects_a_converter_without_input(command, tmp_path, capsys):
    manifest = _write_corpus(tmp_path, {"a": " ".join(filler(60))})
    out = tmp_path / "out"
    if command == "classify":
        args = ["classify", "--manifest", str(manifest), "--out", str(out)]
    else:
        args = ["report", str(tmp_path / "docs" / "a.txt")]
    assert main(args + ["--analyzers", str(ANALYZER_DIR), "--converter", "cat"]) == 1
    assert "error: --converter must contain {input}, got 'cat'" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_loads_neither_subprocess_nor_validation():
    # a classify run converts nothing and validates nothing, and each import costs its startup
    code = "import sys, litscan.cli; print(sorted({'subprocess', 'litscan.validation'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(corpus.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout == "[]\n"


def test_cli_partial_failure_exit_code(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "paper_id,journal,year,path\ngone,EMSE,2011,missing.txt\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    rc = main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR), "--out", str(out)])
    assert rc == 2
    assert (out / "errors.csv").exists()


def test_cli_clean_rerun_removes_stale_errors_csv(tmp_path):
    manifest = _write_corpus(tmp_path, {"ok": "We used a Student's t-test. " + " ".join(filler(80))})
    clean = manifest.read_text(encoding="utf-8")
    manifest.write_text(clean + "gone,EMSE,2011,docs/missing.txt\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR), "--out", str(out),
            "--short-threshold", "10"]
    assert main(argv) == 2
    assert [row[0] for row in _csv_rows(out / "errors.csv")] == ["paper_id", "gone"]
    manifest.write_text(clean, encoding="utf-8")
    assert main(argv) == 0
    assert not (out / "errors.csv").exists()
    assert [row[0] for row in _csv_rows(out / "results.csv")] == ["paper_id", "ok"]


def test_cli_classification_failure_costs_only_its_paper(tmp_path, monkeypatch):
    texts = {pid: f"We used a Student's t-test in {pid}. " + " ".join(filler(90, seed=i))
             for i, pid in enumerate(("good1", "bad", "good2"))}
    manifest = _write_corpus(tmp_path, texts)
    real = corpus.classify_paper

    def classify_or_fail(doc, bundle, config):
        if doc.meta.paper_id == "bad":
            raise IndexError("tuple index out of range")
        return real(doc, bundle, config)

    monkeypatch.setattr(corpus, "classify_paper", classify_or_fail)
    out = tmp_path / "out"
    rc = main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
               "--out", str(out), "--short-threshold", "50", "--jobs", "1"])
    assert rc == 2
    rows = _csv_rows(out / "results.csv")
    assert [r[0] for r in rows[1:]] == ["good1", "good2"]
    errors = _csv_rows(out / "errors.csv")
    assert errors[1] == ["bad", "bad: IndexError: tuple index out of range"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_classify_stderr_lines(jobs, tmp_path, capfd):
    # capfd, not capsys: at --jobs 2 the workers write the skip and error lines
    texts = {"short": "Too short to classify.", "gone": "",
             "good": "We used a Student's t-test. " + " ".join(filler(90))}
    manifest = _write_corpus(tmp_path, texts)
    gone = tmp_path / "docs" / "gone.txt"
    gone.unlink()
    out = tmp_path / "out"
    argv = ["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
            "--out", str(out), "--short-threshold", "50", "--jobs", jobs]
    skip = "WARNING litscan.ingest: skipping short: 4 words is below the 50-word threshold"
    error = "ERROR litscan.corpus: classifying gone failed"
    assert main(argv) == 2
    lines = capfd.readouterr().err.splitlines()
    tagged = [line for line in lines if line.startswith(("WARNING ", "ERROR ", "INFO "))]
    expected = [skip, error, "WARNING litscan: 1 of 3 papers failed; see errors.csv"]
    assert tagged == expected if jobs == "1" else sorted(tagged) == sorted(expected)
    # the traceback follows its line whole, however the workers' lines interleave
    at = lines.index(error)
    end = lines.index(f"FileNotFoundError: [Errno 2] No such file or directory: '{gone}'")
    assert lines[at + 1] == "Traceback (most recent call last):"
    assert all(line.startswith(" ") for line in lines[at + 2:end])
    gone.write_text(texts["good"], encoding="utf-8")
    assert main(argv) == 0
    assert capfd.readouterr().err.splitlines() == [skip, f"INFO litscan: classified 3 papers into {out}"]


def test_importing_the_cli_loads_no_dataclasses_logging_or_inspect():
    # what the import adds to sys.modules, so whatever `site` imported first does not count
    code = ("import sys; before = set(sys.modules); import litscan.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(corpus.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "litscan.cli" in added
    assert not added & {"dataclasses", "logging", "inspect"}


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["classify", "--manifest", str(tmp_path / "nope.csv"), "--analyzers", str(ANALYZER_DIR)])
    assert rc == 1
    rc = main(["check-analyzers", "--analyzers", str(tmp_path)])
    assert rc == 1


def test_cli_rejects_a_negative_skip_window(capsys, tmp_path):
    paper = tmp_path / "solo.txt"
    paper.write_text("We used a Student t-test here. The unit tests were run on every build.", encoding="utf-8")
    assert main(["report", str(paper), "--analyzers", str(ANALYZER_DIR), "--short-threshold", "0",
                 "--skip-window=-20"]) == 1
    assert "error: skip_window must not be negative" in capsys.readouterr().err


def test_cli_check_analyzers_and_report(capsys, tmp_path):
    assert main(["check-analyzers", "--analyzers", str(ANALYZER_DIR)]) == 0
    captured = capsys.readouterr().out
    assert "students_t_test" in captured and "analyzers OK" in captured

    paper = tmp_path / "solo.txt"
    paper.write_text("We used a Student's t-test. " + " ".join(filler(100, seed=7)), encoding="utf-8")
    assert main(["report", str(paper), "--analyzers", str(ANALYZER_DIR), "--short-threshold", "50"]) == 0
    report = capsys.readouterr().out
    assert "paper: solo" in report
    assert "students_t_test" in report


def test_report_shows_an_analyzer_whose_only_matches_were_skipped(capsys, tmp_path):
    paper = tmp_path / "trap.txt"
    paper.write_text("The unit tests were run on every build.", encoding="utf-8")
    assert main(["report", str(paper), "--analyzers", str(ANALYZER_DIR), "--short-threshold", "0"]) == 0
    report = capsys.readouterr().out
    assert "analyzer students_t_test: none (total score 0)" in report
    assert "\n  skipped:\n    skipped by " in report


def test_report_gives_one_line_per_occurrence(capsys, tmp_path):
    # each of students_t_test's examples matches the one "t test"
    paper = tmp_path / "solo.txt"
    paper.write_text("We used a t test here.", encoding="utf-8")
    assert main(["report", str(paper), "--analyzers", str(ANALYZER_DIR), "--short-threshold", "0"]) == 0
    report = capsys.readouterr().out
    assert "analyzer students_t_test: positive (total score 2)" in report
    assert [line for line in report.splitlines() if "»t test«" in line] == [
        "    score=2 We used a »t test« here. supports: [used]"
    ]


def test_jobs_parity_mini(tmp_path):
    texts = {
        f"p{i}": f"We used a Student's t-test in run {i}. " + " ".join(filler(90, seed=10 + i))
        for i in range(6)
    }
    manifest = _write_corpus(tmp_path, texts)
    outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 3)}
    for jobs, out in outs.items():
        assert main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
                     "--out", str(out), "--short-threshold", "20", "--jobs", str(jobs)]) == 0
    seq, par = outs[1], outs[3]
    assert (seq / "results.csv").read_bytes() == (par / "results.csv").read_bytes()
    reports = sorted(p.name for p in (seq / "reports").iterdir())
    assert reports == sorted(p.name for p in (par / "reports").iterdir())
    assert reports == [f"p{i}.txt" for i in range(6)]
    for name in reports:
        assert (seq / "reports" / name).read_bytes() == (par / "reports" / name).read_bytes()


def _count_forks(monkeypatch) -> list[int]:
    """The pids of the workers that os.fork starts from here on; the forks still happen."""
    forks = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_forks_no_more_workers_than_papers(compiled, tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    texts = {f"p{i}": "We used a Student's t-test. " + " ".join(filler(60, seed=i)) for i in range(3)}
    metas = load_manifest(_write_corpus(tmp_path, texts))
    config = RunConfig(short_threshold=10)

    rows = run_corpus(metas, compiled, config, tmp_path, jobs=64)
    assert len(forks) == 3
    _no_child_left()
    assert [meta.paper_id for meta, _, _ in rows] == ["p0", "p1", "p2"]
    assert all(result is not None and error is None for _, result, error in rows)
    assert sorted(p.name for p in tmp_path.glob("p*.txt")) == ["p0.txt", "p1.txt", "p2.txt"]

    assert run_corpus([], compiled, config, tmp_path, jobs=4) == []  # an empty manifest forks nothing
    assert len(run_corpus(metas[:1], compiled, config, tmp_path, jobs=4)) == 1  # one paper runs here
    assert len(run_corpus(metas, compiled, config, tmp_path, jobs=1)) == 3
    assert len(forks) == 3


def test_failed_papers_come_back_in_manifest_order(compiled, tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    metas = [SourceMeta(f"m{i}", "J", 2011, str(tmp_path / f"m{i}.txt")) for i in range(40)]
    rows = run_corpus(metas, compiled, RunConfig(), tmp_path, jobs=2)
    assert len(forks) == 2
    _no_child_left()
    assert [meta for meta, _, _ in rows] == metas
    assert all(result is None and error.startswith(f"m{i}: FileNotFoundError")
               for i, (_, result, error) in enumerate(rows))


def test_fork_map_hands_out_each_item_once(monkeypatch):
    # more workers than cores share the task pipe; a lost or repeated read would lose or move a value
    forks = _count_forks(monkeypatch)
    started = time.perf_counter()
    values = fork_map(lambda i: (i, os.getpid()), range(500), 6)
    assert time.perf_counter() - started < 30.0
    assert [i for i, _ in values] == list(range(500))
    assert len(forks) == 6 and {pid for _, pid in values} <= set(forks)
    _no_child_left()


def test_workers_take_the_papers_one_at_a_time(compiled, tmp_path, monkeypatch):
    # the first paper holds its worker for a second; the other worker takes every paper after it
    def classify_file(meta, *args):
        if meta.paper_id == "m0":
            time.sleep(1.0)
        return None, str(os.getpid())

    monkeypatch.setattr(corpus, "classify_file", classify_file)
    metas = [SourceMeta(f"m{i}", "J", 2011, "") for i in range(6)]
    pids = [error for _, _, error in run_corpus(metas, compiled, RunConfig(), tmp_path, jobs=2)]
    assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1


def test_a_forked_run_builds_each_group_scanner_once_before_it_forks(bundle, tmp_path, monkeypatch):
    parent = os.getpid()
    builds = []  # the terms of each scanner built
    real = matching.PieceScanner.__init__

    def counting(self, terms):
        if os.getpid() != parent:
            raise RuntimeError("a worker built a scanner")
        terms = set(terms)
        builds.append({term for term, _ in terms})
        real(self, terms)

    monkeypatch.setattr(matching.PieceScanner, "__init__", counting)
    texts = {f"p{i}": "We used a Student's t-test. " + " ".join(filler(60, seed=i)) for i in range(4)}
    metas = load_manifest(_write_corpus(tmp_path, texts))
    compiled = Bundle(bundle)
    rows = run_corpus(metas, compiled, RunConfig(short_threshold=10), tmp_path, jobs=2)
    assert [(result and result.status, error) for _, result, error in rows] == [("analyzed", None)] * 4
    assert builds == [{t for s in group for t in s.terms} for group in (compiled.excluders, compiled.classifiers)]


def _six_papers(tmp_path: Path) -> list[str]:
    """classify arguments for six papers at --jobs 2, out to tmp_path/out."""
    texts = {f"p{i}": f"We used a Student's t-test in run {i}. " + " ".join(filler(90, seed=i)) for i in range(6)}
    return ["classify", "--manifest", str(_write_corpus(tmp_path, texts)), "--analyzers", str(ANALYZER_DIR),
            "--out", str(tmp_path / "out"), "--short-threshold", "20", "--jobs", "2"]


def _failed_cleanly(tmp_path: Path, err: str, forks: list[int], how: str):
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    found = re.fullmatch(rf"error: worker (\d+) {how}", line)
    assert found and int(found[1]) in forks, line
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "results.csv").exists()
    _no_child_left()


def test_a_killed_worker_fails_the_run_cleanly(tmp_path, monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    # the converter kills its worker, its parent, on paper p3
    converter = "sh -c 'case $0 in *p3.txt) kill -9 $PPID;; esac; cat \"$0\"' {input}"
    assert main(_six_papers(tmp_path) + ["--converter", converter]) == 1
    _failed_cleanly(tmp_path, capsys.readouterr().err, forks, "was killed by signal 9")


class _Abort(BaseException):
    """Raised past classify_file's per-paper isolation."""


def test_a_worker_whose_paper_raises_past_classify_file_fails_the_run_cleanly(tmp_path, monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    real = corpus.classify_file

    def aborting(meta, *args):
        if meta.paper_id == "p3":
            raise _Abort
        return real(meta, *args)

    monkeypatch.setattr(corpus, "classify_file", aborting)
    parent, returns = os.getpid(), tmp_path / "returns"
    rc = main(_six_papers(tmp_path))
    with open(returns, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    if os.getpid() != parent:
        os._exit(0)  # a worker that got here goes no further
    assert returns.read_text(encoding="utf-8").split() == [str(parent)]  # main returned once, here
    assert rc == 1
    _failed_cleanly(tmp_path, capsys.readouterr().err, forks, "exited with status 1")


def test_an_error_in_the_parent_ends_every_worker(compiled, tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)

    def failing(data):
        raise RuntimeError("unreadable rows")

    monkeypatch.setattr(pickle, "loads", failing)
    metas = [SourceMeta(f"m{i}", "J", 2011, str(tmp_path / f"m{i}.txt")) for i in range(4)]
    with pytest.raises(RuntimeError, match="unreadable rows"):
        run_corpus(metas, compiled, RunConfig(), tmp_path, jobs=3)
    assert len(forks) == 3
    _no_child_left()


def test_jobs_above_one_needs_fork(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert main(_six_papers(tmp_path)) == 1
    assert "error: --jobs above 1 needs os.fork" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_cli_rejects_jobs_below_one(tmp_path, capsys):
    manifest = _write_corpus(tmp_path, {"a": " ".join(filler(60))})
    assert main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
                 "--out", str(tmp_path / "out"), "--jobs", "0"]) == 1
    assert "error: --jobs must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "drop, extra, message",
    [
        ("--manifest", [], "the following arguments are required: --manifest"),
        (None, ["--max-edits", "0"], "unrecognized arguments: --max-edits 0"),
        (None, ["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    ],
    ids=["no-manifest", "unknown-flag", "jobs-not-an-int"],
)
def test_a_usage_error_exits_1_and_writes_nothing(drop, extra, message, tmp_path, capsys):
    # exit 2 is kept for a run in which some papers failed
    manifest = _write_corpus(tmp_path, {"a": " ".join(filler(60))})
    flags = {"--manifest": str(manifest), "--analyzers": str(ANALYZER_DIR), "--out": str(tmp_path / "out")}
    argv = ["classify", *(arg for flag, value in flags.items() if flag != drop for arg in (flag, value)), *extra]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f": error: {message}")
    assert not (tmp_path / "out").exists()


def test_cli_converter_timeout_fails_only_its_paper(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "CONVERTER_TIMEOUT", 0.5)
    manifest = _write_corpus(tmp_path, {"slow": "placeholder"})
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
               "--out", str(out), "--converter", "sh -c 'sleep 5' {input}"])
    assert time.perf_counter() - started < 4.0  # the converter was killed, not waited for
    assert rc == 2
    errors = _csv_rows(out / "errors.csv")
    assert errors[1][0] == "slow" and "slow: TimeoutExpired: " in errors[1][1]
    assert _csv_rows(out / "results.csv")[1:] == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_failing_rerun_removes_the_papers_stale_report(jobs, tmp_path):
    # two papers, so that --jobs 2 runs them in a pool
    texts = {pid: f"We used a Student's t-test in {pid}. " + " ".join(filler(90, seed=i))
             for i, pid in enumerate(("a", "b"))}
    manifest = _write_corpus(tmp_path, texts)
    out = tmp_path / "out"
    args = ["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
            "--out", str(out), "--short-threshold", "50", "--jobs", jobs]
    assert main(args) == 0
    assert (out / "reports" / "a.txt").is_file() and (out / "reports" / "b.txt").is_file()
    assert main(args + ["--converter", "sh -c 'echo boom >&2; exit 3' {input}"]) == 2
    errors = _csv_rows(out / "errors.csv")
    assert [e[0] for e in errors[1:]] == ["a", "b"]
    assert all("exited with status 3: boom" in e[1] for e in errors[1:])
    assert list((out / "reports").iterdir()) == []


def test_converter_error_names_its_status_and_last_stderr_line(tmp_path):
    meta = SourceMeta("p", "J", 2011, str(tmp_path / "p.txt"))
    with pytest.raises(RuntimeError, match=r"exited with status 1: last �$"):
        ingest.read_raw_text(meta, "sh -c 'printf \"first\\nlast \\377\\n\" >&2; exit 1' {input}")
    (tmp_path / "p.txt").write_text("text", encoding="utf-8")
    assert ingest.read_raw_text(meta, "cat {input}") == "text"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_unwritable_report_costs_only_its_paper(jobs, tmp_path):
    # three papers, so that --jobs 2 writes their reports in pool workers
    texts = {pid: f"We used a Student's t-test in {pid}. " + " ".join(filler(90, seed=i))
             for i, pid in enumerate(("a", "b", "c"))}
    manifest = _write_corpus(tmp_path, texts)
    out = tmp_path / "out"
    (out / "reports" / "b.txt").mkdir(parents=True)
    rc = main(["classify", "--manifest", str(manifest), "--analyzers", str(ANALYZER_DIR),
               "--out", str(out), "--short-threshold", "50", "--jobs", jobs])
    assert rc == 2
    rows = _csv_rows(out / "results.csv")
    assert [r[0] for r in rows[1:]] == ["a", "c"]
    assert (out / "reports" / "a.txt").is_file() and (out / "reports" / "c.txt").is_file()
    errors = _csv_rows(out / "errors.csv")
    assert [e[0] for e in errors[1:]] == ["b"]
    assert errors[1][1].startswith("b: IsADirectoryError: ")


def test_aggregate_positive_counts_match_csv_cells():
    results = [
        _result("p1", "A", 2001, verdicts={"ta": "positive", "tb": "negative"}),
        _result("p2", "A", 2001, verdicts={"ta": "positive", "tb": "positive"}),
        _result("p3", "A", 2001, status="skipped_short", words=5),
        _result("p4", "B", 2002, verdicts={"ta": "none", "tb": "positive"}),
    ]
    tags = ["ta", "tb"]
    csv_rows = list(csv.reader(io.StringIO(emit_csv(results, tags))))[1:]
    for row in aggregate(results, tags):
        cell_rows = [r for r in csv_rows if r[1] == row.journal and int(r[2]) == row.year]
        csv_positive = sum(r[5:].count("positive") for r in cell_rows)
        assert sum(row.positives.values()) == csv_positive
        assert row.papers_total == len(cell_rows)


def test_aggregates_csv_score_formatting():
    results = [
        _result(f"p{i}", "J", 2001, verdicts={"ta": "positive" if i == 0 else "none"})
        for i in range(3)
    ]
    text = aggregates_csv(aggregate(results, ["ta"]), ["ta"])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["journal", "year", "papers_total", "papers_analyzed", "ta_positive", "ta_score"]
    assert rows[1] == ["J", "2001", "3", "3", "1", "0.333333"]
