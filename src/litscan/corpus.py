"""Corpus orchestration: run the full pipeline per paper and emit the
per-paper CSV plus journal-year aggregates.

Pipeline order per paper: short-text gate, then exclusion analyzers, then
(for surviving papers) all classification analyzers. Per-paper failures are
isolated so a batch run never aborts on one bad file.
"""

import contextlib
import csv
import functools
import io
import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .dsl import AnalyzerSpec
from .ingest import (
    DEFAULT_SHORT_THRESHOLD,
    STATUS_ANALYZED,
    STATUS_EXCLUDED_SECONDARY,
    DocumentText,
    SourceMeta,
    gate_short,
    load_document,
)
from .matching import MatchConfig, PieceScanner, group_scanner, run_analyzer, scan_pieces
from .report import render_report
from .scoring import (
    VERDICT_NONE,
    VERDICT_POSITIVE,
    AnalyzerEvidence,
    TagSummary,
    aggregate_tags,
    decide_exclusion,
    resolve_analyzer,
)

log = logging.getLogger(__name__)

# Chunks per pool worker: enough that a worker which drew slow papers does
# not leave the others idle at the end, few enough that dispatch stays cheap.
CHUNKS_PER_WORKER = 8


class Bundle:
    """An analyzer bundle compiled for one run's match config: its exclusion
    and classification analyzers, in bundle order, the sorted tags of the
    classification analyzers, and one piece scanner per group, built the
    first time a paper needs it and kept for the rest of the run."""

    def __init__(self, specs: Iterable[AnalyzerSpec], match: MatchConfig = MatchConfig()):
        specs = tuple(specs)
        self.excluders = tuple(s for s in specs if s.mode == "exclude")
        self.classifiers = tuple(s for s in specs if s.mode == "classify")
        self.tags = tuple(sorted({t for s in self.classifiers for t in s.tags}))
        self.match = match

    @functools.cached_property
    def exclusion_scanner(self) -> PieceScanner:
        return group_scanner(self.excluders, self.match)

    @functools.cached_property
    def classification_scanner(self) -> PieceScanner:
        return group_scanner(self.classifiers, self.match)


@dataclass(frozen=True)
class RunConfig:
    short_threshold: int = DEFAULT_SHORT_THRESHOLD
    converter: str | None = None


@dataclass(frozen=True)
class CorpusResult:
    meta: SourceMeta
    status: str
    tag_verdicts: dict[str, str]  # populated only for analyzed papers
    word_count: int


@dataclass(frozen=True)
class AggregateRow:
    journal: str
    year: int
    papers_total: int
    papers_analyzed: int
    positives: dict[str, int]
    scores: dict[str, float]


def classify_paper(
    doc: DocumentText,
    bundle: Bundle,
    config: RunConfig,
) -> tuple[CorpusResult, str]:
    """Classify one ingested document and render its report."""
    doc = gate_short(doc, config.short_threshold)
    evidences: list[AnalyzerEvidence] = []
    summaries: list[TagSummary] = []
    tag_verdicts: dict[str, str] = {}
    if doc.status == STATUS_ANALYZED:
        # one piece scan per analyzer group, so an excluded paper's text past
        # the exclusion regions is never scanned
        starts = scan_pieces(doc, bundle.excluders, bundle.exclusion_scanner)
        exclusion_evidence = [
            resolve_analyzer(run_analyzer(doc, s, bundle.match, starts), s) for s in bundle.excluders
        ]
        if decide_exclusion(exclusion_evidence):
            doc = replace(doc, status=STATUS_EXCLUDED_SECONDARY)
            evidences = exclusion_evidence
        else:
            starts = scan_pieces(doc, bundle.classifiers, bundle.classification_scanner)
            class_evidence = [
                resolve_analyzer(run_analyzer(doc, s, bundle.match, starts), s) for s in bundle.classifiers
            ]
            summaries = aggregate_tags(class_evidence)
            tag_verdicts = {s.tag: s.verdict for s in summaries}
            evidences = exclusion_evidence + class_evidence
    result = CorpusResult(meta=doc.meta, status=doc.status, tag_verdicts=tag_verdicts, word_count=doc.word_count)
    return result, render_report(doc, evidences, summaries)


def classify_file(
    meta: SourceMeta,
    bundle: Bundle,
    config: RunConfig,
    reports_dir: Path | None,
) -> tuple[CorpusResult | None, str | None]:
    """Load and classify one paper and write its report to
    `reports_dir/<paper_id>.txt` (none when reports_dir is None); returns
    (result, error). Any failure, an unwritable report included, costs only
    this paper: its error is the paper's errors.csv message, and its report,
    even one an earlier run wrote, is removed."""
    try:
        result, report = classify_paper(load_document(meta, config.converter), bundle, config)
        if reports_dir is not None:
            (reports_dir / f"{meta.paper_id}.txt").write_text(report, encoding="utf-8")
    except Exception as exc:  # per-paper isolation
        log.exception("classifying %s failed", meta.paper_id)
        if reports_dir is not None:
            with contextlib.suppress(OSError):  # the error row is written either way
                (reports_dir / f"{meta.paper_id}.txt").unlink(missing_ok=True)
        return None, f"{meta.paper_id}: {type(exc).__name__}: {exc}"
    return result, None


_WORKER_ARGS: tuple[Bundle, RunConfig, Path | None] | None = None


def _init_worker(bundle: Bundle, config: RunConfig, reports_dir: Path | None) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = (bundle, config, reports_dir)


def _worker(meta: SourceMeta) -> tuple[CorpusResult | None, str | None]:
    return classify_file(meta, *_WORKER_ARGS)


def run_corpus(
    metas: list[SourceMeta],
    bundle: Bundle,
    config: RunConfig,
    reports_dir: Path | None,
    jobs: int = 1,
) -> list[tuple[SourceMeta, CorpusResult | None, str | None]]:
    """Classify every manifest paper and write its report to
    `reports_dir/<paper_id>.txt` (no reports when it is None); returns
    (meta, result, error) rows in manifest order, whatever `jobs` is.

    The process that classifies a paper writes its report, so only results
    and errors come back, never report text. A single worker is this
    process. Otherwise a forked pool of min(jobs, chunks) workers takes the
    manifest in chunks of len(metas) // (jobs * CHUNKS_PER_WORKER)
    consecutive papers, at least one, and each worker builds the bundle's
    scanners on its first paper."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    size = max(1, len(metas) // (jobs * CHUNKS_PER_WORKER))
    workers = min(jobs, math.ceil(len(metas) / size))
    if workers <= 1:
        rows = [classify_file(meta, bundle, config, reports_dir) for meta in metas]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import costs startup

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(bundle, config, reports_dir)
        ) as pool:
            rows = list(pool.map(_worker, metas, chunksize=size))
    return [(meta, result, error) for meta, (result, error) in zip(metas, rows)]


# the leading results.csv columns; one verdict column per tag follows
RESULT_COLUMNS = ("paper_id", "journal", "year", "words", "status")


def emit_csv(results: list[CorpusResult], tags: Sequence[str]) -> str:
    """Per-paper results as RFC-4180 CSV; tag cells are empty for papers
    that were not analyzed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(RESULT_COLUMNS + tuple(tags))
    for r in results:
        if r.status == STATUS_ANALYZED:
            cells = [r.tag_verdicts.get(t, VERDICT_NONE) for t in tags]
        else:
            cells = ["" for _ in tags]
        writer.writerow([r.meta.paper_id, r.meta.journal, r.meta.year, r.word_count, r.status] + cells)
    return buf.getvalue()


def read_results_csv(path: str | Path) -> tuple[list[CorpusResult], list[str]]:
    """Rebuild enough of the per-paper results from a results.csv to
    aggregate, validate, and sample; returns (results, tags). Raises
    ValueError listing every problem found."""
    fixed = len(RESULT_COLUMNS)
    results: list[CorpusResult] = []
    errors: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header[:fixed]) != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected results header {header!r}")
        tags = header[fixed:]
        for row in reader:
            lineno = reader.line_num  # a quoted cell may hold a line break
            if len(row) != len(header):
                errors.append(f"line {lineno}: {len(row)} cells, the header has {len(header)}")
                continue
            pid, journal, year, words, status = row[:fixed]
            try:
                meta = SourceMeta(paper_id=pid, journal=journal, year=int(year), path="")
                word_count = int(words)
            except ValueError:
                errors.append(f"line {lineno}: year {year!r} or words {words!r} is not an integer")
                continue
            verdicts = {t: c for t, c in zip(tags, row[fixed:]) if c}
            results.append(CorpusResult(meta, status, verdicts, word_count))
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return results, tags


def aggregate(results: list[CorpusResult]) -> list[AggregateRow]:
    """One row per (journal, year): paper counts, per-tag positive counts,
    and the positive count normalized by analyzed papers."""
    tags = sorted({t for r in results for t in r.tag_verdicts})
    cells: dict[tuple[str, int], list[CorpusResult]] = {}
    for r in results:
        cells.setdefault((r.meta.journal, r.meta.year), []).append(r)
    rows = []
    for journal, year in sorted(cells):
        group = cells[(journal, year)]
        analyzed = [r for r in group if r.status == STATUS_ANALYZED]
        positives = {
            t: sum(1 for r in analyzed if r.tag_verdicts.get(t) == VERDICT_POSITIVE) for t in tags
        }
        scores = {
            t: (positives[t] / len(analyzed) if analyzed else 0.0) for t in tags
        }
        rows.append(
            AggregateRow(
                journal=journal,
                year=year,
                papers_total=len(group),
                papers_analyzed=len(analyzed),
                positives=positives,
                scores=scores,
            )
        )
    return rows


def aggregates_csv(rows: list[AggregateRow], tags: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    header = ["journal", "year", "papers_total", "papers_analyzed"]
    for t in tags:
        header += [f"{t}_positive", f"{t}_score"]
    writer.writerow(header)
    for row in rows:
        cells = [row.journal, row.year, row.papers_total, row.papers_analyzed]
        for t in tags:
            cells += [row.positives.get(t, 0), format(row.scores.get(t, 0.0), ".6g")]
        writer.writerow(cells)
    return buf.getvalue()
