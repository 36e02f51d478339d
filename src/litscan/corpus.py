"""Corpus orchestration: run the full pipeline per paper and emit the
per-paper CSV plus journal-year aggregates.

Pipeline order per paper: short-text gate, then exclusion analyzers, then
(for surviving papers) all classification analyzers. Per-paper failures are
isolated so a batch run never aborts on one bad file.
"""

import contextlib
import functools
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import NamedTuple

from .dsl import AnalyzerSpec
from .ingest import (
    DEFAULT_SHORT_THRESHOLD,
    RESULT_COLUMNS,
    STATUS_ANALYZED,
    STATUS_EXCLUDED_SECONDARY,
    STATUSES,
    DocumentText,
    SourceMeta,
    gate_short,
    load_document,
    read_table,
    table_text,
)
from .matching import MatchConfig, PieceScanner, group_scanner, run_analyzer, scan_pieces
from .report import render_report
from .scoring import (
    VERDICT_NONE,
    VERDICT_POSITIVE,
    VERDICTS,
    AnalyzerEvidence,
    TagSummary,
    aggregate_tags,
    decide_exclusion,
    resolve_analyzer,
)

class Bundle:
    """An analyzer bundle compiled for one run's match config: its exclusion
    and classification analyzers, in bundle order, the sorted tags of the
    classification analyzers, and one piece scanner per group, built once
    and kept for the rest of the run: the first time a paper needs it, or
    by `run_corpus` before it forks `--jobs` workers, which inherit it."""

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


class _RunFields(NamedTuple):
    short_threshold: int = DEFAULT_SHORT_THRESHOLD
    converter: str | None = None


class RunConfig(_RunFields):
    """A run's input settings; a converter template without {input} raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.converter is not None and "{input}" not in self.converter:
            raise ValueError(f"--converter must contain {{input}}, got {self.converter!r}")
        return self


class CorpusResult(NamedTuple):
    meta: SourceMeta
    status: str
    tag_verdicts: dict[str, str]  # populated only for analyzed papers
    word_count: int


class AggregateRow(NamedTuple):
    journal: str
    year: int
    papers_total: int
    papers_analyzed: int
    positives: dict[str, int]


def _evidence(
    doc: DocumentText, specs: Sequence[AnalyzerSpec], scanner: PieceScanner, match: MatchConfig
) -> list[AnalyzerEvidence]:
    """The evidence of each analyzer of a group that matched in `doc`, after one piece scan."""
    starts = scan_pieces(doc, specs, scanner)
    return [resolve_analyzer(found, s) for s in specs if (found := run_analyzer(doc, s, match, starts))]


def classify_paper(
    doc: DocumentText,
    bundle: Bundle,
    config: RunConfig,
) -> tuple[CorpusResult, str]:
    """Classify one ingested document and render its report. Only analyzers
    that matched have evidence; every tag of `bundle.tags` gets a verdict."""
    doc = gate_short(doc, config.short_threshold)
    evidences: list[AnalyzerEvidence] = []
    summaries: list[TagSummary] = []
    tag_verdicts: dict[str, str] = {}
    if doc.status == STATUS_ANALYZED:
        # one piece scan per analyzer group, so an excluded paper's text past
        # the exclusion regions is never scanned
        evidences = _evidence(doc, bundle.excluders, bundle.exclusion_scanner, bundle.match)
        if decide_exclusion(evidences):
            doc = doc._replace(status=STATUS_EXCLUDED_SECONDARY)
        else:
            class_evidence = _evidence(doc, bundle.classifiers, bundle.classification_scanner, bundle.match)
            summaries = aggregate_tags(class_evidence, bundle.tags)
            tag_verdicts = {s.tag: s.verdict for s in summaries}
            evidences += class_evidence
    result = CorpusResult(meta=doc.meta, status=doc.status, tag_verdicts=tag_verdicts, word_count=doc.word_count)
    return result, render_report(doc, evidences, summaries)


def classify_file(
    meta: SourceMeta,
    bundle: Bundle,
    config: RunConfig,
    reports_dir: Path,
) -> tuple[CorpusResult | None, str | None]:
    """Load and classify one paper and write its report to
    `reports_dir/<paper_id>.txt`; returns (result, error). Any failure, an
    unwritable report included, costs only this paper: its error is the
    paper's errors.csv message, and its report, even one an earlier run
    wrote, is removed."""
    try:
        result, report = classify_paper(load_document(meta, config.converter), bundle, config)
        (reports_dir / f"{meta.paper_id}.txt").write_text(report, encoding="utf-8")
    except Exception as exc:  # per-paper isolation
        import traceback  # only here: a run with no failure never needs it

        print(f"ERROR litscan.corpus: classifying {meta.paper_id} failed\n{traceback.format_exc()}",
              end="", file=sys.stderr)  # in one write
        with contextlib.suppress(OSError):  # the error row is written either way
            (reports_dir / f"{meta.paper_id}.txt").unlink(missing_ok=True)
        return None, f"{meta.paper_id}: {type(exc).__name__}: {exc}"
    return result, None


def run_corpus(
    metas: list[SourceMeta],
    bundle: Bundle,
    config: RunConfig,
    reports_dir: Path,
    jobs: int = 1,
) -> list[tuple[SourceMeta, CorpusResult | None, str | None]]:
    """Classify every manifest paper and write its report to
    `reports_dir/<paper_id>.txt`; returns (meta, result, error) rows in
    manifest order, whatever `jobs` is.

    The process that classifies a paper writes its report, so only results
    and errors come back, never report text. At jobs 1 or below, and for
    a manifest of at most one paper, this process classifies every paper.
    Otherwise it builds the bundle's scanners and forks min(jobs,
    len(metas)) workers (`pool.fork_map`), which inherit them and take the
    papers one at a time. A worker that dies, or that an exception gets
    past classify_file in, fails the run with ChildProcessError."""
    workers = min(jobs, len(metas))
    if workers <= 1:
        rows = [classify_file(meta, bundle, config, reports_dir) for meta in metas]
    else:
        from .pool import fork_map  # only here: at --jobs 1 compiling it would only add startup time and RSS

        bundle.exclusion_scanner, bundle.classification_scanner  # built once, here: every worker inherits them
        rows = fork_map(lambda meta: classify_file(meta, bundle, config, reports_dir), metas, workers)
    return [(meta, result, error) for meta, (result, error) in zip(metas, rows)]


def emit_csv(results: list[CorpusResult], tags: Sequence[str]) -> str:
    """Per-paper results as a table; tag cells are empty for papers that
    were not analyzed."""
    blank = [""] * len(tags)
    return table_text(
        RESULT_COLUMNS + tuple(tags),
        (
            [r.meta.paper_id, r.meta.journal, r.meta.year, r.word_count, r.status]
            + ([r.tag_verdicts.get(t, VERDICT_NONE) for t in tags] if r.status == STATUS_ANALYZED else blank)
            for r in results
        ),
    )


def read_results_csv(path: str | Path) -> tuple[list[CorpusResult], list[str]]:
    """Rebuild enough of the per-paper results from a results.csv to
    aggregate, validate, and sample; returns (results, tags), the tags being
    every column not in RESULT_COLUMNS, in header order. Raises ValueError
    listing every problem found."""
    seen: set[str] = set()

    def parse_row(row: dict) -> CorpusResult:
        given = sum(c is not None for c in row.values())
        if given < len(row):
            raise ValueError(f"{given} cells, the header has {len(row)}")
        pid, journal, status = row["paper_id"], row["journal"], row["status"]
        cells = {t: c for t, c in row.items() if t not in RESULT_COLUMNS}
        verdicts = {t: c for t, c in cells.items() if c}
        problems, numbers = [], {}
        if not pid.strip():
            problems.append("empty paper_id")
        elif pid in seen:
            problems.append(f"duplicate paper_id {pid!r}")
        seen.add(pid)
        if not journal.strip():
            problems.append("empty journal")
        for column in ("year", "words"):
            cell = row[column]  # as classify writes it: ASCII digits, no sign, space or "_"
            if cell.isascii() and cell.isdigit():
                numbers[column] = int(cell)
            else:
                problems.append(f"{column} {cell!r} is not an integer")
        if status not in STATUSES:
            problems.append(f"status {status!r} is not one of {', '.join(STATUSES)}")
        elif verdicts and status != STATUS_ANALYZED:
            problems.append(f"a paper with status {status} has tag cells")
        elif status == STATUS_ANALYZED and len(verdicts) < len(cells):
            empty = ", ".join(t for t in cells if t not in verdicts)
            problems.append(f"an analyzed paper has an empty cell for {empty}")
        problems += [
            f"{t} cell {c!r} is not one of {', '.join(VERDICTS)}" for t, c in verdicts.items() if c not in VERDICTS
        ]
        if problems:
            raise ValueError("; ".join(problems))
        meta = SourceMeta(paper_id=pid, journal=journal, year=numbers["year"], path="")
        return CorpusResult(meta, status, verdicts, numbers["words"])

    header, results = read_table(path, RESULT_COLUMNS, "results", parse_row)
    return results, [c for c in header if c not in RESULT_COLUMNS]


def aggregate(results: list[CorpusResult], tags: Sequence[str]) -> list[AggregateRow]:
    """One row per (journal, year): paper counts and the positive count of
    each of `tags`."""
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
        rows.append(AggregateRow(journal, year, len(group), len(analyzed), positives))
    return rows


def aggregates_csv(rows: list[AggregateRow], tags: Sequence[str]) -> str:
    """Aggregate rows as a table; a tag's score is its positive count over
    the analyzed papers, 0 when there are none."""
    header = ["journal", "year", "papers_total", "papers_analyzed"]
    for t in tags:
        header += [f"{t}_positive", f"{t}_score"]
    body = []
    for row in rows:
        cells = [row.journal, row.year, row.papers_total, row.papers_analyzed]
        for t in tags:
            score = row.positives[t] / row.papers_analyzed if row.papers_analyzed else 0.0
            cells += [row.positives[t], format(score, ".6g")]
        body.append(cells)
    return table_text(header, body)
