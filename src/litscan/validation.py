"""Validation harness: per-tag confusion tables against ground-truth labels,
a regression corpus of difficult documents, and stratified sampling for
manual review rounds.
"""

import random
from pathlib import Path
from typing import NamedTuple

from .corpus import Bundle, CorpusResult, RunConfig, classify_paper
from .ingest import STATUS_ANALYZED, SourceMeta, csv_records, load_document, read_table, table_text
from .scoring import VERDICT_NEGATIVE, VERDICT_NONE, VERDICT_POSITIVE

TRUTH_COLUMNS = ("paper_id", "tag", "label")
LABEL_PRESENT = "present"
LABEL_ABSENT = "absent"


class GroundTruth(NamedTuple):
    paper_id: str
    tag: str
    label: str  # LABEL_PRESENT | LABEL_ABSENT


class ConfusionRow(NamedTuple):
    tag: str
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int
    # diagnostic split of the false negatives by the verdict that caused them
    fn_negative: int = 0
    fn_none: int = 0

    @property
    def total_labeled(self) -> int:
        return self.true_positive + self.false_positive + self.true_negative + self.false_negative


def load_truth(path: str | Path) -> list[GroundTruth]:
    """Read ground-truth labels from a CSV with the header TRUTH_COLUMNS.

    Raises ValueError listing every problem found."""
    seen: set[tuple[str, str]] = set()

    def parse(row: dict) -> GroundTruth:
        pid, tag, label = ((row[k] or "").strip() for k in TRUTH_COLUMNS)
        if not pid or not tag:
            raise ValueError(f"empty {'paper_id' if not pid else 'tag'}")
        label = label.lower()
        if label not in (LABEL_PRESENT, LABEL_ABSENT):
            raise ValueError(f"label must be {LABEL_PRESENT} or {LABEL_ABSENT}, got {label!r}")
        if (pid, tag) in seen:
            raise ValueError(f"duplicate (paper_id, tag) pair {(pid, tag)}")
        seen.add((pid, tag))
        return GroundTruth(pid, tag, label)

    return read_table(path, TRUTH_COLUMNS, "truth file", parse)[1]


def confusion(results: list[CorpusResult], truth: list[GroundTruth]) -> list[ConfusionRow]:
    """Per-tag confusion counts. A paper counts as classified for a tag when
    its tag verdict is positive; "not classified" covers both the negative
    and the no-evidence verdicts, split out in the diagnostic columns.
    """
    by_id = {r.meta.paper_id: r for r in results}
    unknown = sorted(
        {t.paper_id for t in truth if t.paper_id not in by_id or by_id[t.paper_id].status != STATUS_ANALYZED}
    )
    if unknown:
        raise ValueError(f"truth labels reference papers not analyzed in results: {unknown}")
    tags = sorted({t.tag for t in truth})
    rows = []
    for tag in tags:
        tp = fp = tn = fn = fn_neg = fn_non = 0
        for item in (t for t in truth if t.tag == tag):
            verdict = by_id[item.paper_id].tag_verdicts.get(tag, VERDICT_NONE)
            positive = verdict == VERDICT_POSITIVE
            present = item.label == LABEL_PRESENT
            if positive and present:
                tp += 1
            elif positive and not present:
                fp += 1
            elif not positive and not present:
                tn += 1
            else:
                fn += 1
                if verdict == VERDICT_NEGATIVE:
                    fn_neg += 1
                else:
                    fn_non += 1
        rows.append(ConfusionRow(tag, tp, fp, tn, fn, fn_neg, fn_non))
    return rows


def confusion_csv(rows: list[ConfusionRow]) -> str:
    return table_text(
        ["tag", "P", "FP", "TN", "FN", "total", "fn_negative", "fn_none"],
        (
            [r.tag, r.true_positive, r.false_positive, r.true_negative,
             r.false_negative, r.total_labeled, r.fn_negative, r.fn_none]
            for r in rows
        ),
    )


def _load_expected(path: Path) -> dict[str, str]:
    expected: dict[str, str] = {}
    for lineno, row in csv_records(path):
        if not row or row[0].strip().startswith("#"):
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected `key,value` rows, got {row!r}")
        key = row[0].strip()
        if key in expected:
            raise ValueError(f"{path}: line {lineno}: key {key!r} is listed twice")
        expected[key] = row[1].strip()
    return expected


def regression_check(fixtures_dir: str | Path, bundle: Bundle) -> tuple[bool, list[str]]:
    """Run the bundle over every `<name>.txt` fixture and diff tag verdicts
    against `<name>.expected.csv`.

    Expectation files hold `key,value` rows using the results-CSV cell
    vocabulary; the key `status` (default: analyzed) checks the pipeline
    status, tag keys default to `none` for analyzed fixtures and empty
    otherwise. Fixtures are classified with the short-text gate disabled,
    since they are usually snippets rather than full papers.
    """
    fixtures_dir = Path(fixtures_dir)
    config = RunConfig(short_threshold=0)
    fixtures = sorted(fixtures_dir.glob("*.txt"))
    if not fixtures:
        raise ValueError(f"{fixtures_dir}: no *.txt fixtures found")
    lines: list[str] = []
    all_ok = True
    for fixture in fixtures:
        expected_path = fixture.parent / (fixture.stem + ".expected.csv")
        if not expected_path.exists():
            raise FileNotFoundError(f"missing expectation file {expected_path}")
        expected = _load_expected(expected_path)
        meta = SourceMeta(paper_id=fixture.stem, journal="regression", year=2000, path=str(fixture))
        doc = load_document(meta)  # undecodable bytes become U+FFFD, as in classify
        result, _ = classify_paper(doc, bundle, config)
        diffs: list[str] = []
        want_status = expected.pop("status", STATUS_ANALYZED)
        if result.status != want_status:
            diffs.append(f"status: expected {want_status}, got {result.status}")
        default_cell = VERDICT_NONE if result.status == STATUS_ANALYZED else ""
        tags = sorted(set(expected) | set(result.tag_verdicts))
        for tag in tags:
            want = expected.get(tag, default_cell)
            got = result.tag_verdicts.get(tag, default_cell)
            if want != got:
                diffs.append(f"{tag}: expected {want or '(empty)'}, got {got or '(empty)'}")
        if diffs:
            all_ok = False
            lines.append(f"FAIL {fixture.stem}")
            lines.extend(f"  {d}" for d in diffs)
        else:
            lines.append(f"PASS {fixture.stem}")
    return all_ok, lines


def stratified_sample(
    results: list[CorpusResult],
    tag: str,
    n: int,
    seed: int,
) -> list[str]:
    """Deterministic stratified sample of analyzed papers for one tag.

    Strata are the verdict classes (positive/negative/none); allocation is
    proportional with at least one paper per non-empty stratum when the
    budget allows, and favours larger strata (ties broken by stratum name)
    otherwise. Asking for more papers than exist returns them all.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    strata: dict[str, list[str]] = {}
    for r in results:
        if r.status != STATUS_ANALYZED:
            continue
        verdict = r.tag_verdicts.get(tag, VERDICT_NONE)
        strata.setdefault(verdict, []).append(r.meta.paper_id)
    strata = {k: sorted(v) for k, v in strata.items()}
    total = sum(len(v) for v in strata.values())
    if total == 0:
        return []
    if n >= total:
        return sorted(pid for ids in strata.values() for pid in ids)

    names = sorted(strata)
    by_size = sorted(names, key=lambda k: (-len(strata[k]), k))
    alloc: dict[str, int] = {k: 0 for k in names}
    if n < len(names):
        for k in by_size[:n]:
            alloc[k] = 1
    else:
        quotas = {k: n * len(strata[k]) / total for k in names}
        for k in names:
            alloc[k] = min(max(1, int(quotas[k])), len(strata[k]))
        while sum(alloc.values()) > n:
            # shed from the most over-allocated stratum, largest first
            k = sorted(
                (k for k in names if alloc[k] > 1),
                key=lambda k: (quotas[k] - alloc[k], -len(strata[k]), k),
            )[0]
            alloc[k] -= 1
        while sum(alloc.values()) < n:
            # grow the stratum with the largest unmet quota that has capacity
            k = sorted(
                (k for k in names if alloc[k] < len(strata[k])),
                key=lambda k: (alloc[k] - quotas[k], -len(strata[k]), k),
            )[0]
            alloc[k] += 1

    rng = random.Random(seed)
    out: list[str] = []
    for k in names:
        if alloc[k]:
            out.extend(sorted(rng.sample(strata[k], alloc[k])))
    return out
