"""Command-line interface.

Subcommands:
  classify        run a bundle over a manifest of papers, writing
                  results.csv, aggregates.csv and per-paper reports
  check-analyzers parse and validate a bundle directory
  report          classify a single text file and print its report
  aggregate       recompute journal-year aggregates from a results.csv
  validate        confusion table of a results.csv against truth labels
  regress         run the regression fixture corpus (text fixtures, no
                  short-text gate: only the matching flags apply)
  sample          stratified sample of paper ids for manual review

Exit codes: 0 success, 1 parse/configuration error, 2 partial per-paper
failures during a classify run.
"""

import argparse
import csv
import logging
import sys
from pathlib import Path

from .corpus import (
    Bundle,
    CorpusResult,
    RunConfig,
    aggregate,
    aggregates_csv,
    classify_paper,
    emit_csv,
    run_corpus,
)
from .dsl import AnalyzerParseError, BundleError, load_bundle
from .ingest import DEFAULT_SHORT_THRESHOLD, SourceMeta, load_document, load_manifest
from .matching import (
    DEFAULT_FUZZY_MIN_LEN,
    DEFAULT_MAX_EDITS,
    DEFAULT_SKIP_WINDOW,
    DEFAULT_SUPPORT_WINDOW,
    MatchConfig,
)
from .validation import confusion, confusion_csv, load_truth, regression_check, stratified_sample

log = logging.getLogger("litscan")


def _bundle(args: argparse.Namespace) -> Bundle:
    """The --analyzers bundle compiled for the matching flags."""
    match = MatchConfig(
        support_window=args.support_window,
        skip_window=args.skip_window,
        max_edits=args.max_edits,
        fuzzy_min_len=args.fuzzy_min_len,
    )
    return Bundle(load_bundle(args.analyzers), match)


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--support-window", type=int, default=DEFAULT_SUPPORT_WINDOW, metavar="N",
                   help="characters around a primary match searched for supports")
    p.add_argument("--skip-window", type=int, default=DEFAULT_SKIP_WINDOW, metavar="N",
                   help="characters around a primary match evaluated by skip matchers")
    p.add_argument("--max-edits", type=int, choices=(0, 1), default=DEFAULT_MAX_EDITS,
                   help="edit budget for fuzzy term matching")
    p.add_argument("--fuzzy-min-len", type=int, default=DEFAULT_FUZZY_MIN_LEN, metavar="N",
                   help="minimum term length for fuzzy matching")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--short-threshold", type=int, default=DEFAULT_SHORT_THRESHOLD, metavar="N",
                   help="skip texts with fewer words than this")
    p.add_argument("--converter", default=None, metavar="CMD",
                   help="external command template with an {input} placeholder "
                        "producing text on stdout")


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    bundle = _bundle(args)
    metas = load_manifest(args.manifest)
    config = RunConfig(short_threshold=args.short_threshold, converter=args.converter)
    out = Path(args.out)
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    rows = run_corpus(metas, bundle, config, reports_dir, jobs=args.jobs)
    results: list[CorpusResult] = []
    errors: list[tuple[str, str]] = []
    for meta, result, error in rows:
        if error is not None:
            errors.append((meta.paper_id, error))
            log.error("failed: %s", error)
            continue
        results.append(result)

    (out / "results.csv").write_text(emit_csv(results, bundle.tags), encoding="utf-8", newline="")
    (out / "aggregates.csv").write_text(
        aggregates_csv(aggregate(results), bundle.tags), encoding="utf-8", newline=""
    )
    # errors.csv exists only when this run had failures, whatever an earlier run left in --out
    (out / "errors.csv").unlink(missing_ok=True)
    if errors:
        with open(out / "errors.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(["paper_id", "error"])
            writer.writerows(errors)
        log.warning("%d of %d papers failed; see errors.csv", len(errors), len(metas))
        return 2
    log.info("classified %d papers into %s", len(results), out)
    return 0


def _cmd_check_analyzers(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.analyzers)
    for spec in bundle:
        region = "full" if spec.region_fraction == 1.0 else f"prefix:{spec.region_fraction:g}"
        print(
            f"{spec.name}: mode={spec.mode} region={region} "
            f"positives={len(spec.positives)} negatives={len(spec.negatives)} "
            f"skips={len(spec.skips)} synonyms={len(spec.synonyms)} tags={','.join(spec.tags)}"
        )
    print(f"{len(bundle)} analyzers OK")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = _bundle(args)
    config = RunConfig(short_threshold=args.short_threshold, converter=args.converter)
    meta = SourceMeta(
        paper_id=Path(args.paper).stem, journal=args.journal, year=args.year, path=args.paper
    )
    doc = load_document(meta, config.converter)
    _, report = classify_paper(doc, bundle, config)
    print(report, end="")
    return 0


def _read_results_csv(path: str) -> tuple[list[CorpusResult], list[str]]:
    """Rebuild enough of the per-paper results from a results.csv to
    aggregate, validate, and sample. Raises ValueError listing every
    problem found."""
    fixed = ["paper_id", "journal", "year", "words", "status"]
    results: list[CorpusResult] = []
    errors: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[: len(fixed)] != fixed:
            raise ValueError(f"{path}: unexpected results header {header!r}")
        tags = header[len(fixed):]
        for row in reader:
            lineno = reader.line_num  # a quoted cell may hold a line break
            if len(row) != len(header):
                errors.append(f"line {lineno}: {len(row)} cells, the header has {len(header)}")
                continue
            pid, journal, year, words, status = row[: len(fixed)]
            try:
                meta = SourceMeta(paper_id=pid, journal=journal, year=int(year), path="")
                word_count = int(words)
            except ValueError:
                errors.append(f"line {lineno}: year {year!r} or words {words!r} is not an integer")
                continue
            verdicts = {t: c for t, c in zip(tags, row[len(fixed):]) if c}
            results.append(CorpusResult(meta, status, verdicts, word_count))
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return results, tags


def _cmd_aggregate(args: argparse.Namespace) -> int:
    results, tags = _read_results_csv(args.results)
    print(aggregates_csv(aggregate(results), tags), end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results, _ = _read_results_csv(args.results)
    truth = load_truth(args.truth)
    print(confusion_csv(confusion(results, truth)), end="")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    ok, lines = regression_check(args.fixtures, _bundle(args))
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    results, _ = _read_results_csv(args.results)
    for pid in stratified_sample(results, args.tag, args.n, args.seed):
        print(pid)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="litscan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a manifest of papers")
    p.add_argument("--manifest", required=True)
    p.add_argument("--analyzers", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each writes the reports of the papers it classifies")
    _add_match_flags(p)
    _add_input_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-analyzers", help="parse and validate a bundle")
    p.add_argument("--analyzers", required=True)
    p.set_defaults(func=_cmd_check_analyzers)

    p = sub.add_parser("report", help="classify one paper and print the report")
    p.add_argument("paper")
    p.add_argument("--analyzers", required=True)
    p.add_argument("--journal", default="unknown")
    p.add_argument("--year", type=int, default=2000)
    _add_match_flags(p)
    _add_input_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("aggregate", help="recompute aggregates from a results.csv")
    p.add_argument("--results", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("validate", help="confusion table against truth labels")
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("regress", help="run the regression fixture corpus")
    p.add_argument("--fixtures", required=True)
    p.add_argument("--analyzers", required=True)
    _add_match_flags(p)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("sample", help="stratified sample of paper ids")
    p.add_argument("--results", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (AnalyzerParseError, BundleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
