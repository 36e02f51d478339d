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

Exit codes: 0 success, 1 usage, parse or configuration error or a
classify worker that died, 2 partial per-paper failures during a classify
run.
"""

import argparse
import sys
from pathlib import Path

# matching first: compiling it from source is the largest allocation of the
# import, and with fewer modules resident at that point a run without a
# bytecode cache peaks 0.25-0.7 MB lower in RSS
from .matching import (
    DEFAULT_FUZZY_MIN_LEN,
    DEFAULT_SKIP_WINDOW,
    DEFAULT_SUPPORT_WINDOW,
    MatchConfig,
)
from .corpus import (
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
from .dsl import AnalyzerParseError, BundleError, load_bundle
from .ingest import DEFAULT_SHORT_THRESHOLD, SourceMeta, load_document, load_manifest, table_text


def _bundle(args: argparse.Namespace) -> Bundle:
    """The --analyzers bundle compiled for the matching flags."""
    match = MatchConfig(
        support_window=args.support_window, skip_window=args.skip_window, fuzzy_min_len=args.fuzzy_min_len
    )
    return Bundle(load_bundle(args.analyzers), match)


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--support-window", type=int, default=DEFAULT_SUPPORT_WINDOW, metavar="N",
                   help="characters around a primary match searched for supports")
    p.add_argument("--skip-window", type=int, default=DEFAULT_SKIP_WINDOW, metavar="N",
                   help="characters around a primary match evaluated by skip matchers")
    p.add_argument("--fuzzy-min-len", type=int, default=DEFAULT_FUZZY_MIN_LEN, metavar="N",
                   help="minimum term length for one-edit matching; above the longest term, "
                        "every term matches exactly")


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
            continue
        results.append(result)

    (out / "results.csv").write_text(emit_csv(results, bundle.tags), encoding="utf-8", newline="")
    (out / "aggregates.csv").write_text(
        aggregates_csv(aggregate(results, bundle.tags), bundle.tags), encoding="utf-8", newline=""
    )
    # errors.csv exists only when this run had failures, whatever an earlier run left in --out
    (out / "errors.csv").unlink(missing_ok=True)
    if errors:
        (out / "errors.csv").write_text(
            table_text(["paper_id", "error"], errors), encoding="utf-8", newline=""
        )
        print(f"WARNING litscan: {len(errors)} of {len(metas)} papers failed; see errors.csv", file=sys.stderr)
        return 2
    print(f"INFO litscan: classified {len(results)} papers into {out}", file=sys.stderr)
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


def _cmd_aggregate(args: argparse.Namespace) -> int:
    results, tags = read_results_csv(args.results)
    print(aggregates_csv(aggregate(results, tags), tags), end="")
    return 0


def _read_results(path: str, tags: set[str]) -> list[CorpusResult]:
    """The results of a results.csv that has a column for each of `tags`."""
    results, columns = read_results_csv(path)
    missing = sorted(tags - set(columns))
    if missing:
        raise ValueError(f"{path}: results has no column for tags {missing}")
    return results


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import confusion, confusion_csv, load_truth  # only here: classify never validates

    truth = load_truth(args.truth)
    results = _read_results(args.results, {t.tag for t in truth})
    print(confusion_csv(confusion(results, truth)), end="")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from .validation import regression_check

    ok, lines = regression_check(args.fixtures, _bundle(args))
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    from .validation import stratified_sample

    results = _read_results(args.results, {args.tag})
    for pid in stratified_sample(results, args.tag, args.n, args.seed):
        print(pid)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as configuration
    errors do: exit 2 means that some papers failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="litscan", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
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
    try:
        return args.func(args)
    except (AnalyzerParseError, BundleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
