#!/usr/bin/env python3
"""End-to-end experiment: generate a labelled corpus, classify it, and score
the classifier against the planted ground truth.

Example:
    python scripts/end_to_end_demo.py --workdir /tmp/demo --docs 50
"""

import argparse
import time
from pathlib import Path

from litscan.corpus import RunConfig, aggregate, aggregates_csv, emit_csv, run_corpus, tag_universe
from litscan.dsl import load_bundle
from litscan.ingest import load_manifest
from litscan.synthetic import generate_corpus
from litscan.validation import confusion, confusion_csv, load_truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--analyzers", default=Path(__file__).resolve().parent.parent / "analyzers")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--docs", type=int, default=50)
    parser.add_argument("--words", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    bundle = load_bundle(args.analyzers)
    corpus = generate_corpus(bundle, workdir / "corpus", n_docs=args.docs,
                             words_per_doc=args.words, seed=args.seed)
    metas = load_manifest(corpus.manifest_path)

    started = time.perf_counter()
    rows = run_corpus(metas, bundle, RunConfig(), None, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    results = [r for _, r, _ in rows if r is not None]
    print(f"classified {len(results)} documents in {elapsed:.1f}s (jobs={args.jobs})")

    tags = tag_universe(bundle)
    (workdir / "results.csv").write_text(emit_csv(results, tags), encoding="utf-8", newline="")
    (workdir / "aggregates.csv").write_text(
        aggregates_csv(aggregate(results), tags), encoding="utf-8", newline=""
    )

    truth = load_truth(corpus.truth_path)
    print()
    print(confusion_csv(confusion(results, truth)))


if __name__ == "__main__":
    main()
