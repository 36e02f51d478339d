#!/usr/bin/env python3
"""End-to-end experiment: generate a labelled corpus, classify it with
`litscan classify`, and score the classifier against the planted ground
truth.

Example:
    python scripts/end_to_end_demo.py --workdir /tmp/demo --docs 50

The workdir ends up holding corpus/ and what `litscan classify` writes:
results.csv, aggregates.csv and reports/.
"""

import argparse
import sys
import time
from pathlib import Path

from litscan.cli import main as litscan
from litscan.dsl import load_bundle
from litscan.synthetic import generate_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--analyzers", default=Path(__file__).resolve().parent.parent / "analyzers")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--docs", type=int, default=50)
    parser.add_argument("--words", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    corpus = generate_corpus(load_bundle(args.analyzers), workdir / "corpus", n_docs=args.docs,
                             words_per_doc=args.words, seed=args.seed)

    started = time.perf_counter()
    code = litscan(["classify", "--manifest", str(corpus.manifest_path), "--analyzers", str(args.analyzers),
                    "--out", str(workdir), "--jobs", str(args.jobs)])
    elapsed = time.perf_counter() - started
    if code != 0:
        return code
    print(f"classified {args.docs} documents in {elapsed:.1f}s (jobs={args.jobs})")
    print()
    return litscan(["validate", "--results", str(workdir / "results.csv"), "--truth", str(corpus.truth_path)])


if __name__ == "__main__":
    sys.exit(main())
