"""Summarize recorded benchmark results; optionally commit them as the baseline.

    python3 bench/baseline.py            # print medians and spreads
    python3 bench/baseline.py --write    # also write bench/baseline.json and bench/digests.json
    python3 bench/baseline.py --write --digest-seeds 32   # and digests of seeds 0-31

Reads the per-run records that bench/run.py leaves in .bench_work/results/.
For each workload and end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) across
seeds. --write stores them, the per-layer medians of the traced runs, the
machine, the git sha and the bundle digest in bench/baseline.json, and the
input digest of every recorded seed in bench/digests.json; --digest-seeds
also generates the seeded workloads for seeds 0..N-1 to record theirs.
Run it from the repository root.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = Path(".bench_work/results")  # where bench/run.py leaves its records
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--digest-seeds", type=int, default=0, metavar="N")
    args = parser.parse_args()

    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"error: no results in {RESULTS}", file=sys.stderr)
        return 1
    summary: dict = {}
    digests: dict = defaultdict(dict)
    for workload in gen.WORKLOADS:
        untraced = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        for r in untraced + traced:
            key = "any" if workload == "reference" else str(r["seed"])
            digests[workload][key] = r["input_digest"]
        if not untraced:
            continue
        entry = {"seeds": sorted(r["seed"] for r in untraced),
                 "correct": all(r["correct"] for r in untraced + traced), "end_to_end": {}}
        print(f"{workload}: {len(untraced)} untraced runs, {len(traced)} traced")
        for name in untraced[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in untraced]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:22s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  spread {spread:6.3f}")
        if traced:
            entry["per_layer"] = {
                name: statistics.median(r["per_layer"][name] for r in traced) for name in traced[0]["per_layer"]
            }
        summary[workload] = entry
    root = BENCH_DIR.parent
    if args.write and args.digest_seeds:
        sys.path.insert(0, str(root / "src"))
        from litscan.dsl import load_bundle

        bundle = load_bundle(root / "analyzers")
        scratch = root / ".bench_work" / "digests"
        for workload in gen.WORKLOADS[1:]:  # the reference input does not depend on the seed
            for seed in range(args.digest_seeds):
                shutil.rmtree(scratch, ignore_errors=True)
                digests[workload][str(seed)] = gen.build(workload, bundle, scratch, seed).digest
        shutil.rmtree(scratch, ignore_errors=True)
    if args.write:
        first = records[0]
        baseline = {
            "git_sha": git_sha(root),
            "bundle_digest": first["bundle_digest"],
            "machine": first["machine"],
            "workloads": summary,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
