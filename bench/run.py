"""Benchmark of `litscan classify` on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, untraced and traced

Workloads (see gen.py for how each is built and why it was chosen):
  reference    ROADMAP's baseline corpus; normalize and exact piece scans
  noisy-dense  long damaged papers where one-edit verification dominates
  many-short   many small papers where per-paper fixed costs show

An untraced run (--trace 0) times `litscan classify` from outside, as a
subprocess, on the workload's whole manifest, alternating --jobs 1 and
--jobs $(nproc) until --seconds have passed, with set-up runs on an empty
manifest in between. It reports medians over those samples. A traced run
(--trace 1) does the same and adds a run traced in-process (layers.py) after
each pair, and reports per-layer numbers; corpus.parallel_efficiency comes
from its papers_per_s and papers_per_s_jobsN. The benchmark starts one
classify at a time: litscan's own pool is the only parallelism. Every
timed command starts through launch.py, so its peak RSS is its own rather
than the benchmark's.

A shared machine's speed can drift by tens of percent within seconds, so a
fixed, litscan-independent job (calibrate.py) runs before and after every
classify run, and each classify run's throughput is scaled by the runs of it
next to it, to a machine on which it takes CALIBRATION_REFERENCE_S; setup_s
is scaled by the median of all of them. The unscaled figures are printed
too. peak_rss_mb and the per-layer numbers are not scaled.

error_rate, tag_fp and tag_fn are printed with the other end-to-end
metrics but are not bounded metrics, because they are 0 when all is well.
The JSON line carries failed papers as `failed`; `correct` requires no
failed paper, identical outputs, a results.csv row for every paper, no false
positive tag, no missed tag among undamaged plantings and the expected
status for every paper.

Every run checks that results.csv, aggregates.csv and every report are
byte-identical across all classify runs, that the generated input matches
its recorded digest, and compares results.csv against the planted truth
with the benchmark's own code. A paper fails when it has an errors.csv
row; every paper fails when classify exits with a code other than 0 or 2,
or its outputs differ from the first run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402

END_TO_END = {  # name -> unit; bounded metrics, never 0
    "setup_s": "s",
    "papers_per_s": "papers/s",
    "papers_per_s_jobsN": "papers/s",
    "peak_rss_mb": "MB",
}
QUALITY = {"error_rate": "ratio", "tag_fp": "count", "tag_fn": "count"}  # may be 0: printed, not bounded
PER_LAYER = {
    "dsl.load_bundle_ms": "ms",
    "dsl.candidate_terms_ms": "ms",
    "dsl.candidate_terms_calls": "count",
    "ingest.load_manifest_ms": "ms",
    "ingest.load_document_ms": "ms",
    "ingest.read_ms": "ms",
    "ingest.make_document_ms": "ms",
    "ingest.normalize_ms": "ms",
    "ingest.normalize_ns_per_char": "ns/char",
    "ingest.doc_alloc_bytes_per_char": "bytes/char",
    "ingest.gate_short_ms": "ms",
    "ingest.papers_skipped_short": "count",
    "matching.run_analyzer_ms": "ms",
    "matching.find_term_ms": "ms",
    "matching.find_term_calls": "count",
    "matching.term_spans": "count",
    "matching.term_spans_fuzzy": "count",
    "matching.find_supports_ms": "ms",
    "matching.supports_hit_ratio": "ratio",
    "matching.apply_skips_ms": "ms",
    "matching.skip_ratio": "ratio",
    "scoring.resolve_analyzer_ms": "ms",
    "scoring.aggregate_tags_ms": "ms",
    "scoring.decide_exclusion_ms": "ms",
    "report.render_report_ms": "ms",
    "report.bytes": "bytes",
    "corpus.classify_file_ms.p50": "ms",
    "corpus.classify_file_ms.p99": "ms",
    "corpus.classify_file_samples": "count",
    "corpus.classify_file_self_ms": "ms",
    "corpus.classify_paper_ms": "ms",
    "corpus.run_corpus_self_ms": "ms",
    "corpus.emit_csv_ms": "ms",
    "corpus.aggregate_ms": "ms",
    "corpus.aggregates_csv_ms": "ms",
    "cli.classify_self_ms": "ms",
    "corpus.parallel_efficiency": "ratio",
    "trace.wall_ms": "ms",
    "trace.other_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
PROBES = 3  # calibration and set-up runs before the first classify run and after each
# Times are scaled to a machine on which bench/calibrate.py takes this long.
CALIBRATION_REFERENCE_S = 0.2
DEADLINE_S = 165  # a run must end within 180 s
DIGESTS = BENCH_DIR / "digests.json"


def run_timed(argv: list[str], log: Path, env: dict, timeout: float) -> tuple[float, int, int]:
    """Run argv through launch.py with stdout and stderr to `log`; return
    (wall s, max RSS KiB, exit code) of argv. Both get their own process
    group, killed on timeout."""
    record = log.with_suffix(".run.json")
    record.unlink(missing_ok=True)
    with open(log, "ab") as sink:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py"), str(record), "--", *argv],
                                stdout=sink, stderr=sink, env=env, start_new_session=True)
    start = time.perf_counter()
    watchdog = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        proc.wait()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if proc.returncode == -signal.SIGKILL and time.perf_counter() - start >= timeout:
        raise TimeoutError(f"{' '.join(argv[1:3])} exceeded {timeout:.0f} s")
    if not record.exists():
        raise RuntimeError(f"launch.py exited {proc.returncode} without a result; see {log}")
    run = json.loads(record.read_text())
    return run["wall_s"], run["maxrss_kib"], run["exit_code"]


def output_hashes(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def count_errors(out: Path) -> int:
    path = out / "errors.csv"
    if not path.exists():
        return 0
    with open(path, newline="", encoding="utf-8") as fh:
        return max(sum(1 for _ in csv.reader(fh)) - 1, 0)


def compare_truth(results_csv: Path, truth: gen.Truth) -> dict[str, int]:
    """tag_fp, tag_fn, tag_fn_clean, status mismatches and missing papers of
    a results.csv against the planted truth."""
    q = {"tag_fp": 0, "tag_fn": 0, "tag_fn_clean": 0, "status_mismatch": 0}
    seen = set()
    with open(results_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        tags = header[5:]
        for row in reader:
            pid, status, cells = row[0], row[4], row[5:]
            seen.add(pid)
            q["status_mismatch"] += status != truth.status.get(pid)
            present, clean = truth.present.get(pid, set()), truth.clean.get(pid, set())
            for tag, cell in zip(tags, cells):
                positive = cell == "positive"
                q["tag_fp"] += positive and tag not in present
                q["tag_fn"] += not positive and tag in present
                q["tag_fn_clean"] += not positive and tag in clean
    q["missing"] = len(truth.status.keys() - seen)
    return q


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds, self.trace = root, workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.work = root / ".bench_work" / workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.golden: tuple[dict[str, str], Path] | None = None  # the first run's outputs
        self.attempted = self.failed = 0
        self.identical = True
        self.runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def classify_argv(self, manifest: Path, out: Path, jobs: int) -> list[str]:
        return ["classify", "--manifest", str(manifest),
                "--analyzers", str(self.root / "analyzers"), "--out", str(out), "--jobs", str(jobs)]

    def classify(self, manifest: Path, papers: int, jobs: int, traced: bool = False) -> tuple[float, int]:
        """One classify run; returns (wall s, max RSS KiB) and checks the
        outputs against the first run."""
        self.runs += 1
        out = self.work / f"out-{self.runs}"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "layers.py"), "trace", "--out-json", str(out) + ".json", "--"]
        else:
            argv = [sys.executable, "-m", "litscan"]
        argv += self.classify_argv(manifest, out, jobs)
        wall, rss, code = run_timed(argv, self.work / "classify.log", self.env, self.remaining())
        self.attempted += papers
        if code not in (0, 2) or not (out / "results.csv").exists():
            self.failed += papers
            self.identical = False
            return wall, rss
        hashes, errors = output_hashes(out), count_errors(out)
        if self.golden is None:
            self.golden = (hashes, out)
        else:
            shutil.rmtree(out)
            if hashes != self.golden[0]:
                self.identical = False
                errors = papers
        self.failed += errors
        return wall, rss

    def verdict(self, truth: gen.Truth) -> tuple[dict[str, int] | None, bool]:
        """(quality of the first run's results.csv, correct). Quality is None
        when the outputs of the runs differ or no run wrote any."""
        if not self.identical or self.golden is None:
            return None, False
        q = compare_truth(self.golden[1] / "results.csv", truth)
        return q, self.failed == 0 and not any(q[k] for k in ("tag_fp", "tag_fn_clean", "status_mismatch", "missing"))

    def setup_run(self) -> float:
        """Wall time of classify on an empty manifest."""
        empty = self.work / "empty.csv"
        empty.write_text("paper_id,journal,year,path\n", encoding="utf-8")
        wall, _, code = run_timed([sys.executable, "-m", "litscan"] + self.classify_argv(empty, self.work / "setup", 1),
                                  self.work / "setup.log", self.env, self.remaining())
        if code != 0:
            raise RuntimeError(f"classify on an empty manifest exited {code}; see {self.work / 'setup.log'}")
        return wall

    def calibration_run(self) -> float:
        wall, _, _ = run_timed([sys.executable, str(BENCH_DIR / "calibrate.py")], self.work / "calibrate.log",
                               self.env, self.remaining())
        return wall

    def alloc(self, manifest: Path) -> float | None:
        out = self.work / "alloc.json"
        run_timed([sys.executable, str(BENCH_DIR / "layers.py"), "alloc", "--out-json", str(out),
                   "--manifest", str(manifest)], self.work / "alloc.log", self.env, self.remaining())
        return json.loads(out.read_text())["bytes_per_char"] if out.exists() else None

    def measure(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        from litscan.dsl import load_bundle

        bundle = load_bundle(self.root / "analyzers")
        wl = gen.build(self.workload, bundle, self.work / "input", self.seed)
        recorded = json.loads(DIGESTS.read_text()).get(self.workload, {})
        expected = recorded.get("any") or recorded.get(str(self.seed))
        if expected is not None and expected != wl.digest:
            raise SystemExit(f"error: {self.workload} input digest {wl.digest} differs from the "
                             f"digest recorded for seed {self.seed}: {expected}")

        manifest, papers = wl.manifest, wl.papers
        kinds = {"jobs1": (1, False), "jobsN": (self.nproc, False)}
        if self.trace:
            kinds["traced"] = (1, True)
        probes: list[list[float]] = []  # calibration walls of each probe
        setups: list[float] = []
        runs: list[tuple[str, float]] = []  # (kind, wall s); run i lies between probes i and i + 1
        rss1, traced = [], []

        def probe() -> None:
            cal = []
            for _ in range(PROBES):
                cal.append(self.calibration_run())
                setups.append(self.setup_run())
            probes.append(cal)

        def more() -> bool:  # one round, then more only if they should end by about --seconds
            spent = time.perf_counter() - t0
            return not runs or spent + spent / (len(runs) / len(kinds)) / 2 < self.seconds

        t0 = time.perf_counter()
        probe()
        while more():
            for kind, (jobs, is_traced) in kinds.items():
                out_json = self.work / f"out-{self.runs + 1}.json"
                wall, rss = self.classify(manifest, papers, jobs, is_traced)
                runs.append((kind, wall))
                if kind == "jobs1":
                    rss1.append(rss)
                if is_traced and out_json.exists():
                    traced.append(json.loads(out_json.read_text()))
                probe()

        # A slowdown >1 means the machine ran slower than the reference. Each
        # classify run is scaled by the calibration runs just before and after
        # it, which cancels drift in machine speed over the run.
        def slowdown(i: int) -> float:
            return statistics.mean(probes[i] + probes[i + 1]) / CALIBRATION_REFERENCE_S

        walls = {kind: [w for k, w in runs if k == kind] for kind in kinds}
        scaled_pps = {kind: [papers / w * slowdown(i) for i, (k, w) in enumerate(runs) if k == kind] for kind in kinds}
        calib = [c for cal in probes for c in cal]
        quality, correct = self.verdict(wl.truth)
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "input_digest": wl.digest,
            "input_digest_recorded": expected is not None,
            "bundle_digest": gen.digest_dir(self.root / "analyzers"),
            "machine": {"nproc": self.nproc, "python": platform.python_version(), "platform": platform.platform()},
            "papers": wl.papers,
            "samples_s": {"calibration": calib, "setup": setups, **walls},
            "unscaled": {
                "calibration_s": statistics.median(calib),
                "setup_s": statistics.median(setups),
                "papers_per_s": papers / statistics.median(walls["jobs1"]),
                "papers_per_s_jobsN": papers / statistics.median(walls["jobsN"]),
            },
            "identical_outputs": self.identical,
            "quality": quality,
            "end_to_end": {
                "setup_s": statistics.median(setups) / (statistics.median(calib) / CALIBRATION_REFERENCE_S),
                "papers_per_s": statistics.median(scaled_pps["jobs1"]),
                "papers_per_s_jobsN": statistics.median(scaled_pps["jobsN"]),
                "peak_rss_mb": statistics.median(rss1) / 1024,
                "error_rate": self.failed / self.attempted,
                "tag_fp": quality["tag_fp"] if quality else -1,
                "tag_fn": quality["tag_fn"] if quality else -1,
            },
        }
        result["correct"] = correct
        if self.trace:
            result["per_layer"], result["absent"] = self.per_layer(traced, walls, result, wl)
        return result

    def per_layer(self, traced, walls, result, wl) -> tuple[dict, list]:
        # one whole traced run, the median by wall time, so its self times add up
        run = {"metrics": {}, "absent": ["trace"]}
        if traced:
            run = sorted(traced, key=lambda t: t["metrics"]["trace.wall_ms"])[(len(traced) - 1) // 2]
        layer = {name: run["metrics"].get(name, 0.0) for name in PER_LAYER}
        absent = list(run["absent"])
        alloc = self.alloc(wl.manifest)
        if alloc is None:
            absent.append("ingest.doc_alloc_bytes_per_char")
        layer["ingest.doc_alloc_bytes_per_char"] = alloc or 0.0
        e2e = result["end_to_end"]
        layer["corpus.parallel_efficiency"] = e2e["papers_per_s_jobsN"] / (self.nproc * e2e["papers_per_s"])
        layer["trace.overhead_ratio"] = statistics.median(walls["traced"]) / statistics.median(walls["jobs1"])
        return layer, absent


def report(result: dict) -> dict:
    """Print the human-readable block; return the JSON line's object."""
    samples = {k: len(v) for k, v in result["samples_s"].items()}
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} papers={result['papers']} "
          f"samples={samples}")
    print(f"# input digest {result['input_digest']} "
          f"({'matches the recorded digest' if result['input_digest_recorded'] else 'no digest recorded for this seed'})")
    print(f"# bundle digest {result['bundle_digest']}  machine {result['machine']}")
    print("# unscaled: " + "  ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    q = result["quality"] or {}
    print(f"# identical outputs across runs: {result['identical_outputs']}  tag_fn_clean={q.get('tag_fn_clean')} "
          f"status_mismatch={q.get('status_mismatch')} missing={q.get('missing')}  correct={result['correct']}")
    for name, value in result["end_to_end"].items():
        unit = END_TO_END.get(name) or QUALITY[name]
        print(f"{name:36s} {value:14.6g} {unit}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            print(f"{name:36s} {value:14.6g} {PER_LAYER[name]}")
        layer = result["per_layer"]
        selfs = sum(v for k, v in layer.items() if k.endswith("_ms") and not k.startswith("trace."))
        print(f"# sum of self times {selfs:.1f} ms + other {layer['trace.other_ms']:.1f} ms "
              f"= traced wall {layer['trace.wall_ms']:.1f} ms")
        if result["absent"]:
            print(f"# absent layers (reported as 0): {', '.join(result['absent'])}")
    metrics = result["per_layer"] if "per_layer" in result else result["end_to_end"]
    units = PER_LAYER if "per_layer" in result else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = Bench(root, workload, seed, seconds, trace)
    result = bench.measure()
    result["attempted"], result["failed"] = bench.attempted, bench.failed
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "litscan" / "__init__.py").is_file() or not (root / "analyzers").is_dir():
        print("error: run from the root of a litscan checkout (src/litscan and analyzers/ not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload != "all":
        line = report(run_one(root, args.workload, args.seed, args.seconds, bool(args.trace)))
        print(json.dumps(line))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            line = report(run_one(root, workload, args.seed, args.seconds, trace))
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            combined["metrics"].update({f"{workload}/{k}": v for k, v in line["metrics"].items()})
            print()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
