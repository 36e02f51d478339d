"""Traced in-process run of `litscan classify`, for per-layer numbers.

    python3 bench/layers.py trace --out-json spans.json -- classify --manifest ... --jobs 1
    python3 bench/layers.py alloc --out-json alloc.json --manifest ...

`trace` wraps the public functions of litscan's modules at the module
attributes their callers look up, runs the CLI in this process and writes
per-layer self times and counts. No source file is changed. A function that
does not exist is reported as absent, and its arguments are passed through
untouched, so the trace survives refactors of the code it measures.

`alloc` reports the tracemalloc peak of make_document per input character
on the first ALLOC_SAMPLE papers, in its own process so it does not inflate
timings.
"""

import time

T0_NS = time.perf_counter_ns()  # before litscan is imported: import time is "other"

import argparse  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, attribute, self-time metric). Every *_ms metric is a self time:
# the span's time minus the time of the spans it caused.
LAYERS = (
    ("dsl", "load_bundle", "dsl.load_bundle_ms"),
    ("dsl", "AnalyzerSpec.candidate_terms", "dsl.candidate_terms_ms"),
    ("ingest", "load_manifest", "ingest.load_manifest_ms"),
    ("ingest", "load_document", "ingest.load_document_ms"),
    ("ingest", "read_raw_text", "ingest.read_ms"),
    ("ingest", "make_document", "ingest.make_document_ms"),
    ("ingest", "normalize", "ingest.normalize_ms"),
    ("ingest", "gate_short", "ingest.gate_short_ms"),
    ("matching", "run_analyzer", "matching.run_analyzer_ms"),
    ("matching", "find_term", "matching.find_term_ms"),
    ("matching", "find_supports", "matching.find_supports_ms"),
    ("matching", "apply_skips", "matching.apply_skips_ms"),
    ("scoring", "resolve_analyzer", "scoring.resolve_analyzer_ms"),
    ("scoring", "aggregate_tags", "scoring.aggregate_tags_ms"),
    ("scoring", "decide_exclusion", "scoring.decide_exclusion_ms"),
    ("report", "render_report", "report.render_report_ms"),
    ("corpus", "run_corpus", "corpus.run_corpus_self_ms"),
    ("corpus", "classify_file", "corpus.classify_file_self_ms"),
    ("corpus", "classify_paper", "corpus.classify_paper_ms"),
    ("corpus", "emit_csv", "corpus.emit_csv_ms"),
    ("corpus", "aggregate", "corpus.aggregate_ms"),
    ("corpus", "aggregates_csv", "corpus.aggregates_csv_ms"),
)
ROOT = "cli.main"
ROOT_METRIC = "cli.classify_self_ms"  # argument parsing, report and CSV writes
# Calls made inside these spans belong to them (phrase normalization inside
# candidate_terms and load_bundle is not document normalization).
OPAQUE = frozenset({"dsl.load_bundle", "dsl.candidate_terms"})
ALLOC_SAMPLE = 8  # papers measured by `alloc`


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.opaque = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.broken: set[str] = set()

    def wrap(self, name, fn, counter=None):
        rec = self
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.opaque:
                return fn(*args, **kwargs)
            span = [name, 0, 0, rec.stack[-1] if rec.stack else -1]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            rec.opaque += opaque
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                rec.opaque -= opaque
                rec.stack.pop()
            if counter is not None and name not in rec.broken:
                try:
                    counter(rec.counts, args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError, ValueError):
                    rec.broken.add(name)  # the signature changed: its counts are absent
            return result

        return traced


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_find_term(counts, args, kwargs, result):
    text, term = _arg(args, kwargs, 0, "text"), _arg(args, kwargs, 2, "term")
    counts["term_spans"] += len(result)
    counts["term_spans_fuzzy"] += sum(text[r[0]:r[1]] != term for r in result)


def _count_find_supports(counts, args, kwargs, result):
    counts["supports_tried"] += len(_arg(args, kwargs, 2, "supports"))
    counts["supports_hit"] += len(result)


def _count_apply_skips(counts, args, kwargs, result):
    matches = _arg(args, kwargs, 0, "matches")
    counts["skip_candidates"] += sum(m.polarity == "positive" and not m.skipped for m in matches)
    counts["skipped"] += sum(m.skipped for m in result) - sum(m.skipped for m in matches)


def _count_normalize(counts, args, kwargs, result):
    counts["normalized_chars"] += len(_arg(args, kwargs, 0, "raw"))


def _count_gate_short(counts, args, kwargs, result):
    counts["skipped_short"] += result.status == "skipped_short"


def _count_render_report(counts, args, kwargs, result):
    counts["report_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "matching.find_term": _count_find_term,
    "matching.find_supports": _count_find_supports,
    "matching.apply_skips": _count_apply_skips,
    "ingest.normalize": _count_normalize,
    "ingest.gate_short": _count_gate_short,
    "report.render_report": _count_render_report,
}


def install(rec: Recorder) -> list[str]:
    """Wrap every LAYERS function that exists; return the absent ones."""
    mods = [m for n, m in list(sys.modules.items()) if n == "litscan" or n.startswith("litscan.")]
    absent = []
    for module, attr, _ in LAYERS:
        name = span_name(module, attr)
        owner = sys.modules.get(f"litscan.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if not callable(fn):
            absent.append(name)
            continue
        traced = rec.wrap(name, fn, COUNTERS.get(name))
        if path:  # a method: callers look it up on the class
            setattr(owner, leaf, traced)
            continue
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
    return absent


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its children's durations.
    Children of one span never overlap, because spans come from one thread."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans, counts, broken, absent, wall_ns) -> tuple[dict, list[str]]:
    """Per-layer metrics from spans; returns (metrics, absent metric names)."""
    own = self_times(spans)
    counts = defaultdict(int, counts)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    classify_ms = []
    for (name, start, end, _), s in zip(spans, own):
        self_ns[name] += s
        calls[name] += 1
        if name == "corpus.classify_file":
            classify_ms.append((end - start) / 1e6)
    m: dict[str, float] = {}
    missing = list(absent)
    for module, attr, metric in LAYERS:
        m[metric] = self_ns.get(span_name(module, attr), 0) / 1e6
    m[ROOT_METRIC] = self_ns.get(ROOT, 0) / 1e6
    m["dsl.candidate_terms_calls"] = calls.get("dsl.candidate_terms", 0)
    m["matching.find_term_calls"] = calls.get("matching.find_term", 0)

    def counted(metric, layer, value):
        if layer in broken or layer in absent:
            missing.append(metric)
            value = 0
        m[metric] = value

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    counted("matching.term_spans", "matching.find_term", counts["term_spans"])
    counted("matching.term_spans_fuzzy", "matching.find_term", counts["term_spans_fuzzy"])
    counted("matching.supports_hit_ratio", "matching.find_supports", ratio("supports_hit", "supports_tried"))
    counted("matching.skip_ratio", "matching.apply_skips", ratio("skipped", "skip_candidates"))
    counted("ingest.papers_skipped_short", "ingest.gate_short", counts["skipped_short"])
    counted("report.bytes", "report.render_report", counts["report_bytes"])
    per_char = self_ns.get("ingest.normalize", 0) / counts["normalized_chars"] if counts["normalized_chars"] else 0.0
    counted("ingest.normalize_ns_per_char", "ingest.normalize", per_char)
    if classify_ms:
        m["corpus.classify_file_ms.p50"] = statistics.median(classify_ms)
        m["corpus.classify_file_ms.p99"] = nearest_rank(classify_ms, 0.99)
    else:
        m["corpus.classify_file_ms.p50"] = m["corpus.classify_file_ms.p99"] = 0.0
        missing.append("corpus.classify_file_ms")
    m["corpus.classify_file_samples"] = len(classify_ms)
    m["trace.wall_ms"] = wall_ns / 1e6
    m["trace.other_ms"] = (wall_ns - sum(own)) / 1e6
    m["trace.spans"] = len(spans)
    return m, sorted(set(missing))


def _trace(out_json: Path, argv: list[str]) -> int:
    import litscan.cli as cli

    rec = Recorder()
    absent = install(rec)
    code = rec.wrap(ROOT, cli.main)(argv)
    wall_ns = time.perf_counter_ns() - T0_NS
    metrics, missing = summarize(rec.spans, rec.counts, rec.broken, absent, wall_ns)
    out_json.write_text(json.dumps({
        "exit_code": code,
        "metrics": metrics,
        "absent": missing,
        "spans": rec.spans,
    }))
    return code


def _alloc(out_json: Path, manifest: Path) -> int:
    from litscan import ingest

    with open(manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))[:ALLOC_SAMPLE]
    ratios = []
    try:
        for row in rows:
            raw = (manifest.parent / row["path"]).read_text(encoding="utf-8", errors="replace")
            meta = ingest.SourceMeta(paper_id=row["paper_id"], journal=row["journal"],
                                     year=int(row["year"]), path=row["path"])
            tracemalloc.start()
            ingest.make_document(meta, raw)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            ratios.append(peak / max(len(raw), 1))
    except (AttributeError, TypeError):
        ratios = []  # make_document or SourceMeta changed shape: absent
    out_json.write_text(json.dumps({"bytes_per_char": statistics.median(ratios) if ratios else None}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("trace")
    p.add_argument("--out-json", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("alloc")
    p.add_argument("--out-json", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "trace":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return _trace(args.out_json, argv)
    return _alloc(args.out_json, args.manifest)


if __name__ == "__main__":
    sys.exit(main())
