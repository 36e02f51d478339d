"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from textcheck import TermIndex, normalize_current, within_one_edit  # noqa: E402

from litscan.dsl import load_bundle  # noqa: E402


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(ROOT / "analyzers")


@pytest.fixture(scope="module")
def view(bundle):
    return gen.BundleView(bundle)


def osa(a: str, b: str) -> int:
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len(a)][len(b)]


@pytest.mark.parametrize(("name", "docs"), [("noisy-dense", 3), ("many-short", 20)])
def test_same_seed_gives_same_digest(bundle, tmp_path, name, docs):
    a = gen.build(name, bundle, tmp_path / "a", seed=5, docs=docs)
    b = gen.build(name, bundle, tmp_path / "b", seed=5, docs=docs)
    c = gen.build(name, bundle, tmp_path / "c", seed=6, docs=docs)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert a.truth == b.truth


def test_within_one_edit_matches_osa_oracle():
    rng = random.Random(3)
    for _ in range(3000):
        a = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 6)))
        assert within_one_edit(a, b) == (osa(a, b) <= 1), (a, b)


def test_term_index_finds_every_window_a_brute_force_scan_finds():
    terms = ["regression model", "t test", "cliffs d", "confidence interval"]
    index = TermIndex(terms)
    rng = random.Random(4)
    words = ["regression", "model", "modul", "t", "test", "tests", "cliff", "cliffs", "d", "de",
             "confidence", "intervals", "interval", "the", "an"]

    def edited(term: str) -> str:  # one random edit anywhere in the term
        i = rng.randrange(len(term) - 1)
        return rng.choice((
            term[:i] + rng.choice("aez ") + term[i + 1:],
            term[:i] + term[i + 1:],
            term[:i] + rng.choice("aez ") + term[i:],
            term[:i] + term[i + 1] + term[i] + term[i + 2:],
        ))

    for trial in range(400):
        if trial % 2:
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        else:
            text = f"{rng.choice(words)} {edited(rng.choice(terms))} {rng.choice(words)}"
        # a window within one edit of t is at most one character longer or shorter
        expected = {
            t for t in terms
            if (t in text if len(t) < 8 else any(
                osa(text[s:s + n], t) <= 1 for s in range(len(text)) for n in (len(t) - 1, len(t), len(t) + 1)))
        }
        assert index.hits(text) == expected, text


def test_inertness_check_catches_a_planted_near_miss(view):
    clean = "Overall, the regression analysis shows the variance of the interval (Table 2)."
    assert view.inert_filler(clean)
    near_miss = "Overall, the regression modul shows the variance of the interval (Table 2)."
    assert view.analyzers_hit(near_miss) == {"regression_analysis"}
    assert not view.inert_filler(near_miss)
    # invisible to litscan's current normalize, a hit once ligatures fold
    ligature = "Overall, the conﬁdence interval shows the variance (Table 2)."
    assert normalize_current(ligature).find("confidence") == -1
    assert view.analyzers_hit(ligature) == {"confidence_interval"}
    assert not view.inert_filler("we did not use it and the data grew (Table 2).")
    assert not view.inert_filler("the data grew without a barrier")


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a.child", 15, 25, 1],
        ["b", 50, 90, 0],
    ]
    assert layers.self_times(spans) == [30, 20, 10, 40]
    metrics, _ = layers.summarize(spans, {}, set(), [], wall_ns=130)
    assert metrics["trace.other_ms"] * 1e6 == pytest.approx(30)


def test_traced_run_is_identical_and_adds_up(bundle, tmp_path):
    wl = gen.build("noisy-dense", bundle, tmp_path / "in", seed=2, docs=2)
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    classify = ["classify", "--manifest", str(wl.manifest), "--analyzers", str(ROOT / "analyzers")]
    subprocess.run([sys.executable, "-m", "litscan", *classify, "--out", str(tmp_path / "plain")],
                   env=env, check=True, capture_output=True)
    spans_json = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "layers.py"), "trace", "--out-json", str(spans_json), "--",
                    *classify, "--out", str(tmp_path / "traced")], env=env, check=True, capture_output=True)
    assert run.output_hashes(tmp_path / "plain") == run.output_hashes(tmp_path / "traced")
    traced = json.loads(spans_json.read_text())
    m = traced["metrics"]
    self_ms = sum(v for k, v in m.items() if k.endswith("_ms") and not k.startswith("trace."))
    assert self_ms + m["trace.other_ms"] == pytest.approx(m["trace.wall_ms"])
    assert m["corpus.classify_file_samples"] == 2
    assert m["matching.find_term_calls"] > 0
    assert traced["absent"] == []


def test_a_paper_that_fails_to_load_makes_the_run_incorrect(bundle, tmp_path):
    wl = gen.build("many-short", bundle, tmp_path / "in", seed=3, docs=20)
    manifest = wl.manifest.read_text(encoding="utf-8")
    broken = wl.manifest.with_name("broken.csv")
    broken.write_text(manifest.replace("docs/ms-0001.txt", "docs/no-such-paper.txt"), encoding="utf-8")
    verdicts = []
    for name, path in (("whole", wl.manifest), ("broken", broken)):
        bench = run.Bench(ROOT, "many-short", seed=3, seconds=1, trace=False)
        bench.work = tmp_path / name
        bench.work.mkdir()
        bench.classify(path, wl.papers, jobs=1)
        verdicts.append((bench.failed, *bench.verdict(wl.truth)))
    (failed, quality, correct), (failed_b, quality_b, correct_b) = verdicts
    assert failed == 0 and quality["missing"] == 0 and correct
    assert failed_b == 1 and quality_b["missing"] == 1 and not correct_b


def test_peak_rss_is_the_commands_own(tmp_path):
    ballast = b"x" * (64 << 20)  # resident in this process while the command starts
    _, rss_kib, code = run.run_timed([sys.executable, "-c", "pass"], tmp_path / "log", {"PATH": "/usr/bin:/bin"}, 60)
    assert len(ballast) and code == 0
    assert rss_kib < 48 << 10


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", (("ingest", "no_such_function", "ingest.nothing_ms"),))
    assert layers.install(layers.Recorder()) == ["ingest.no_such_function"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
