import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANALYZER_DIR, REGRESSION_DIR, filler
from test_ingest import NAME
from litscan.cli import main
from litscan.corpus import CorpusResult
from litscan.ingest import SourceMeta, table_text
from litscan.validation import (
    TRUTH_COLUMNS,
    ConfusionRow,
    GroundTruth,
    confusion,
    confusion_csv,
    load_truth,
    regression_check,
    stratified_sample,
)


def _result(pid, verdicts, status="analyzed"):
    return CorpusResult(
        meta=SourceMeta(pid, "J", 2010, ""),
        status=status,
        tag_verdicts=verdicts,
        word_count=5000,
    )


FIVE = [
    _result("p1", {"t": "positive"}),
    _result("p2", {"t": "positive"}),
    _result("p3", {"t": "positive"}),   # positive but labelled absent -> FP
    _result("p4", {"t": "none"}),
    _result("p5", {"t": "negative"}),   # labelled present -> FN via negative verdict
]
FIVE_TRUTH = [
    GroundTruth("p1", "t", "present"),
    GroundTruth("p2", "t", "present"),
    GroundTruth("p3", "t", "absent"),
    GroundTruth("p4", "t", "absent"),
    GroundTruth("p5", "t", "present"),
]


def test_confusion_cells_enumerated_by_hand():
    (row,) = confusion(FIVE, FIVE_TRUTH)
    assert (row.true_positive, row.false_positive, row.true_negative, row.false_negative) == (2, 1, 1, 1)
    assert row.total_labeled == 5
    assert (row.fn_negative, row.fn_none) == (1, 0)


def test_confusion_perfect_agreement():
    results = [_result("a", {"t": "positive"}), _result("b", {"t": "none"})]
    truth = [GroundTruth("a", "t", "present"), GroundTruth("b", "t", "absent")]
    (row,) = confusion(results, truth)
    assert row.false_positive == 0 and row.false_negative == 0


def test_confusion_rejects_unknown_or_unanalyzed_papers():
    with pytest.raises(ValueError, match="ghost"):
        confusion(FIVE, [GroundTruth("ghost", "t", "present")])
    skipped = [_result("s1", {}, status="skipped_short")]
    with pytest.raises(ValueError, match="s1"):
        confusion(FIVE + skipped, [GroundTruth("s1", "t", "present")])


@given(st.permutations(FIVE), st.permutations(FIVE_TRUTH))
def test_confusion_permutation_invariant(results, truth):
    assert confusion(list(results), list(truth)) == confusion(FIVE, FIVE_TRUTH)


@given(
    st.lists(
        st.tuples(st.sampled_from(["positive", "negative", "none"]), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_confusion_cells_partition_labels(assignments):
    results, truth = [], []
    for i, (verdict, present) in enumerate(assignments):
        results.append(_result(f"p{i}", {"t": verdict}))
        truth.append(GroundTruth(f"p{i}", "t", "present" if present else "absent"))
    (row,) = confusion(results, truth)
    assert row.total_labeled == len(assignments)
    assert row.false_negative == row.fn_negative + row.fn_none


def test_confusion_csv_header():
    text = confusion_csv([ConfusionRow("t", 1, 2, 3, 4, 1, 3)])
    lines = text.splitlines()
    assert lines[0] == "tag,P,FP,TN,FN,total,fn_negative,fn_none"
    assert lines[1] == "t,1,2,3,4,10,1,3"


def test_load_truth_validates(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("paper_id,tag,label\np1,t,present\np1,t,absent\np2,t,maybe\np3,t,present,x\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_truth(path)
    assert "duplicate" in str(err.value) and "maybe" in str(err.value)
    assert "line 5: 4 cells, the header has 3" in str(err.value)


def test_load_truth_reports_short_rows_and_empty_cells(tmp_path):
    path = tmp_path / "truth.csv"
    rows = ["paper_id,tag,label", "p1,parametric_test", ",t,present", "p3,,absent", "p4,t,present"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_truth(path)
    message = str(err.value)
    assert "line 2: label must be present or absent, got ''" in message
    assert "line 3: empty paper_id" in message and "line 4: empty tag" in message
    assert "line 5" not in message


def test_load_truth_numbers_file_lines_after_a_multiline_cell(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text('paper_id,tag,label\np1,"Multi\nLine",present\np2,t,maybe\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_truth(path)
    assert "line 4: label must be present or absent, got 'maybe'" in str(err.value)


def test_load_truth_reports_missing_columns(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("paper_id,tag\np1,t\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"missing columns: \['label'\]"):
        load_truth(path)


# each example writes a file, which can take longer than the default deadline on a busy host
@settings(deadline=None)
@given(
    st.lists(
        st.builds(GroundTruth, NAME, NAME, st.sampled_from(["present", "absent"])),
        unique_by=lambda t: (t.paper_id, t.tag),
        max_size=6,
    )
)
def test_load_truth_reads_back_what_table_text_writes(tmp_path_factory, truth):
    path = tmp_path_factory.getbasetemp() / "truth.csv"
    path.write_text(table_text(TRUTH_COLUMNS, truth), encoding="utf-8", newline="")
    assert load_truth(path) == truth


def test_validate_command_reports_a_bad_truth_file(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("paper_id,journal,year,words,status,t\np1,J,2010,5000,analyzed,positive\n",
                       encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("paper_id,tag,label\np1,t\n", encoding="utf-8")
    assert main(["validate", "--results", str(results), "--truth", str(truth)]) == 1
    assert "error:" in capsys.readouterr().err
    truth.write_text("paper_id,tag\np1,t\n", encoding="utf-8")
    assert main(["validate", "--results", str(results), "--truth", str(truth)]) == 1
    assert "missing columns" in capsys.readouterr().err


def test_load_truth_accepts_a_byte_order_mark(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("\ufeffpaper_id,tag,label\np1,t,present\n", encoding="utf-8")
    assert load_truth(truth) == [GroundTruth("p1", "t", "present")]


def test_load_truth_names_the_file_it_cannot_decode_or_split(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"paper_id,tag,label\np1,t\xff,present\n")
    with pytest.raises(ValueError) as err:
        load_truth(truth)
    assert str(err.value).startswith(f"{truth}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
    truth.write_text("paper_id,tag,label\np1,t," + "x" * 140_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_truth(truth)
    assert str(err.value).startswith(f"{truth}: line 2: field larger than field limit")


def test_regression_fixtures_pass(compiled):
    ok, lines = regression_check(REGRESSION_DIR, compiled)
    assert ok, "\n".join(lines)
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 4


def test_regression_detects_wrong_expectation(compiled, tmp_path):
    (tmp_path / "broken.txt").write_text(
        "We used a Student's t-test. " + " ".join(filler(60)), encoding="utf-8"
    )
    (tmp_path / "broken.expected.csv").write_text("parametric_test,negative\n", encoding="utf-8")
    ok, lines = regression_check(tmp_path, compiled)
    assert not ok
    assert any(line.startswith("FAIL broken") for line in lines)
    assert any("expected negative, got positive" in line for line in lines)


def test_regression_reads_an_undecodable_fixture_as_classify_does(compiled, tmp_path):
    text = "We used a Student's t-test. \xff\xfe " + " ".join(filler(60))
    (tmp_path / "bad-bytes.txt").write_bytes(text.encode("latin-1"))
    expected = "parametric_test,positive\nquantitative_analysis,positive\nstatistical_test,positive\n"
    (tmp_path / "bad-bytes.expected.csv").write_text(expected, encoding="utf-8")
    ok, lines = regression_check(tmp_path, compiled)
    assert ok, "\n".join(lines)
    assert lines == ["PASS bad-bytes"]


def test_regression_missing_expectation_file(compiled, tmp_path):
    (tmp_path / "orphan.txt").write_text("whatever", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="orphan.expected.csv"):
        regression_check(tmp_path, compiled)


def test_regression_rejects_a_key_listed_twice(compiled, tmp_path):
    (tmp_path / "twice.txt").write_text("We used a Student's t-test.", encoding="utf-8")
    expected = tmp_path / "twice.expected.csv"
    expected.write_text("# verdicts\nparametric_test,none\nparametric_test,positive\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        regression_check(tmp_path, compiled)
    assert str(err.value) == f"{expected}: line 3: key 'parametric_test' is listed twice"


def test_regression_reads_an_expectation_file_with_a_byte_order_mark(compiled, tmp_path):
    (tmp_path / "bom.txt").write_text("We used a Student's t-test.", encoding="utf-8")
    expected = "\ufeffstatus,analyzed\nparametric_test,positive\nquantitative_analysis,positive\n"
    (tmp_path / "bom.expected.csv").write_text(expected + "statistical_test,positive\n", encoding="utf-8")
    ok, lines = regression_check(tmp_path, compiled)
    assert ok, "\n".join(lines)


def test_regress_names_the_expectation_file_of_each_error(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text("We used a Student's t-test.", encoding="utf-8")
    expected = tmp_path / "bad.expected.csv"
    expected.write_bytes(b"parametric_test,positive\xff\n")
    argv = ["regress", "--fixtures", str(tmp_path), "--analyzers", str(ANALYZER_DIR)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {expected}: not UTF-8 text: 'utf-8' codec can't decode")
    expected.write_text("parametric_test," + "x" * 140_000 + "\n", encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {expected}: line 1: field larger than field limit")
    expected.write_text("status,analyzed\nparametric_test,positive,extra\n", encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {expected}: line 2: expected `key,value` rows, got ['parametric_test', 'positive', 'extra']\n"


def _stratified_results():
    results = []
    for i in range(60):
        results.append(_result(f"none-{i:03d}", {"t": "none"}))
    for i in range(30):
        results.append(_result(f"pos-{i:03d}", {"t": "positive"}))
    for i in range(10):
        results.append(_result(f"neg-{i:03d}", {"t": "negative"}))
    return results


def test_stratified_sample_proportions_and_determinism():
    results = _stratified_results()
    sample = stratified_sample(results, "t", 10, seed=7)
    assert len(sample) == 10
    assert sum(1 for p in sample if p.startswith("none")) == 6
    assert sum(1 for p in sample if p.startswith("pos")) == 3
    assert sum(1 for p in sample if p.startswith("neg")) == 1
    rng_state_independent = stratified_sample(list(reversed(results)), "t", 10, seed=7)
    assert sample == rng_state_independent
    assert sample == stratified_sample(results, "t", 10, seed=7)
    assert sample != stratified_sample(results, "t", 10, seed=8)


def test_stratified_sample_n1_takes_largest_stratum():
    (only,) = stratified_sample(_stratified_results(), "t", 1, seed=3)
    assert only.startswith("none")


def test_stratified_sample_single_stratum():
    results = [_result(f"p{i}", {"t": "positive"}) for i in range(5)]
    assert len(stratified_sample(results, "t", 3, seed=1)) == 3


def test_stratified_sample_overflow_returns_all():
    results = _stratified_results()
    sample = stratified_sample(results, "t", 1000, seed=1)
    assert sorted(sample) == sorted(r.meta.paper_id for r in results)


def test_stratified_sample_ignores_unanalyzed():
    results = _stratified_results() + [_result("skip", {}, status="skipped_short")]
    assert "skip" not in stratified_sample(results, "t", 1000, seed=1)


def _results_reader(tmp_path, command):
    """A results.csv path and the argv of `command` reading it."""
    truth = tmp_path / "truth.csv"
    truth.write_text("paper_id,tag,label\np1,t,present\n", encoding="utf-8")
    extra = {
        "aggregate": [],
        "validate": ["--truth", str(truth)],
        "sample": ["--tag", "t", "-n", "1", "--seed", "1"],
    }
    results = tmp_path / "results.csv"
    return results, [command, "--results", str(results), *extra[command]]


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_report_every_bad_line(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text(
        'paper_id,journal,year,words,status,t\np1,"J\nK",2010,5000,analyzed,positive\n'
        "p2,J,2010\np3,J,20x0,5000,analyzed,none\np4,J,2011,many,analyzed,none\n,,20x0,5000,analysed,pos\n"
        "p5,J,2_010,5000,analyzed,none\np6,J,+2011, 4_000 ,analyzed,none\n",
        encoding="utf-8",
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    # p1's quoted journal spans lines 2 and 3
    assert err.startswith(f"error: {results}: line 4: 3 cells, the header has 6")
    assert "line 5: year '20x0' is not an integer;" in err and "line 6: words 'many' is not an integer;" in err
    # int() takes these, but classify writes ASCII digits alone
    assert "line 8: year '2_010' is not an integer;" in err
    assert "line 9: year '+2011' is not an integer; words ' 4_000 ' is not an integer" in err
    # a bad number is one of the row's problems, not the only one named
    assert (
        "line 7: empty paper_id; empty journal; year '20x0' is not an integer; status 'analysed' is not one of "
        "analyzed, skipped_short, excluded_secondary; t cell 'pos' is not one of positive, negative, none"
    ) in err
    assert "line 2" not in err and "line 3" not in err
    results.write_text("", encoding="utf-8")
    assert main(argv) == 1
    assert "results is missing columns: ['journal', 'paper_id', 'status', 'words', 'year']" in capsys.readouterr().err
    results.write_text("paper_id,journal,year,words,status,t\np1,J,2010,5000,analyzed,positive\n",
                       encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_accept_a_byte_order_mark(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text("\ufeffpaper_id,journal,year,words,status,t\np1,J,2010,5000,analyzed,positive\n",
                       encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_name_a_file_they_cannot_decode_or_split(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_bytes(b"paper_id,journal,year,words,status,t\np1,J\xff,2010,5000,analyzed,positive\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {results}: not UTF-8 text: 'utf-8' codec can't decode")
    results.write_text("paper_id,journal,year,words,status,t\np1,J,2010,5000,analyzed," + "x" * 140_000 + "\n",
                       encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {results}: line 2: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_reject_cells_classify_never_writes(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text(
        "paper_id,journal,year,words,status,t\n"
        "p1,J,2010,5000,analyzed,positive\n"
        "p2,J,2010,5000,analysed,positive\n"
        "p3,J,2010,5000,analyzed,pos\n"
        "p4,J,2010,50,skipped_short,none\n"
        "p5,J,2010,5000,excluded_secondary,\n",
        encoding="utf-8",
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "line 3: status 'analysed' is not one of analyzed, skipped_short, excluded_secondary" in err
    assert "line 4: t cell 'pos' is not one of positive, negative, none" in err
    assert "line 5: a paper with status skipped_short has tag cells" in err
    assert "line 2" not in err and "line 6" not in err


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_reject_empty_and_repeated_paper_ids(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text(
        "paper_id,journal,year,words,status,t\n"
        "p1,J,2010,5000,analyzed,positive\n"
        "p1,J,2010,5000,analyzed,none\n"
        ",,2010,1,skipped_short,\n"
        "p2,,2010,5000,analyzed,none\n",
        encoding="utf-8",
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "line 3: duplicate paper_id 'p1'" in err
    assert "line 4: empty paper_id; empty journal" in err
    assert "line 5: empty journal" in err
    assert "line 2" not in err


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_reject_a_repeated_tag_column(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text("paper_id,journal,year,words,status,t,t\np1,J,2010,5000,analyzed,positive,negative\n",
                       encoding="utf-8")
    assert main(argv) == 1
    assert f"error: {results}: results header repeats columns: ['t']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["aggregate", "validate", "sample"])
def test_results_readers_reject_an_empty_cell_of_an_analyzed_paper(tmp_path, capsys, command):
    results, argv = _results_reader(tmp_path, command)
    results.write_text(
        "paper_id,journal,year,words,status,t,u\n"
        "p1,J,2010,5000,analyzed,positive,none\n"
        "p2,J,2010,5000,analyzed,,\n"
        "p3,J,2010,5000,analyzed,none,\n",
        encoding="utf-8",
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "line 3: an analyzed paper has an empty cell for t, u" in err
    assert "line 4: an analyzed paper has an empty cell for u" in err
    assert "line 2" not in err


def test_sample_and_validate_reject_a_tag_without_a_column(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("paper_id,journal,year,words,status,t\np1,J,2010,5000,analyzed,positive\n",
                       encoding="utf-8")
    assert main(["sample", "--results", str(results), "--tag", "no_such_tag", "-n", "3", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "results has no column for tags ['no_such_tag']" in err
    truth = tmp_path / "truth.csv"
    truth.write_text("paper_id,tag,label\np1,t,present\np1,no_such_tag,present\n", encoding="utf-8")
    assert main(["validate", "--results", str(results), "--truth", str(truth)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "results has no column for tags ['no_such_tag']" in err


def test_regress_command_takes_only_the_matching_flags(capsys):
    argv = ["regress", "--fixtures", str(REGRESSION_DIR), "--analyzers", str(ANALYZER_DIR)]
    assert main(argv + ["--fuzzy-min-len", "8"]) == 0
    assert all(line.startswith("PASS") for line in capsys.readouterr().out.splitlines())
    for flag, value in (("--converter", "false {input}"), ("--short-threshold", "999999")):
        with pytest.raises(SystemExit) as exit_:
            main(argv + [flag, value])
        assert exit_.value.code == 1
