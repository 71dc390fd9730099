import contextlib
import io
import json

import bench_path  # noqa: F401  (must precede the benchmark imports)

import checks
import gen
import run
from aspectsent.cli import main as cli


def _result(found, digests=None):
    return {"stages": [{"stage": "s", "code": 0, "s": 1.0}], "planned_stages": 1,
            "checks": [c._asdict() for c in found], "digests": digests or {}}


def _failed(found):
    return sorted(c.name for c in found if not c.ok)


def _write_truth(inputs, truth):
    inputs.mkdir(exist_ok=True)
    (inputs / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


def test_ingest_checks_pass_on_real_output_and_trip_on_a_wrong_kept_count(tmp_path):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    _write_truth(inputs, gen.make_dump(inputs / "dump.jsonl", 800, seed=9))
    (inputs / "keywords.txt").write_text("china\nwuhan\n", encoding="utf-8")
    argv = ["ingest", "--corpus", str(inputs / "dump.jsonl"), "--keywords",
            str(inputs / "keywords.txt"), "--out", str(work / "kept.jsonl")]
    from worker import INGEST_FLAGS
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(argv + INGEST_FLAGS) == 0

    good = checks.run("ingest-dump", inputs, work)
    assert _failed(good) == []
    assert run.tally([_result(good)], 1) == (4, 0)

    kept = work / "kept.jsonl"
    kept.write_text("".join(kept.read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8")
    bad = checks.run("ingest-dump", inputs, work)
    assert _failed(bad) == ["kept_count", "kept_per_day"]
    assert run.tally([_result(good), _result(bad)], 1) == (7, 2)


def test_truncated_predictions_trip_the_infer_check(tmp_path):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    work.mkdir()
    _write_truth(inputs, {"records": 30})
    (work / "pred.jsonl").write_text('{"id": "x"}\n' * 30, encoding="utf-8")
    assert _failed(checks.run("infer-remote", inputs, work)) == []
    (work / "pred.jsonl").write_text('{"id": "x"}\n' * 29, encoding="utf-8")
    bad = checks.run("infer-remote", inputs, work)
    assert _failed(bad) == ["predictions"]
    assert run.tally([_result(bad)], 1) == (3, 1)


def test_missing_report_table_and_low_f1_trip_their_checks(tmp_path):
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    (work / "report").mkdir(parents=True)
    _write_truth(inputs, {"public_records": 2, "media_records": 1, "public_days": 3,
                          "accepted": 10})
    (work / "pred_public.jsonl").write_text("{}\n{}\n", encoding="utf-8")
    (work / "pred_media.jsonl").write_text("{}\n", encoding="utf-8")
    (work / "report" / "fig2_daily_counts.csv").write_text("date,n\na,1\nb,2\nc,3\n", encoding="utf-8")
    failed = _failed(checks.run("infer-report", inputs, work))
    assert "report:fig2_daily_counts.csv" not in failed
    assert "report:table8_group_sentiments.csv" in failed
    assert len(failed) == 8

    (work / "eval.csv").write_text(
        "aspect,aspect_macro_f1,aspect_micro_f1\nOverall,0.5000,0.9000\n", encoding="utf-8")
    assert "test_macro_f1" in _failed(checks.run("label-train", inputs, work))
    assert checks.quality("label-train", work) == {"test_macro_f1": 0.5}


def test_tally_counts_crashes_and_unrepeatable_outputs():
    ok = checks.Check("c", True, "")
    assert run.tally([_result([ok], {"a": "1"}), None], planned_stages=3) == (1 + 1 + 3 + 1, 3)
    assert run.tally([_result([ok], {"a": "1"}), _result([ok], {"a": "2"})], 1) == (5, 1)
    failed_stage = _result([ok])
    failed_stage["stages"][0]["code"] = 1
    failed_stage["planned_stages"] = 2
    assert run.tally([failed_stage], 2) == (4, 2)
