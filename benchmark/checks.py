"""Output checks for the benchmark, computed without the package under test.

Every check compares an output file with the generator's ground truth in
`inputs/truth.json` or with the documented table shapes. A missing or
unreadable output fails its check instead of raising, so a broken stage
still yields a countable result.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

# Aspect-stage Overall macro-F1 on the held-out split that `label-train`
# must reach. The seed code scores 0.974 to 0.993 on the seeds tried, so
# falling below it means the model lost quality, not that the seed is unlucky.
F1_FLOOR = 0.95

N_TABLE_ASPECTS = 8  # table 1 lists all annotated aspects
N_USED_ASPECTS = 6  # modelled aspects, Overall included
N_CONTENT_ASPECTS = 5
N_SENTIMENTS = 3


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row][1:]


def _check(name: str, fn) -> Check:
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(ok), detail)


def _count_equals(name: str, path: Path, expected: int) -> Check:
    def fn():
        got = len(_lines(path))
        return got == expected, f"{got} lines, expected {expected}"
    return _check(name, fn)


def _rows_equal(name: str, path: Path, expected: int) -> Check:
    def fn():
        got = len(_csv_rows(path))
        return got == expected, f"{got} rows, expected {expected}"
    return _check(name, fn)


def _utc_day(created_at: str) -> str:
    text = created_at[:-1] + "+00:00" if created_at.endswith("Z") else created_at
    return datetime.fromisoformat(text).astimezone(timezone.utc).date().isoformat()


def _kept_per_day(path: Path, expected: dict) -> tuple[bool, str]:
    got = Counter(_utc_day(json.loads(line)["created_at"]) for line in _lines(path))
    wrong = sorted(d for d in set(got) | set(expected) if got.get(d, 0) != expected.get(d, 0))
    return not wrong, f"{len(wrong)} days differ" + (f", first {wrong[0]}" if wrong else "")


def _test_macro_f1(path: Path) -> float:
    for row in _csv_rows(path):
        if row[0] == "Overall":
            return float(row[1])
    raise KeyError("no Overall row in the evaluation report")


def _params_ok(*paths: Path) -> tuple[bool, str]:
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or set(doc.get("tensors", {})) != {"W_a", "b_a", "W_y", "b_y"}:
            return False, f"{path.name} lacks the four head tensors"
    return True, f"{len(paths)} params files"


def _split_ok(splits: Path, total: int) -> tuple[bool, str]:
    sizes = [len(_lines(splits / f"{p}.jsonl")) for p in ("train", "dev", "test")]
    tenth = int(total / 10 + 0.5)
    ok = sum(sizes) == total and abs(sizes[1] - tenth) <= 1 and abs(sizes[2] - tenth) <= 1
    return ok, f"sizes {sizes} for {total} examples"


def run(workload: str, inputs: Path, work: Path) -> list[Check]:
    """All checks of one repetition's outputs in `work`."""
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    if workload == "ingest-dump":
        kept = work / "kept.jsonl"
        return [
            _count_equals("kept_count", kept, truth["expected_kept"]),
            _check("kept_per_day", lambda: _kept_per_day(kept, truth["expected_per_day"])),
        ]
    if workload == "label-train":
        accepted = truth["accepted"]

        def f1_floor():
            f1 = _test_macro_f1(work / "eval.csv")
            return f1 >= F1_FLOOR, f"test macro-F1 {f1:.4f}, floor {F1_FLOOR}"

        return [
            _count_equals("dataset_count", work / "dataset.jsonl", accepted),
            _rows_equal("table1_rows", work / "table1.csv", N_TABLE_ASPECTS * N_SENTIMENTS),
            _check("split_sizes", lambda: _split_ok(work / "splits", accepted)),
            _check("params_files", lambda: _params_ok(work / "params.json", work / "params_hinge.json")),
            _check("test_macro_f1", f1_floor),
        ]
    if workload == "infer-report":
        report = work / "report"
        days = truth["public_days"]
        expected_rows = {
            "table1_dataset_stats.csv": N_TABLE_ASPECTS * N_SENTIMENTS,
            "table2_model_performance.csv": N_CONTENT_ASPECTS + 1,
            "fig2_daily_counts.csv": days,
            "fig3_aspect_proportions.csv": days,
            "fig5_sentiment_proportions.csv": days,
            "table5_granger_aspects.csv": N_USED_ASPECTS * 2,
            "table6_granger_sentiments.csv": N_USED_ASPECTS * 2 * 2,
            "table7_group_aspects.csv": N_CONTENT_ASPECTS,
            "table8_group_sentiments.csv": N_USED_ASPECTS,
        }
        return [
            _count_equals("predictions_public", work / "pred_public.jsonl", truth["public_records"]),
            _count_equals("predictions_media", work / "pred_media.jsonl", truth["media_records"]),
        ] + [_rows_equal(f"report:{name}", report / name, rows) for name, rows in expected_rows.items()]
    if workload == "infer-remote":
        return [_count_equals("predictions", work / "pred.jsonl", truth["records"])]
    raise ValueError(f"unknown workload {workload!r}")


def quality(workload: str, work: Path) -> dict:
    """Model quality of one repetition, where the workload trains a model."""
    if workload != "label-train":
        return {}
    try:
        return {"test_macro_f1": _test_macro_f1(work / "eval.csv")}
    except (OSError, ValueError, KeyError, IndexError):
        return {}


def output_digests(work: Path) -> dict[str, str]:
    """sha256 of every non-metadata output, keyed by path relative to `work`."""
    out = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and not path.name.endswith(".meta.json"):
            out[path.relative_to(work).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
