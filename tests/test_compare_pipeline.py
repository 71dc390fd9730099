"""`scripts/compare_pipeline.py`'s comparison of two pipeline output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_pipeline.py"
_spec = importlib.util.spec_from_file_location("compare_pipeline", SCRIPT)
compare_pipeline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_pipeline)

NO_DIFFERENCE = {"changed": [], "missing": [], "added": [], "meta": []}


def _meta(created: str, config_hash: str, **fields) -> str:
    return json.dumps({"created_utc": created, "config_hash": config_hash, "seed": 0,
                       "train_loss": [3.5, 1.25], **fields})


def _write_outputs(out_dir: Path, config: str = "{}", created: str = "t0") -> None:
    (out_dir / "splits").mkdir(parents=True)
    (out_dir / "table1.csv").write_bytes(b"aspect,count\r\nPolitics,3\r\n")
    (out_dir / "splits" / "train.jsonl").write_text('{"id": "1"}\n', encoding="utf-8")
    (out_dir / "params.json").write_text('{"dim": 2}\n', encoding="utf-8")
    (out_dir / "params.json.meta.json").write_text(_meta(created, f"hash-{created}"),
                                                   encoding="utf-8")
    (out_dir / "table1.csv.meta.json").write_text(
        json.dumps({"created_utc": created, "counts": {"kept": 3}}), encoding="utf-8")
    (out_dir / "config.json").write_text(config, encoding="utf-8")


@pytest.fixture
def dirs(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    _write_outputs(base)
    _write_outputs(head, config='{"report": {"dataset": "elsewhere"}}', created="t1")
    return base, head


def test_equal_outputs(dirs):
    # metadata timestamps and config hashes, and config.json (which names the out
    # dir), are not compared
    assert compare_pipeline.compare(*dirs) == NO_DIFFERENCE


def test_one_byte_changed(dirs):
    base, head = dirs
    path = head / "splits" / "train.jsonl"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert compare_pipeline.compare(base, head) == {**NO_DIFFERENCE,
                                                    "changed": ["splits/train.jsonl"]}


def test_one_file_missing(dirs):
    base, head = dirs
    (head / "table1.csv").unlink()
    assert compare_pipeline.compare(base, head) == {**NO_DIFFERENCE, "missing": ["table1.csv"]}
    assert compare_pipeline.compare(head, base) == {**NO_DIFFERENCE, "added": ["table1.csv"]}


def test_train_loss_differs(dirs):
    base, head = dirs
    meta = head / "params.json.meta.json"
    meta.write_text(_meta("t1", "hash-t1", train_loss=[3.5, 1.2500000000000002]),
                    encoding="utf-8")
    assert compare_pipeline.compare(base, head) == {**NO_DIFFERENCE,
                                                    "meta": ["params.json.meta.json"]}


def test_counts_differ(dirs):
    base, head = dirs
    (head / "table1.csv.meta.json").write_text(
        json.dumps({"created_utc": "t1", "counts": {"kept": 4}}), encoding="utf-8")
    assert compare_pipeline.compare(base, head) == {**NO_DIFFERENCE,
                                                    "meta": ["table1.csv.meta.json"]}


def test_one_meta_file_missing(dirs):
    base, head = dirs
    (head / "table1.csv.meta.json").unlink()
    assert compare_pipeline.compare(base, head) == {**NO_DIFFERENCE,
                                                    "meta": ["table1.csv.meta.json"]}
