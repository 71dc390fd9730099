import json
import subprocess
import sys

import bench_path  # noqa: F401  (must precede the benchmark imports)

import pytest

import gen
import run


@pytest.mark.parametrize("baseline", [False, True])
def test_child_runs_the_chosen_package(tmp_path, baseline):
    inputs, run_dir = tmp_path / "inputs", tmp_path / "run"
    inputs.mkdir()
    (run_dir / "work").mkdir(parents=True)
    truth = gen.make_dump(inputs / "dump.jsonl", 300, seed=4)
    (inputs / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    (inputs / "keywords.txt").write_text("\n".join(gen.KEYWORDS) + "\n", encoding="utf-8")
    cmd = run._worker_cmd("ingest-dump", inputs, run_dir, None, baseline)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = run.BENCH / "baseline" if baseline else run.ROOT / "src"
    assert result["package"] == str(expected / "aspectsent")
    assert all(c["ok"] for c in result["checks"]) and result["stages"][0]["code"] == 0
