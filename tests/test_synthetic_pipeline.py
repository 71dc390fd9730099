"""Smoke test: `scripts/run_synthetic_pipeline.py` drives every subcommand end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_pipeline.py"
# what the script writes itself, before it calls the CLI
INPUTS = {"corpus.jsonl", "dataset.jsonl", "keywords.txt", "annotations.jsonl",
          "media_corpus.jsonl", "config.json"}


def _run(out_dir: Path) -> dict[Path, bytes]:
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out-dir", str(out_dir), "--n", "300"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def test_every_output_has_meta_and_repeats_byte_for_byte(tmp_path):
    first, second = _run(tmp_path / "a"), _run(tmp_path / "b")
    assert set(first) == set(second)
    assert [p for p in first if p.name.endswith(".tmp")] == []
    outputs = [p for p in first if not p.name.endswith(".meta.json") and p.name not in INPUTS]
    assert outputs
    for p in outputs:
        assert p.with_name(f"{p.name}.meta.json") in first, p
    # config.json names the output directory; everything else must repeat
    for p in first:
        if not p.name.endswith(".meta.json") and p.name != "config.json":
            assert first[p] == second[p], p
