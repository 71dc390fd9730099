#!/usr/bin/env python3
"""Check that the working tree's pipeline outputs are byte-identical to a git revision's.

Extracts `src/` and `scripts/` of REV with `git archive` (local git only),
runs `scripts/run_synthetic_pipeline.py --seed 7` from that copy and from
this working tree, and compares:

* stdout, with each run's output directory replaced by `<out>`;
* the `train_loss` that each `.meta.json` records;
* the sha256 of every other file, except `*.meta.json` (timestamps) and
  `config.json` (it names the output directory).

Prints a JSON verdict and exits 1 on any difference or failed run.

Each side runs its own revision's pipeline script, so a change that adds
steps to that script shows their outputs as `added`. Commit the extended
script on its own first, then compare the code change against that commit.

    python scripts/compare_pipeline.py --base HEAD~1
"""

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PIPELINE = Path("scripts") / "run_synthetic_pipeline.py"


def digests(out_dir: Path) -> dict[str, str]:
    """The sha256 of each compared file under `out_dir`, by relative path."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and not p.name.endswith(".meta.json") and p.name != "config.json"}


def train_losses(out_dir: Path) -> dict[str, object]:
    """The `train_loss` of each `.meta.json` under `out_dir` that records one."""
    out = {}
    for p in sorted(out_dir.rglob("*.meta.json")):
        meta = json.loads(p.read_text(encoding="utf-8"))
        if "train_loss" in meta:
            out[p.relative_to(out_dir).as_posix()] = meta["train_loss"]
    return out


def compare(base_dir: Path, head_dir: Path) -> dict[str, list[str]]:
    """The relative paths that differ between two output directories: `changed`
    (both have it, sha256 differs), `missing` (only base has it), `added` (only
    head has it) and `train_loss` (a meta file whose `train_loss` differs)."""
    base, head = digests(base_dir), digests(head_dir)
    base_loss, head_loss = train_losses(base_dir), train_losses(head_dir)
    return {
        "changed": sorted(k for k in base.keys() & head.keys() if base[k] != head[k]),
        "missing": sorted(base.keys() - head.keys()),
        "added": sorted(head.keys() - base.keys()),
        "train_loss": sorted(k for k in base_loss.keys() | head_loss.keys()
                             if base_loss.get(k) != head_loss.get(k)),
    }


def _extract(rev: str, dest: Path) -> None:
    """`src/` and `scripts/` of `rev` into `dest`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev,
                              "src", "scripts"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extraction_filter = getattr(tarfile, "data_filter", None)  # Python >= 3.10.12
        tar.extractall(dest)


def _run(root: Path, out_dir: Path) -> tuple[int, str, str]:
    """Exit code, stdout with `out_dir` as `<out>`, and stderr of one pipeline run."""
    proc = subprocess.run([sys.executable, str(root / PIPELINE), "--out-dir", str(out_dir),
                           "--seed", "7"], capture_output=True, text=True, cwd=root)
    return proc.returncode, proc.stdout.replace(str(out_dir), "<out>"), proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            _extract(args.base, tmp / "base")
        except subprocess.CalledProcessError as exc:
            print(json.dumps({"equal": False, "error": exc.stderr.decode(errors="replace")}))
            return 1
        runs = {side: _run(root, tmp / f"{side}_out")
                for side, root in (("base", tmp / "base"), ("head", REPO))}
        failed = {side: err[-2000:] for side, (code, _, err) in runs.items() if code != 0}
        verdict = {"base": args.base}
        if failed:
            verdict.update(equal=False, failed=failed)
        else:
            verdict.update(compare(tmp / "base_out", tmp / "head_out"))
            verdict["stdout_equal"] = runs["base"][1] == runs["head"][1]
            verdict["files"] = len(digests(tmp / "head_out"))
            verdict["equal"] = verdict["stdout_equal"] and not any(
                verdict[k] for k in ("changed", "missing", "added", "train_loss"))
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
