#!/usr/bin/env python3
"""Check that the working tree's pipeline outputs are byte-identical to a git revision's.

Extracts `src/` and `scripts/` of REV with `git archive` (local git only),
runs `scripts/run_synthetic_pipeline.py --seed 7 --n N` from that copy and
from this working tree, and compares:

* stdout, with each run's output directory replaced by `<out>`;
* every field of each `.meta.json` except `created_utc` (a timestamp) and
  `config_hash` (it hashes output paths);
* the sha256 of every other file, except `config.json` (it names the output
  directory).

Prints a JSON verdict and exits 1 on any difference or failed run.

Each side runs its own revision's pipeline script, so a change that adds
steps to that script shows their outputs as `added`. Commit the extended
script on its own first, then compare the code change against that commit.

    python scripts/compare_pipeline.py --base HEAD~1
    python scripts/compare_pipeline.py --base HEAD~1 --n 20000

At the default `--n 1000` each corpus is smaller than one `ingest.CHUNK_BYTES`
range, so ingest and infer run in one process; at `--n 20000` the corpora
span several ranges and both run in forked workers.
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


def metas(out_dir: Path) -> dict[str, dict]:
    """Each `.meta.json` under `out_dir`, by relative path, without the fields
    that differ between two runs of the same code (`created_utc`, `config_hash`)."""
    out = {}
    for p in sorted(out_dir.rglob("*.meta.json")):
        meta = json.loads(p.read_text(encoding="utf-8"))
        out[p.relative_to(out_dir).as_posix()] = {
            k: v for k, v in meta.items() if k not in ("created_utc", "config_hash")}
    return out


def compare(base_dir: Path, head_dir: Path) -> dict[str, list[str]]:
    """The relative paths that differ between two output directories: `changed`
    (both have it, sha256 differs), `missing` (only base has it), `added` (only
    head has it) and `meta` (a meta file that differs in a compared field or
    that only one side has)."""
    base, head = digests(base_dir), digests(head_dir)
    base_meta, head_meta = metas(base_dir), metas(head_dir)
    return {
        "changed": sorted(k for k in base.keys() & head.keys() if base[k] != head[k]),
        "missing": sorted(base.keys() - head.keys()),
        "added": sorted(head.keys() - base.keys()),
        "meta": sorted(k for k in base_meta.keys() | head_meta.keys()
                       if base_meta.get(k) != head_meta.get(k)),
    }


def _extract(rev: str, dest: Path) -> None:
    """`src/` and `scripts/` of `rev` into `dest`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev,
                              "src", "scripts"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extraction_filter = getattr(tarfile, "data_filter", None)  # Python >= 3.10.12
        tar.extractall(dest)


def _run(root: Path, out_dir: Path, n: int) -> tuple[int, str, str]:
    """Exit code, stdout with `out_dir` as `<out>`, and stderr of one pipeline run."""
    proc = subprocess.run([sys.executable, str(root / PIPELINE), "--out-dir", str(out_dir),
                           "--seed", "7", "--n", str(n)], capture_output=True, text=True,
                          cwd=root)
    return proc.returncode, proc.stdout.replace(str(out_dir), "<out>"), proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--n", type=int, default=1000,
                        help="synthetic corpus size passed to both pipeline runs")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            _extract(args.base, tmp / "base")
        except subprocess.CalledProcessError as exc:
            print(json.dumps({"equal": False, "error": exc.stderr.decode(errors="replace")}))
            return 1
        runs = {side: _run(root, tmp / f"{side}_out", args.n)
                for side, root in (("base", tmp / "base"), ("head", REPO))}
        failed = {side: err[-2000:] for side, (code, _, err) in runs.items() if code != 0}
        verdict = {"base": args.base, "n": args.n}
        if failed:
            verdict.update(equal=False, failed=failed)
        else:
            verdict.update(compare(tmp / "base_out", tmp / "head_out"))
            verdict["stdout_equal"] = runs["base"][1] == runs["head"][1]
            verdict["files"] = len(digests(tmp / "head_out"))
            verdict["equal"] = verdict["stdout_equal"] and not any(
                verdict[k] for k in ("changed", "missing", "added", "meta"))
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
