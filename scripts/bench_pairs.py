#!/usr/bin/env python3
"""Paired benchmark runs of a change against its base, with an A/A control.

    python scripts/bench_pairs.py --base HEAD~1 --workload ingest-dump --seed 5 \\
        --pairs 10 --seconds 10 --dir /tmp/pairs --out BENCH_34.json

`git archive`s the base revision twice and the change (default HEAD) once into
the sibling directories `p0`, `p1` and `c0` under `--dir`, whose names have equal
length. Each round runs `benchmark/run.py` once in each directory, in the next
of the six orders of the three, and keeps the last stdout line of each run: its
JSON result. The change is compared with `p0` (the A/B set), and `p1` with `p0`
(the A/A set: two copies of one tree, so what parts them is noise).

The runs go into `--out` in the schema of the `BENCH_*.json` files: `change`,
`parent`, `command`, `host`, `protocol`, `summary`, `pairs` and `other_runs`.
Runs of other workloads already in `--out` are kept, so one file can gather
several invocations. For each workload and end-to-end metric of BENCHMARK.json
the summary gives each side's median, the distance between the quartiles of
the parent's runs (`p0` and `p1` together), the rounds in which the change and
the copy beat `p0` (ties count for neither), and whether a gain claim holds:
the change wins at least nine rounds in ten, and its median beats the parent's
by more than that quartile distance.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = {"p0": "parent", "p1": "parent-copy", "c0": "change"}  # directory -> side


def _extract(rev: str, dest: Path) -> None:
    """The tree of `rev` into `dest`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extraction_filter = getattr(tarfile, "data_filter", None)  # Python >= 3.10.12
        tar.extractall(dest)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one `benchmark/run.py` run in `root`, or None if it failed."""
    try:
        proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)], cwd=root,
                              capture_output=True, text=True, timeout=seconds * 10 + 300)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def _failed(result: dict | None) -> bool:
    return result is None or not result.get("correct") or result.get("failed", 0) > 0


def _value(result: dict | None, metric: str) -> float | None:
    if _failed(result) or metric not in result["metrics"]:
        return None
    return result["metrics"][metric]["value"]


def _wins(mine: list, theirs: list, higher: bool) -> tuple[int, int]:
    """Rounds in which `mine` beats `theirs`, and rounds in which both have a value."""
    both = [(a, b) for a, b in zip(mine, theirs) if a is not None and b is not None]
    return sum(a > b if higher else a < b for a, b in both), len(both)


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """The summary of `pairs` (lines with `side`, `workload`, `pair` and `result`)
    for each workload, over the metrics of `better` (name -> "higher"/"lower")."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        rounds = sorted({p["pair"] for p in runs})
        by_side = {(p["side"], p["pair"]): p["result"] for p in runs}
        entry = {"rounds": len(rounds), "failed_runs": sum(_failed(p["result"]) for p in runs)}
        for metric, direction in better.items():
            higher = direction == "higher"
            values = {side: [_value(by_side.get((side, r)), metric) for r in rounds]
                      for side in SIDES.values()}
            present = {side: [v for v in vs if v is not None] for side, vs in values.items()}
            if not all(present.values()):
                continue
            medians = {side: statistics.median(vs) for side, vs in present.items()}
            parent_runs = present["parent"] + present["parent-copy"]
            q1, _, q3 = (statistics.quantiles(parent_runs, n=4, method="inclusive")
                         if len(parent_runs) > 1 else (parent_runs[0],) * 3)
            change_wins, change_n = _wins(values["change"], values["parent"], higher)
            copy_wins, copy_n = _wins(values["parent-copy"], values["parent"], higher)
            gain = medians["change"] - medians["parent"]
            entry[metric] = {
                "parent_median": medians["parent"],
                "change_median": medians["change"],
                "parent_copy_median": medians["parent-copy"],
                "parent_iqr": q3 - q1,
                "change_wins_vs_p0": f"{change_wins}/{change_n}",
                "copy_wins_vs_p0": f"{copy_wins}/{copy_n}",
                "change_vs_parent": gain / medians["parent"] if medians["parent"] else None,
                "claim_holds": (change_wins >= 0.9 * change_n
                                and (gain if higher else -gain) > q3 - q1),
            }
        summary[workload] = entry
    return summary


def _rev(rev: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10, help="rounds, each running all three trees")
    ap.add_argument("--seconds", type=float, default=28.0, help="benchmark/run.py --seconds")
    ap.add_argument("--dir", required=True, type=Path,
                    help="a new directory to hold the three trees")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    ap.add_argument("--title", default="", help="what the change is, for the `change` field")
    args = ap.parse_args(argv)

    for name, rev in (("p0", args.base), ("p1", args.base), ("c0", args.change)):
        _extract(rev, args.dir / name)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    pairs = [p for p in doc.get("pairs", []) if p["workload"] != args.workload]
    orders = list(itertools.permutations(SIDES))  # in six rounds, each side runs before
    # each other side three times
    for r in range(1, args.pairs + 1):
        turn = orders[(r - 1) % len(orders)]
        for name in turn:
            result = _run(args.dir / name, args.workload, args.seed, args.seconds)
            pairs.append({"side": SIDES[name], "workload": args.workload, "seed": args.seed,
                          "pair": r, "first": SIDES[turn[0]], "result": result})
            print(f"round {r} {SIDES[name]}: "
                  f"{'failed' if _failed(result) else json.dumps(result['metrics'])}",
                  file=sys.stderr)
    spec = json.loads((args.dir / "c0" / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc.update({
        "change": args.title or doc.get("change", ""),
        "parent": _rev(args.base),
        "command": f"python3 benchmark/run.py --workload W --seed S --seconds {args.seconds:g}",
        "host": f"{os.cpu_count()}-CPU {platform.system()} host, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "protocol": "scripts/bench_pairs.py: git archive of the parent twice (p0, p1) and of "
                    "the change once (c0), directory names of equal length; each round runs "
                    "all three, in the next of their six orders (`first` names the side run "
                    "first). "
                    "Change vs p0 is the A/B set, p1 vs p0 the A/A control; parent_iqr is the "
                    "quartile distance of p0 and p1 runs together. A claim holds when the "
                    "change wins at least 9 rounds in 10 and its median beats the parent's by "
                    "more than parent_iqr.",
        "summary": summarize(pairs, better),
        "pairs": pairs,
        "other_runs": doc.get("other_runs", []),
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(doc["summary"][args.workload], indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
