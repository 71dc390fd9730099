"""One benchmark child: drives `aspectsent.cli.main` stage calls for one workload.

`run.py` starts a fresh process of this script for every repetition, so each
repetition pays interpreter start-up and imports once and has its own peak
RSS. Before its first stage call it imports only the standard library and the
package under test; the output checks and the tracer load after the timed
stage calls. The child prints one JSON object as its last stdout line.
With `--baseline` it imports the frozen seed copy in `benchmark/baseline`
instead of `src/`.

    python3 benchmark/worker.py --workload ingest-dump --inputs DIR --run DIR --spawn-ts T
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).resolve().parent / "baseline"

# Must match gen.FILTER_START/FILTER_END/SAMPLE_RATE, which define the ground truth.
INGEST_FLAGS = ["--lang", "en", "--date-start", "2020-01-22", "--date-end", "2020-03-21",
                "--sample-rate", "0.4", "--seed", "11"]
TRAIN_FLAGS = ["--epochs", "10", "--lr", "4.0", "--dim", "4096", "--train-seed", "5"]
SPLIT_SEED = "5"
REMOTE_DIM = "768"


def prep_plan(workload: str, d: dict, endpoint: str | None) -> list[tuple[str, list[str]]]:
    """Untimed preparation: the params files the timed stages read."""
    inputs, prep = d["inputs"], d["prep"]
    split = ("split", ["split", "--dataset", f"{inputs}/dataset.jsonl",
                       "--out-dir", f"{prep}/splits", "--seed", SPLIT_SEED])
    train = ["train", "--train", f"{prep}/splits/train.jsonl", "--dev", f"{prep}/splits/dev.jsonl",
             "--epochs", "5", "--train-seed", "5"]
    if workload == "infer-report":
        return [split, ("train", train + ["--lr", "8.0", "--dim", "4096",
                                          "--params-out", f"{prep}/params.json"])]
    if workload == "infer-remote":
        return [split, ("train", train + ["--lr", "1.0", "--provider", "remote", "--endpoint", endpoint,
                                          "--dim", REMOTE_DIM, "--params-out", f"{prep}/params.json"])]
    return []


def stage_plan(workload: str, d: dict, endpoint: str | None) -> list[tuple[str, list[str]]]:
    """The timed `cli.main` calls of one repetition, as (stage name, argv)."""
    inputs, prep, work = d["inputs"], d["prep"], d["work"]
    if workload == "ingest-dump":
        return [("ingest", ["ingest", "--corpus", f"{inputs}/dump.jsonl", "--keywords",
                            f"{inputs}/keywords.txt", "--out", f"{work}/kept.jsonl"] + INGEST_FLAGS)]
    if workload == "label-train":
        splits = f"{work}/splits"
        return [
            ("adjudicate", ["adjudicate", "--annotations", f"{inputs}/annotations.jsonl",
                            "--tweets", f"{inputs}/tweets.jsonl", "--out", f"{work}/dataset.jsonl"]),
            ("stats_dataset", ["stats-dataset", "--dataset", f"{work}/dataset.jsonl",
                               "--out", f"{work}/table1.csv"]),
            ("split", ["split", "--dataset", f"{work}/dataset.jsonl", "--out-dir", splits,
                       "--seed", SPLIT_SEED]),
            ("train", ["train", "--train", f"{splits}/train.jsonl", "--dev", f"{splits}/dev.jsonl",
                       "--params-out", f"{work}/params.json"] + TRAIN_FLAGS),
            ("train_hinge", ["train", "--objective", "hinge", "--train", f"{splits}/train.jsonl",
                             "--params-out", f"{work}/params_hinge.json"] + TRAIN_FLAGS),
            ("eval", ["eval", "--params", f"{work}/params.json", "--dataset", f"{splits}/test.jsonl",
                      "--out", f"{work}/eval.csv"]),
        ]
    if workload == "infer-report":
        return [
            ("infer", ["infer", "--params", f"{prep}/params.json", "--corpus",
                       f"{inputs}/public.jsonl", "--out", f"{work}/pred_public.jsonl"]),
            ("infer", ["infer", "--params", f"{prep}/params.json", "--corpus",
                       f"{inputs}/media.jsonl", "--out", f"{work}/pred_media.jsonl"]),
            ("report", ["report", "-c", f"{prep}/report.json", "--out-dir", f"{work}/report"]),
        ]
    if workload == "infer-remote":
        return [("infer", ["infer", "--params", f"{prep}/params.json", "--corpus",
                           f"{inputs}/corpus.jsonl", "--out", f"{work}/pred.jsonl",
                           "--endpoint", endpoint])]
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    `VmHWM` starts afresh at exec; `ru_maxrss` can also hold the RSS the
    parent had when it forked this child, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(cli_main, argv: list[str]) -> int:
    """One stage call with its stdout captured; an escaped exception is exit 1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return cli_main(argv)
    except Exception:  # a traceback is a failed stage, not a crashed benchmark
        traceback.print_exc()
        return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="generated inputs (read only)")
    ap.add_argument("--run", required=True, help="this run's prep/, work/ and traces/")
    ap.add_argument("--spawn-ts", type=float, default=None)
    ap.add_argument("--endpoint")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--prep", action="store_true")
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--baseline", action="store_true",
                    help="run the frozen seed copy of the package in benchmark/baseline")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BASELINE if args.baseline else ROOT / "src"))
    from aspectsent import cli

    inputs, run = Path(args.inputs), Path(args.run)
    dirs = {"inputs": str(inputs), "prep": str(run / "prep"), "work": str(run / "work")}
    if args.prep:
        for name, stage_argv in prep_plan(args.workload, dirs, args.endpoint):
            if _call(cli.main, stage_argv) != 0:
                print(f"preparation stage {name} failed", file=sys.stderr)
                return 1
        return 0

    plan = stage_plan(args.workload, dirs, args.endpoint)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_call = time.monotonic()
    stages = []
    for name, stage_argv in plan:
        t0 = time.perf_counter()
        if tracer is None:
            code = _call(cli.main, stage_argv)
        else:
            with tracer.span(f"cli.{name}"):
                code = _call(cli.main, stage_argv)
        stages.append({"stage": name, "code": code, "s": time.perf_counter() - t0})
        if code != 0:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_mb = peak_rss_mb()

    import checks

    result = {
        "package": str(Path(cli.__file__).parent),
        "setup_s": None if args.spawn_ts is None else first_call - args.spawn_ts,
        "stages": stages,
        "planned_stages": len(plan),
        "stage_s": sum(s["s"] for s in stages),
        "peak_rss_mb": peak_mb,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "checks": [c._asdict() for c in checks.run(args.workload, inputs, run / "work")],
        "digests": checks.output_digests(run / "work"),
        **checks.quality(args.workload, run / "work"),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(run / "traces" / f"rep{args.rep:03d}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
