"""Pipeline benchmark for aspectsent: one command, four workloads.

    python3 benchmark/run.py --workload ingest-dump --seed 1 --seconds 28 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 28

For one workload it generates (or reuses) the seeded inputs, runs the
untimed preparation, then starts fresh `worker.py` children one after
another until `--seconds` have been spent; each child drives the real
pipeline through `aspectsent.cli.main` stage calls and checks its outputs.
With `--trace 0` the children come in pairs: one runs the package under
test (`src/`), the other the frozen copy of the seed package in
`benchmark/baseline`, on the same inputs. `speedup` is the baseline
child's stage time over the other's; pairing cancels the minutes-long slow
spells of a shared host, which move both children alike. Every metric is
the median over the run's repetitions after the first, a warm-up. With
`--trace 1` it alternates untraced and traced children of the package under
test and reports the per-layer metrics from the traced ones. A summary is
printed first and the last stdout line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.

`attempted` counts every stage call and output check of the package under
test (plus the per-run check that each output's sha256 repeats across
children); `failed` counts stages that exited non-zero or never ran and
checks that did not hold, so the error rate is `failed / attempted`. A
baseline child that fails a stage stops the run: the benchmark is broken.

Generated inputs are cached under `.bench_data/inputs`, keyed by workload,
seed, the sizes and the generator source. All load comes from one process
at a time (plus the stub embedding service of `infer-remote`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / ".bench_data"
sys.path.insert(0, str(BENCH))

from worker import stage_plan  # noqa: E402

WORKLOADS = ("ingest-dump", "label-train", "infer-report", "infer-remote")
SIZES = {
    "ingest-dump": {"records": 60_000},
    "label-train": {"tweets": 2_000},
    "infer-report": {"public": 6_000, "media": 1_500, "dataset": 1_200},
    "infer-remote": {"records": 4_000, "dataset": 1_000},
}
# Repetitions per run (the first is a warm-up), unless one overran --seconds. A repetition
# is a pair of children (package under test and baseline copy), or one child when traced.
MIN_REPS = 4
CACHED_SEEDS = 12  # input sets kept per workload (about 70 MB per seed for all four)
CHILD_TIMEOUT_S = 60
STUB_START_TIMEOUT_S = 60


class BenchError(Exception):
    """The run cannot produce a result: the preparation or the stub service failed."""


def _sub_seed(workload: str, seed: int, part: str) -> int:
    return int(hashlib.sha256(f"{workload}:{seed}:{part}".encode()).hexdigest()[:12], 16)


def _cache_key(workload: str, seed: int) -> str:
    h = hashlib.sha256(json.dumps(SIZES[workload], sort_keys=True).encode())
    for name in ("gen.py", "stub.py", "run.py"):
        h.update((BENCH / name).read_bytes())
    return f"{workload}-seed{seed}-{h.hexdigest()[:12]}"


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs into `out`; return its ground truth."""
    import gen

    size = SIZES[workload]
    s = lambda part: _sub_seed(workload, seed, part)  # noqa: E731
    if workload == "ingest-dump":
        (out / "keywords.txt").write_text("\n".join(gen.KEYWORDS) + "\n", encoding="utf-8")
        return gen.make_dump(out / "dump.jsonl", size["records"], s("dump"))
    if workload == "label-train":
        tweets, rows = gen.make_labelled(size["tweets"], s("tweets"), "t")
        annotations, counts = gen.make_annotations(rows, s("annotations"))
        gen.write_jsonl(out / "tweets.jsonl", tweets)
        gen.write_jsonl(out / "annotations.jsonl", annotations)
        return {"tweets": len(tweets), **counts, **gen.text_stats(t["text"] for t in tweets)}
    if workload == "infer-report":
        tweets, rows = gen.make_labelled(size["dataset"], s("dataset"), "d")
        gen.write_jsonl(out / "dataset.jsonl", gen.dataset_records(tweets, rows))
        public = gen.make_corpus(out / "public.jsonl", size["public"], s("public"))
        media = gen.make_corpus(out / "media.jsonl", size["media"], s("media"), media=True)
        return {"public_records": public["records"], "media_records": media["records"],
                "public_days": public["days"], "records": public["records"] + media["records"],
                "distinct_tokens": public["distinct_tokens"],
                "tokens_per_tweet": public["tokens_per_tweet"]}
    if workload == "infer-remote":
        import stub

        tweets, rows = gen.make_labelled(size["dataset"], s("dataset"), "d")
        gen.write_jsonl(out / "dataset.jsonl", gen.dataset_records(tweets, rows))
        info = gen.make_corpus(out / "corpus.jsonl", size["records"], s("corpus"))
        texts = [t["text"] for t in tweets]
        with open(out / "corpus.jsonl", encoding="utf-8") as fh:
            texts += [json.loads(line)["text"] for line in fh]
        stub.encode_file(texts, out / "stub_vectors.txt")
        return info
    raise ValueError(workload)


def primary_records(workload: str, truth: dict) -> int:
    """Records the throughput counts: dump lines, labelled tweets, or inferred tweets."""
    return truth["tweets"] if workload == "label-train" else truth["records"]


def inputs_for(workload: str, seed: int) -> tuple[Path, dict]:
    """The cached inputs of (workload, seed), generated on first use."""
    path = DATA / "inputs" / _cache_key(workload, seed)
    if (path / "truth.json").exists():
        os.utime(path)
    else:
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        truth = generate(workload, seed, tmp)
        (tmp / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True), encoding="utf-8")
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
        cached = sorted(path.parent.glob(f"{workload}-seed*"), key=lambda p: p.stat().st_mtime)
        for old in cached[:-CACHED_SEEDS]:
            shutil.rmtree(old, ignore_errors=True)
    return path, json.loads((path / "truth.json").read_text(encoding="utf-8"))


@contextlib.contextmanager
def stub_service(vectors: Path):
    """Start the stub embedding service; yield its endpoint; always stop it."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "stub.py"), "--vectors", str(vectors)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], STUB_START_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            raise BenchError("the stub embedding service did not start")
        yield f"http://127.0.0.1:{int(line.split()[1])}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def stub_stats(endpoint: str) -> dict:
    with urllib.request.urlopen(endpoint + "/stats", timeout=10) as resp:
        return json.loads(resp.read())


def _worker_cmd(workload: str, inputs: Path, run_dir: Path, endpoint: str | None,
                baseline: bool) -> list[str]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--run", str(run_dir)]
    return cmd + (["--endpoint", endpoint] if endpoint else []) + (["--baseline"] if baseline else [])


def prepare(workload: str, inputs: Path, run_dir: Path, endpoint: str | None,
            baseline: bool = False) -> None:
    """Untimed preparation: params files trained by the package the children run."""
    (run_dir / "prep").mkdir(parents=True)
    if workload == "infer-report":
        prep, work = run_dir / "prep", run_dir / "work"
        report = {"dataset": str(inputs / "dataset.jsonl"), "params": str(prep / "params.json"),
                  "test": str(prep / "splits" / "test.jsonl"),
                  "predictions": str(work / "pred_public.jsonl"),
                  "media_predictions": str(work / "pred_media.jsonl"),
                  "group_a": "bots", "group_b": "users", "lag": 1, "smoothing_window": 7,
                  "series_input": "raw"}
        (prep / "report.json").write_text(json.dumps({"report": report}, indent=1), encoding="utf-8")
    if workload in ("infer-report", "infer-remote"):
        proc = subprocess.run(_worker_cmd(workload, inputs, run_dir, endpoint, baseline) + ["--prep"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"preparation failed:\n{proc.stderr[-2000:]}")


def run_child(workload: str, inputs: Path, run_dir: Path, endpoint: str | None,
              trace: bool, rep: int, baseline: bool = False) -> dict | None:
    """One fresh child; its parsed result, or None if it crashed."""
    work = run_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    cmd = _worker_cmd(workload, inputs, run_dir, endpoint, baseline) + [
        "--trace", str(int(trace)), "--rep", str(rep)]
    before = stub_stats(endpoint) if trace and endpoint else None
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-ts", repr(spawn)], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"child {rep} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"child {rep} crashed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if proc.stderr.strip():
        print(proc.stderr[-2000:], file=sys.stderr)
    result["traced"] = trace
    if before is not None:
        after = stub_stats(endpoint)
        result["layers"]["features.remote_server_s"] = after["handle_s"] - before["handle_s"]
        result["layers"]["features.remote_bytes_in"] = after["bytes_out"] - before["bytes_out"]
    return result


def run_pair(workload: str, inputs: Path, run_dir: Path, endpoint: str | None,
             rep: int) -> dict | None:
    """A child of the package under test and one of the baseline copy, in turns.

    The two run back to back, so a slow spell of the host slows both, and
    their quotient, `speedup`, cancels it. Which side goes first alternates.
    Returns the child of the package under test, carrying `speedup`.
    """
    sides = [False, True] if rep % 2 == 0 else [True, False]
    out = {}
    for baseline in sides:
        out[baseline] = run_child(workload, inputs, run_dir / "baseline" if baseline else run_dir,
                                  endpoint, False, rep, baseline)
    base, result = out[True], out[False]
    if base is None or any(s["code"] != 0 for s in base["stages"]):
        raise BenchError("the baseline copy in benchmark/baseline failed a stage")
    if result is not None and result["stage_s"] > 0:
        result["speedup"] = base["stage_s"] / result["stage_s"]
    return result


def tally(results: list[dict | None], planned_stages: int) -> tuple[int, int]:
    """(attempted, failed) over stage calls, output checks and the digest check."""
    attempted = failed = 0
    digests = []
    for r in results:
        if r is None:
            attempted += planned_stages
            failed += planned_stages
            continue
        ok_stages = sum(1 for s in r["stages"] if s["code"] == 0)
        attempted += r["planned_stages"] + len(r["checks"])
        failed += r["planned_stages"] - ok_stages + sum(1 for c in r["checks"] if not c["ok"])
        digests.append(r["digests"])
    attempted += 1
    if not digests or any(d != digests[0] for d in digests):
        failed += 1
    return attempted, failed


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs, truth = inputs_for(workload, seed)
    run_dir = DATA / "runs" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    results: list[dict | None] = []
    try:
        with (stub_service(inputs / "stub_vectors.txt") if workload == "infer-remote"
              else contextlib.nullcontext()) as endpoint:
            prepare(workload, inputs, run_dir, endpoint)
            if not trace:
                prepare(workload, inputs, run_dir / "baseline", endpoint, baseline=True)
            start = time.monotonic()
            durations = []
            while True:
                elapsed = time.monotonic() - start
                enough = len(results) >= MIN_REPS or elapsed > seconds
                if enough and elapsed + _median(durations) > seconds:
                    break
                t0 = time.monotonic()
                rep = len(results)
                if trace:
                    results.append(run_child(workload, inputs, run_dir, endpoint, rep % 2 == 1, rep))
                else:
                    results.append(run_pair(workload, inputs, run_dir, endpoint, rep))
                durations.append(time.monotonic() - t0)
        traces = run_dir / "traces"
        if traces.exists():
            kept = DATA / "traces" / f"{workload}-seed{seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.parent.mkdir(parents=True, exist_ok=True)
            traces.rename(kept)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    planned = len(stage_plan(workload, {"inputs": "", "prep": "", "work": ""}, None))
    attempted, failed = tally(results, planned)
    ok = [r for r in results if r is not None]
    # The first repetition is a warm-up: checked and counted, but left out of the metrics.
    plain = [r for r in results[1:] if r is not None and not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    records = primary_records(workload, truth)
    summary = {
        "workload": workload, "seed": seed, "children": len(results),
        "traced_children": len(traced), "records": records,
        "distinct_tokens": truth["distinct_tokens"], "tokens_per_tweet": truth["tokens_per_tweet"],
        "attempted": attempted, "failed": failed,
        "failed_checks": sorted({c["name"] for r in ok for c in r["checks"] if not c["ok"]}),
        "digests": ok[0]["digests"] if ok else {},
        "test_macro_f1": (_median(r.get("test_macro_f1") for r in ok)
                          if workload == "label-train" else None),
    }
    per_child = {
        "speedup": [r["speedup"] for r in plain if "speedup" in r],
        "throughput_rps": [records / r["stage_s"] for r in plain if r["stage_s"] > 0],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
    }
    summary["ranges"] = {k: (min(v), max(v), len(v)) for k, v in per_child.items() if v}
    metrics = {k: _median(v) for k, v in per_child.items()}
    metrics["error_rate"] = failed / attempted
    if summary["test_macro_f1"] is not None:
        metrics["test_macro_f1"] = summary["test_macro_f1"]
    if trace:
        names = set().union(*(r["layers"] for r in traced)) if traced else set()
        layers = {name: _median(r["layers"].get(name) for r in traced) for name in sorted(names)}
        layers["process.cpu_s"] = _median(r["cpu_s"] for r in plain)
        layers["process.throughput_rps"] = metrics["throughput_rps"]
        plain_s = _median(r["stage_s"] for r in plain)
        layers["trace.overhead_ratio"] = (_median(r["stage_s"] for r in traced) / plain_s
                                          if plain_s else 0.0)
        layers["evaluation.test_macro_f1"] = summary["test_macro_f1"] or 0.0
        layers["input.distinct_tokens"] = truth["distinct_tokens"]
        layers["input.tokens_per_tweet"] = truth["tokens_per_tweet"]
        metrics.update(layers)
    summary["metrics"] = metrics
    return summary


def print_summary(s: dict, units: dict) -> None:
    print(f"== {s['workload']} (seed {s['seed']}): {s['children']} repetitions"
          f" ({s['traced_children']} traced), {s['records']} records per child,"
          f" {s['distinct_tokens']} distinct tokens, {s['tokens_per_tweet']:.2f} tokens/tweet")
    for name, value in s["metrics"].items():
        note = f"  ({s['failed']} failed / {s['attempted']} attempted)" if name == "error_rate" else ""
        if name in s["ranges"]:
            low, high, n = s["ranges"][name]
            note = f"  (median of {n}, range {low:.6g} .. {high:.6g})"
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}{note}")
    if s["failed_checks"]:
        print(f"  failed checks: {', '.join(s['failed_checks'])}")
    for path, digest in s["digests"].items():
        print(f"  sha256 {digest}  {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "aspectsent" / "cli.py").is_file():
        print(f"error: no aspectsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"error_rate": "failed/attempted", "test_macro_f1": "F1",
                  "throughput_rps": "records/s"})

    # The only host any process of the benchmark talks to is its own stub.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_summary(summary, units)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}/" if len(summaries) > 1 else ""
        for m in declared:
            if m["name"] not in s["metrics"]:
                print(f"error: metric {m['name']} was not measured", file=sys.stderr)
                return 1
            metrics[prefix + m["name"]] = {"value": s["metrics"][m["name"]], "unit": m["unit"]}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
