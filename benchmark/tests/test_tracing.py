import json
import subprocess
import sys
import time

import bench_path  # noqa: F401  (must precede the benchmark imports)

import pytest

import gen
import run
import tracing
from tracing import Span, Tracer, self_times


def test_self_time_subtracts_the_union_of_children_and_call_time():
    spans = [
        Span(0, None, "cli.root", 0.0, 10.0, agg_s=0.5),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] counts once
        Span(3, 0, "c", 8.0, 9.0),
        Span(4, 1, "a1", 2.0, 3.0, agg_s=0.25),
        Span(5, 3, "past-end", 8.5, 11.0),  # clipped to its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0 - 0.5)
    assert selfs[4] == pytest.approx(1.0 - 0.25)
    assert selfs[5] == pytest.approx(2.5)


def test_call_wrapped_time_is_charged_to_the_enclosing_span_once():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    inner = tracer.wrap_calls("inner", leaf)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap_calls("outer", outer_body)  # nests another call wrapper
    with tracer.span("root"):
        outer()
    root = tracer.spans[0]
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert root.agg_s == pytest.approx(tracer.call_s["outer"])
    assert self_times(tracer.spans)[0] < tracer.call_s["inner"]


def test_declared_per_layer_metrics_are_exactly_the_reported_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    from_run = {"process.cpu_s", "process.throughput_rps", "trace.overhead_ratio",
                "evaluation.test_macro_f1",
                "input.distinct_tokens", "input.tokens_per_tweet"}
    assert set(Tracer().layer_metrics()) | from_run == declared


def test_traced_child_reports_per_layer_counts(tmp_path):
    inputs, run_dir = tmp_path / "inputs", tmp_path / "run"
    inputs.mkdir()
    (run_dir / "work").mkdir(parents=True)
    truth = gen.make_dump(inputs / "dump.jsonl", 500, seed=3)
    (inputs / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    (inputs / "keywords.txt").write_text("china\nwuhan\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "worker.py"), "--workload", "ingest-dump",
         "--inputs", str(inputs), "--run", str(run_dir), "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert all(c["ok"] for c in result["checks"])
    assert layers["ingest.records_read"] == 500
    assert layers["ingest.kept_ratio"] == pytest.approx(truth["expected_kept"] / 500)
    assert layers["hashing.sample_calls"] > 0 and layers["hashing.feature_calls"] == 0
    assert 0 < layers["ingest.filter_s"] < layers["cli.ingest_s"]
    spans = [json.loads(line) for line in open(run_dir / "traces" / "rep000.jsonl", encoding="utf-8")]
    names = {s.get("name") for s in spans}
    assert {"cli.ingest", "ingest.apply_filters", "ingest.sample_daily", "ingest.write_corpus"} <= names
    by_id = {s["id"]: s for s in spans if "id" in s}
    assert by_id[0]["name"] == "cli.ingest" and by_id[0]["parent"] is None
    assert all(s["parent"] is not None for s in by_id.values() if s["id"] != 0)


def test_install_wraps_every_layer(monkeypatch):
    from aspectsent import cli, corpus, evaluation, features, ingest, model, stats

    for module in (cli, corpus, evaluation, features, ingest, model, stats):
        for name, value in vars(module).items():
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(module, name, value)
    for cls in (features.HashedProvider, features.RemoteProvider):
        monkeypatch.setattr(cls, "embed", cls.embed)
    tracing.install(Tracer())
    assert ingest.parse_record.__wrapped__ is not None
    assert model.train.__wrapped__ is not None
    assert stats.granger_test.__wrapped__ is not None
    assert features.HashedProvider.embed.__wrapped__ is not None
