"""Traced runs: spans around the package's public functions, wrapped from outside.

`install` replaces module attributes of `aspectsent` with wrappers, so the
package's own code is unchanged and tracing costs nothing in untraced runs.
Two kinds of wrapper exist:

* a span wrapper records one `Span` per call (name, start, end, parent id);
* a call wrapper, for per-record functions such as `parse_record` and
  `stable_hash64`, only adds to a call count and a total time. Its time is
  charged to the enclosing span, so self times stay exact.

The `cli.main` stage span opened by the worker is the root. Spans stay in
memory until the run ends, when `dump` writes them out. Call wrappers must
wrap leaf functions (or functions whose only wrapped callees are other call
wrappers), so that no span ever opens inside one.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    agg_s: float = 0.0  # time spent in call-wrapped functions called directly


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover.

    Children are the spans naming it as parent, plus the call-wrapped time
    recorded in `agg_s`. Overlapping child intervals count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = max(0.0, (s.end - s.start) - covered - s.agg_s)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[Span] = []
        self._depth = 0  # nesting of call-wrapped functions

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap_span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def wrap_calls(self, name: str, fn, after=None, sample=False):
        calls, call_s, failures, samples = self.calls, self.call_s, self.failures, self.samples
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failures[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                calls[name] += 1
                call_s[name] += dt
                if sample:
                    samples[name].append(dt)
                if self._depth == 0 and self._open:
                    self._open[-1].agg_s += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def span_total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced child."""
        selfs = self_times(self.spans)
        c, t, n = self.calls, self.call_s, self.counts
        root_self = sum(selfs[s.id] for s in self.spans if s.parent is None)
        read = c["ingest.parse_record"]
        batches = self.samples["features._post_embed"]
        embed_rows = n["features.embed_rows"]
        m = {f"cli.{stage}_s": self.span_total(f"cli.{stage}") for stage in CLI_STAGES}
        m.update({
            "cli.self_s": root_self,
            "cli.read_prediction_rows_s": self.span_total("cli.read_prediction_rows"),
            "cli.prediction_rows": n["cli.prediction_rows"],
            "ingest.parse_s": t["ingest.parse_record"],
            "ingest.records_read": read,
            "ingest.filter_s": sum(selfs[s.id] for s in self.spans
                                   if s.name == "ingest.apply_filters"),
            "ingest.sample_s": self.span_total("ingest.sample_daily"),
            "ingest.write_s": self.span_total("ingest.write_corpus"),
            "ingest.bytes_written": n["ingest.bytes_written"],
            "ingest.kept_ratio": n["ingest.kept"] / read if read else 0.0,
            "hashing.sample_calls": c["ingest.stable_hash64"],
            "hashing.feature_calls": c["features.stable_hash64"],
            "hashing.bytes": n["hashing.bytes"],
            "hashing.s": t["ingest.stable_hash64"] + t["features.stable_hash64"],
            "features.embed_s": self.span_total("features.embed"),
            "features.texts": embed_rows,
            "features.tokens": n["features.tokens"],
            "features.nnz_per_row": n["features.nnz"] / embed_rows if embed_rows else 0.0,
            "features.matrix_mb": n["features.matrix_bytes"] / 2**20,
            "features.remote_batches": c["features._post_embed"],
            "features.remote_batch_p50_ms": 1e3 * _quantile(batches, 0.5),
            "features.remote_batch_p90_ms": 1e3 * _quantile(batches, 0.9),
            "features.remote_failures": self.failures["features._post_embed"],
            # measured by the stub service; run.py replaces them when one runs
            "features.remote_server_s": 0.0,
            "features.remote_bytes_in": 0.0,
            "model.train_s": self.span_total("model.train"),
            "model.svm_train_s": self.span_total("model.train_svm_baseline"),
            "model.gradient_calls": c["model.gradients"],
            "model.predict_s": self.span_total("model.predict_batch"),
            "model.load_params_s": self.span_total("model.load_params"),
            "model.save_params_s": self.span_total("model.save_params"),
            "corpus.read_annotations_s": self.span_total("corpus.read_annotations"),
            "corpus.adjudicate_s": self.span_total("corpus.adjudicate_corpus"),
            "corpus.accepted_ratio": (n["corpus.accepted"] / n["corpus.adjudicated"]
                                      if n["corpus.adjudicated"] else 0.0),
            "corpus.read_dataset_s": self.span_total("corpus.read_dataset"),
            "corpus.write_dataset_s": self.span_total("corpus.write_dataset"),
            "corpus.split_s": self.span_total("corpus.split"),
            "corpus.dataset_stats_s": self.span_total("corpus.dataset_stats"),
            "evaluation.evaluate_s": self.span_total("evaluation.evaluate"),
            "evaluation.calls": self.span_count("evaluation.evaluate"),
            "stats.daily_series_s": self.span_total("stats.daily_series"),
            "stats.daily_series_calls": self.span_count("stats.daily_series"),
            "stats.smooth_ma_s": self.span_total("stats.smooth_ma"),
            "stats.granger_s": t["stats.granger_test"],
            "stats.granger_tests": c["stats.granger_test"],
            "stats.group_compare_s": self.span_total("stats.group_compare"),
        })
        return m

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"calls": self.calls, "call_s": self.call_s,
                                 "failures": self.failures, "counts": self.counts}) + "\n")


CLI_STAGES = ("ingest", "adjudicate", "stats_dataset", "split", "train", "train_hinge",
              "eval", "infer", "report")


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every `aspectsent` layer in `tracer`."""
    from aspectsent import cli, corpus, evaluation, features, ingest, model, stats

    n = tracer.counts

    def patch(owner, attr, wrapper_factory, name, after=None, **kw):
        setattr(owner, attr, wrapper_factory(name, getattr(owner, attr), after, **kw))

    span, calls = tracer.wrap_span, tracer.wrap_calls

    def count(key, fn):
        def after(args, result):
            n[key] += fn(args, result)
        return after

    def hashed_bytes(args, result):
        payload = args[1]
        n["hashing.bytes"] += len(payload.encode("utf-8") if isinstance(payload, str) else payload)

    def embedded(args, result):
        n["features.embed_rows"] += result.shape[0]
        n["features.nnz"] += int(np.count_nonzero(result))
        n["features.matrix_bytes"] += result.nbytes

    def adjudicated(args, result):
        accepted, discarded = result
        n["corpus.accepted"] += len(accepted)
        n["corpus.adjudicated"] += len(accepted) + discarded

    patch(cli, "read_prediction_rows", span, "cli.read_prediction_rows",
          count("cli.prediction_rows", lambda a, r: len(r)))

    patch(ingest, "parse_record", calls, "ingest.parse_record")
    patch(ingest, "apply_filters", span, "ingest.apply_filters",
          count("ingest.kept", lambda a, r: len(r)))
    patch(ingest, "sample_daily", span, "ingest.sample_daily")
    patch(ingest, "write_corpus", span, "ingest.write_corpus",
          count("ingest.bytes_written", lambda a, r: os.path.getsize(a[0])))
    patch(ingest, "read_corpus", span, "ingest.read_corpus")
    patch(ingest, "stable_hash64", calls, "ingest.stable_hash64", hashed_bytes)

    patch(features, "stable_hash64", calls, "features.stable_hash64", hashed_bytes)
    patch(features, "tokenize", calls, "features.tokenize",
          count("features.tokens", lambda a, r: len(r)))
    patch(features.HashedProvider, "embed", span, "features.embed", embedded)
    patch(features.RemoteProvider, "embed", span, "features.embed", embedded)
    patch(features, "_post_embed", calls, "features._post_embed", sample=True)

    for fn in ("train", "train_svm_baseline", "predict_batch", "load_params", "save_params"):
        patch(model, fn, span, f"model.{fn}")
    patch(model, "gradients", calls, "model.gradients")

    for fn in ("read_annotations", "read_dataset", "write_dataset", "split", "dataset_stats"):
        patch(corpus, fn, span, f"corpus.{fn}")
    patch(corpus, "adjudicate_corpus", span, "corpus.adjudicate_corpus", adjudicated)

    patch(evaluation, "evaluate", span, "evaluation.evaluate")

    for fn in ("daily_series", "smooth_ma", "group_compare"):
        patch(stats, fn, span, f"stats.{fn}")
    patch(stats, "granger_test", calls, "stats.granger_test")
