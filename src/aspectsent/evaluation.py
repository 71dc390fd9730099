"""Per-aspect and pooled macro/micro F1 for both model stages.

Each aspect is one binary slot per example. Per-aspect macro F1 averages the
F1 of the positive and negative views of the slot; per-aspect micro F1
micro-averages over both classes, which for a single binary slot equals
accuracy. The report's "Overall" column pools every slot (the five content
aspects plus the relevance slot) before computing the same two metrics.
Sentiment-stage evaluation is restricted to slots whose gold aspect is 1, so
the two stages are scored independently of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import files
from .corpus import A_USED


@dataclass(frozen=True)
class BinaryCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_arrays(cls, pred: np.ndarray, gold: np.ndarray) -> "BinaryCounts":
        pred = np.asarray(pred, dtype=bool).ravel()
        gold = np.asarray(gold, dtype=bool).ravel()
        if pred.shape != gold.shape:
            raise ValueError(f"prediction length {pred.size} != gold length {gold.size}")
        return cls(
            tp=int(np.sum(pred & gold)),
            fp=int(np.sum(pred & ~gold)),
            fn=int(np.sum(~pred & gold)),
            tn=int(np.sum(~pred & ~gold)),
        )

    def __add__(self, other: "BinaryCounts") -> "BinaryCounts":
        return BinaryCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def f1(counts: BinaryCounts, positive_class: int = 1) -> float:
    """F1 of the chosen class; 0 whenever the denominator is 0."""
    if positive_class == 1:
        tp, fp, fn = counts.tp, counts.fp, counts.fn
    else:
        tp, fp, fn = counts.tn, counts.fn, counts.fp
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def macro_f1(counts: BinaryCounts) -> float:
    return (f1(counts, 1) + f1(counts, 0)) / 2.0


def micro_f1(counts: BinaryCounts) -> float:
    """Micro-averaged F1 over both classes; equals accuracy for a binary slot."""
    if counts.total == 0:
        return 0.0
    return (counts.tp + counts.tn) / counts.total


@dataclass(frozen=True)
class Metrics:
    macro_f1: float
    micro_f1: float


def evaluate(
    pred: np.ndarray,
    gold: np.ndarray,
    stage: str = "aspect",
    gold_aspects: np.ndarray | None = None,
    aspects: Sequence[str] | None = None,
) -> dict[str, Metrics]:
    """Metrics for one stage: a row per content aspect plus pooled "Overall".

    `pred` and `gold` are (n_examples, n_slots) binary matrices over the
    `A_USED` slot order. Every slot, including the relevance slot, enters the
    pooled "Overall" row; slots named "Overall" do not get an individual row
    since the pooled column takes that name. For the sentiment stage,
    `gold_aspects` must be supplied and evaluation is restricted to slots
    where it is 1; gold sentiment on other slots is never read.
    """
    pred = np.asarray(pred, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if pred.shape != gold.shape:
        raise ValueError(f"prediction shape {pred.shape} != gold shape {gold.shape}")
    if stage not in ("aspect", "sentiment"):
        raise ValueError(f"unknown stage {stage!r}")
    if stage == "sentiment":
        if gold_aspects is None:
            raise ValueError("sentiment-stage evaluation requires gold_aspects")
        gold_aspects = np.asarray(gold_aspects, dtype=bool)
        if gold_aspects.shape != pred.shape:
            raise ValueError("gold_aspects shape mismatch")
    names = list(aspects) if aspects is not None else [a.value for a in A_USED]
    if pred.ndim != 2 or pred.shape[1] != len(names):
        raise ValueError(f"expected (n, {len(names)}) matrices, got {pred.shape}")

    report: dict[str, Metrics] = {}
    pooled = BinaryCounts(0, 0, 0, 0)
    for j, name in enumerate(names):
        if stage == "sentiment":
            keep = gold_aspects[:, j]
            counts = BinaryCounts.from_arrays(pred[keep, j], gold[keep, j])
        else:
            counts = BinaryCounts.from_arrays(pred[:, j], gold[:, j])
        pooled = pooled + counts
        if name != "Overall":
            report[name] = Metrics(macro_f1(counts), micro_f1(counts))
    report["Overall"] = Metrics(macro_f1(pooled), micro_f1(pooled))
    return report


def write_report_csv(path, reports: Mapping[str, Mapping[str, Metrics]]) -> None:
    """Rows = aspects (+ pooled Overall), columns = stage x metric."""
    stages = list(reports)
    rows = list(next(iter(reports.values())).keys())
    header = ["aspect"]
    for stage in stages:
        header += [f"{stage}_macro_f1", f"{stage}_micro_f1"]
    body = []
    for name in rows:
        row = [name]
        for stage in stages:
            m = reports[stage][name]
            row += [f"{m.macro_f1:.4f}", f"{m.micro_f1:.4f}"]
        body.append(row)
    files.write_csv(path, header, body)
