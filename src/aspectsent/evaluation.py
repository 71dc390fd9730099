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
from typing import Mapping

import numpy as np

from .corpus import A_USED


@dataclass(frozen=True)
class Metrics:
    macro_f1: float
    micro_f1: float


def metrics(tp: int, fp: int, fn: int, tn: int) -> Metrics:
    """Macro and micro F1 of one binary count; a class F1 with a zero
    denominator is 0, and micro F1 over both classes is accuracy."""
    f1_positive = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    f1_negative = 2 * tn / (2 * tn + fn + fp) if tn + fn + fp else 0.0
    total = tp + fp + fn + tn
    return Metrics((f1_positive + f1_negative) / 2.0, (tp + tn) / total if total else 0.0)


def evaluate(pred: np.ndarray, gold: np.ndarray,
             gold_aspects: np.ndarray | None = None) -> dict[str, Metrics]:
    """Metrics for one stage: a row per content aspect plus pooled "Overall".

    `pred` and `gold` are (n_examples, |A_used|) binary matrices over the
    `A_USED` slot order. Every slot, including the relevance slot, enters the
    pooled "Overall" row; the slot named "Overall" gets no individual row
    since the pooled column takes that name. Given `gold_aspects`, this is the
    sentiment stage: evaluation is restricted to slots where it is 1, and gold
    sentiment on other slots is never read.
    """
    pred = np.asarray(pred, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if pred.shape != gold.shape:
        raise ValueError(f"prediction shape {pred.shape} != gold shape {gold.shape}")
    if pred.ndim != 2 or pred.shape[1] != len(A_USED):
        raise ValueError(f"expected (n, {len(A_USED)}) matrices, got {pred.shape}")
    keep = np.ones_like(gold) if gold_aspects is None else np.asarray(gold_aspects, dtype=bool)
    if keep.shape != pred.shape:
        raise ValueError("gold_aspects shape mismatch")

    # one row per slot: tp, fp, fn, tn over the kept examples
    counts = np.stack([(p & g & keep).sum(axis=0)
                       for p, g in ((pred, gold), (pred, ~gold), (~pred, gold), (~pred, ~gold))],
                      axis=1)
    report = {a.value: metrics(*row) for a, row in zip(A_USED, counts.tolist())
              if a.value != "Overall"}
    report["Overall"] = metrics(*counts.sum(axis=0).tolist())
    return report


def report_table(reports: Mapping[str, Mapping[str, Metrics]]) -> tuple[list, list]:
    """The header and rows of a report: rows = aspects (+ pooled Overall),
    columns = stage x metric."""
    header = ["aspect"] + [f"{stage}_{metric}_f1" for stage in reports
                           for metric in ("macro", "micro")]
    rows = [[name] + [f"{v:.4f}" for stage in reports.values()
                      for v in (stage[name].macro_f1, stage[name].micro_f1)]
            for name in next(iter(reports.values()))]
    return header, rows
