"""`scripts/bench_pairs.py`'s summary of paired benchmark runs, on hand-made run lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"speedup": "higher", "peak_rss_mb": "lower"}


def _line(side, pair, speedup, rss, workload="ingest-dump", failed=0):
    return {"side": side, "workload": workload, "seed": 5, "pair": pair, "first": "parent",
            "result": {"correct": failed == 0, "attempted": 13, "failed": failed,
                       "metrics": {"speedup": {"value": speedup, "unit": "x"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def _rounds(parent, copy, change):
    """Run lines of rounds 1.., from each side's (speedup, rss) per round."""
    return [_line(side, r, *values) for side, runs in
            (("parent", parent), ("parent-copy", copy), ("change", change))
            for r, values in enumerate(runs, 1)]


def test_a_clear_memory_gain_holds_and_speed_within_noise_does_not():
    parent = [(1.5, 44.1), (1.6, 44.2), (1.4, 44.3), (1.7, 44.4), (1.5, 44.5)]
    copy = [(1.6, 44.2), (1.5, 44.1), (1.5, 44.4), (1.4, 44.3), (1.6, 44.5)]
    change = [(1.6, 40.0), (1.6, 39.9), (1.5, 40.0), (1.6, 40.1), (1.6, 39.9)]
    summary = bench_pairs.summarize(_rounds(parent, copy, change), BETTER)["ingest-dump"]
    assert (summary["rounds"], summary["failed_runs"]) == (5, 0)
    rss = summary["peak_rss_mb"]
    assert (rss["parent_median"], rss["change_median"], rss["parent_copy_median"]) == (
        44.3, 40.0, 44.3)
    assert rss["parent_iqr"] == pytest.approx(0.2)  # quartiles 44.2 and 44.4 of ten runs
    assert rss["change_wins_vs_p0"] == "5/5"
    assert rss["copy_wins_vs_p0"] == "2/5"  # rounds 2 and 4; round 5 ties
    assert rss["change_vs_parent"] == pytest.approx(-4.3 / 44.3)
    assert rss["claim_holds"]
    speed = summary["speedup"]
    assert speed["change_wins_vs_p0"] == "3/5"  # rounds 1, 3 and 5; round 2 ties
    assert not speed["claim_holds"]


def test_a_gain_inside_the_parents_spread_does_not_hold():
    parent = [(1.0, 40.0), (2.0, 44.0), (1.0, 40.0), (2.0, 44.0)]
    change = [(1.1, 39.9), (2.1, 43.9), (1.1, 39.9), (2.1, 43.9)]  # wins every round
    summary = bench_pairs.summarize(_rounds(parent, parent, change), BETTER)["ingest-dump"]
    assert summary["speedup"]["change_wins_vs_p0"] == "4/4"
    assert summary["speedup"]["parent_iqr"] == pytest.approx(1.0)
    assert not summary["speedup"]["claim_holds"]
    assert not summary["peak_rss_mb"]["claim_holds"]


def test_a_failed_run_is_counted_and_leaves_its_round_out():
    parent = [(1.5, 44.0), (1.5, 44.0), (1.5, 44.0)]
    lines = _rounds(parent, parent, [(1.6, 40.0), (1.6, 40.0), (1.6, 40.0)])
    lines[-1] = _line("change", 3, 9.9, 1.0, failed=1)  # its numbers are not used
    lines.append({**_line("change", 4, 1.6, 40.0), "result": None})  # no result at all
    summary = bench_pairs.summarize(lines, BETTER)["ingest-dump"]
    assert (summary["rounds"], summary["failed_runs"]) == (4, 2)
    assert summary["speedup"]["change_median"] == 1.6
    assert summary["speedup"]["change_wins_vs_p0"] == "2/2"


def test_each_workload_is_summarized_apart():
    lines = _rounds([(1.0, 40.0)], [(1.0, 40.0)], [(2.0, 40.0)])
    lines += [_line(side, 1, 3.0, 41.0, workload="infer-report")
              for side in ("parent", "parent-copy", "change")]
    summary = bench_pairs.summarize(lines, BETTER)
    assert list(summary) == ["ingest-dump", "infer-report"]
    assert summary["infer-report"]["speedup"]["change_wins_vs_p0"] == "0/1"
    assert summary["ingest-dump"]["speedup"]["change_median"] == 2.0
