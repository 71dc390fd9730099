#!/usr/bin/env python3
"""Run the whole pipeline end to end on synthetic data.

Generates a corpus, a media corpus, annotator labels and a labeled dataset,
then drives the CLI through every subcommand: ingest, adjudicate,
stats-dataset, split, train (BCE and the hinge baseline), eval and infer
(each with both params files), augment-candidates, series, granger,
compare-groups and report. The run settings are one config file,
`config.json`, that sets every config section and is passed to every
subcommand; the hinge baseline overrides some `train` settings by flags. All artifacts, including the config, are left in the
output directory.
Useful as a live smoke test, as a template for running on real data, and
for diffing every output before and after a change.

    python scripts/run_synthetic_pipeline.py --out-dir /tmp/aspectsent-demo
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aspectsent import synth
from aspectsent.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    corpus_path = out / "corpus.jsonl"
    dataset_path = out / "dataset.jsonl"
    keywords_path = out / "keywords.txt"
    synth.write_jsonl(corpus_path, synth.make_corpus_records(args.n, args.seed))
    synth.write_jsonl(dataset_path, synth.make_dataset_records(max(400, args.n // 2), args.seed + 1))
    keywords_path.write_text("china\nwuhan\n", encoding="utf-8")
    annotations_path = out / "annotations.jsonl"
    media_path = out / "media_corpus.jsonl"
    synth.write_jsonl(annotations_path, synth.make_annotation_records(200, args.seed + 2))
    synth.write_jsonl(media_path, synth.make_corpus_records(max(300, args.n // 3), args.seed + 3,
                                                            offtopic_fraction=0.0,
                                                            non_english_fraction=0.0))

    config = out / "config.json"
    config.write_text(json.dumps({
        "ingest": {"lang": "en", "date_start": "2020-01-22", "date_end": "2020-03-21",
                   "sample_rate": 0.4, "seed": args.seed},
        "split": {"seed": args.seed},
        "train": {"epochs": 60, "learning_rate": 0.5, "seed": args.seed},
        "provider": {"dim": 2048},
        "augment": {"threshold": 0.6, "cap": 25},
        "series": {"smooth_window": 1},
        "granger": {"lag": 1},
        "report": {
            "dataset": str(dataset_path),
            "params": str(out / "params.json"),
            "test": str(out / "splits" / "test.jsonl"),
            "predictions": str(out / "predictions.jsonl"),
            "media_predictions": str(out / "media_predictions.jsonl"),
            "group_a": "bots", "group_b": "users",
            "lag": 1, "smoothing_window": 7,
        },
    }, indent=2) + "\n", encoding="utf-8")

    def run(argv: list[str]) -> None:
        argv = [argv[0], "-c", str(config), *argv[1:]]
        print("+ aspectsent " + " ".join(argv))
        code = cli(argv)
        if code != 0:
            raise SystemExit(code)

    run(["ingest", "--corpus", str(corpus_path), "--keywords", str(keywords_path),
         "--out", str(out / "filtered.jsonl")])
    run(["adjudicate", "--annotations", str(annotations_path),
         "--out", str(out / "adjudicated.jsonl")])
    run(["stats-dataset", "--dataset", str(dataset_path), "--out", str(out / "table1.csv")])
    run(["split", "--dataset", str(dataset_path), "--out-dir", str(out / "splits")])
    run(["train", "--train", str(out / "splits" / "train.jsonl"),
         "--dev", str(out / "splits" / "dev.jsonl"),
         "--params-out", str(out / "params.json")])
    run(["train", "--objective", "hinge", "--train", str(out / "splits" / "train.jsonl"),
         "--params-out", str(out / "params_hinge.json"),
         "--epochs", "30", "--batch-size", "24", "--weight-decay", "0.001"])
    run(["eval", "--params", str(out / "params.json"),
         "--dataset", str(out / "splits" / "test.jsonl"),
         "--out", str(out / "eval_report.csv")])
    run(["eval", "--params", str(out / "params_hinge.json"),
         "--dataset", str(out / "splits" / "test.jsonl"),
         "--out", str(out / "eval_hinge.csv")])
    run(["infer", "--params", str(out / "params.json"),
         "--corpus", str(out / "filtered.jsonl"),
         "--out", str(out / "predictions.jsonl")])
    run(["infer", "--params", str(out / "params.json"),
         "--corpus", str(media_path),
         "--out", str(out / "media_predictions.jsonl")])
    run(["infer", "--params", str(out / "params_hinge.json"),
         "--corpus", str(out / "filtered.jsonl"),
         "--out", str(out / "predictions_hinge.jsonl")])
    run(["augment-candidates", "--params", str(out / "params.json"),
         "--pool", str(corpus_path), "--out", str(out / "candidates.jsonl")])
    run(["series", "--predictions", str(out / "predictions.jsonl"),
         "--select", "count", "--out", str(out / "daily_count.csv")])
    run(["series", "--predictions", str(out / "predictions.jsonl"),
         "--select", "aspect:Politics", "--out", str(out / "politics_prop.csv")])
    run(["series", "--predictions", str(out / "predictions.jsonl"),
         "--select", "aspect:Measures", "--out", str(out / "measures_prop.csv")])
    run(["series", "--predictions", str(out / "predictions.jsonl"),
         "--select", "count", "--select", "negative:Politics", "--select", "nonnegative:Politics",
         "--out", str(out / "politics_wide.csv")])
    run(["series", "--predictions", str(out / "predictions.jsonl"),
         "--select", "negative:Measures", "--start", "2020-01-15", "--end", "2020-03-31",
         "--out", str(out / "measures_negative_padded.csv")])
    run(["granger", "--x", str(out / "politics_prop.csv"),
         "--y", str(out / "measures_prop.csv"), "--out", str(out / "granger.csv")])
    # padded windows put missing days inside the lag-3 design rows
    for aspect in ("Politics", "Measures"):
        run(["series", "--predictions", str(out / "predictions.jsonl"),
             "--select", f"aspect:{aspect}", "--start", "2020-01-15", "--end", "2020-03-31",
             "--out", str(out / f"{aspect.lower()}_prop_padded.csv")])
    run(["granger", "--x", str(out / "politics_prop_padded.csv"),
         "--y", str(out / "measures_prop_padded.csv"), "--lag", "3",
         "--out", str(out / "granger_lag3.csv")])
    run(["compare-groups", "--predictions", str(out / "predictions.jsonl"),
         "--group-a", "bots", "--group-b", "users", "--mode", "aspect-proportion",
         "--out", str(out / "bots_vs_users.csv")])
    run(["compare-groups", "--predictions", str(out / "media_predictions.jsonl"),
         "--group-a", "tag:us_media", "--group-b", "all", "--mode", "sentiment-mean",
         "--out", str(out / "us_media_vs_all.csv")])
    run(["report", "--out-dir", str(out / "report")])

    print(f"pipeline artifacts in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
