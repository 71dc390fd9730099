import argparse
import csv
import errno
import json
import os
import tempfile
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aspectsent import cli, corpus, evaluation, features, files, ingest, model, stats, synth
from aspectsent.cli import figure_table, main, read_prediction_rows
from aspectsent.errors import PipelineError
from aspectsent.features import providers
from aspectsent.stats import DailySeries

from conftest import corpus_line
from test_docs import report_files
from datetime import date, timedelta

D0 = date(2020, 3, 1)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_figure(series_map, path):
    """The figure CSV of `series_map` at `path`, as `series` and `report` write it."""
    files.write_csv(path, *figure_table(series_map))


@pytest.fixture
def small_corpus(tmp_path):
    lines = [
        corpus_line(tweet_id="1", when="2020-01-25T10:00:00Z", text="china lockdown begins"),
        corpus_line(tweet_id="2", when="2020-01-25T11:00:00Z", text="china cases rising", lang="es"),
        corpus_line(tweet_id="3", when="2020-01-26T09:00:00Z", text="nothing relevant here"),
        corpus_line(tweet_id="4", when="2020-01-26T12:00:00Z", text="wuhan report out",
                    bot_flag=True),
        corpus_line(tweet_id="5", when="2020-07-01T00:00:00Z", text="china late tweet"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_lines(path, lines)
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("china\nwuhan\n", encoding="utf-8")
    return path, keywords


class TestIngestCommand:
    def test_filters_and_writes_meta(self, tmp_path, small_corpus):
        corpus_path, keywords = small_corpus
        out = tmp_path / "filtered.jsonl"
        code = main([
            "ingest", "--corpus", str(corpus_path), "--keywords", str(keywords),
            "--out", str(out), "--lang", "en",
            "--date-start", "2020-01-22", "--date-end", "2020-05-21",
        ])
        assert code == 0
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert ids == ["1", "4"]  # 2 wrong lang, 3 no keyword, 5 out of range
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        assert meta["tool"] == "aspectsent"
        assert "config_hash" in meta

    def test_missing_corpus_exits_one_naming_path(self, tmp_path, capsys):
        code = main([
            "ingest", "--corpus", str(tmp_path / "nope.jsonl"),
            "--keywords", str(tmp_path / "kw.txt"), "--out", str(tmp_path / "o"),
            "--date-start", "2020-01-01", "--date-end", "2020-01-02",
        ])
        assert code == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, small_corpus, capsys):
        corpus_path, keywords = small_corpus
        assert main(["ingest", "--corpus", str(corpus_path), "--bogus"]) == 2


INGEST_WINDOW = ["--lang", "en", "--date-start", "2020-01-22", "--date-end", "2020-05-21"]


def ingest_argv(corpus_path, keywords, out, *extra):
    return ["ingest", "--corpus", str(corpus_path), "--keywords", str(keywords),
            "--out", str(out), *INGEST_WINDOW, *extra]


def reference_ingest(corpus_path, keywords, out, rate, seed, accounts=None):
    """The one-pass path: every tweet in memory, the kept ones written by index."""
    spec = ingest.FilterSpec(
        lang="en", keywords=ingest.load_keywords(keywords), date_start=date(2020, 1, 22),
        date_end=date(2020, 5, 21), accounts=accounts, sample_rate=rate, seed=seed)
    tweets = list(ingest.iter_corpus(corpus_path))
    ingest.write_corpus(out, [tweets[s.record] for s in ingest.apply_filters(tweets, spec)])


_RECORD = st.fixed_dictionaries({
    "when": st.sampled_from([
        "2020-01-21T23:30:00Z", "2020-01-22T00:30:00+02:00", "2020-01-22T23:30:00-05:00",
        "2020-02-10T12:00:00Z", "2020-02-10T01:00:00+03:00", "2020-05-21T23:59:59Z",
        "2020-05-22T00:00:00Z", "2020-03-03T08:00:00"]),
    "lang": st.sampled_from(["en", "en-GB", "EN", "es", "und"]),
    "text": st.sampled_from(["china news", "#Wuhan update", "chinatown food", "offtopic",
                             "COVID-19 in 中国", "wuhan_lab", "china"]),
    "user": st.sampled_from(["alice", "NYTimes", "bob"]),
    "id": st.integers(0, 30),
})


class TestTwoPassIngest:
    @given(
        records=st.lists(st.one_of(_RECORD, st.just(None)), max_size=40),
        rate=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
        with_accounts=st.booleans(),
    )
    def test_matches_one_pass_filter_and_counts_every_record(
        self, records, rate, seed, with_accounts
    ):
        # None is a blank line; ids repeat, so duplicates meet the sampler
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            lines = ["   " if r is None else corpus_line(
                tweet_id=f"t{r['id']}", when=r["when"], text=r["text"], lang=r["lang"],
                user_name=r["user"]) for r in records]
            corpus_path = tmp / "corpus.jsonl"
            write_lines(corpus_path, lines)
            keywords = tmp / "keywords.txt"
            keywords.write_text("china\n中国\nWuhan\ncovid-19\n", encoding="utf-8")
            extra = ["--sample-rate", str(rate), "--seed", str(seed)]
            accounts = None
            if with_accounts:
                (tmp / "accounts.txt").write_text("nytimes\nalice\n", encoding="utf-8")
                extra += ["--accounts", str(tmp / "accounts.txt")]
                accounts = frozenset({"nytimes", "alice"})
            out = tmp / "kept.jsonl"
            assert main(ingest_argv(corpus_path, keywords, out, *extra)) == 0
            reference_ingest(corpus_path, keywords, tmp / "ref.jsonl", rate, seed, accounts)
            assert out.read_bytes() == (tmp / "ref.jsonl").read_bytes()
            counts = json.loads(Path(f"{out}.meta.json").read_text())["counts"]
            assert set(counts) == set(ingest.INGEST_COUNTS)
            assert counts["records_read"] == sum(r is not None for r in records)
            assert sum(counts.values()) == 2 * counts["records_read"]
            assert counts["kept"] == len(out.read_text(encoding="utf-8").splitlines())

    def test_meta_counts_each_decision(self, tmp_path):
        lines = [
            corpus_line(tweet_id="lang", lang="es"),
            corpus_line(tweet_id="date", when="2020-06-01T00:00:00Z"),
            corpus_line(tweet_id="kw", text="nothing here"),
            corpus_line(tweet_id="acct", user_name="mallory"),
            "",
        ] + [corpus_line(tweet_id=f"k{i}") for i in range(4)]
        corpus_path = tmp_path / "corpus.jsonl"
        write_lines(corpus_path, lines)
        keywords = tmp_path / "kw.txt"
        keywords.write_text("china\n", encoding="utf-8")
        accounts = tmp_path / "accounts.txt"
        accounts.write_text("alice\n", encoding="utf-8")
        out = tmp_path / "kept.jsonl"
        assert main(ingest_argv(corpus_path, keywords, out, "--accounts", str(accounts),
                                "--sample-rate", "0.5")) == 0
        counts = json.loads(Path(f"{out}.meta.json").read_text())["counts"]
        assert counts == {"records_read": 8, "rejected_lang": 1, "rejected_date": 1,
                          "rejected_keyword": 1, "rejected_account": 1, "sampled_out": 2,
                          "kept": 2}

    def test_memory_per_survivor(self, tmp_path):
        # Holding each survivor as a RawTweet grows the peak by about 720 B a
        # survivor here; the pass-1 index entry and its sampling take about 240.
        keywords = tmp_path / "kw.txt"
        keywords.write_text("china\n", encoding="utf-8")

        def peak(n):
            corpus_path = tmp_path / f"corpus{n}.jsonl"
            write_lines(corpus_path, [
                corpus_line(tweet_id=f"{1220000000000000000 + i}",
                            when=f"2020-02-{1 + i % 28:02d}T10:00:00Z",
                            text=f"china lockdown policy update number {i}",
                            user_name=f"user_{i % 97}")
                for i in range(n)])
            tracemalloc.start()
            try:
                assert main(ingest_argv(corpus_path, keywords, tmp_path / "kept.jsonl",
                                        "--sample-rate", "0.4")) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2000
        peak(n)  # warm lazy imports and caches
        assert (peak(4 * n) - peak(n)) / (3 * n) <= 320

    @pytest.mark.parametrize("edit, where", [
        (lambda lines: lines[:2] + [corpus_line(tweet_id="new")] + lines[3:], ":3: "),
        (lambda lines: lines[:2] + [corpus_line(tweet_id="2", when="2020-03-02T00:00:00Z")]
         + lines[3:], ":3: "),
        (lambda lines: [corpus_line(tweet_id="new")] + lines, ":1: "),
        (lambda lines: lines[:4], ": "),
    ], ids=["other-id", "other-day", "inserted", "truncated"])
    def test_corpus_changed_between_passes(self, tmp_path, monkeypatch, capsys, edit, where):
        corpus_path = tmp_path / "corpus.jsonl"
        lines = [corpus_line(tweet_id=str(i)) for i in range(6)]
        write_lines(corpus_path, lines)
        keywords = tmp_path / "kw.txt"
        keywords.write_text("china\n", encoding="utf-8")
        sample_daily = ingest.sample_daily

        def edit_then_sample(*args):
            write_lines(corpus_path, edit(lines))
            return sample_daily(*args)

        monkeypatch.setattr(ingest, "sample_daily", edit_then_sample)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "kept.jsonl"
        assert main(ingest_argv(corpus_path, keywords, out)) == 1
        err = capsys.readouterr().err
        assert f"{corpus_path}{where}corpus changed during ingest" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @staticmethod
    def _fifo_feeding(tmp_path, data):
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        return fifo, writer

    def test_corpus_from_a_pipe(self, tmp_path, small_corpus):
        corpus_path, keywords = small_corpus
        fifo, writer = self._fifo_feeding(tmp_path, corpus_path.read_bytes())
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        extra = ["--sample-rate", "0.5", "--seed", "4"]
        assert main(ingest_argv(fifo, keywords, out_dir / "piped.jsonl", *extra)) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert main(ingest_argv(corpus_path, keywords, out_dir / "file.jsonl", *extra)) == 0
        assert (out_dir / "piped.jsonl").read_bytes() == (out_dir / "file.jsonl").read_bytes()
        piped_meta = json.loads(Path(f"{out_dir / 'piped.jsonl'}.meta.json").read_text())
        file_meta = json.loads(Path(f"{out_dir / 'file.jsonl'}.meta.json").read_text())
        assert piped_meta["counts"] == file_meta["counts"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "file.jsonl", "file.jsonl.meta.json", "piped.jsonl", "piped.jsonl.meta.json"]

    def test_bad_line_in_a_pipe_names_the_pipe(self, tmp_path, small_corpus, capsys):
        corpus_path, keywords = small_corpus
        fifo, writer = self._fifo_feeding(tmp_path, corpus_path.read_bytes() + b"{oops\n")
        bad_lineno = corpus_path.read_bytes().count(b"\n") + 1
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(ingest_argv(fifo, keywords, out_dir / "kept.jsonl")) == 1
        writer.join(timeout=10)
        assert not writer.is_alive()
        err = capsys.readouterr().err
        assert f"{fifo}:{bad_lineno}: malformed JSON" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_corpus_that_is_a_directory(self, tmp_path, small_corpus, capsys):
        _, keywords = small_corpus
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(ingest_argv(tmp_path, keywords, out_dir / "kept.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_non_utf8_corpus_names_path_and_line(self, tmp_path, small_corpus, capsys):
        corpus_path, keywords = small_corpus
        good = corpus_path.read_bytes()
        corpus_path.write_bytes(good + b'{"id": "x", "text": "caf\xe9"}\n')
        bad_lineno = good.count(b"\n") + 1
        assert main(ingest_argv(corpus_path, keywords, tmp_path / "kept.jsonl")) == 1
        err = capsys.readouterr().err
        assert f"{corpus_path}:{bad_lineno}: not valid UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "kept.jsonl").exists()

    def test_non_utf8_keywords_names_path(self, tmp_path, small_corpus, capsys):
        corpus_path, keywords = small_corpus
        keywords.write_bytes(b"china\n\xff\xfe\n")
        assert main(ingest_argv(corpus_path, keywords, tmp_path / "kept.jsonl")) == 1
        err = capsys.readouterr().err
        assert f"{keywords}:2: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_group_tags_not_an_array_names_corpus_and_line(self, tmp_path, small_corpus, capsys):
        corpus_path, keywords = small_corpus
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(corpus_line(tweet_id="6", when="2020-01-27T09:00:00Z",
                                 group_tags=False) + "\n")
        assert main(ingest_argv(corpus_path, keywords, tmp_path / "kept.jsonl")) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}:6: expected array of strings for: 'group_tags'\n")
        assert not (tmp_path / "kept.jsonl").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--keywords", "keyword file {} contains no keywords"),
        ("--accounts", "account file {} contains no accounts"),
    ])
    def test_empty_keyword_or_account_file_exits_one(self, tmp_path, small_corpus, capsys, flag,
                                                       message):
        corpus_path, keywords = small_corpus
        empty, accounts = tmp_path / "empty.txt", tmp_path / "accounts.txt"
        empty.write_text("\n  \n", encoding="utf-8")  # blank lines only
        accounts.write_text("alice\n", encoding="utf-8")
        inputs = {"--keywords": keywords, "--accounts": accounts, flag: empty}
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(ingest_argv(corpus_path, inputs["--keywords"], out_dir / "kept.jsonl",
                                "--accounts", str(inputs["--accounts"]))) == 1
        assert capsys.readouterr().err == f"error: {message.format(empty)}\n"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("extra, message", [
        (["--sample-rate", "1.5"], "sample_rate"),
        (["--date-start", "2020-05-01", "--date-end", "2020-04-01"], "date_start"),
    ])
    def test_bad_settings_exit_one(self, tmp_path, small_corpus, capsys, extra, message):
        corpus_path, keywords = small_corpus
        assert main(ingest_argv(corpus_path, keywords, tmp_path / "kept.jsonl", *extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestAdjudicateAndStats:
    def test_adjudicate_then_stats(self, tmp_path):
        annotations = synth.make_annotation_records(30, seed=5)
        ann_path = tmp_path / "annotations.jsonl"
        synth.write_jsonl(ann_path, annotations)
        dataset = tmp_path / "dataset.jsonl"
        assert main(["adjudicate", "--annotations", str(ann_path), "--out", str(dataset)]) == 0
        examples = corpus.read_dataset(dataset)
        assert examples

        table = tmp_path / "table1.csv"
        assert main(["stats-dataset", "--dataset", str(dataset), "--out", str(table)]) == 0
        rows = list(csv.DictReader(table.open()))
        aspects = {r["aspect"] for r in rows}
        assert aspects == {a.value for a in corpus.TABLE_ASPECTS}
        # counts recomputed from the dataset must agree with the CSV
        politics_rows = [r for r in rows if r["aspect"] == "Politics"]
        expected = sum(1 for e in examples if corpus.Aspect.POLITICS in e.labels)
        assert all(int(r["count_aspect"]) == expected for r in politics_rows)

    def test_adjudicate_meta_counts(self, tmp_path):
        annotations = synth.make_annotation_records(60, seed=5) + [  # no overall majority
            {"tweet_id": "split-vote", "annotator_id": who, "overall": overall}
            for who, overall in (("a1", "Negative"), ("a2", "Neutral"), ("a3", None))]
        ann_path, dataset = tmp_path / "annotations.jsonl", tmp_path / "dataset.jsonl"
        synth.write_jsonl(ann_path, annotations)
        assert main(["adjudicate", "--annotations", str(ann_path), "--out", str(dataset)]) == 0
        counts = json.loads(Path(f"{dataset}.meta.json").read_text())["counts"]
        lines = [json.loads(line) for line in dataset.read_text().splitlines()]
        assert counts["tweets"] == len({a["tweet_id"] for a in annotations})
        assert counts["phase_1"] + counts["phase_2"] + counts["discarded"] == counts["tweets"]
        assert counts["phase_1"] + counts["phase_2"] == len(lines)
        for phase in ("phase_1", "phase_2"):
            assert counts[phase] == sum(r["provenance"] == phase.replace("_", "-") for r in lines)
        assert min(counts.values()) > 0  # the fixture exercises every outcome

    def test_split_sizes(self, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        synth.write_jsonl(dataset, synth.make_dataset_records(50, seed=2))
        out_dir = tmp_path / "splits"
        assert main(["split", "--dataset", str(dataset), "--out-dir", str(out_dir),
                     "--seed", "3"]) == 0
        sizes = [len(corpus.read_dataset(out_dir / f"{p}.jsonl")) for p in ("train", "dev", "test")]
        assert sum(sizes) == 50
        assert abs(sizes[0] - 40) <= 1

    def test_adjudicate_attaches_tweets_from_corpus(self, tmp_path):
        dataset_records = synth.make_dataset_records(10, seed=9)
        tweets_path = tmp_path / "tweets.jsonl"
        synth.write_jsonl(tweets_path, [r["tweet"] for r in dataset_records])
        ann_path = tmp_path / "annotations.jsonl"
        synth.write_jsonl(ann_path, [
            {"tweet_id": r["tweet_id"], "annotator_id": who,
             "labels": r["labels"], "overall": r["overall"]}
            for r in dataset_records for who in ("a1", "a2")
        ])
        out = tmp_path / "dataset.jsonl"
        assert main(["adjudicate", "--annotations", str(ann_path),
                     "--tweets", str(tweets_path), "--out", str(out)]) == 0
        examples = corpus.read_dataset(out)
        assert all(e.tweet is not None for e in examples)
        assert all(e.tweet.text for e in examples)

    def test_tweets_memory_per_unannotated_tweet(self, tmp_path):
        # Holding every --tweets record as a RawTweet grows the peak by about
        # 700 B a tweet here; its id in the duplicate check takes about 135.
        dataset_records = synth.make_dataset_records(50, seed=9)
        ann_path = tmp_path / "annotations.jsonl"
        synth.write_jsonl(ann_path, [
            {"tweet_id": r["tweet_id"], "annotator_id": who,
             "labels": r["labels"], "overall": r["overall"]}
            for r in dataset_records for who in ("a1", "a2")
        ])

        def peak(n):
            tweets_path = tmp_path / f"tweets{n}.jsonl"
            write_lines(tweets_path, [json.dumps(r["tweet"]) for r in dataset_records] + [
                corpus_line(tweet_id=f"{1220000000000000000 + i}",
                            when=f"2020-02-{1 + i % 28:02d}T10:00:00Z",
                            text=f"china lockdown policy update number {i}",
                            user_name=f"user_{i % 97}")
                for i in range(n)])
            tracemalloc.start()
            try:
                assert main(["adjudicate", "--annotations", str(ann_path), "--tweets",
                             str(tweets_path), "--out", str(tmp_path / "dataset.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2000
        peak(n)  # warm lazy imports and caches
        assert (peak(4 * n) - peak(n)) / (3 * n) <= 200

    def test_split_too_small_exits_one(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        synth.write_jsonl(dataset, synth.make_dataset_records(5, seed=2))
        assert main(["split", "--dataset", str(dataset),
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert "too small" in capsys.readouterr().err


@pytest.fixture
def trained_params(tmp_path):
    dataset = tmp_path / "labels.jsonl"
    synth.write_jsonl(dataset, synth.make_dataset_records(120, seed=11))
    splits = tmp_path / "splits"
    main(["split", "--dataset", str(dataset), "--out-dir", str(splits), "--seed", "1"])
    params = tmp_path / "params.json"
    code = main([
        "train", "--train", str(splits / "train.jsonl"), "--dev", str(splits / "dev.jsonl"),
        "--params-out", str(params), "--epochs", "6", "--dim", "1024", "--train-seed", "4",
    ])
    assert code == 0
    return params, splits


class TestTrainEvalInfer:
    def test_eval_report_shape(self, tmp_path, trained_params):
        params, splits = trained_params
        out = tmp_path / "report.csv"
        assert main(["eval", "--params", str(params), "--dataset", str(splits / "test.jsonl"),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["aspect"] for r in rows] == [
            "Politics", "Foreign", "Situation", "Measures", "Racism", "Overall",
        ]
        for r in rows:
            for col in ("aspect_macro_f1", "aspect_micro_f1",
                        "sentiment_macro_f1", "sentiment_micro_f1"):
                assert 0.0 <= float(r[col]) <= 1.0

    def test_infer_matches_forward_oracle(self, tmp_path, trained_params):
        params_path, _ = trained_params
        fixture = tmp_path / "three.jsonl"
        write_lines(fixture, [
            corpus_line(tweet_id="a", when="2020-02-01T00:00:00Z",
                        text="china government policy awful"),
            corpus_line(tweet_id="b", when="2020-02-01T01:00:00Z",
                        text="china lockdown masks effective"),
            corpus_line(tweet_id="c", when="2020-02-02T00:00:00Z", text="china cases update"),
        ])
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params_path), "--corpus", str(fixture),
                     "--out", str(out)]) == 0
        bundle = model.load_params(params_path)
        provider = providers(bundle.provider_config)[1]
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [o["id"] for o in lines] == ["a", "b", "c"]
        texts = ["china government policy awful", "china lockdown masks effective",
                 "china cases update"]
        p = model.probabilities(provider.embed(texts), bundle.params)  # [p_a | p_y]
        for i, obj in enumerate(lines):
            for j, aspect in enumerate(corpus.A_USED):
                assert obj["aspect_probs"][aspect.value] == pytest.approx(p[i, j], abs=1e-12)
            detected = {a for a, p in obj["aspect_probs"].items() if p >= bundle.aspect_threshold}
            assert set(obj["detected"]) == detected
            assert set(obj["sentiment"]) == detected

    def test_train_meta_records_the_loss_curve(self, tmp_path, trained_params, monkeypatch):
        _, splits = trained_params
        argv = ["train", "--train", str(splits / "train.jsonl"), "--dev", str(splits / "dev.jsonl"),
                "--epochs", "4", "--dim", "1024", "--train-seed", "4", "--params-out"]
        assert main(argv + [str(tmp_path / "a.json")]) == 0
        loss = json.loads((tmp_path / "a.json.meta.json").read_text())["train_loss"]
        assert len(loss) == 4 and all(isinstance(x, float) and x > 0 for x in loss)
        # observing the epochs changes nothing the run writes besides its meta
        unobserved = model.train
        monkeypatch.setattr(model, "train",
                            lambda *a, epoch_callback=None, **kw: unobserved(*a, **kw))
        assert main(argv + [str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_svm_objective_trains(self, tmp_path, trained_params):
        _, splits = trained_params
        params = tmp_path / "svm.json"
        assert main(["train", "--train", str(splits / "train.jsonl"),
                     "--params-out", str(params), "--objective", "hinge",
                     "--epochs", "5"]) == 0
        bundle = model.load_params(params)
        assert bundle.objective == "hinge"

    def test_augment_candidates(self, tmp_path, trained_params):
        params, _ = trained_params
        pool = tmp_path / "pool.jsonl"
        records = synth.make_corpus_records(80, seed=21, non_english_fraction=0.0,
                                            offtopic_fraction=0.0)
        synth.write_jsonl(pool, records)
        out = tmp_path / "candidates.jsonl"
        assert main(["augment-candidates", "--params", str(params), "--pool", str(pool),
                     "--out", str(out), "--threshold", "0.6", "--cap", "10"]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        for row in rows:
            assert row["probability"] >= 0.6
        per_aspect = {}
        for row in rows:
            per_aspect.setdefault(row["aspect"], []).append(row["probability"])
        for probs in per_aspect.values():
            assert len(probs) <= 10
            assert probs == sorted(probs, reverse=True)


def _zero_bundle(**provider) -> model.ModelBundle:
    """Zero heads over a 1024-wide hashed provider with `provider` settings on top."""
    k, dim = len(corpus.A_USED), 1024
    return model.ModelBundle(
        model.HeadParams(np.zeros((k, dim)), np.zeros(k), np.zeros((k, dim)), np.zeros(k)),
        {"kind": "native-hashed", "dim": dim, **provider})


def _as_corpus(dataset_path, corpus_path):
    """The tweets of a labeled dataset file, as a corpus file in the same order."""
    lines = Path(dataset_path).read_text(encoding="utf-8").splitlines()
    synth.write_jsonl(corpus_path, [json.loads(line)["tweet"] for line in lines])


def test_infer_rejects_an_edited_provider_object(tmp_path, trained_params, capsys):
    # the provider object no longer matches the provider_fingerprint written with it
    params, _ = trained_params
    doc = json.loads(params.read_text(encoding="utf-8"))
    assert doc["provider"]["hash_seed"] == 0
    doc["provider"]["hash_seed"] = 99
    params.write_text(json.dumps(doc), encoding="utf-8")
    corpus_path, out_dir = tmp_path / "corpus.jsonl", tmp_path / "out"
    synth.write_jsonl(corpus_path, synth.make_corpus_records(10, seed=5))
    out_dir.mkdir()
    assert main(["infer", "--params", str(params), "--corpus", str(corpus_path),
                 "--out", str(out_dir / "pred.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"bad parameter file {params}: provider_fingerprint" in err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []  # no output, no temp file


class TestOneThresholdRule:
    """`eval` and `infer` label a probability by the same `>=` comparison."""

    def test_probability_at_threshold_is_detected_and_negative(self, tmp_path):
        # zero heads give p = 0.5 exactly, on the 0.5 thresholds
        params, dataset, corpus_path = (tmp_path / n for n in ("p.json", "d.jsonl", "c.jsonl"))
        model.save_params(params, _zero_bundle())
        synth.write_jsonl(dataset, synth.make_dataset_records(30, seed=3))
        _as_corpus(dataset, corpus_path)
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params), "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        names = [a.value for a in corpus.A_USED]
        for line in out.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            assert obj["aspect_probs"] == dict.fromkeys(names, 0.5)
            assert obj["detected"] == names
            assert obj["sentiment"] == {a: {"label": "Negative", "p_negative": 0.5}
                                        for a in names}
        assert main(["eval", "--params", str(params), "--dataset", str(dataset),
                     "--out", str(tmp_path / "eval.csv")]) == 0
        gold = corpus.labeled_set(corpus.read_dataset(dataset))
        gold_a, gold_y = gold.aspects, gold.negative
        everything = np.ones(gold_a.shape, dtype=bool)
        files.write_csv(tmp_path / "expected.csv", *evaluation.report_table({
            "aspect": evaluation.evaluate(everything, gold_a),
            "sentiment": evaluation.evaluate(everything, gold_y, gold_a),
        }))
        assert (tmp_path / "eval.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_infer_detections_score_as_eval_does(self, tmp_path, trained_params):
        params, splits = trained_params
        test_split, corpus_path = splits / "test.jsonl", tmp_path / "test_corpus.jsonl"
        _as_corpus(test_split, corpus_path)
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params), "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        assert main(["eval", "--params", str(params), "--dataset", str(test_split),
                     "--out", str(tmp_path / "eval.csv")]) == 0
        pred = np.array([[a.value in json.loads(line)["detected"] for a in corpus.A_USED]
                         for line in out.read_text(encoding="utf-8").splitlines()])
        gold = corpus.labeled_set(corpus.read_dataset(test_split)).aspects
        assert pred.any() and not pred.all()
        report = evaluation.evaluate(pred, gold)
        rows = list(csv.DictReader((tmp_path / "eval.csv").open(encoding="utf-8")))
        assert [r["aspect"] for r in rows] == list(report)
        for r in rows:
            m = report[r["aspect"]]
            assert (r["aspect_macro_f1"], r["aspect_micro_f1"]) == (f"{m.macro_f1:.4f}",
                                                                    f"{m.micro_f1:.4f}")


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", 4)
    return 4


class TestStreamingInfer:
    def test_chunked_lines_equal_one_tweet_predictions(self, tmp_path, trained_params,
                                                        small_chunks):
        params_path, _ = trained_params
        records = synth.make_corpus_records(3 * small_chunks + 2, seed=5)
        records[1]["text"] = ""  # a row with no features
        corpus_path = tmp_path / "corpus.jsonl"
        synth.write_jsonl(corpus_path, records)
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params_path), "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        bundle = model.load_params(params_path)
        provider = providers(bundle.provider_config)[1]
        config = model.TrainConfig(aspect_threshold=bundle.aspect_threshold,
                                   sentiment_threshold=bundle.sentiment_threshold)
        expected = [
            json.dumps(cli._prediction_to_obj(
                t, *(a.tolist()[0] for a in model.predict_batch([t.text], provider,
                                                               bundle.params, config))),
                ensure_ascii=False)
            for t in ingest.iter_corpus(corpus_path)
        ]
        assert out.read_text(encoding="utf-8").splitlines() == expected

    def test_meta_counts_equal_the_predictions_file(self, tmp_path, trained_params,
                                                    monkeypatch):
        params_path, _ = trained_params
        corpus_path = tmp_path / "corpus.jsonl"
        synth.write_jsonl(corpus_path, synth.make_corpus_records(30, seed=5))
        runs = []
        for chunk in (1024, 4):  # counts summed over one chunk, then over eight
            monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", chunk)
            out = tmp_path / f"pred{chunk}.jsonl"
            assert main(["infer", "--params", str(params_path), "--corpus", str(corpus_path),
                         "--out", str(out)]) == 0
            counts = json.loads((tmp_path / f"pred{chunk}.jsonl.meta.json").read_text())["counts"]
            runs.append((out.read_bytes(), counts))
        records = [json.loads(line) for line in runs[0][0].decode().splitlines()]
        expected = {"rows": len(records), "detected": {
            a.value: sum(a.value in r["detected"] for r in records) for a in corpus.A_USED}}
        assert expected["rows"] == 30 and sum(expected["detected"].values()) > 0
        assert runs[0] == runs[1]
        assert runs[0][1] == expected

    def test_peak_memory_flat_in_corpus_size(self, tmp_path, trained_params, monkeypatch):
        # Holding every row of 4x the chunk as a dense 1024-wide matrix would
        # add 1.5 MB over 1x; streamed sparse rows add next to nothing.
        chunk = 64
        monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", chunk)
        params_path, _ = trained_params

        def peak(n):
            corpus_path = tmp_path / f"corpus{n}.jsonl"
            synth.write_jsonl(corpus_path, synth.make_corpus_records(n, seed=5))
            tracemalloc.start()
            try:
                assert main(["infer", "--params", str(params_path), "--corpus",
                             str(corpus_path), "--out", str(tmp_path / "pred.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(chunk)  # warm lazy imports and caches
        assert peak(4 * chunk) - peak(chunk) < 256 * 1024

    def test_forked_parent_memory_flat_in_corpus_size(self, tmp_path, trained_params,
                                                      monkeypatch):
        # Ranges of 16 KiB in two workers: the parent holds one range's lines at
        # a time. Holding every range's would add about 600 KB from 1x to 4x.
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 16 * 1024)
        monkeypatch.setattr(ingest, "_cpus", lambda: 2)
        params_path, _ = trained_params

        def peak(n):
            corpus_path = tmp_path / f"corpus{n}.jsonl"
            synth.write_jsonl(corpus_path, synth.make_corpus_records(n, seed=5))
            tracemalloc.start()
            try:
                assert main(["infer", "--params", str(params_path), "--corpus",
                             str(corpus_path), "--out", str(tmp_path / "pred.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 512
        peak(n)  # warm lazy imports and caches
        assert peak(4 * n) - peak(n) < 128 * 1024

    @pytest.mark.parametrize("previous", [None, "earlier predictions\n"])
    def test_bad_line_past_first_chunk_leaves_no_partial_output(
        self, tmp_path, trained_params, small_chunks, capsys, previous
    ):
        params_path, _ = trained_params
        lines = [json.dumps(r) for r in synth.make_corpus_records(3 * small_chunks, seed=5)]
        bad_lineno = 2 * small_chunks + 2  # two chunks are written before it is read
        lines.insert(bad_lineno - 1, '{"id": "broken"')
        corpus_path = tmp_path / "corpus.jsonl"
        write_lines(corpus_path, lines)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "pred.jsonl"
        if previous is not None:
            out.write_text(previous, encoding="utf-8")
        assert main(["infer", "--params", str(params_path), "--corpus", str(corpus_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{corpus_path}:{bad_lineno}:" in err
        assert "Traceback" not in err
        if previous is None:
            assert not out.exists()
            assert list(out_dir.iterdir()) == []
        else:
            assert out.read_text(encoding="utf-8") == previous
            assert [p.name for p in out_dir.iterdir()] == ["pred.jsonl"]

    def test_augment_candidates_independent_of_chunking(self, tmp_path, trained_params,
                                                        monkeypatch):
        params_path, _ = trained_params
        pool = tmp_path / "pool.jsonl"
        synth.write_jsonl(pool, synth.make_corpus_records(
            60, seed=21, non_english_fraction=0.0, offtopic_fraction=0.0))
        outputs = []
        for chunk in (1024, 7):
            monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", chunk)
            out = tmp_path / f"candidates{chunk}.jsonl"
            assert main(["augment-candidates", "--params", str(params_path), "--pool", str(pool),
                         "--out", str(out), "--threshold", "0.5", "--cap", "4"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", [["--threshold", "1.5"], ["--cap", "0"]])
    def test_augment_candidates_bad_settings_exit_one(self, tmp_path, trained_params,
                                                       capsys, flags):
        params_path, _ = trained_params
        pool = tmp_path / "pool.jsonl"
        synth.write_jsonl(pool, synth.make_corpus_records(3, seed=21))
        assert main(["augment-candidates", "--params", str(params_path), "--pool", str(pool),
                     "--out", str(tmp_path / "c.jsonl")] + flags) == 1
        err = capsys.readouterr().err
        assert err == "error: augment-candidates needs 0 < threshold < 1 and cap >= 1\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_augment_candidates_checks_settings_before_reading_the_pool(
            self, tmp_path, trained_params, capsys):
        params_path, _ = trained_params
        assert main(["augment-candidates", "--params", str(params_path),
                     "--pool", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "c.jsonl"),
                     "--cap", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: augment-candidates needs 0 < threshold < 1 and cap >= 1\n"


class Row(NamedTuple):
    """A prediction, as `_write_predictions` writes it."""

    id: str
    day: date
    detected: frozenset
    negatives: frozenset
    group_tags: frozenset = frozenset()
    bot_flag: bool | None = None


def _write_predictions(path, rows):
    objs = []
    for r in rows:
        objs.append(json.dumps({
            "id": r.id,
            "date": r.day.isoformat(),
            "aspect_probs": {},
            "detected": sorted(r.detected),
            "sentiment": {a: {"label": "Negative", "p_negative": 0.9} for a in sorted(r.negatives)},
            "group_tags": sorted(r.group_tags),
            "bot_flag": r.bot_flag,
        }))
    write_lines(path, objs)


def _prediction_rows():
    rows = []
    for i in range(40):
        day = date(2020, 3, 1 + i % 10)
        detected = {"Politics"} if i % 2 == 0 else {"Measures"}
        negatives = {"Politics"} if i % 4 == 0 else set()
        rows.append(Row(
            id=f"p{i}", day=day, detected=frozenset(detected),
            negatives=frozenset(negatives & detected),
            group_tags=frozenset({"us_media"} if i % 5 == 0 else set()),
            bot_flag=(i % 3 == 0),
        ))
    return rows


class TestSeriesAndGranger:
    def test_series_single_csv(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        out = tmp_path / "count.csv"
        assert main(["series", "--predictions", str(pred_path), "--select", "count",
                     "--out", str(out)]) == 0
        series = stats.read_series_csv(out)
        assert len(series) == 10
        assert sum(v for v in series.values if v) == 40

    def test_series_wide_csv(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        out = tmp_path / "wide.csv"
        assert main(["series", "--predictions", str(pred_path),
                     "--select", "count", "--select", "aspect:Politics",
                     "--select", "negative:Politics",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["date", "count", "aspect:Politics", "negative:Politics"]
        assert len(rows) == 11

    def test_series_smoothing_flag(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        raw_out = tmp_path / "raw.csv"
        smooth_out = tmp_path / "smooth.csv"
        main(["series", "--predictions", str(pred_path), "--select", "count",
              "--out", str(raw_out)])
        main(["series", "--predictions", str(pred_path), "--select", "count",
              "--smooth-window", "7", "--out", str(smooth_out)])
        raw = stats.read_series_csv(raw_out)
        smooth = stats.read_series_csv(smooth_out)
        expected = stats.smooth_ma(raw, 7)
        assert smooth.values == pytest.approx(expected.values)

    def test_granger_csv_both_directions(self, tmp_path):
        rng = np.random.default_rng(5)
        x_vals = list(rng.normal(0, 1, size=60))
        y_vals = [0.0] + [0.8 * x_vals[i - 1] + float(rng.normal(0, 0.2)) for i in range(1, 60)]
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_figure({"value": DailySeries(D0, x_vals)}, x_path)
        write_figure({"value": DailySeries(D0, y_vals)}, y_path)
        out = tmp_path / "granger.csv"
        assert main(["granger", "--x", str(x_path), "--y", str(y_path), "--lag", "1",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["cause"], r["effect"]) for r in rows] == [("x", "y"), ("y", "x")]
        expected = stats.granger_test(DailySeries(D0, x_vals), DailySeries(D0, y_vals))
        assert float(rows[0]["F"]) == pytest.approx(expected.f_stat, rel=1e-12)
        assert float(rows[0]["p"]) == pytest.approx(expected.p_value, rel=1e-12)
        assert int(rows[0]["n_used"]) == expected.n_used

    @pytest.mark.parametrize("x_vals, y_vals, tested", [
        # x misses day 3, which leaves y -> x 4 complete days, one short of lag + 4
        ([1.0, 3.0, 2.0, np.nan, 4.0, 1.0, 2.0], [2.0, 1.0, 3.5, 2.0, 1.5, 4.5, 1.0], "x"),
        # y_t = 2 x_{t-1}: x -> y fits exactly
        ([1.0, 3.0, 2.0, 5.0, 4.0, 1.0, 2.0, 6.0], [0.0, 2.0, 6.0, 4.0, 10.0, 8.0, 2.0, 4.0], "y"),
        # a constant series makes both designs singular
        ([1.0] * 8, [2.0, 1.0, 3.5, 2.0, 1.5, 4.5, 1.0, 3.0], None),
    ], ids=["missing-day", "exact-fit", "constant"])
    def test_granger_untestable_direction_is_a_blank_row(self, tmp_path, capsys, x_vals, y_vals,
                                                         tested):
        x, y = DailySeries(D0, x_vals), DailySeries(D0, y_vals)
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_figure({"value": x}, x_path)
        write_figure({"value": y}, y_path)
        out = tmp_path / "granger.csv"
        assert main(["granger", "--x", str(x_path), "--y", str(y_path), "--lag", "1",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        assert [(r["cause"], r["effect"]) for r in rows] == [("x", "y"), ("y", "x")]
        for row, cause, effect in zip(rows, (x, y), (y, x)):
            cells = [row["lag"], row["n_used"], row["F"], row["p"]]
            direction = f"granger: {row['cause']} -> {row['effect']}: "
            if row["cause"] == tested:
                r = stats.granger_test(cause, effect, lag=1)
                assert cells == ["1", str(r.n_used), repr(r.f_stat), repr(r.p_value)]
                assert f"{direction}F={r.f_stat:.4f} p={r.p_value:.4f}\n" in printed
            else:
                with pytest.raises(stats.UntestableError):
                    stats.granger_test(cause, effect, lag=1)
                assert cells == ["1", "", "", ""]
                assert f"{direction}not tested\n" in printed

    def test_granger_misaligned_series_exit_one_without_output(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_figure({"value": DailySeries(D0, [1.0, 3.0, 2.0, 5.0, 4.0, 1.0, 2.0])}, x_path)
        write_figure({"value": DailySeries(D0 + timedelta(days=1),
                                           [2.0, 1.0, 3.5, 2.0, 1.5, 4.5, 1.0])}, y_path)
        assert main(["granger", "--x", str(x_path), "--y", str(y_path),
                     "--out", str(tmp_path / "granger.csv")]) == 1
        assert "series are not aligned on the same dates" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "y.csv"]

    @pytest.mark.parametrize("row, message", [
        ("2020-03-02,abc", "non-numeric value 'abc'"),
        ("2020-03-02,inf", "non-finite value 'inf'"),
        ("2020-03-02,-inf", "non-finite value '-inf'"),
        ("2020-03-02,nan", "non-finite value 'nan'"),
        ("2020-02-30,1.0", "bad date '2020-02-30'"),
    ])
    def test_granger_bad_series_cell_exits_one(self, tmp_path, capsys, row, message):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        x_path.write_text(f"date,value\n2020-03-01,1.0\n{row}\n2020-03-03,2.0\n",
                          encoding="utf-8")
        write_figure({"value": DailySeries(D0, [1.0, 2.0, 3.0])}, y_path)
        assert main(["granger", "--x", str(x_path), "--y", str(y_path),
                     "--out", str(tmp_path / "granger.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{x_path}:3: {message}" in err
        assert "Traceback" not in err

    def test_compare_groups_csv(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        out = tmp_path / "compare.csv"
        assert main(["compare-groups", "--predictions", str(pred_path),
                     "--group-a", "bots", "--group-b", "users",
                     "--mode", "aspect-proportion", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["aspect"] for r in rows] == [
            "Politics", "Foreign", "Situation", "Measures", "Racism",
        ]
        loaded, written = read_prediction_rows(pred_path), _prediction_rows()
        expected = stats.group_compare(
            loaded, np.array([r.bot_flag is True for r in written]),
            np.array([r.bot_flag is False for r in written]), "aspect-proportion",
        )
        got_politics = next(r for r in rows if r["aspect"] == "Politics")
        assert float(got_politics["t"]) == pytest.approx(expected["Politics"].t_stat, rel=1e-12)

    def test_group_selector_tag(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        out = tmp_path / "compare.csv"
        assert main(["compare-groups", "--predictions", str(pred_path),
                     "--group-a", "tag:us_media", "--group-b", "all",
                     "--mode", "sentiment-mean", "--out", str(out)]) == 0

    def test_unknown_selector_is_named_before_the_predictions_are_read(self, tmp_path, capsys):
        assert main(["compare-groups", "--predictions", str(tmp_path / "missing.jsonl"),
                     "--group-a", "users", "--group-b", "bogus", "--mode", "aspect-proportion",
                     "--out", str(tmp_path / "compare.csv")]) == 1
        assert capsys.readouterr().err == ("error: unknown group selector 'bogus' "
                                           "(use all, bots, users, or tag:<name>)\n")
        assert list(tmp_path.iterdir()) == []


def _many_predictions(path, n):
    """n prediction records over the same 60 days and the same six groups."""
    _write_predictions(path, [
        Row(id=f"p{i}", day=D0 + timedelta(days=i % 60),
            detected=frozenset({"Politics", "Overall"} if i % 2 else {"Measures"}),
            negatives=frozenset({"Politics"} if i % 4 == 1 else ()),
            group_tags=frozenset({"us_media"} if i % 5 == 0 else ()),
            bot_flag=(True, False, None)[i % 3])
        for i in range(n)])


class TestStatsMemory:
    """The stats stages hold a predictions file as columns, so going from N to
    4N rows grows the peak by tens of bytes a row; one object per record took
    about a kilobyte."""

    N = 3000

    def _growth(self, tmp_path, run) -> float:
        """Peak traced memory of `run(predictions path)`, per row added from N to 4N."""
        def peak(n):
            path = tmp_path / f"pred{n}.jsonl"
            _many_predictions(path, n)
            tracemalloc.start()
            try:
                run(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(self.N)  # warm lazy imports and caches
        return (peak(4 * self.N) - peak(self.N)) / (3 * self.N)

    def test_read_prediction_rows(self, tmp_path):
        assert self._growth(tmp_path, read_prediction_rows) <= 32

    def test_series_with_two_selections(self, tmp_path):
        def series(path):
            assert main(["series", "--predictions", str(path), "--select", "count",
                         "--select", "negative:Politics", "--out", str(tmp_path / "s.csv")]) == 0

        assert self._growth(tmp_path, series) <= 64

    def test_compare_groups_sentiment_mean(self, tmp_path):
        def compare(path):
            assert main(["compare-groups", "--predictions", str(path), "--group-a", "users",
                         "--group-b", "all", "--mode", "sentiment-mean",
                         "--out", str(tmp_path / "c.csv")]) == 0

        assert self._growth(tmp_path, compare) <= 64


class TestEmitFigureData:
    def test_constant_series(self, tmp_path):
        out = tmp_path / "fig.csv"
        write_figure({"flat": DailySeries(D0, [2.0, 2.0, 2.0])}, out)
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["date", "flat"]
        assert [r[1] for r in rows[1:]] == ["2.0", "2.0", "2.0"]

    def test_five_series_ten_days(self, tmp_path):
        series = {
            f"s{i}": DailySeries(D0, [float(i)] * 10) for i in range(5)
        }
        out = tmp_path / "fig.csv"
        write_figure(series, out)
        rows = list(csv.reader(out.open()))
        assert len(rows) == 11
        assert len(rows[0]) == 6

    def test_misaligned_rejected(self, tmp_path):
        series = {
            "a": DailySeries(D0, [1.0, 2.0]),
            "b": DailySeries(date(2020, 3, 2), [1.0, 2.0]),
        }
        with pytest.raises(PipelineError):
            write_figure(series, tmp_path / "fig.csv")


def _report_rows():
    """400 rows over 40 days; Foreign and Situation are never detected."""
    rng = np.random.default_rng(3)
    rows = []
    for i in range(400):
        day = D0 + timedelta(days=i % 40)
        detected = set()
        negatives = set()
        for aspect in ("Politics", "Measures", "Racism"):
            if rng.random() < 0.4:
                detected.add(aspect)
                if rng.random() < 0.5:
                    negatives.add(aspect)
        rows.append(Row(
            id=f"m{i}", day=day, detected=frozenset(detected),
            negatives=frozenset(negatives),
            bot_flag=bool(rng.random() < 0.3),
        ))
    return rows


def _full_report_config(d, trained_params) -> Path:
    """A report config in directory `d` whose section sets every key, so the
    report writes all nine tables."""
    params, splits = trained_params
    public = d / "public.jsonl"
    media = d / "media.jsonl"
    rows = _report_rows()
    _write_predictions(public, rows)
    _write_predictions(media, rows[::3])

    cfg = {
        "report": {
            "dataset": str(splits / "train.jsonl"),
            "params": str(params),
            "test": str(splits / "test.jsonl"),
            "predictions": str(public),
            "media_predictions": str(media),
            "group_a": "bots",
            "group_b": "users",
            "lag": 1,
            "smoothing_window": 7,
        }
    }
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


class TestReport:
    def test_full_bundle(self, tmp_path, trained_params, capsys):
        cfg_path = _full_report_config(tmp_path, trained_params)
        out_dir = tmp_path / "report"
        capsys.readouterr()
        assert main(["report", "-c", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        # nine tables, each a CSV and its .meta.json
        assert capsys.readouterr().out.splitlines()[-1] == f"report: wrote 9 tables to {out_dir}"
        names = {p.name for p in out_dir.iterdir()}
        assert len(names) == 18
        for expected in (
            "table1_dataset_stats.csv", "table2_model_performance.csv",
            "fig2_daily_counts.csv", "fig3_aspect_proportions.csv",
            "fig5_sentiment_proportions.csv", "table5_granger_aspects.csv",
            "table6_granger_sentiments.csv", "table7_group_aspects.csv",
            "table8_group_sentiments.csv",
        ):
            assert expected in names
            assert f"{expected}.meta.json" in names

    def test_report_without_config_fails(self, tmp_path):
        assert main(["report", "--out-dir", str(tmp_path / "r")]) == 1

    def test_partial_config_emits_what_it_can(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        _write_predictions(pred_path, _prediction_rows())
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"report": {"predictions": str(pred_path)}}),
                            encoding="utf-8")
        out_dir = tmp_path / "report"
        assert main(["report", "-c", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert "fig2_daily_counts.csv" in names
        assert "table5_granger_aspects.csv" not in names  # no media predictions
        assert "table1_dataset_stats.csv" not in names  # no dataset

    @pytest.mark.parametrize("section, message", [
        ({"dataset": "{d}/train.jsonl", "params": "{d}/params.json"},
         "report.params needs report.test, which is not set"),
        ({"dataset": "{d}/train.jsonl", "test": "{d}/train.jsonl"},
         "report.test needs report.params, which is not set"),
        ({"dataset": "{d}/train.jsonl", "predictions": "{d}/pred.jsonl", "group_a": "bots"},
         "report.group_a needs report.group_b, which is not set"),
        ({"predictions": "{d}/pred.jsonl", "group_b": "users"},
         "report.group_b needs report.group_a, which is not set"),
        ({"dataset": "{d}/train.jsonl", "group_a": "bots", "group_b": "users"},
         "report.group_a needs report.predictions, which is not set"),
        ({"dataset": "{d}/train.jsonl", "media_predictions": "{d}/pred.jsonl"},
         "report.media_predictions needs report.predictions, which is not set"),
        # a predictions file with no rows would skip every table that reads it
        ({"dataset": "{d}/train.jsonl", "predictions": "{d}/empty.jsonl", "group_a": "bots",
          "group_b": "users"}, "report.predictions: {d}/empty.jsonl has no prediction rows"),
        ({"dataset": "{d}/train.jsonl", "predictions": "{d}/pred.jsonl",
          "media_predictions": "{d}/empty.jsonl"},
         "report.media_predictions: {d}/empty.jsonl has no prediction rows"),
        # range checks come before any input is read
        ({"predictions": "{d}/pred.jsonl", "lag": 0}, "lag must be >= 1, got 0"),
        ({"predictions": "{d}/pred.jsonl", "smoothing_window": 2},
         "smoothing window must be odd and >= 1, got 2"),
        ({"predictions": "{d}/missing.jsonl", "lag": 0}, "lag must be >= 1, got 0"),
        ({"predictions": "{d}/missing.jsonl", "group_a": "bogus", "group_b": "users"},
         "unknown group selector 'bogus' (use all, bots, users, or tag:<name>)"),
    ], ids=["params-without-test", "test-without-params", "group-a-without-group-b",
            "group-b-without-group-a", "groups-without-predictions",
            "media-without-predictions", "empty-predictions", "empty-media-predictions",
            "lag-zero", "even-window", "lag-zero-before-a-missing-input",
            "unknown-selector-before-a-missing-input"])
    def test_half_set_pair_exits_one_naming_the_missing_key(self, tmp_path, capsys, section,
                                                             message):
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        _write_predictions(tmp_path / "pred.jsonl", _prediction_rows())
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        model.save_params(tmp_path / "params.json", _zero_bundle())
        (tmp_path / "config.json").write_text(json.dumps({"report": section}).replace(
            "{d}", str(tmp_path)), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["report", "-c", str(tmp_path / "config.json"),
                     "--out-dir", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n".replace("{d}", str(tmp_path))
        assert sorted(tmp_path.rglob("*")) == before  # not even the output directory

    @pytest.mark.parametrize("change, message", [
        ({"group_a": "bogus"},
         "unknown group selector 'bogus' (use all, bots, users, or tag:<name>)"),
        ({"group_a": "tag:nobody"}, "both comparison groups must be non-empty"),
        ({"params": "{d}/config.json"},
         "bad parameter file {d}/config.json: format_version: missing, expected a value"),
        ({"test": "{d}/missing.jsonl"}, "{d}/missing.jsonl: No such file or directory"),
    ], ids=["unknown-selector", "empty-group", "not-a-params-file", "missing-test-file"])
    def test_late_failure_writes_nothing(self, tmp_path, capsys, change, message):
        # every table builds before any is written, so a failing last one leaves no file
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        model.save_params(tmp_path / "params.json", _zero_bundle())
        rows = _report_rows()
        _write_predictions(tmp_path / "public.jsonl", rows)
        _write_predictions(tmp_path / "media.jsonl", rows[::3])
        section = {"dataset": "{d}/train.jsonl", "params": "{d}/params.json",
                   "test": "{d}/train.jsonl", "predictions": "{d}/public.jsonl",
                   "media_predictions": "{d}/media.jsonl", "group_a": "bots",
                   "group_b": "users", **change}
        (tmp_path / "config.json").write_text(json.dumps({"report": section}).replace(
            "{d}", str(tmp_path)), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["report", "-c", str(tmp_path / "config.json"),
                     "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n".replace("{d}", str(tmp_path))
        assert sorted(tmp_path.rglob("*")) == before  # not even the output directory

    DIRECTIONS = ("media->public", "public->media")

    @pytest.mark.parametrize("series_input", ["raw"])  # the one value left, written out
    @pytest.mark.parametrize("media_span", ["every-third-row", "first-two-days"])
    def test_tables_equal_the_stage_outputs(self, tmp_path, trained_params, series_input,
                                            media_span):
        params, splits = trained_params
        rows = _report_rows()
        media_rows = (rows[::3] if media_span == "every-third-row"
                      else [r for r in rows if r.day < D0 + timedelta(days=2)])
        public, media = tmp_path / "public.jsonl", tmp_path / "media.jsonl"
        _write_predictions(public, rows)
        _write_predictions(media, media_rows)
        window = 5
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"report": {
            "dataset": str(splits / "train.jsonl"), "params": str(params),
            "test": str(splits / "test.jsonl"), "predictions": str(public),
            "media_predictions": str(media), "lag": 1, "smoothing_window": window,
            "series_input": series_input, "group_a": "bots", "group_b": "users",
        }}), encoding="utf-8")
        out_dir = tmp_path / "report"
        assert main(["report", "-c", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        # README's Report files table names every file written and its header row
        listed = report_files()
        assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(listed)
        for name, columns in listed.items():
            with open(out_dir / name, encoding="utf-8", newline="") as fh:
                assert next(csv.reader(fh)) == columns, name

        table1, table2 = tmp_path / "table1.csv", tmp_path / "table2.csv"
        assert main(["stats-dataset", "--dataset", str(splits / "train.jsonl"),
                     "--out", str(table1)]) == 0
        assert main(["eval", "--params", str(params), "--dataset", str(splits / "test.jsonl"),
                     "--out", str(table2)]) == 0
        assert (out_dir / "table1_dataset_stats.csv").read_bytes() == table1.read_bytes()
        assert (out_dir / "table2_model_performance.csv").read_bytes() == table2.read_bytes()
        for mode, name in (("aspect-proportion", "table7_group_aspects.csv"),
                           ("sentiment-mean", "table8_group_sentiments.csv")):
            compared = tmp_path / name
            assert main(["compare-groups", "--predictions", str(public), "--group-a", "bots",
                         "--group-b", "users", "--mode", mode, "--out", str(compared)]) == 0
            assert (out_dir / name).read_bytes() == compared.read_bytes()

        public_rows, media_rows = read_prediction_rows(public), read_prediction_rows(media)
        days = public_rows.span() + media_rows.span()

        def expected(mode, aspect, direction):
            series = []
            for source in (media_rows, public_rows):
                series.append(stats.daily_series(source, mode, aspect=aspect, start=min(days),
                                                 end=max(days)))
            cause, effect = series if direction == "media->public" else series[::-1]
            try:
                r = stats.granger_test(cause, effect, lag=1)
            except stats.UntestableError:
                return ["1", "", "", ""]
            return ["1", str(r.n_used), repr(r.f_stat), repr(r.p_value)]

        def cells(row):
            return [row["lag"], row["n_used"], row["F"], row["p"]]

        with open(out_dir / "table5_granger_aspects.csv", encoding="utf-8") as fh:
            table5 = list(csv.DictReader(fh))
        assert [(r["aspect"], r["direction"]) for r in table5] == [
            (a.value, d) for a in corpus.A_USED for d in self.DIRECTIONS
        ]
        for r in table5:
            assert cells(r) == expected("aspect-proportion", r["aspect"], r["direction"])

        with open(out_dir / "table6_granger_sentiments.csv", encoding="utf-8") as fh:
            table6 = list(csv.DictReader(fh))
        assert [(r["aspect"], r["sentiment"], r["direction"]) for r in table6] == [
            (a.value, s, d) for a in corpus.A_USED for s in ("negative", "nonnegative")
            for d in self.DIRECTIONS
        ]
        for r in table6:
            mode = f"{r['sentiment']}-proportion"
            assert cells(r) == expected(mode, r["aspect"], r["direction"])

        blank = [r for r in table5 + table6 if r["n_used"] == ""]
        assert all(cells(r) == ["1", "", "", ""] for r in blank)
        if media_span == "first-two-days":  # too short for any test at lag 1
            assert len(blank) == len(table5) + len(table6)
        else:
            assert 0 < len(blank) < len(table5) + len(table6)


class _DeterministicEmbedHandler(BaseHTTPRequestHandler):
    """Vectors derived from text bytes only, so re-embedding is stable."""

    dim = 16

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        vecs = []
        for text in body["texts"]:
            rng = np.random.default_rng(abs(hash((text,))) % (2**32))
            vecs.append(list(rng.uniform(-1, 1, size=self.dim)))
        data = json.dumps({"dim": self.dim, "embeddings": vecs}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_service():
    server = HTTPServer(("127.0.0.1", 0), _DeterministicEmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestRemoteProviderIntegration:
    def test_train_eval_infer_with_remote_embeddings(self, tmp_path, embed_service):
        dataset = tmp_path / "labels.jsonl"
        synth.write_jsonl(dataset, synth.make_dataset_records(60, seed=17))
        splits = tmp_path / "splits"
        assert main(["split", "--dataset", str(dataset), "--out-dir", str(splits),
                     "--seed", "2"]) == 0
        params = tmp_path / "params.json"
        assert main(["train", "--train", str(splits / "train.jsonl"),
                     "--dev", str(splits / "dev.jsonl"),
                     "--params-out", str(params),
                     "--provider", "remote", "--endpoint", embed_service,
                     "--dim", "16", "--epochs", "3"]) == 0
        bundle = model.load_params(params)
        assert bundle.provider_config["kind"] == "remote"
        assert bundle.provider_config["endpoint"] == embed_service
        assert bundle.params.dim == 16

        report = tmp_path / "report.csv"
        assert main(["eval", "--params", str(params),
                     "--dataset", str(splits / "test.jsonl"),
                     "--out", str(report)]) == 0

        fixture = tmp_path / "three.jsonl"
        write_lines(fixture, [
            corpus_line(tweet_id="a", text="china policy"),
            corpus_line(tweet_id="b", text="china masks"),
            corpus_line(tweet_id="c", text="china cases"),
        ])
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params), "--corpus", str(fixture),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_endpoint_override_at_inference(self, tmp_path, embed_service):
        # params trained against one endpoint can be pointed at another
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()
        dataset = tmp_path / "labels.jsonl"
        synth.write_jsonl(dataset, synth.make_dataset_records(30, seed=19))
        params = tmp_path / "params.json"
        assert main(["train", "--train", str(dataset), "--params-out", str(params),
                     "--provider", "remote", "--endpoint", f"http://127.0.0.1:{dead_port}",
                     "--dim", "16", "--epochs", "0"]) == 1  # unreachable endpoint
        assert main(["train", "--train", str(dataset), "--params-out", str(params),
                     "--provider", "remote", "--endpoint", embed_service,
                     "--dim", "16", "--epochs", "2"]) == 0
        fixture = tmp_path / "one.jsonl"
        write_lines(fixture, [corpus_line(tweet_id="a", text="china policy")])
        out = tmp_path / "pred.jsonl"
        assert main(["infer", "--params", str(params), "--corpus", str(fixture),
                     "--endpoint", embed_service, "--out", str(out)]) == 0


_PARAMS_WITHOUT_TENSORS = json.dumps({
    "format_version": 1, "aspects": [a.value for a in corpus.A_USED],
    "provider": {"kind": "native-hashed"}, "aspect_threshold": 0.5, "sentiment_threshold": 0.5,
})
_TRAIN = ["train", "--train", "{d}/train.jsonl", "--params-out", "{d}/p.json"]
_EVAL = ["eval", "--params", "{d}/params.json", "--dataset", "{d}/train.jsonl",
         "--out", "{d}/e.csv"]
_REPORT = ["report", "-c", "{d}/config.json", "--out-dir", "{d}/r"]
_SERIES = ["series", "--predictions", "{d}/pred.jsonl", "--out", "{d}/s.csv"]


def _report_config(**section):
    return json.dumps({"report": {"predictions": "{d}/pred.jsonl", **section}})


def _prediction_line(**fields):
    """A blank line, then a prediction record with `fields` over valid defaults."""
    return "\n" + json.dumps({"id": "p", "date": "2020-03-01", "detected": ["Politics"],
                              **fields}) + "\n"


_BAD_PREDICTION = "{d}/pred.jsonl:2: bad prediction record: "
_ADJUDICATE = ["adjudicate", "--annotations", "{d}/ann.jsonl", "--out", "{d}/adj.jsonl"]
_STATS = ["stats-dataset", "--dataset", "{d}/train.jsonl", "--out", "{d}/t1.csv"]
_GRANGER = ["granger", "--x", "{d}/s.csv", "--y", "{d}/s.csv", "--out", "{d}/g.csv"]
_INGEST = ["ingest", "--corpus", "{d}/train.jsonl", "--keywords", "{d}/s.csv",
           "--out", "{d}/kept.jsonl"]
_INGEST_DATED = _INGEST + ["--date-start", "2020-01-01", "--date-end", "2020-12-31"]
_CORPUS_INGEST = ["ingest", "--corpus", "{d}/corpus.jsonl", "--keywords", "{d}/keywords.txt",
                  "--date-start", "2020-01-01", "--date-end", "2020-12-31",
                  "--out", "{d}/kept.jsonl"]
_INFER = ["infer", "--params", "{d}/params.json", "--corpus", "{d}/train.jsonl",
          "--out", "{d}/pred_out.jsonl"]

_AUGMENT = ["augment-candidates", "--params", "{d}/params.json", "--pool", "{d}/train.jsonl",
            "--out", "{d}/c.jsonl"]
_URL = "http://127.0.0.1:9"  # never contacted: each run fails before it embeds anything


def _with_config(argv):
    return argv[:1] + ["-c", "{d}/config.json"] + argv[1:]


def _bad_setting(section_key: str) -> str:
    """What the error for a bad setting names: the config file, then `<section>.<key>`."""
    return "{d}/config.json: " + section_key


class TestDomainErrors:
    """Bad settings and bad input files exit 1 with a message, never a traceback.

    `where`, when set, is what the message must name: `<path>:<line>` for a
    bad line (then the field, for a wrong-typed one), the path for an input
    that cannot be read as a file, or the settings group a value is out of
    range for. `content` is a params file's bundle, a text or bytes.
    """

    @pytest.mark.parametrize("file_name, content, argv, where", [
        ("config.json", "{not json", _REPORT, None),
        ("config.json", '{"train": {"epochs": "x"}}', _TRAIN[:1] + ["-c", "{d}/config.json"]
         + _TRAIN[1:], None),
        ("config.json", '{"train": {"epochs": 2.5}}', _TRAIN[:1] + ["-c", "{d}/config.json"]
         + _TRAIN[1:], None),
        (None, None, _TRAIN + ["--dim", "64"], None),
        (None, None, _TRAIN + ["--dim", "64", "--objective", "hinge"], None),
        ("params.json", _PARAMS_WITHOUT_TENSORS, _EVAL, None),
        ("params.json", "not json", _EVAL, None),
        (None, None, _SERIES + ["--smooth-window", "2"], None),
        ("config.json", _report_config(smoothing_window=2), _REPORT, None),
        ("config.json", _report_config(lag="x"), _REPORT, None),
        ("config.json", _report_config(lag=0, media_predictions="{d}/pred.jsonl"), _REPORT,
         None),
        (None, None, _GRANGER + ["--lag", "0"], None),
        ("config.json", '{"split": {"seed": "x"}}',
         ["split", "-c", "{d}/config.json", "--dataset", "{d}/train.jsonl", "--out-dir", "{d}/s"],
         None),
        ("config.json", '{"augment": {"cap": "x"}}',
         ["augment-candidates", "-c", "{d}/config.json", "--params", "{d}/params.json",
          "--pool", "{d}/train.jsonl", "--out", "{d}/c.jsonl"], None),
        ("config.json", _report_config(series_input="smooth", media_predictions="{d}/pred.jsonl"),
         _REPORT, None),
        (None, None, _STATS[:2] + ["{d}/dir"] + _STATS[3:], "{d}/dir"),
        (None, None, ["series", "--predictions", "{d}/dir", "--out", "{d}/s.csv"], "{d}/dir"),
        (None, None, _EVAL[:2] + ["{d}/dir"] + _EVAL[3:], "{d}/dir"),
        ("config.json", _report_config(predictions="{d}/dir"), _REPORT, "{d}/dir"),
        ("ann.jsonl", "\n[1]\n", _ADJUDICATE, "{d}/ann.jsonl:2"),
        ("ann.jsonl", '\n{"tweet_id": "t", "annotator_id": "a", "labels": ["Politics"]}\n',
         _ADJUDICATE, "{d}/ann.jsonl:2"),
        ("ann.jsonl", b'\n{"tweet_id": "\xff"}\n', _ADJUDICATE, "{d}/ann.jsonl:2"),
        ("train.jsonl", "\n[1]\n", _STATS, "{d}/train.jsonl:2"),
        ("train.jsonl", '\n{"tweet_id": "t", "labels": 5}\n', _STATS, "{d}/train.jsonl:2"),
        ("train.jsonl", b'\n{"tweet_id": "\xff"}\n', _STATS, "{d}/train.jsonl:2"),
        ("pred.jsonl", "\n[1]\n", _SERIES, "{d}/pred.jsonl:2"),
        ("pred.jsonl", '\n{"id": "p", "date": "2020-03-01", "detected": 5}\n', _SERIES,
         "{d}/pred.jsonl:2"),
        ("pred.jsonl", b'\n{"id": "\xff"}\n', _SERIES, "{d}/pred.jsonl:2"),
        ("s.csv", b"date,value\n2020-03-01,1.0\n2020-03-02,\xff\n", _GRANGER, "{d}/s.csv:3"),
        ("pred.jsonl", _prediction_line(detected="Politics"), _SERIES,
         _BAD_PREDICTION + "detected"),
        ("pred.jsonl", _prediction_line(detected=["politics"]), _SERIES,
         _BAD_PREDICTION + "detected"),
        ("pred.jsonl", _prediction_line(detected=["Economy"]), _SERIES,
         _BAD_PREDICTION + "detected"),
        ("pred.jsonl", _prediction_line(sentiment={"Politics": {"label": "Positive"}}), _SERIES,
         _BAD_PREDICTION + "label"),
        ("pred.jsonl", _prediction_line(group_tags="us_media"), _SERIES,
         _BAD_PREDICTION + "group_tags"),
        ("pred.jsonl", _prediction_line(bot_flag="yes"), _SERIES, _BAD_PREDICTION + "bot_flag"),
        ("pred.jsonl", _prediction_line(bot_flag=1), _SERIES, _BAD_PREDICTION + "bot_flag"),
        ("pred.jsonl", _prediction_line(id=5), _SERIES, _BAD_PREDICTION + "id"),
        ("ann.jsonl", '\n{"tweet_id": 5, "annotator_id": "a", "overall": "Negative"}\n',
         _ADJUDICATE, "{d}/ann.jsonl:2: bad annotation record: tweet_id"),
        (None, None, _SERIES + ["--select", "aspect:Economy"], None),
        (None, None, _SERIES + ["--select", "negative:politics"], None),
        (None, None, _TRAIN + ["--dim", str(2**50)], None),
        ("config.json", _report_config(series_input="smoothed",
                                       media_predictions="{d}/pred.jsonl"), _REPORT, None),
        ("config.json", '{"granger": {"lag": 2.5}}', _with_config(_GRANGER),
         _bad_setting("granger.lag")),
        ("config.json", '{"granger": {"lag": "2"}}', _with_config(_GRANGER),
         _bad_setting("granger.lag")),
        ("config.json", '{"granger": {"lag": true}}', _with_config(_GRANGER),
         _bad_setting("granger.lag")),
        ("config.json", '{"granger": {"lags": 3}}', _with_config(_GRANGER),
         _bad_setting("granger.lags")),
        ("config.json", '{"provider": {"normalize": "false"}}', _with_config(_TRAIN),
         _bad_setting("provider.normalize")),
        ("config.json", '{"provider": {"dim": "1024"}}', _with_config(_TRAIN),
         _bad_setting("provider.dim")),
        ("config.json", '{"train": {"epochs": true}}', _with_config(_TRAIN),
         _bad_setting("train.epochs")),
        ("config.json", '{"ingest": {"sample_rate": true}}', _with_config(_INGEST),
         _bad_setting("ingest.sample_rate")),
        ("config.json", '{"ingest": {"date_start": 20200101}}', _with_config(_INGEST),
         _bad_setting("ingest.date_start")),
        ("config.json", '{"grangr": {"lag": 2}}', _with_config(_GRANGER), _bad_setting("grangr")),
        # the sampling and feature hashes fold a seed mod 2**64, so seeds outside
        # 0..2**64-1 would alias others; random.Random(-s) is random.Random(s)
        (None, None, _INGEST_DATED + ["--seed", "-1"], "bad ingest settings"),
        (None, None, _INGEST_DATED + ["--seed", str(2**64)], "bad ingest settings"),
        (None, None, _TRAIN + ["--hash-seed", "-1"], "bad provider settings"),
        (None, None, ["split", "--dataset", "{d}/train.jsonl", "--out-dir", "{d}/s",
                      "--seed", "-1"], None),
        ("params.json", _zero_bundle(hash_seed=-1), _INFER, "bad parameter file {d}/params.json"),
    ], ids=["config-not-json", "train-epochs-string", "train-epochs-fraction", "dim-64",
            "hinge-dim-64", "params-without-tensors", "params-not-json", "series-even-window",
            "report-even-window", "report-lag-string", "report-lag-zero", "granger-lag-zero",
            "split-seed-string", "augment-cap-string", "report-series-input-typo",
            "dataset-is-dir", "predictions-is-dir", "params-is-dir", "report-input-is-dir",
            "annotations-array-line", "annotations-wrong-type", "annotations-not-utf8",
            "dataset-array-line", "dataset-wrong-type", "dataset-not-utf8",
            "predictions-array-line", "predictions-wrong-type", "predictions-not-utf8",
            "series-csv-not-utf8", "predictions-detected-string",
            "predictions-detected-lowercase", "predictions-detected-not-modeled",
            "predictions-label-positive", "predictions-group-tags-string",
            "predictions-bot-flag-yes", "predictions-bot-flag-one", "predictions-integer-id",
            "annotations-integer-tweet-id", "series-select-not-modeled",
            "series-select-lowercase", "train-dim-2-pow-50", "report-series-input-smoothed",
            "granger-lag-fraction", "granger-lag-string", "granger-lag-true",
            "granger-lags-misspelt", "provider-normalize-string", "provider-dim-string",
            "train-epochs-true", "ingest-sample-rate-true", "ingest-date-start-number",
            "unknown-section", "ingest-seed-negative", "ingest-seed-2-pow-64",
            "train-hash-seed-negative", "split-seed-negative", "params-hash-seed-negative"])
    def test_exits_one_without_traceback(self, tmp_path, capsys, file_name, content, argv,
                                         where):
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        _write_predictions(tmp_path / "pred.jsonl", _prediction_rows())
        write_figure({"value": DailySeries(D0, [float(i % 3) for i in range(9)])},
                     tmp_path / "s.csv")
        model.save_params(tmp_path / "params.json", _zero_bundle())
        (tmp_path / "dir").mkdir()
        if isinstance(content, model.ModelBundle):  # a params file with a bad setting
            model.save_params(tmp_path / file_name, content)
        elif isinstance(content, bytes):  # an input that is not UTF-8
            (tmp_path / file_name).write_bytes(content)
        elif file_name:  # replaces a valid input by a bad one
            (tmp_path / file_name).write_text(content.replace("{d}", str(tmp_path)),
                                              encoding="utf-8")
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if where is not None:
            assert f"{where.replace('{d}', str(tmp_path))}:" in err

    @pytest.mark.parametrize("argv", [
        _CORPUS_INGEST,
        _CORPUS_INGEST + ["--sample-rate", "0.5"],
        ["infer", "--params", "{d}/params.json", "--corpus", "{d}/corpus.jsonl",
         "--out", "{d}/pred_out.jsonl"],
        _ADJUDICATE + ["--tweets", "{d}/corpus.jsonl"],
    ], ids=["ingest", "ingest-sampled", "infer", "adjudicate-tweets"])
    @pytest.mark.parametrize("field, fields", [
        ("id", {"tweet_id": "\ud800x"}), ("text", {"text": "china \udc00"})])
    def test_lone_surrogate_in_a_corpus_record_exits_one(self, tmp_path, capsys, argv, field,
                                                         fields):
        # json.dumps writes each surrogate as a \u escape; no UTF-8 writer or
        # hash can encode the str it decodes to
        records = [{"tweet_id": str(i)} for i in range(6)]
        records[2].update(fields)
        write_lines(tmp_path / "corpus.jsonl", [
            corpus_line(when=f"2020-03-0{1 + i % 2}T10:00:00Z", **{"text": "china news", **r})
            for i, r in enumerate(records)])
        (tmp_path / "keywords.txt").write_text("china\n", encoding="utf-8")
        write_lines(tmp_path / "ann.jsonl", [
            json.dumps({"tweet_id": r["tweet_id"], "annotator_id": who, "overall": "Negative"})
            for r in records for who in ("a1", "a2")])
        model.save_params(tmp_path / "params.json", _zero_bundle())
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}/corpus.jsonl:3: lone UTF-16 surrogate in: {field!r}\n")

    @pytest.mark.parametrize("file_name, line, edit, argv, where, path", [
        ("train.jsonl", 3, lambda r: r["tweet"].update(text="china \udc00"),
         ["split", "--dataset", "{d}/train.jsonl", "--out-dir", "{d}/splits"],
         "{d}/train.jsonl:3: bad dataset record", "tweet.text"),
        ("ann.jsonl", 3, lambda r: r.update(tweet_id="\ud800x"), _ADJUDICATE,
         "{d}/ann.jsonl:3: bad annotation record", "tweet_id"),
        ("pred.jsonl", 2, lambda r: r.update(group_tags=["us_media", "\ud83d"]), _SERIES,
         "{d}/pred.jsonl:2: bad prediction record", "group_tags"),
        ("params.json", 1, lambda doc: doc["tensors"]["W_a"].update(dtype="<f8\udfff"), _INFER,
         "bad parameter file {d}/params.json", "tensors.W_a.dtype"),
        ("config.json", 1, lambda doc: doc["report"].update(group_a="\ud800x"),
         ["report", "-c", "{d}/config.json", "--out-dir", "{d}/r"],
         "bad config file {d}/config.json", "report.group_a"),
    ], ids=["dataset", "annotations", "predictions", "params", "config"])
    def test_lone_surrogate_in_any_json_input_exits_one(self, tmp_path, capsys, file_name, line,
                                                        edit, argv, where, path):
        # every JSON reader decodes through files.json_object, which names the key path
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        synth.write_jsonl(tmp_path / "ann.jsonl", synth.make_annotation_records(4, seed=6))
        _write_predictions(tmp_path / "pred.jsonl", _prediction_rows())
        model.save_params(tmp_path / "params.json", _zero_bundle())
        (tmp_path / "config.json").write_text(json.dumps({"report": {"group_a": "bots"}}),
                                              encoding="utf-8")
        lines = (tmp_path / file_name).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)  # json.dumps writes each surrogate as a \u escape
        write_lines(tmp_path / file_name, lines)
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {where.replace('{d}', str(tmp_path))}: lone UTF-16 surrogate in: {path!r}\n")

    @pytest.mark.parametrize("argv, threshold, message", [
        (_TRAIN + ["--sentiment-endpoint", _URL], None,
         "bad provider settings: sentiment_endpoint requires a remote provider"),
        (_TRAIN + ["--endpoint", _URL], None,
         "bad provider settings: endpoint requires a remote provider"),
        (_EVAL + ["--endpoint", _URL], None,
         "bad provider settings: endpoint requires a remote provider"),
        (_INFER + ["--endpoint", _URL], None,
         "bad provider settings: endpoint requires a remote provider"),
        (_AUGMENT + ["--endpoint", _URL], None,
         "bad provider settings: endpoint requires a remote provider"),
        *[(argv, {key: value}, f"bad parameter file {{d}}/params.json: {key} must be in (0, 1)")
          for argv, key in ((_INFER, "aspect_threshold"), (_EVAL, "sentiment_threshold"))
          for value in (float("nan"), 0, 1, 2.0)],
    ], ids=["train-sentiment-endpoint-hashed", "train-endpoint-hashed", "eval-endpoint-hashed",
            "infer-endpoint-hashed", "augment-endpoint-hashed",
            *[f"{key}-{value}" for key in ("aspect-threshold", "sentiment-threshold")
              for value in ("nan", "0", "1", "2.0")]])
    def test_model_setting_is_checked_before_any_output(self, tmp_path, capsys, argv, threshold,
                                                        message):
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        model.save_params(tmp_path / "params.json", _zero_bundle())
        if threshold:  # a params file with a threshold that no bundle can hold
            doc = json.loads((tmp_path / "params.json").read_text(encoding="utf-8"))
            (tmp_path / "params.json").write_text(json.dumps({**doc, **threshold}),
                                                  encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.replace('{d}', str(tmp_path))}")
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("provider, dims", [
        ({"dim": 2048}, "provider dim 2048 != tensor dim 1024"),
        # a remote provider fails at load, before any request to its (dead) endpoint
        ({"kind": "remote", "endpoint": _URL, "dim": 8}, "provider dim 8 != tensor dim 1024"),
    ], ids=["hashed", "remote"])
    def test_provider_dim_must_be_the_tensors(self, tmp_path, capsys, provider, dims):
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        model.save_params(tmp_path / "params.json", _zero_bundle(**provider))
        for argv in (_EVAL, _INFER, _AUGMENT):
            assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
            assert capsys.readouterr().err == (
                f"error: bad parameter file {tmp_path}/params.json: {dims}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "train.jsonl"]

    @pytest.mark.parametrize("flags", [[], ["--endpoint", _URL]], ids=["no-flag", "endpoint"])
    @pytest.mark.parametrize("provider, message", [
        ({"hash_seed": -1}, "hash_seed must be in 0..2**64-1"),
        ({"dim": 64}, f"dim must be a power of two in 1024..{features.MAX_DIM}"),
    ], ids=["hash-seed-negative", "dim-64"])
    def test_params_file_provider_is_checked_before_the_flags(self, tmp_path, capsys, provider,
                                                              message, flags):
        # an endpoint flag on a hashed file is a bad flag, but the file is read first
        synth.write_jsonl(tmp_path / "train.jsonl", synth.make_dataset_records(20, seed=3))
        model.save_params(tmp_path / "params.json", _zero_bundle(**provider))
        for argv in (_EVAL, _INFER, _AUGMENT):
            assert main([a.replace("{d}", str(tmp_path)) for a in argv] + flags) == 1
            assert capsys.readouterr().err == (
                f"error: bad parameter file {tmp_path}/params.json: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "train.jsonl"]

    def test_granger_checks_the_lag_before_reading_a_series(self, tmp_path, capsys):
        assert main([a.replace("{d}", str(tmp_path)) for a in _GRANGER + ["--lag", "0"]]) == 1
        assert capsys.readouterr().err == "error: lag must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tweet_ids, message", [
        (["1", "2", "1"], "tweet id '1' appears twice"),
        (["1"], "no tweet with annotated id '2'"),
    ], ids=["duplicate-tweet-id", "annotated-id-not-in-tweets"])
    def test_adjudicate_tweets_cover_the_annotations_once(self, tmp_path, capsys, tweet_ids,
                                                          message):
        tweets, ann = tmp_path / "tweets.jsonl", tmp_path / "ann.jsonl"
        write_lines(tweets, [corpus_line(tweet_id=i, text=f"china {n}")
                             for n, i in enumerate(tweet_ids)])
        synth.write_jsonl(ann, [{"tweet_id": t, "annotator_id": a, "overall": "Negative"}
                                for t in ("1", "2") for a in ("a1", "a2")])
        assert main(["adjudicate", "--annotations", str(ann), "--tweets", str(tweets),
                     "--out", str(tmp_path / "adj.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {tweets}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl", "tweets.jsonl"]

    @pytest.mark.parametrize("stage, flag", [
        ("ingest", "--corpus"), ("ingest", "--keywords"), ("ingest", "--accounts"),
        ("adjudicate", "--annotations"), ("adjudicate", "--tweets"),
        ("stats-dataset", "--dataset"), ("split", "--dataset"), ("train", "--train"),
        ("train", "--dev"), ("eval", "--params"), ("eval", "--dataset"), ("infer", "--params"),
        ("infer", "--corpus"), ("augment-candidates", "--params"),
        ("augment-candidates", "--pool"), ("series", "--predictions"), ("granger", "--x"),
        ("granger", "--y"), ("compare-groups", "--predictions"), ("report", "-c"),
        ("report", "predictions"), ("report", "media_predictions"),
    ])
    def test_missing_input_exits_one_naming_it(self, tmp_path, small_corpus, trained_params,
                                               capsys, stage, flag):
        _write_stage_inputs(tmp_path)
        missing = str(tmp_path / "no-such-input")
        argv, out_name = _STAGE_OUTPUTS[stage]
        argv = [a.replace("{d}", str(tmp_path)).replace("{out}", str(tmp_path / out_name))
                for a in argv]
        if flag in argv:  # a required input
            argv[argv.index(flag) + 1] = missing
        elif flag.startswith("--"):  # an optional one
            argv += [flag, missing]
        else:  # a report config key
            (tmp_path / "report.json").write_text(json.dumps({"report": {
                "predictions": str(tmp_path / "pred.jsonl"), flag: missing}}), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
        assert sorted(tmp_path.rglob("*")) == before  # no output and no temp file

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, declared in cli.SETTINGS.items() for key in declared])
    def test_wrong_typed_setting_is_named(self, tmp_path, capsys, section, key):
        kind = cli.SETTINGS[section][key][0]
        wrong = 1 if kind is str or isinstance(kind, tuple) else "1"  # a JSON number or string
        (tmp_path / "config.json").write_text(json.dumps({section: {key: wrong}}),
                                              encoding="utf-8")
        argv = _with_config(_GRANGER)
        assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad config file {tmp_path}/config.json: {section}.{key}: ")
        assert "Traceback" not in err


class _FailingFile:
    """An output file that takes its first write, flushes it, then fails like a full disk."""

    def __init__(self, fh, failed: list):
        self._fh, self._failed = fh, failed

    def write(self, text):
        self._fh.write(text)
        self._fh.flush()
        self._failed.append(Path(self._fh.name))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self._fh.name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


# stage -> (argv, the first file it writes); {d} is the test directory, {out} that file
_STAGE_OUTPUTS = {
    "ingest": (["ingest", "--corpus", "{d}/corpus.jsonl", "--keywords", "{d}/keywords.txt",
                "--date-start", "2020-01-22", "--date-end", "2020-05-21", "--out", "{out}"],
               "out.jsonl"),
    "adjudicate": (["adjudicate", "--annotations", "{d}/ann.jsonl", "--out", "{out}"],
                   "adj.jsonl"),
    "stats-dataset": (["stats-dataset", "--dataset", "{d}/labels.jsonl", "--out", "{out}"],
                      "t1.csv"),
    "split": (["split", "--dataset", "{d}/labels.jsonl", "--out-dir", "{d}/parts"],
              "parts/train.jsonl"),
    "train": (["train", "--train", "{d}/splits/train.jsonl", "--epochs", "1", "--dim", "1024",
               "--params-out", "{out}"], "p.json"),
    "eval": (["eval", "--params", "{d}/params.json", "--dataset", "{d}/splits/test.jsonl",
              "--out", "{out}"], "eval.csv"),
    "infer": (["infer", "--params", "{d}/params.json", "--corpus", "{d}/corpus.jsonl",
               "--out", "{out}"], "pred_out.jsonl"),
    "augment-candidates": (["augment-candidates", "--params", "{d}/params.json",
                            "--pool", "{d}/corpus.jsonl", "--threshold", "0.001",
                            "--out", "{out}"], "cand.jsonl"),
    "series": (["series", "--predictions", "{d}/pred.jsonl", "--out", "{out}"], "series.csv"),
    "granger": (["granger", "--x", "{d}/x.csv", "--y", "{d}/y.csv", "--out", "{out}"],
                "granger.csv"),
    "compare-groups": (["compare-groups", "--predictions", "{d}/pred.jsonl", "--group-a", "bots",
                        "--group-b", "users", "--mode", "aspect-proportion", "--out", "{out}"],
                       "compare.csv"),
    "report": (["report", "-c", "{d}/report.json", "--out-dir", "{d}/r"],
               "r/fig2_daily_counts.csv"),
}


def _write_stage_inputs(d) -> None:
    """The inputs of `_STAGE_OUTPUTS` beside the `small_corpus` and
    `trained_params` fixtures in directory `d`."""
    synth.write_jsonl(d / "ann.jsonl", synth.make_annotation_records(20, seed=3))
    _write_predictions(d / "pred.jsonl", _prediction_rows())
    for name, values in (("x.csv", [i % 3 for i in range(12)]),
                         ("y.csv", [i * 7 % 5 for i in range(12)])):
        write_figure({"value": DailySeries(D0, [float(v) for v in values])}, d / name)
    (d / "report.json").write_text(
        json.dumps({"report": {"predictions": str(d / "pred.jsonl")}}), encoding="utf-8")


def _fail_writes(monkeypatch) -> list:
    """Make each file opened for writing fail after its first write; the
    returned list collects the paths that failed."""
    failed = []

    def fake_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FailingFile(fh, failed) if "w" in mode else fh

    monkeypatch.setattr(files, "open", fake_open, raising=False)
    return failed


def _file_bytes(d) -> dict:
    """The bytes of every file under directory `d`, by path."""
    return {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}


class TestAtomicOutputs:
    """A writer that fails after its first row leaves the previous output as it
    was and no temp file."""

    PREVIOUS = b"previous output\r\n\xff"

    @pytest.mark.parametrize("stage", list(_STAGE_OUTPUTS))
    def test_stage_keeps_previous_output(self, tmp_path, small_corpus, trained_params,
                                         monkeypatch, capsys, stage):
        _write_stage_inputs(tmp_path)
        argv, out_name = _STAGE_OUTPUTS[stage]
        out = tmp_path / out_name
        argv = [a.replace("{d}", str(tmp_path)).replace("{out}", str(out)) for a in argv]
        assert main(argv) == 0  # the stage works as set up
        out.parent.mkdir(exist_ok=True)
        out.write_bytes(self.PREVIOUS)
        capsys.readouterr()

        failed = _fail_writes(monkeypatch)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: No space left on device")
        assert "Traceback" not in err
        assert failed == [out.with_name(f".{out.name}.{os.getpid()}.tmp")]
        assert out.read_bytes() == self.PREVIOUS
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("stage", list(_STAGE_OUTPUTS))
    def test_failed_meta_keeps_every_previous_output(self, tmp_path, small_corpus,
                                                     trained_params, capsys, stage):
        _write_stage_inputs(tmp_path)
        argv, out_name = _STAGE_OUTPUTS[stage]
        out = tmp_path / out_name
        argv = [a.replace("{d}", str(tmp_path)).replace("{out}", str(out)) for a in argv]
        assert main(argv) == 0
        out.write_bytes(self.PREVIOUS)
        meta = Path(f"{out}.meta.json")
        meta.unlink()
        meta.mkdir()
        before = _file_bytes(tmp_path)
        capsys.readouterr()

        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {meta}: Is a directory\n"
        assert _file_bytes(tmp_path) == before
        assert list(tmp_path.rglob(".*.tmp")) == []

    def test_report_keeps_every_table_when_the_last_meta_fails(self, tmp_path, trained_params,
                                                                capsys):
        argv = ["report", "-c", str(_full_report_config(tmp_path, trained_params)),
                "--out-dir", str(tmp_path / "r")]
        assert main(argv) == 0
        last = tmp_path / "r" / "table8_group_sentiments.csv.meta.json"
        for path in (tmp_path / "r").iterdir():  # bytes this run would not write
            path.write_bytes(self.PREVIOUS + path.name.encode())
        last.unlink()
        last.mkdir()
        before = _file_bytes(tmp_path / "r")
        assert len(before) == 17  # nine tables and eight metas
        capsys.readouterr()

        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {last}: Is a directory\n"
        assert _file_bytes(tmp_path / "r") == before
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("out", ["", ".", "/", "..", "existing"])
    def test_directory_output_is_refused(self, tmp_path, small_corpus, trained_params,
                                         monkeypatch, capsys, out):
        _write_stage_inputs(tmp_path)
        (tmp_path / "cwd" / "existing").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "cwd")  # so ".." is the test directory

        def listing():
            return sorted(tmp_path.rglob("*")), sorted(os.listdir("/"))

        before = listing()
        for argv, _ in _STAGE_OUTPUTS.values():
            if "{out}" not in argv:  # split and report write into a directory
                continue
            argv = [a.replace("{d}", str(tmp_path)).replace("{out}", out) for a in argv]
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == f"error: {Path(out)}: Is a directory\n", argv
            assert listing() == before, argv

    def test_meta_keeps_previous_output(self, tmp_path, monkeypatch):
        meta = tmp_path / "out.csv.meta.json"
        meta.write_bytes(self.PREVIOUS)
        failed = _fail_writes(monkeypatch)
        with pytest.raises(OSError):
            cli._write_meta(tmp_path / "out.csv", {"a": 1})
        assert failed == [tmp_path / f".{meta.name}.{os.getpid()}.tmp"]
        assert meta.read_bytes() == self.PREVIOUS
        assert list(tmp_path.glob(".*.tmp")) == []


class TestConfigPrecedence:
    def test_flags_beat_file_beat_defaults(self, tmp_path, small_corpus):
        corpus_path, keywords = small_corpus
        cfg = {
            "ingest": {
                "lang": "es",  # overridden by flag below
                "date_start": "2020-01-22",
                "date_end": "2020-05-21",
                "sample_rate": 1.0,
            }
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "-c", str(cfg_path), "--corpus", str(corpus_path),
                     "--keywords", str(keywords), "--out", str(out),
                     "--lang", "en"]) == 0
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert ids == ["1", "4"]  # en from the flag, date range from the file

    def test_provider_endpoint_via_config_file(self, tmp_path, trained_params):
        # a remote section in the file must survive resolution and reach the
        # validation that rejects hinge training on a remote provider
        _, splits = trained_params
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"provider": {"kind": "remote", "endpoint": "http://127.0.0.1:9", "dim": 8}}
        ), encoding="utf-8")
        code = main(["train", "-c", str(cfg_path),
                     "--train", str(splits / "train.jsonl"),
                     "--params-out", str(tmp_path / "p.json"),
                     "--objective", "hinge", "--epochs", "1"])
        assert code == 1

    def test_integer_for_a_float_setting(self, tmp_path, small_corpus, trained_params):
        # JSON has one number type: `"sample_rate": 1` and `"learning_rate": 1` are floats
        corpus_path, keywords = small_corpus
        _, splits = trained_params
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "ingest": {"date_start": "2020-01-22", "date_end": "2020-05-21", "sample_rate": 1},
            "train": {"learning_rate": 1, "epochs": 1},
            "provider": {"dim": 1024},
        }), encoding="utf-8")
        assert main(["ingest", "-c", str(cfg_path), "--corpus", str(corpus_path),
                     "--keywords", str(keywords), "--out", str(tmp_path / "out.jsonl")]) == 0
        assert main(["train", "-c", str(cfg_path), "--train", str(splits / "train.jsonl"),
                     "--params-out", str(tmp_path / "p.json")]) == 0

    def test_each_flag_sets_its_setting(self):
        args = cli.build_parser().parse_args([
            "train", "--train", "t.jsonl", "--params-out", "p.json",
            "--batch-size", "7", "--embed-batch-size", "9", "--lr", "0.3"])
        file_cfg = {"train": files.settings({"batch_size": 5, "epochs": 3},
                                            cli.SETTINGS["train"], "train")}
        train = cli._settings("train", args, file_cfg)
        assert (train["batch_size"], train["epochs"], train["learning_rate"], train["seed"]) == (
            7, 3, 0.3, 0)  # flag, file, flag, default
        assert cli._settings("provider", args, file_cfg)["batch_size"] == 9

    def test_every_setting_flag_names_a_declared_setting(self):
        dests = {a.dest for sub in _subparsers().values() for a in sub._actions}
        for dest in (d for d in dests if "." in d):
            section, key = dest.split(".")
            assert key in cli.SETTINGS[section], dest



def _subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


_ENDPOINT_DESTS = {"provider.endpoint", "provider.timeout", "provider.batch_size"}
# the settings each subcommand takes a flag for; a subcommand not named here takes none
_SETTING_DESTS = {
    "ingest": {"ingest.lang", "ingest.date_start", "ingest.date_end", "ingest.sample_rate",
               "ingest.seed", "ingest.accounts"},
    "split": {"split.seed"},
    "train": {"train.learning_rate", "train.epochs", "train.batch_size", "train.weight_decay",
              "train.seed", "train.aspect_threshold", "train.sentiment_threshold",
              "provider.kind", "provider.ngram_max", "provider.dim", "provider.hash_seed",
              "provider.sentiment_endpoint", *_ENDPOINT_DESTS},
    "eval": _ENDPOINT_DESTS,
    "infer": _ENDPOINT_DESTS,
    "augment-candidates": {"augment.threshold", "augment.cap", *_ENDPOINT_DESTS},
    "series": {"series.start", "series.end", "series.smooth_window"},
    "granger": {"granger.lag"},
}


class TestSettingFlags:
    @pytest.mark.parametrize("command", sorted(_subparsers()))
    def test_each_subcommand_takes_its_settings(self, command):
        sub = _subparsers()[command]
        assert {a.dest for a in sub._actions if "." in a.dest} == _SETTING_DESTS.get(command, set())

    @pytest.mark.parametrize("command", sorted(_SETTING_DESTS))
    def test_setting_flags_check_their_kind(self, command):
        sub = _subparsers()[command]
        required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "v")]
        for action in (a for a in sub._actions if "." in a.dest):
            section, key = action.dest.split(".")
            kind = cli.SETTINGS[section][key][0]
            if isinstance(kind, tuple):
                good, bad = kind[0], "bogus"
            elif kind in (int, float):
                good, bad = "1", "x"
            else:
                continue
            flag = action.option_strings[0]
            args = cli.build_parser().parse_args([command, *required, flag, good])
            assert getattr(args, action.dest) == (good if isinstance(kind, tuple) else kind(good))
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([command, *required, flag, bad])
            assert exc.value.code == 2, flag


class TestReproducibility:
    def test_ingest_twice_is_byte_identical(self, tmp_path, small_corpus):
        corpus_path, keywords = small_corpus
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            main(["ingest", "--corpus", str(corpus_path), "--keywords", str(keywords),
                  "--out", str(out), "--lang", "en", "--sample-rate", "0.5",
                  "--seed", "9", "--date-start", "2020-01-22", "--date-end", "2020-05-21"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
