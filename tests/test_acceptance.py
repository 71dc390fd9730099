"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Two environment variables extend coverage when available:

  ASPECTSENT_DATASET         path to the released labeled dataset (JSONL in
                             the documented adjudicated-dataset shape); when
                             unset, criteria 1 and 4 run on synthetic
                             fixtures as specified.
  ASPECTSENT_EMBED_ENDPOINT  base URL of a remote embedding service; when
                             unset, the remote half of criterion 4 is skipped.
"""

import csv
import math
import os
import time
from datetime import date

import numpy as np

from aspectsent import corpus, evaluation, model, stats, synth
from aspectsent.cli import main as cli
from aspectsent.features import (
    EmbeddingProviderSpec,
    HashedProvider,
    RemoteProvider,
)
from aspectsent.stats import DailySeries

from test_corpus import _stats_fixture
from test_model import _fd_check, _random_batch, random_params, separable_examples

DATASET_ENV = "ASPECTSENT_DATASET"
ENDPOINT_ENV = "ASPECTSENT_EMBED_ENDPOINT"


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name}: {detail}"


def _load_dataset_examples(path):
    return corpus.read_dataset(path)


def test_criterion_1_dataset_statistics(tmp_path):
    started = time.perf_counter()
    released = os.environ.get(DATASET_ENV)
    out = tmp_path / "table1.csv"
    if released:
        code = cli(["stats-dataset", "--dataset", released, "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        by_key = {(r["aspect"], r["sentiment"]): r for r in rows}
        politics = by_key[("Politics", "Negative")]
        ok = (
            len(corpus.read_dataset(released)) == 8019
            and int(politics["count_aspect"]) == 1126
            and politics["percent_of_corpus"] == "14.0"
            and int(politics["count_aspect_sentiment"]) == 1080
            and int(by_key[("Politics", "Neutral")]["count_aspect_sentiment"]) == 39
            and int(by_key[("Politics", "Positive")]["count_aspect_sentiment"]) == 7
            and int(by_key[("Overall", "Negative")]["count_aspect"]) == 6257
            and by_key[("Overall", "Negative")]["percent_of_corpus"] == "78.0"
            and int(by_key[("Overall", "Negative")]["count_aspect_sentiment"]) == 2921
            and int(by_key[("Overall", "Neutral")]["count_aspect_sentiment"]) == 3007
            and int(by_key[("Overall", "Positive")]["count_aspect_sentiment"]) == 329
        )
        source = "released dataset"
    else:
        dataset = tmp_path / "fixture.jsonl"
        corpus.write_dataset(dataset, _stats_fixture())
        code = cli(["stats-dataset", "--dataset", str(dataset), "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        by_key = {(r["aspect"], r["sentiment"]): r for r in rows}
        ok = (
            int(by_key[("Politics", "Negative")]["count_aspect"]) == 6
            and by_key[("Politics", "Negative")]["percent_of_corpus"] == "15.0"
            and int(by_key[("Politics", "Negative")]["count_aspect_sentiment"]) == 4
            and int(by_key[("Politics", "Neutral")]["count_aspect_sentiment"]) == 1
            and int(by_key[("Politics", "Positive")]["count_aspect_sentiment"]) == 1
            and int(by_key[("Overall", "Negative")]["count_aspect"]) == 30
            and int(by_key[("Overall", "Negative")]["count_aspect_sentiment"]) == 15
            and int(by_key[("Overall", "Neutral")]["count_aspect_sentiment"]) == 10
            and int(by_key[("Overall", "Positive")]["count_aspect_sentiment"]) == 5
            and int(by_key[("Measures", "Neutral")]["count_aspect_sentiment"]) == 5
        )
        source = "40-tweet synthetic fixture (released dataset unavailable)"
    elapsed = time.perf_counter() - started
    _report(1, "dataset statistics", ok and elapsed < 5.0,
            f"{source}, {elapsed:.2f}s")


def test_criterion_2_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20200122)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        h, t_a, t_y, mask = _random_batch(rng, d, n)
        params = random_params(d, rng)
        worst = max(worst, _fd_check(params, h, t_a, t_y, mask))
    elapsed = time.perf_counter() - started
    _report(2, "gradient oracle", worst <= 1e-6 and elapsed < 10.0,
            f"max relative error {worst:.2e} over 50 fixtures, {elapsed:.2f}s")


def test_criterion_3_training_sanity():
    started = time.perf_counter()
    examples = separable_examples(20)
    provider = HashedProvider(dim=1024)
    losses = []
    cfg = model.TrainConfig(learning_rate=0.05, epochs=300, batch_size=len(examples), seed=3)
    params = model.train(
        examples, None, provider, cfg,
        epoch_callback=lambda epoch, loss: losses.append(loss),
    )
    monotone = all(a > b for a, b in zip(losses, losses[1:]))

    h = provider.embed(examples.texts)
    gold = examples.aspects
    pred = model.probabilities(h, params)[:, :len(corpus.A_USED)] >= 0.5
    micro = evaluation.evaluate(pred, gold)["Overall"].micro_f1
    elapsed = time.perf_counter() - started
    _report(3, "training sanity", monotone and micro == 1.0 and elapsed < 10.0,
            f"monotone={monotone}, train micro F1={micro:.3f}, {elapsed:.2f}s")


def _split_model_examples(examples, seed):
    train_part, dev_part, test_part = corpus.split(examples, seed=seed)
    return tuple(map(corpus.labeled_set, (train_part, dev_part, test_part)))


def _aspect_overall_micro(provider, params, test_set, threshold=0.5):
    h = provider.embed(test_set.texts)
    gold = test_set.aspects
    pred = model.probabilities(h, params)[:, :len(corpus.A_USED)] >= threshold
    return evaluation.evaluate(pred, gold)["Overall"].micro_f1


def test_criterion_4_model_quality():
    started = time.perf_counter()
    released = os.environ.get(DATASET_ENV)
    if released:
        examples = _load_dataset_examples(released)
        source = "released dataset"
    else:
        examples = [corpus.example_from_obj(r) for r in synth.make_dataset_records(1600, seed=101)]
        source = "synthetic corpus (released dataset unavailable)"
    train_set, dev_set, test_set = _split_model_examples(examples, seed=11)

    provider = HashedProvider(ngram_max=1, dim=4096)
    cfg = model.TrainConfig(learning_rate=0.1, epochs=20, batch_size=32, seed=7)
    params = model.train(train_set, dev_set, provider, cfg)
    micro = _aspect_overall_micro(provider, params, test_set)

    detail = f"{source}: hashed-unigram aspect Overall micro F1 = {micro:.3f} (>= 0.70)"
    endpoint = os.environ.get(ENDPOINT_ENV)
    remote_ok = True
    if endpoint:
        dim = int(os.environ.get("ASPECTSENT_EMBED_DIM", "768"))
        spec = EmbeddingProviderSpec(kind="remote", dim=dim, endpoint=endpoint)
        remote = RemoteProvider(spec)
        remote_cfg = model.TrainConfig(learning_rate=0.01, epochs=20, batch_size=32, seed=7)
        remote_params = model.train(train_set, dev_set, remote, remote_cfg)
        remote_micro = _aspect_overall_micro(remote, remote_params, test_set)
        remote_ok = remote_micro >= 0.75
        detail += f"; remote micro F1 = {remote_micro:.3f} (>= 0.75)"
    else:
        detail += "; remote check skipped (no service configured)"
    elapsed = time.perf_counter() - started
    _report(4, "model quality", micro >= 0.70 and remote_ok and elapsed < 600.0,
            f"{detail}, {elapsed:.1f}s")


def test_criterion_5_granger_oracle():
    started = time.perf_counter()
    # (a) OLS against hand-solved normal equations (Cramer's rule)
    X = np.array([[1.0, 0], [1, 1], [1, 2], [1, 3], [1, 4], [1, 5]])
    y = np.array([1.0, 2.0, 2.0, 5.0, 4.0, 6.0])
    a11 = math.fsum(X[:, 0] * X[:, 0])
    a12 = math.fsum(X[:, 0] * X[:, 1])
    a22 = math.fsum(X[:, 1] * X[:, 1])
    b1 = math.fsum(X[:, 0] * y)
    b2 = math.fsum(X[:, 1] * y)
    det = a11 * a22 - a12 * a12
    expected = np.array([(b1 * a22 - b2 * a12) / det, (a11 * b2 - a12 * b1) / det])
    beta, _ = stats.ols(X, y)
    ols_ok = bool(np.all(np.abs(beta - expected) <= 1e-10))

    # (b) Monte Carlo property oracle, 100 seeds each construction
    d0 = date(2020, 1, 22)
    causal_hits = 0
    null_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, size=200)
        noise = rng.normal(0, 0.1, size=200)
        y_causal = np.empty(200)
        y_causal[0] = noise[0]
        y_causal[1:] = 0.9 * x[:-1] + noise[1:]
        sx = DailySeries(d0, list(x))
        if stats.granger_test(sx, DailySeries(d0, list(y_causal))).p_value < 0.01:
            causal_hits += 1
        y_null = rng.normal(0, 1, size=200)
        if stats.granger_test(sx, DailySeries(d0, list(y_null))).p_value > 0.05:
            null_hits += 1
    elapsed = time.perf_counter() - started
    ok = ols_ok and causal_hits >= 95 and null_hits >= 90 and elapsed < 30.0
    _report(5, "granger oracle", ok,
            f"OLS<=1e-10: {ols_ok}, causal p<.01 in {causal_hits}/100, "
            f"null p>.05 in {null_hits}/100, {elapsed:.1f}s")


def test_criterion_6_distribution_functions():
    from scipy import integrate

    # F == t^2 identity at d1=1
    rng = np.random.default_rng(8)
    identity_err = 0.0
    for _ in range(100):
        t = float(rng.uniform(-6, 6))
        d = float(rng.uniform(1, 200))
        identity_err = max(
            identity_err,
            abs(stats.f_pvalue(t * t, 1, d) - stats.t_pvalue_two_sided(t, d)),
        )

    # fixed quantile against direct quadrature of the F density
    def f_density(x, d1, d2):
        log_pdf = (
            (d1 / 2) * math.log(d1 / d2)
            + (d1 / 2 - 1) * math.log(x)
            - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
            - (math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2))
        )
        return math.exp(log_pdf)

    quad_tail, _ = integrate.quad(f_density, 4.9646, np.inf, args=(1, 10))
    got = stats.f_pvalue(4.9646, 1, 10)
    quantile_ok = abs(got - 0.0500) <= 0.0005 and abs(got - quad_tail) <= 1e-8

    welch = stats.welch_ttest([1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0, 2.0])
    welch_ok = welch.t_stat == -3.0 and welch.df == 3.0

    ok = identity_err <= 1e-10 and quantile_ok and welch_ok
    _report(6, "distribution functions", ok,
            f"F=t^2 max err {identity_err:.2e}, f_pvalue(4.9646,1,10)={got:.5f}, "
            f"welch t={welch.t_stat} df={welch.df}")


def _run_pipeline(base, run_dir, seed=7):
    """ingest -> train -> infer -> series -> granger on the shared inputs."""
    run_dir.mkdir(parents=True, exist_ok=True)
    filtered = run_dir / "filtered.jsonl"
    params = run_dir / "params.json"
    predictions = run_dir / "predictions.jsonl"
    politics = run_dir / "politics.csv"
    measures = run_dir / "measures.csv"
    granger_out = run_dir / "granger.csv"
    steps = [
        ["ingest", "--corpus", str(base / "corpus.jsonl"), "--keywords", str(base / "keywords.txt"),
         "--out", str(filtered), "--lang", "en", "--date-start", "2020-01-22",
         "--date-end", "2020-03-21", "--sample-rate", "0.4", "--seed", str(seed)],
        ["train", "--train", str(base / "train.jsonl"), "--dev", str(base / "dev.jsonl"),
         "--params-out", str(params), "--epochs", "60", "--lr", "0.5", "--dim", "2048",
         "--train-seed", str(seed)],
        ["infer", "--params", str(params), "--corpus", str(filtered), "--out", str(predictions)],
        ["series", "--predictions", str(predictions), "--select", "aspect:Politics",
         "--out", str(politics)],
        ["series", "--predictions", str(predictions), "--select", "aspect:Measures",
         "--out", str(measures)],
        ["granger", "--x", str(politics), "--y", str(measures), "--lag", "1",
         "--out", str(granger_out)],
    ]
    for argv in steps:
        assert cli(argv) == 0, f"pipeline step failed: {argv[0]}"


def test_criterion_7_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    base = tmp_path / "inputs"
    base.mkdir()
    synth.write_jsonl(base / "corpus.jsonl", synth.make_corpus_records(1000, seed=42))
    dataset = [corpus.example_from_obj(r) for r in synth.make_dataset_records(400, seed=43)]
    train_part, dev_part, _ = corpus.split(dataset, seed=1)
    corpus.write_dataset(base / "train.jsonl", train_part)
    corpus.write_dataset(base / "dev.jsonl", dev_part)
    (base / "keywords.txt").write_text("china\nwuhan\n", encoding="utf-8")

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    _run_pipeline(base, run_a)
    _run_pipeline(base, run_b)

    names = sorted(
        p.name for p in run_a.iterdir() if not p.name.endswith(".meta.json")
    )
    assert names == sorted(
        p.name for p in run_b.iterdir() if not p.name.endswith(".meta.json")
    )
    mismatched = [
        name for name in names
        if (run_a / name).read_bytes() != (run_b / name).read_bytes()
    ]
    elapsed = time.perf_counter() - started
    _report(7, "pipeline determinism", not mismatched and elapsed < 60.0,
            f"{len(names)} outputs byte-identical, {elapsed:.1f}s"
            + (f"; mismatched: {mismatched}" if mismatched else ""))


def test_criterion_8_ingestion_throughput(tmp_path):
    from aspectsent import ingest

    n = 1_000_000
    path = tmp_path / "big_corpus.jsonl"
    langs = ["en", "en", "en", "es", "fr"]
    texts = [
        "china lockdown policy update number %d",
        "weather and football chatter number %d",
        "wuhan cases report daily %d",
        "random offtopic noise string %d",
        "markets rally as china reopens %d",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(
                '{"id":"b%d","created_at":"2020-01-%02dT0%d:00:00Z","text":"%s",'
                '"lang":"%s","user":{"id":"u%d","screen_name":"s%d"}}\n'
                % (i, (i % 28) + 1, i % 10, texts[i % 5] % i, langs[i % 5],
                   i % 1000, i % 1000)
            )

    spec = ingest.FilterSpec(
        lang="en",
        keywords=ingest.KeywordSet(frozenset({"china", "wuhan"})),
        date_start=date(2020, 1, 1),
        date_end=date(2020, 12, 31),
        sample_rate=0.4,
        seed=3,
    )
    started = time.perf_counter()
    kept = ingest.apply_filters(ingest.iter_corpus(path), spec)
    elapsed = time.perf_counter() - started
    # texts 0 and 2 are English and keyword-matching: 400k tweets, 40% sampled
    expected = int(0.4 * (2 * n / 5))
    count_ok = abs(len(kept) - expected) <= n // 100
    _report(8, "ingestion throughput", elapsed < 120.0 and count_ok,
            f"1,000,000 records parsed+filtered in {elapsed:.1f}s, kept {len(kept)}")
