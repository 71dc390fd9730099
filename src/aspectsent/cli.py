"""Subcommand CLI tying the pipeline together.

Configuration precedence is flags > config file > defaults; the config file
is JSON with one section per subcommand plus shared `provider` and `train`
sections. Every output file gets a sibling `<name>.meta.json` recording the
tool version, a hash of the effective configuration, and the seed, so runs
are auditable; all non-metadata outputs are byte-reproducible given
identical inputs, configuration, and seeds.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from datetime import date, datetime, timezone
from pathlib import Path

from . import __version__, corpus, evaluation, ingest, model, stats
from .errors import PipelineError
from .features import iter_chunks, provider_to_config, providers_from_config
from .stats import DailySeries, PredictionRow

PROVIDER_DEFAULTS = {
    "kind": "native-hashed",
    "ngram_max": 1,
    "dim": 4096,
    "hash_seed": 0,
    "normalize": True,
    "endpoint": None,
    "sentiment_endpoint": None,
    "timeout": 10.0,
    "batch_size": 64,
}

TRAIN_DEFAULTS = {
    "learning_rate": None,  # resolved per provider kind: 0.1 hashed, 0.01 remote
    "epochs": 20,
    "batch_size": 32,
    "weight_decay": 0.0,
    "seed": 0,
    "aspect_threshold": 0.5,
    "sentiment_threshold": 0.5,
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise PipelineError(f"config file {path} must contain a JSON object")
    return cfg


def _resolve(defaults: dict, file_section: dict, flag_values: dict) -> dict:
    """Flags > config file > defaults; a flag participates only when set."""
    out = dict(defaults)
    out.update({k: v for k, v in (file_section or {}).items() if k in defaults})
    out.update({k: v for k, v in flag_values.items() if v is not None})
    return out


def _config_hash(effective: dict) -> str:
    canonical = json.dumps(effective, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_meta(out_path, effective_config: dict, seed=None, counts=None) -> None:
    meta = {
        "tool": "aspectsent",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_hash": _config_hash(effective_config),
        "seed": seed,
    }
    if counts is not None:
        meta["counts"] = counts
    Path(f"{out_path}.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@contextmanager
def _atomic_path(path):
    """Yield a temp path in `path`'s directory to write `path` through: it is
    renamed into place only on success; on any error it is removed and `path`
    is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _atomic_output(path):
    """`_atomic_path`, opened as a UTF-8 text file."""
    with _atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


@contextmanager
def _rereadable(path, out):
    """`path` if it is a regular file; otherwise (a pipe, /dev/stdin) a copy
    of it in a temp file next to `out`, removed on exit. Two-pass ingest
    reads its corpus twice."""
    if Path(path).is_file():
        yield path
        return
    out = Path(out)
    copy = out.with_name(f".{out.name}.{os.getpid()}.corpus.tmp")
    try:
        try:
            with open(path, "rb") as src, open(copy, "wb") as dst:
                shutil.copyfileobj(src, dst)
        except OSError as exc:  # a directory, an unreadable device, a full disk
            raise PipelineError(f"copying the corpus: {exc.filename}: {exc.strerror}") from None
        yield copy
    finally:
        copy.unlink(missing_ok=True)


def _require_paths(*pairs: tuple[str, str | None]) -> None:
    for label, value in pairs:
        if value is None:
            raise PipelineError(f"missing required input: --{label}")
        if not Path(value).exists():
            raise PipelineError(f"{label} path does not exist: {value}")


def _parse_date(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise PipelineError(f"bad date {value!r}, expected YYYY-MM-DD") from None


# --- provider / train config plumbing ---


def _provider_flags(args) -> dict:
    return {
        "kind": getattr(args, "provider", None),
        "ngram_max": getattr(args, "ngram_max", None),
        "dim": getattr(args, "dim", None),
        "hash_seed": getattr(args, "hash_seed", None),
        "endpoint": getattr(args, "endpoint", None),
        "sentiment_endpoint": getattr(args, "sentiment_endpoint", None),
        "timeout": getattr(args, "timeout", None),
        "batch_size": getattr(args, "embed_batch_size", None),
    }


def _resolve_provider(args, file_cfg: dict, base: dict | None = None) -> dict:
    defaults = dict(PROVIDER_DEFAULTS)
    if base:
        defaults.update(base)
    cfg = _resolve(defaults, file_cfg.get("provider", {}), _provider_flags(args))
    if cfg["kind"] == "remote" and not cfg.get("endpoint"):
        raise PipelineError("remote provider requires --endpoint")
    if cfg["kind"] == "native-hashed":
        cfg.pop("endpoint", None)
        cfg.pop("sentiment_endpoint", None)
        cfg.pop("timeout", None)
        cfg.pop("batch_size", None)
    elif not cfg.get("sentiment_endpoint"):
        cfg.pop("sentiment_endpoint", None)
    return cfg


def _resolve_train(args, file_cfg: dict, provider_kind: str) -> model.TrainConfig:
    flags = {
        "learning_rate": getattr(args, "lr", None),
        "epochs": getattr(args, "epochs", None),
        "batch_size": getattr(args, "batch_size", None),
        "weight_decay": getattr(args, "weight_decay", None),
        "seed": getattr(args, "train_seed", None),
        "aspect_threshold": getattr(args, "aspect_threshold", None),
        "sentiment_threshold": getattr(args, "sentiment_threshold", None),
    }
    cfg = _resolve(TRAIN_DEFAULTS, file_cfg.get("train", {}), flags)
    if cfg["learning_rate"] is None:
        cfg["learning_rate"] = 0.01 if provider_kind == "remote" else 0.1
    return model.TrainConfig(**cfg)


# --- predictions JSONL (infer output; series/compare-groups input) ---


def _prediction_to_obj(tweet: ingest.RawTweet, pred: model.Prediction) -> dict:
    detected = [a.value for a in corpus.A_USED if a in pred.detected]
    sentiment = {
        a.value: {
            "label": pred.sentiment[a].label.value,
            "p_negative": pred.sentiment[a].p_negative,
        }
        for a in corpus.A_USED
        if a in pred.sentiment
    }
    return {
        "id": tweet.id,
        "date": tweet.day.isoformat(),
        "aspect_probs": {
            a.value: float(pred.aspect_probs[i]) for i, a in enumerate(corpus.A_USED)
        },
        "detected": detected,
        "sentiment": sentiment,
        "group_tags": sorted(tweet.group_tags),
        "bot_flag": tweet.bot_flag,
    }


def read_prediction_rows(path) -> list[PredictionRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                detected = frozenset(obj["detected"])
                negatives = frozenset(
                    a for a, s in (obj.get("sentiment") or {}).items()
                    if s.get("label") == "Negative"
                )
                rows.append(
                    PredictionRow(
                        id=obj["id"],
                        day=date.fromisoformat(obj["date"]),
                        detected=detected,
                        negatives=negatives & detected,
                        group_tags=frozenset(obj.get("group_tags") or ()),
                        bot_flag=obj.get("bot_flag"),
                    )
                )
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad prediction record: {exc}") from exc
    return rows


def _group_selector(spec: str):
    if spec == "all":
        return lambda r: True
    if spec == "bots":
        return lambda r: r.bot_flag is True
    if spec == "users":
        return lambda r: r.bot_flag is False
    if spec.startswith("tag:"):
        tag = spec[4:]
        return lambda r: tag in r.group_tags
    raise PipelineError(f"unknown group selector {spec!r} (use all, bots, users, or tag:<name>)")


# --- figure data ---


def emit_figure_data(series_map: dict[str, DailySeries], path) -> None:
    """Wide CSV: date column plus one column per named, date-aligned series."""
    if not series_map:
        raise PipelineError("no series to emit")
    first = next(iter(series_map.values()))
    for name, s in series_map.items():
        if s.start_date != first.start_date or len(s) != len(first):
            raise PipelineError(f"series {name!r} is misaligned with the others")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(series_map))
        for i in range(len(first)):
            row = [first.date_at(i).isoformat()]
            for s in series_map.values():
                v = s.values[i]
                row.append("" if v is None else repr(v))
            writer.writerow(row)


def _parse_select(spec: str) -> tuple[str, str | None]:
    if spec == "count":
        return "count", None
    for prefix, mode in (
        ("aspect:", "aspect-proportion"),
        ("negative:", "negative-proportion"),
        ("nonnegative:", "nonnegative-proportion"),
    ):
        if spec.startswith(prefix):
            return mode, spec[len(prefix):]
    raise PipelineError(
        f"bad --select {spec!r} (use count, aspect:<A>, negative:<A>, or nonnegative:<A>)"
    )


# --- subcommand handlers ---


def _cmd_ingest(args, file_cfg):
    _require_paths(("corpus", args.corpus), ("keywords", args.keywords))
    section = _resolve(
        {
            "lang": "en",
            "date_start": None,
            "date_end": None,
            "sample_rate": 1.0,
            "seed": 0,
            "accounts": None,
        },
        file_cfg.get("ingest", {}),
        {
            "lang": args.lang,
            "date_start": args.date_start,
            "date_end": args.date_end,
            "sample_rate": args.sample_rate,
            "seed": args.seed,
            "accounts": args.accounts,
        },
    )
    if not section["date_start"] or not section["date_end"]:
        raise PipelineError("ingest requires --date-start and --date-end")
    accounts = None
    if section["accounts"]:
        _require_paths(("accounts", section["accounts"]))
        accounts = ingest.load_accounts(section["accounts"])
    try:
        spec = ingest.FilterSpec(
            lang=section["lang"],
            keywords=ingest.load_keywords(args.keywords),
            date_start=_parse_date(str(section["date_start"])),
            date_end=_parse_date(str(section["date_end"])),
            accounts=accounts,
            sample_rate=float(section["sample_rate"]),
            seed=int(section["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise PipelineError(f"bad ingest settings: {exc}") from None
    with _atomic_path(args.out) as tmp, _rereadable(args.corpus, args.out) as corpus_path:
        counts = ingest.ingest_file(corpus_path, spec, tmp, name=args.corpus)
    _write_meta(args.out, section, seed=spec.seed, counts=counts)
    print(f"ingest: kept {counts['kept']} tweets -> {args.out}")
    return 0


def _cmd_adjudicate(args, file_cfg):
    _require_paths(("annotations", args.annotations))
    tweets_by_id = None
    if args.tweets:
        _require_paths(("tweets", args.tweets))
        tweets_by_id = {t.id: t for t in ingest.iter_corpus(args.tweets)}
    annotations = corpus.read_annotations(args.annotations)
    examples, discarded = corpus.adjudicate_corpus(annotations, tweets_by_id)
    corpus.write_dataset(args.out, examples)
    _write_meta(args.out, {"annotations": args.annotations, "tweets": args.tweets})
    print(f"adjudicate: accepted {len(examples)}, discarded {discarded} -> {args.out}")
    return 0


def _cmd_stats_dataset(args, file_cfg):
    _require_paths(("dataset", args.dataset))
    dataset = corpus.read_dataset(args.dataset)
    table = corpus.dataset_stats(dataset)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["aspect", "sentiment", "count_aspect_sentiment", "percent_within_aspect",
             "count_aspect", "percent_of_corpus"]
        )
        for row in table.rows:
            for sentiment, cell in row.sentiments.items():
                writer.writerow(
                    [row.aspect, sentiment, cell.count, f"{cell.percent:.1f}",
                     row.count, f"{row.percent_of_corpus:.1f}"]
                )
    _write_meta(args.out, {"dataset": args.dataset})
    print(f"stats-dataset: {table.total} examples")
    for row in table.rows:
        breakdown = ", ".join(
            f"{s} {cell.count} ({cell.percent:.1f}%)" for s, cell in row.sentiments.items()
        )
        print(f"  {row.aspect}: {row.count} ({row.percent_of_corpus:.1f}%) | {breakdown}")
    return 0


def _cmd_split(args, file_cfg):
    _require_paths(("dataset", args.dataset))
    dataset = corpus.read_dataset(args.dataset)
    seed = args.seed if args.seed is not None else int(file_cfg.get("split", {}).get("seed", 0))
    train_part, dev_part, test_part = corpus.split(dataset, seed=seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train_part), ("dev", dev_part), ("test", test_part)):
        path = out_dir / f"{name}.jsonl"
        corpus.write_dataset(path, part)
        _write_meta(path, {"dataset": args.dataset, "seed": seed, "part": name}, seed=seed)
    print(
        f"split: {len(train_part)}/{len(dev_part)}/{len(test_part)} -> {out_dir}"
    )
    return 0


def _dataset_to_examples(path):
    data = corpus.read_dataset(path)
    return [corpus.to_model_example(e) for e in data]


def _cmd_train(args, file_cfg):
    _require_paths(("train", args.train))
    train_examples = _dataset_to_examples(args.train)
    dev_examples = []
    if args.dev:
        _require_paths(("dev", args.dev))
        dev_examples = _dataset_to_examples(args.dev)

    provider_cfg = _resolve_provider(args, file_cfg)
    train_cfg = _resolve_train(args, file_cfg, provider_cfg["kind"])

    if args.objective == "hinge":
        from .features import HashedFeatureConfig

        if provider_cfg["kind"] != "native-hashed":
            raise PipelineError("the hinge baseline uses native hashed unigram features")
        feature_config = HashedFeatureConfig(
            ngram_max=1,  # the baseline is defined over unigrams
            dim=int(provider_cfg["dim"]),
            hash_seed=int(provider_cfg["hash_seed"]),
            normalize=bool(provider_cfg["normalize"]),
        )
        params, provider = model.train_svm_baseline(train_examples, train_cfg, feature_config)
        provider_cfg = provider_to_config(provider)
    else:
        provider, provider_y = providers_from_config(provider_cfg)
        params = model.train(train_examples, dev_examples, provider, train_cfg,
                             provider_y=provider_y)

    bundle = model.ModelBundle(
        params=params,
        provider_config=provider_cfg,
        aspect_threshold=train_cfg.aspect_threshold,
        sentiment_threshold=train_cfg.sentiment_threshold,
        objective=args.objective,
    )
    model.save_params(args.params_out, bundle)
    effective = {"provider": provider_cfg, "train": train_cfg.__dict__, "objective": args.objective}
    _write_meta(args.params_out, effective, seed=train_cfg.seed)
    print(f"train: {len(train_examples)} examples, objective={args.objective} -> {args.params_out}")
    return 0


def _load_bundle_and_provider(args, file_cfg):
    _require_paths(("params", args.params))
    bundle = model.load_params(args.params)
    provider_cfg = dict(bundle.provider_config)
    for key, value in (
        ("endpoint", getattr(args, "endpoint", None)),
        ("timeout", getattr(args, "timeout", None)),
        ("batch_size", getattr(args, "embed_batch_size", None)),
    ):
        if value is not None:
            provider_cfg[key] = value
    provider, provider_y = providers_from_config(provider_cfg)
    return bundle, provider, provider_y


def _infer_config(bundle: model.ModelBundle) -> model.TrainConfig:
    return model.TrainConfig(
        aspect_threshold=bundle.aspect_threshold,
        sentiment_threshold=bundle.sentiment_threshold,
    )


def _cmd_eval(args, file_cfg):
    import numpy as np

    bundle, provider, provider_y = _load_bundle_and_provider(args, file_cfg)
    _require_paths(("dataset", args.dataset))
    examples = _dataset_to_examples(args.dataset)
    if not examples:
        raise PipelineError("evaluation dataset is empty")
    texts = [e.text for e in examples]
    h = provider.embed(texts)
    h_y = provider_y.embed(texts) if provider_y is not None else h
    gold_a = np.stack([e.aspect_targets for e in examples])
    gold_y = np.stack([e.sentiment_targets for e in examples])
    pred_a = model.forward_aspect(h, bundle.params) >= bundle.aspect_threshold
    pred_y = model.forward_sentiment(h_y, bundle.params) >= bundle.sentiment_threshold
    reports = {
        "aspect": evaluation.evaluate(pred_a, gold_a, stage="aspect"),
        "sentiment": evaluation.evaluate(
            pred_y, gold_y, stage="sentiment", gold_aspects=gold_a
        ),
    }
    evaluation.write_report_csv(args.out, reports)
    _write_meta(args.out, {"params": args.params, "dataset": args.dataset})
    overall = reports["aspect"]["Overall"]
    print(
        f"eval: aspect Overall macro={overall.macro_f1:.4f} micro={overall.micro_f1:.4f} -> {args.out}"
    )
    return 0


def _cmd_infer(args, file_cfg):
    bundle, provider, provider_y = _load_bundle_and_provider(args, file_cfg)
    _require_paths(("corpus", args.corpus))
    config = _infer_config(bundle)
    count = 0
    with _atomic_output(args.out) as fh:
        for tweets in iter_chunks(ingest.iter_corpus(args.corpus)):
            predictions = model.predict_batch([t.text for t in tweets], provider, bundle.params,
                                              config, provider_y=provider_y)
            for tweet, pred in zip(tweets, predictions):
                fh.write(json.dumps(_prediction_to_obj(tweet, pred), ensure_ascii=False) + "\n")
            count += len(tweets)
    _write_meta(args.out, {"params": args.params, "corpus": args.corpus})
    print(f"infer: {count} tweets -> {args.out}")
    return 0


def _cmd_augment_candidates(args, file_cfg):
    bundle, provider, _ = _load_bundle_and_provider(args, file_cfg)
    _require_paths(("pool", args.pool))
    section = _resolve(
        {"threshold": 0.90, "cap": 300},
        file_cfg.get("augment", {}),
        {"threshold": args.threshold, "cap": args.cap},
    )
    threshold, cap = float(section["threshold"]), int(section["cap"])
    if not 0.0 < threshold < 1.0 or cap < 1:
        raise PipelineError("augment-candidates needs 0 < threshold < 1 and cap >= 1")
    pool = ((t.id, t.text) for t in ingest.iter_corpus(args.pool))
    candidates = corpus.select_confident(
        pool, provider, bundle.params, threshold=threshold, cap=cap
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for aspect in corpus.A_USED:
            for cand in candidates.get(aspect, []):
                fh.write(
                    json.dumps(
                        {
                            "aspect": aspect.value,
                            "id": cand.tweet_id,
                            "text": cand.text,
                            "probability": cand.probability,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
    _write_meta(args.out, {"params": args.params, "pool": args.pool,
                           "threshold": threshold, "cap": cap})
    total = sum(len(v) for v in candidates.values())
    print(f"augment-candidates: {total} candidates -> {args.out}")
    return 0


def _cmd_series(args, file_cfg):
    _require_paths(("predictions", args.predictions))
    rows = read_prediction_rows(args.predictions)
    section = _resolve(
        {"start": None, "end": None, "smooth_window": 1},
        file_cfg.get("series", {}),
        {"start": args.start, "end": args.end, "smooth_window": args.smooth_window},
    )
    start = _parse_date(str(section["start"])) if section["start"] else None
    end = _parse_date(str(section["end"])) if section["end"] else None
    window = int(section["smooth_window"])
    selects = args.select or ["count"]
    series_map: dict[str, DailySeries] = {}
    for spec in selects:
        mode, aspect = _parse_select(spec)
        s = stats.daily_series(rows, mode, aspect=aspect, start=start, end=end)
        if window > 1:
            s = stats.smooth_ma(s, window)
        series_map[spec] = s
    if len(series_map) == 1:
        stats.write_series_csv(args.out, next(iter(series_map.values())))
    else:
        emit_figure_data(series_map, args.out)
    _write_meta(
        args.out,
        {"predictions": args.predictions, "select": selects, "smooth_window": window,
         "start": section["start"], "end": section["end"]},
    )
    print(f"series: {len(series_map)} series -> {args.out}")
    return 0


def _cmd_granger(args, file_cfg):
    _require_paths(("x", args.x), ("y", args.y))
    x = stats.read_series_csv(args.x)
    y = stats.read_series_csv(args.y)
    x_name = args.x_name or Path(args.x).stem
    y_name = args.y_name or Path(args.y).stem
    lag = int(_resolve({"lag": 1}, file_cfg.get("granger", {}), {"lag": args.lag})["lag"])
    results = [
        stats.granger_test(x, y, lag=lag, names=(x_name, y_name)),
        stats.granger_test(y, x, lag=lag, names=(y_name, x_name)),
    ]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cause", "effect", "lag", "n_used", "F", "p"])
        for r in results:
            writer.writerow(
                [r.direction[0], r.direction[1], r.lag, r.n_used, repr(r.f_stat), repr(r.p_value)]
            )
    _write_meta(args.out, {"x": args.x, "y": args.y, "lag": lag})
    for r in results:
        print(f"granger: {r.direction[0]} -> {r.direction[1]}: F={r.f_stat:.4f} p={r.p_value:.4f}")
    return 0


def _write_ttest_csv(path, results: dict[str, stats.TTestResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["aspect", "group_a_mean", "group_b_mean", "difference", "t", "df", "p", "stars"]
        )
        for aspect, r in results.items():
            writer.writerow(
                [aspect, f"{r.mean_a:.3f}", f"{r.mean_b:.3f}", f"{r.difference:.3f}",
                 repr(r.t_stat), repr(r.df), repr(r.p_value), r.stars]
            )


def _cmd_compare_groups(args, file_cfg):
    _require_paths(("predictions", args.predictions))
    rows = read_prediction_rows(args.predictions)
    results = stats.group_compare(
        rows,
        _group_selector(args.group_a),
        _group_selector(args.group_b),
        mode=args.mode,
    )
    _write_ttest_csv(args.out, results)
    _write_meta(
        args.out,
        {"predictions": args.predictions, "group_a": args.group_a,
         "group_b": args.group_b, "mode": args.mode},
    )
    for aspect, r in results.items():
        print(
            f"compare-groups[{aspect}]: {r.mean_a:.3f} vs {r.mean_b:.3f} "
            f"diff={r.difference:.3f}{r.stars}"
        )
    return 0


def _cmd_report(args, file_cfg):
    section = file_cfg.get("report", {})
    if not section:
        raise PipelineError("report requires a config file with a 'report' section")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lag = int(section.get("lag", 1))
    window = int(section.get("smoothing_window", 7))
    series_input = section.get("series_input", "raw")  # granger always uses raw series
    emitted = []

    if section.get("dataset"):
        ns = argparse.Namespace(dataset=section["dataset"], out=str(out_dir / "table1_dataset_stats.csv"))
        _cmd_stats_dataset(ns, file_cfg)
        emitted.append("table1_dataset_stats.csv")
    if section.get("params") and section.get("test"):
        ns = argparse.Namespace(
            params=section["params"], dataset=section["test"],
            out=str(out_dir / "table2_model_performance.csv"),
            endpoint=None, timeout=None, embed_batch_size=None,
        )
        _cmd_eval(ns, file_cfg)
        emitted.append("table2_model_performance.csv")

    rows = media_rows = None
    if section.get("predictions"):
        rows = read_prediction_rows(section["predictions"])
    if section.get("media_predictions"):
        media_rows = read_prediction_rows(section["media_predictions"])

    if rows:
        count = stats.daily_series(rows, "count")
        smooth = stats.smooth_ma(count, window) if window > 1 else count
        emit_figure_data({"daily_count": smooth}, out_dir / "fig2_daily_counts.csv")
        _write_meta(out_dir / "fig2_daily_counts.csv", section)
        emitted.append("fig2_daily_counts.csv")

        aspect_series = {}
        sentiment_series = {}
        start, end = count.start_date, count.end_date
        for aspect in corpus.CONTENT_ASPECTS + (corpus.Aspect.OVERALL,):
            name = aspect.value
            s = stats.daily_series(rows, "aspect-proportion", aspect=name, start=start, end=end)
            aspect_series[name] = stats.smooth_ma(s, window) if window > 1 else s
            neg = stats.daily_series(rows, "negative-proportion", aspect=name, start=start, end=end)
            sentiment_series[f"{name}_negative"] = (
                stats.smooth_ma(neg, window) if window > 1 else neg
            )
        emit_figure_data(aspect_series, out_dir / "fig3_aspect_proportions.csv")
        _write_meta(out_dir / "fig3_aspect_proportions.csv", section)
        emit_figure_data(sentiment_series, out_dir / "fig5_sentiment_proportions.csv")
        _write_meta(out_dir / "fig5_sentiment_proportions.csv", section)
        emitted += ["fig3_aspect_proportions.csv", "fig5_sentiment_proportions.csv"]

    if rows and media_rows:
        start = min(min(r.day for r in rows), min(r.day for r in media_rows))
        end = max(max(r.day for r in rows), max(r.day for r in media_rows))
        smoothed = series_input == "smoothed"

        def _series(source, mode, aspect):
            s = stats.daily_series(source, mode, aspect=aspect, start=start, end=end)
            return stats.smooth_ma(s, window) if smoothed else s

        with open(out_dir / "table5_granger_aspects.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["aspect", "direction", "lag", "n_used", "F", "p"])
            for aspect in corpus.A_USED:
                name = aspect.value
                media = _series(media_rows, "aspect-proportion", name)
                public = _series(rows, "aspect-proportion", name)
                for cause, effect, label in (
                    (media, public, "media->public"),
                    (public, media, "public->media"),
                ):
                    try:
                        r = stats.granger_test(cause, effect, lag=lag, names=(label, name))
                        writer.writerow([name, label, r.lag, r.n_used, repr(r.f_stat), repr(r.p_value)])
                    except PipelineError:
                        writer.writerow([name, label, lag, "", "", ""])
        _write_meta(out_dir / "table5_granger_aspects.csv", section)
        emitted.append("table5_granger_aspects.csv")

        with open(out_dir / "table6_granger_sentiments.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["aspect", "sentiment", "direction", "lag", "n_used", "F", "p"])
            for aspect in corpus.A_USED:
                name = aspect.value
                for mode, label in (
                    ("negative-proportion", "negative"),
                    ("nonnegative-proportion", "nonnegative"),
                ):
                    media = _series(media_rows, mode, name)
                    public = _series(rows, mode, name)
                    for cause, effect, direction in (
                        (media, public, "media->public"),
                        (public, media, "public->media"),
                    ):
                        try:
                            r = stats.granger_test(cause, effect, lag=lag, names=(direction, name))
                            writer.writerow(
                                [name, label, direction, r.lag, r.n_used, repr(r.f_stat), repr(r.p_value)]
                            )
                        except PipelineError:
                            writer.writerow([name, label, direction, lag, "", "", ""])
        _write_meta(out_dir / "table6_granger_sentiments.csv", section)
        emitted.append("table6_granger_sentiments.csv")

    if rows and section.get("group_a") and section.get("group_b"):
        sel_a = _group_selector(section["group_a"])
        sel_b = _group_selector(section["group_b"])
        for mode, name in (
            ("aspect-proportion", "table7_group_aspects.csv"),
            ("sentiment-mean", "table8_group_sentiments.csv"),
        ):
            results = stats.group_compare(rows, sel_a, sel_b, mode=mode)
            _write_ttest_csv(out_dir / name, results)
            _write_meta(out_dir / name, section)
            emitted.append(name)

    if not emitted:
        raise PipelineError("report config produced no outputs; check the 'report' section")
    print(f"report: wrote {len(emitted)} files to {out_dir}")
    return 0


# --- parser ---


def _add_provider_flags(sub):
    sub.add_argument("--provider", choices=["native-hashed", "remote"])
    sub.add_argument("--ngram-max", type=int, dest="ngram_max")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--hash-seed", type=int, dest="hash_seed")
    sub.add_argument("--endpoint")
    sub.add_argument("--sentiment-endpoint", dest="sentiment_endpoint",
                     help="second remote endpoint for distinct sentiment-stage embeddings")
    sub.add_argument("--timeout", type=float)
    sub.add_argument("--embed-batch-size", type=int, dest="embed_batch_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspectsent",
        description="Aspect-level sentiment pipeline: ingest, adjudicate, train, analyze.",
    )
    parser.add_argument("--version", action="version", version=f"aspectsent {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("-c", "--config", help="JSON config file; flags override it")
        sub.set_defaults(func=handler)
        return sub

    sub = add("ingest", _cmd_ingest, "parse, filter, and sample a JSONL tweet corpus")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--keywords", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--lang")
    sub.add_argument("--date-start", dest="date_start")
    sub.add_argument("--date-end", dest="date_end")
    sub.add_argument("--accounts")
    sub.add_argument("--sample-rate", type=float, dest="sample_rate")
    sub.add_argument("--seed", type=int)

    sub = add("adjudicate", _cmd_adjudicate, "resolve multi-annotator labels into a dataset")
    sub.add_argument("--annotations", required=True)
    sub.add_argument("--tweets")
    sub.add_argument("--out", required=True)

    sub = add("stats-dataset", _cmd_stats_dataset, "per-aspect dataset statistics table")
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)

    sub = add("split", _cmd_split, "deterministic 8:1:1 train/dev/test split")
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out-dir", dest="out_dir", required=True)
    sub.add_argument("--seed", type=int)

    sub = add("train", _cmd_train, "train the two-stage model (or the SVM baseline)")
    sub.add_argument("--train", required=True)
    sub.add_argument("--dev")
    sub.add_argument("--params-out", dest="params_out", required=True)
    sub.add_argument("--objective", choices=["bce", "hinge"], default="bce")
    sub.add_argument("--lr", type=float)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    sub.add_argument("--weight-decay", type=float, dest="weight_decay")
    sub.add_argument("--train-seed", type=int, dest="train_seed")
    sub.add_argument("--aspect-threshold", type=float, dest="aspect_threshold")
    sub.add_argument("--sentiment-threshold", type=float, dest="sentiment_threshold")
    _add_provider_flags(sub)

    sub = add("eval", _cmd_eval, "Table-2-style per-aspect macro/micro F1 report")
    sub.add_argument("--params", required=True)
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--endpoint")
    sub.add_argument("--timeout", type=float)
    sub.add_argument("--embed-batch-size", type=int, dest="embed_batch_size")

    sub = add("infer", _cmd_infer, "two-stage predictions for a corpus")
    sub.add_argument("--params", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--endpoint")
    sub.add_argument("--timeout", type=float)
    sub.add_argument("--embed-batch-size", type=int, dest="embed_batch_size")

    sub = add("augment-candidates", _cmd_augment_candidates,
              "high-confidence unlabeled texts per aspect, for human labeling")
    sub.add_argument("--params", required=True)
    sub.add_argument("--pool", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--cap", type=int)
    sub.add_argument("--endpoint")
    sub.add_argument("--timeout", type=float)
    sub.add_argument("--embed-batch-size", type=int, dest="embed_batch_size")

    sub = add("series", _cmd_series, "daily series (counts/proportions) from predictions")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--select", action="append",
                     help="count, aspect:<A>, negative:<A>, nonnegative:<A>; repeatable")
    sub.add_argument("--start")
    sub.add_argument("--end")
    sub.add_argument("--smooth-window", type=int, dest="smooth_window")
    sub.add_argument("--out", required=True)

    sub = add("granger", _cmd_granger, "Granger causality between two series, both directions")
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True)
    sub.add_argument("--lag", type=int)
    sub.add_argument("--x-name", dest="x_name")
    sub.add_argument("--y-name", dest="y_name")
    sub.add_argument("--out", required=True)

    sub = add("compare-groups", _cmd_compare_groups, "per-aspect Welch t-tests between groups")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--group-a", dest="group_a", required=True)
    sub.add_argument("--group-b", dest="group_b", required=True)
    sub.add_argument("--mode", choices=list(stats.GROUP_COMPARE_MODES), required=True)
    sub.add_argument("--out", required=True)

    sub = add("report", _cmd_report, "bundle all table/figure CSVs into a directory")
    sub.add_argument("--out-dir", dest="out_dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_cfg = _load_config_file(getattr(args, "config", None))
        return args.func(args, file_cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing input path: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
