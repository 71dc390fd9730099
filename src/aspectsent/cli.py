"""Subcommand CLI tying the pipeline together.

Configuration precedence is flags > config file > defaults; the config file
is JSON with the sections and keys of `SETTINGS`, and an unknown section or
key, or a value not of its key's type, is a domain error when the file is
loaded. Every output file gets a sibling `<name>.meta.json` recording the
tool version, a hash of the effective configuration, and the seed, so runs
are auditable; all non-metadata outputs are byte-reproducible given
identical inputs, configuration, and seeds.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, corpus, evaluation, files, ingest, model, stats
from .errors import PipelineError
from .features import PROVIDER_SETTINGS, iter_chunks, provider_config, providers_from_config
from .stats import DailySeries

# Every setting, by config-file section: key -> (kind, default). A flag sets
# the setting its argparse dest names, `<section>.<key>`. A setting whose
# default is None is optional; range checks stay with the code that uses it.
SETTINGS = {
    "ingest": {"lang": (str, "en"), "date_start": (str, None), "date_end": (str, None),
               "sample_rate": (float, 1.0), "seed": (int, 0), "accounts": (str, None)},
    "split": {"seed": (int, 0)},
    # a learning_rate of None is 0.1 for the hashed provider and 0.01 for a remote one
    "train": {"learning_rate": (float, None), "epochs": (int, 20), "batch_size": (int, 32),
              "weight_decay": (float, 0.0), "seed": (int, 0),
              "aspect_threshold": (float, 0.5), "sentiment_threshold": (float, 0.5)},
    "provider": PROVIDER_SETTINGS,
    "augment": {"threshold": (float, 0.90), "cap": (int, 300)},
    "series": {"start": (str, None), "end": (str, None), "smooth_window": (int, 1)},
    "granger": {"lag": (int, 1)},
    # series_input has one value: Granger tables always use raw series
    "report": {"dataset": (str, None), "params": (str, None), "test": (str, None),
               "predictions": (str, None), "media_predictions": (str, None),
               "group_a": (str, None), "group_b": (str, None), "lag": (int, 1),
               "smoothing_window": (int, 7), "series_input": (("raw",), "raw")},
}


def _load_config_file(path: str | None) -> dict:
    """The sections of config file `path`, each checked against SETTINGS and
    completed with its defaults."""
    if not path:
        return {}
    try:
        cfg = files.read_json(path)
        for section in cfg:
            if section not in SETTINGS:
                raise PipelineError(f"{section}: unknown section, expected one of "
                                    f"{', '.join(SETTINGS)}")
        return {section: files.settings(files.field(cfg, section, dict, optional=True) or {},
                                        SETTINGS[section], section) for section in cfg}
    except (ValueError, PipelineError) as exc:  # not UTF-8, not a JSON object, a bad setting
        raise PipelineError(f"bad config file {path}: {exc}") from None


def _flags(args, section: str) -> dict:
    """The settings of `section` that flags set."""
    prefix = f"{section}."
    return {name[len(prefix):]: value for name, value in vars(args).items()
            if name.startswith(prefix) and value is not None}


def _settings(section: str, args, file_cfg: dict) -> dict:
    """Every setting of `section`: flags > config file > defaults."""
    values = file_cfg.get(section) or files.settings({}, SETTINGS[section], section)
    return {**values, **_flags(args, section)}


def _config_hash(effective: dict) -> str:
    canonical = json.dumps(effective, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_meta(out_path, effective_config: dict, seed=None, **extra) -> None:
    """`<out_path>.meta.json`: tool, version, time, config hash and seed, plus `extra`."""
    meta = {
        "tool": "aspectsent",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_hash": _config_hash(effective_config),
        "seed": seed,
        **extra,
    }
    files.write_json(f"{out_path}.meta.json", meta, indent=2)


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
        with open(path, "rb") as src:  # a missing corpus or a directory is main's OSError
            try:
                with open(copy, "wb") as dst:
                    shutil.copyfileobj(src, dst)
            except OSError as exc:  # an unreadable device, a full disk
                raise PipelineError(f"copying the corpus: {exc.filename}: {exc.strerror}") from None
        yield copy
    finally:
        copy.unlink(missing_ok=True)


def _parse_date(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise PipelineError(f"bad date {value!r}, expected YYYY-MM-DD") from None


def _check_lag(lag: int) -> int:
    if lag < 1:
        raise PipelineError(f"lag must be >= 1, got {lag}")
    return lag


def _check_window(window: int) -> int:
    if window < 1 or window % 2 == 0:
        raise PipelineError(f"smoothing window must be odd and >= 1, got {window}")
    return window


def _series_map(table, columns: dict, window: int, start=None, end=None) -> dict:
    """Column name -> the daily series of its (mode, aspect), smoothed when window > 1."""
    out = {}
    for name, (mode, aspect) in columns.items():
        s = stats.daily_series(table, mode, aspect=aspect, start=start, end=end)
        out[name] = stats.smooth_ma(s, window) if window > 1 else s
    return out


# --- provider / train config plumbing ---


def _resolve_train(args, file_cfg: dict, provider_kind: str) -> model.TrainConfig:
    cfg = _settings("train", args, file_cfg)
    if cfg["learning_rate"] is None:
        cfg["learning_rate"] = 0.01 if provider_kind == "remote" else 0.1
    try:
        return model.TrainConfig(**cfg)
    except ValueError as exc:
        raise PipelineError(f"bad train settings: {exc}") from None


def _providers(settings: dict):
    """The provider object a params file records for provider `settings`, and
    its providers; a bad setting is a PipelineError."""
    try:
        cfg = provider_config(settings)
        return (cfg, *providers_from_config(cfg))
    except ValueError as exc:
        raise PipelineError(f"bad provider settings: {exc}") from None


# --- predictions JSONL (infer output; series/compare-groups input) ---


_ASPECT_NAMES = tuple(a.value for a in corpus.A_USED)
_LABELS = tuple(s.value for s in corpus.BinarySentiment)


def _prediction_to_obj(tweet: ingest.RawTweet, p_a, p_y, detected, negative) -> dict:
    """The prediction record of `tweet` from its row of each `model.predict_batch`
    array, as lists; sentiment is written for the detected aspects only."""
    return {
        "id": tweet.id,
        "date": tweet.day.isoformat(),
        "aspect_probs": dict(zip(_ASPECT_NAMES, p_a)),
        "detected": [a for a, hit in zip(_ASPECT_NAMES, detected) if hit],
        "sentiment": {
            a: {"label": "Negative" if neg else "NonNegative", "p_negative": p}
            for a, hit, p, neg in zip(_ASPECT_NAMES, detected, p_y, negative) if hit
        },
        "group_tags": sorted(tweet.group_tags),
        "bot_flag": tweet.bot_flag,
    }


def read_prediction_rows(path) -> stats.Predictions:
    """The predictions file `path` as a table, read in one pass."""
    groups: dict[tuple, int] = {}  # (group_tags, bot_flag) -> its index in the table

    def row(obj: dict) -> tuple[int, int, int, int]:
        detected = negative = 0
        for a in files.field(obj, "detected", [_ASPECT_NAMES]):
            detected |= stats.ASPECT_BITS[a]
        sentiment = files.field(obj, "sentiment", dict, optional=True) or {}
        for a in sentiment:  # an aspect outside `detected` is ignored, so its name is not checked
            if files.field(files.field(sentiment, a, dict), "label", _LABELS) == "Negative":
                negative |= stats.ASPECT_BITS.get(a, 0)
        files.field(obj, "id", str)
        day = _parse_date(files.field(obj, "date", str)).toordinal()
        group = (tuple(files.field(obj, "group_tags", [str], optional=True) or ()),
                 files.field(obj, "bot_flag", bool, optional=True))
        return day, detected, negative & detected, groups.setdefault(group, len(groups))

    rows = np.fromiter(files.read_jsonl(path, row, "prediction"), stats.PREDICTION_COLUMNS)
    return stats.Predictions(rows, list(groups))


def _group_mask(table: stats.Predictions, spec: str) -> np.ndarray:
    """The rows of `table` in group `spec`; each distinct group is tested once."""
    if spec.startswith("tag:"):
        members = [spec[4:] in tags for tags, _ in table.groups]
    elif spec in ("all", "bots", "users"):
        members = [spec == "all" or bot is (spec == "bots") for _, bot in table.groups]
    else:
        raise PipelineError(f"unknown group selector {spec!r} "
                            "(use all, bots, users, or tag:<name>)")
    return np.isin(table.rows["group"], np.flatnonzero(members))


# --- figure data ---


def emit_figure_data(series_map: dict[str, DailySeries], path) -> None:
    """Wide CSV: date column plus one column per named, date-aligned series."""
    if not series_map:
        raise PipelineError("no series to emit")
    first = next(iter(series_map.values()))
    for name, s in series_map.items():
        if s.start_date != first.start_date or len(s) != len(first):
            raise PipelineError(f"series {name!r} is misaligned with the others")
    # from Python floats, so a cell is a float's repr; NaN (a missing day) is an empty cell
    columns = [s.values.tolist() for s in series_map.values()]
    files.write_csv(path, ["date"] + list(series_map), (
        [first.date_at(i).isoformat()] + ["" if v != v else repr(v) for v in row]
        for i, row in enumerate(zip(*columns))
    ))


def _parse_select(spec: str) -> tuple[str, str | None]:
    if spec == "count":
        return "count", None
    for prefix, mode in (
        ("aspect:", "aspect-proportion"),
        ("negative:", "negative-proportion"),
        ("nonnegative:", "nonnegative-proportion"),
    ):
        if spec.startswith(prefix) and spec[len(prefix):] in _ASPECT_NAMES:
            return mode, spec[len(prefix):]
    raise PipelineError(f"bad --select {spec!r} (use count, aspect:<A>, negative:<A>, or "
                        f"nonnegative:<A>, where <A> is one of {', '.join(_ASPECT_NAMES)})")


# --- subcommand handlers ---


def _cmd_ingest(args, file_cfg):
    section = _settings("ingest", args, file_cfg)
    if not section["date_start"] or not section["date_end"]:
        raise PipelineError("ingest requires --date-start and --date-end")
    # a missing corpus is reported before a missing keyword or account file
    with _rereadable(args.corpus, args.out) as corpus_path:
        try:
            spec = ingest.FilterSpec(
                lang=section["lang"],
                keywords=ingest.load_keywords(args.keywords),
                date_start=_parse_date(section["date_start"]),
                date_end=_parse_date(section["date_end"]),
                accounts=ingest.load_accounts(section["accounts"]) if section["accounts"] else None,
                sample_rate=section["sample_rate"],
                seed=section["seed"],
            )
        except ValueError as exc:
            raise PipelineError(f"bad ingest settings: {exc}") from None
        counts = ingest.ingest_file(corpus_path, spec, args.out, name=args.corpus)
    _write_meta(args.out, section, seed=spec.seed, counts=counts)
    print(f"ingest: kept {counts['kept']} tweets -> {args.out}")
    return 0


def _cmd_adjudicate(args, file_cfg):
    annotations = corpus.read_annotations(args.annotations)
    tweets_by_id = None
    if args.tweets:  # every id is checked, but only the annotated tweets are kept
        annotated = {ann.tweet_id for ann in annotations}
        seen, tweets_by_id = set(), {}
        for t in ingest.iter_corpus(args.tweets):
            if t.id in seen:
                raise PipelineError(f"{args.tweets}: tweet id {t.id!r} appears twice")
            seen.add(t.id)
            if t.id in annotated:
                tweets_by_id[t.id] = t
        for ann in annotations:
            if ann.tweet_id not in tweets_by_id:
                raise PipelineError(f"{args.tweets}: no tweet with annotated id {ann.tweet_id!r}")
    examples, discarded = corpus.adjudicate_corpus(annotations, tweets_by_id)
    corpus.write_dataset(args.out, examples)
    _write_meta(args.out, {"annotations": args.annotations, "tweets": args.tweets})
    print(f"adjudicate: accepted {len(examples)}, discarded {discarded} -> {args.out}")
    return 0


def _write_dataset_stats(dataset_path, out) -> None:
    """Table 1: per-aspect and per-sentiment counts of a labeled dataset."""
    table = corpus.dataset_stats(corpus.read_dataset(dataset_path))
    files.write_csv(
        out,
        ["aspect", "sentiment", "count_aspect_sentiment", "percent_within_aspect",
         "count_aspect", "percent_of_corpus"],
        ([row.aspect, sentiment, cell.count, f"{cell.percent:.1f}",
          row.count, f"{row.percent_of_corpus:.1f}"]
         for row in table.rows for sentiment, cell in row.sentiments.items()),
    )
    _write_meta(out, {"dataset": dataset_path})
    print(f"stats-dataset: {table.total} examples")
    for row in table.rows:
        breakdown = ", ".join(
            f"{s} {cell.count} ({cell.percent:.1f}%)" for s, cell in row.sentiments.items()
        )
        print(f"  {row.aspect}: {row.count} ({row.percent_of_corpus:.1f}%) | {breakdown}")


def _cmd_stats_dataset(args, file_cfg):
    _write_dataset_stats(args.dataset, args.out)
    return 0


def _cmd_split(args, file_cfg):
    dataset = corpus.read_dataset(args.dataset)
    seed = _settings("split", args, file_cfg)["seed"]
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


def _cmd_train(args, file_cfg):
    train_set = corpus.labeled_set(corpus.read_dataset(args.train))
    dev_set = corpus.labeled_set(corpus.read_dataset(args.dev)) if args.dev else None

    provider_cfg = _settings("provider", args, file_cfg)
    if args.objective == "hinge":
        if provider_cfg["kind"] != "native-hashed":
            raise PipelineError("the hinge baseline uses native hashed unigram features")
        provider_cfg["ngram_max"] = 1  # the baseline is defined over unigrams
    provider_cfg, provider, provider_y = _providers(provider_cfg)
    train_cfg = _resolve_train(args, file_cfg, provider_cfg["kind"])

    train_loss = None  # the BCE objective's full training loss after each epoch
    if args.objective == "hinge":
        params = model.train_svm_baseline(train_set, train_cfg, provider)
    else:
        train_loss = []
        params = model.train(train_set, dev_set, provider, train_cfg,
                             provider_y=provider_y,
                             epoch_callback=lambda epoch, loss: train_loss.append(loss))

    bundle = model.ModelBundle(
        params=params,
        provider_config=provider_cfg,
        aspect_threshold=train_cfg.aspect_threshold,
        sentiment_threshold=train_cfg.sentiment_threshold,
        objective=args.objective,
    )
    model.save_params(args.params_out, bundle)
    effective = {"provider": provider_cfg, "train": train_cfg.__dict__, "objective": args.objective}
    _write_meta(args.params_out, effective, seed=train_cfg.seed, train_loss=train_loss)
    print(f"train: {len(train_set)} examples, objective={args.objective} -> {args.params_out}")
    return 0


def _load_bundle_and_provider(params_path, flags: dict):
    """Load a params file and its providers; `flags` (endpoint settings)
    override the file's provider object, which must hold on its own and whose
    `dim` must be the tensors'."""
    bundle = model.load_params(params_path)
    try:
        providers_from_config(bundle.provider_config)
    except ValueError as exc:
        raise model.ModelError(f"bad parameter file {params_path}: {exc}") from None
    _, provider, provider_y = _providers({**bundle.provider_config, **flags})
    if provider.dim != bundle.params.dim:
        raise model.ModelError(f"bad parameter file {params_path}: provider dim {provider.dim} "
                               f"!= tensor dim {bundle.params.dim}")
    return bundle, provider, provider_y


def _write_eval(params_path, dataset_path, out, flags: dict) -> None:
    """Table 2: per-aspect macro/micro F1 of a params file on a labeled dataset."""
    bundle, provider, provider_y = _load_bundle_and_provider(params_path, flags)
    gold = corpus.labeled_set(corpus.read_dataset(dataset_path))
    if not gold:
        raise PipelineError("evaluation dataset is empty")
    _, _, pred_a, pred_y = model.predict_batch(gold.texts, provider, bundle.params, bundle,
                                               provider_y)
    reports = {
        "aspect": evaluation.evaluate(pred_a, gold.aspects, stage="aspect"),
        "sentiment": evaluation.evaluate(pred_y, gold.negative, stage="sentiment",
                                         gold_aspects=gold.aspects),
    }
    evaluation.write_report_csv(out, reports)
    _write_meta(out, {"params": params_path, "dataset": dataset_path})
    overall = reports["aspect"]["Overall"]
    print(
        f"eval: aspect Overall macro={overall.macro_f1:.4f} micro={overall.micro_f1:.4f} -> {out}"
    )


def _cmd_eval(args, file_cfg):
    _write_eval(args.params, args.dataset, args.out, _flags(args, "provider"))
    return 0


def _cmd_infer(args, file_cfg):
    bundle, provider, provider_y = _load_bundle_and_provider(args.params, _flags(args, "provider"))

    detected = np.zeros(len(_ASPECT_NAMES), dtype=np.int64)  # rows per detected aspect

    def predictions():
        for tweets in iter_chunks(ingest.iter_corpus(args.corpus)):
            arrays = model.predict_batch([t.text for t in tweets], provider, bundle.params,
                                         bundle, provider_y)
            detected[:] += arrays[2].sum(axis=0)
            yield from map(_prediction_to_obj, tweets, *(a.tolist() for a in arrays))

    count = files.write_jsonl(args.out, predictions())
    _write_meta(args.out, {"params": args.params, "corpus": args.corpus},
                counts={"rows": count, "detected": dict(zip(_ASPECT_NAMES, detected.tolist()))})
    print(f"infer: {count} tweets -> {args.out}")
    return 0


def _cmd_augment_candidates(args, file_cfg):
    bundle, provider, _ = _load_bundle_and_provider(args.params, _flags(args, "provider"))
    section = _settings("augment", args, file_cfg)
    threshold, cap = section["threshold"], section["cap"]
    if not 0.0 < threshold < 1.0 or cap < 1:
        raise PipelineError("augment-candidates needs 0 < threshold < 1 and cap >= 1")
    pool = ((t.id, t.text) for t in ingest.iter_corpus(args.pool))
    candidates = model.select_confident(
        pool, provider, bundle.params, threshold=threshold, cap=cap
    )
    total = files.write_jsonl(args.out, (
        {"aspect": aspect.value, "id": cand.tweet_id, "text": cand.text,
         "probability": cand.probability}
        for aspect in corpus.A_USED for cand in candidates.get(aspect, [])
    ))
    _write_meta(args.out, {"params": args.params, "pool": args.pool,
                           "threshold": threshold, "cap": cap})
    print(f"augment-candidates: {total} candidates -> {args.out}")
    return 0


def _cmd_series(args, file_cfg):
    section = _settings("series", args, file_cfg)
    start = _parse_date(section["start"]) if section["start"] else None
    end = _parse_date(section["end"]) if section["end"] else None
    window = _check_window(section["smooth_window"])
    selects = args.select or ["count"]
    columns = {spec: _parse_select(spec) for spec in selects}
    if len(columns) == 1:  # one series: a `date,value` CSV, as `granger` reads
        columns = {"value": next(iter(columns.values()))}
    emit_figure_data(_series_map(read_prediction_rows(args.predictions), columns, window,
                                 start, end), args.out)
    _write_meta(
        args.out,
        {"predictions": args.predictions, "select": selects, "smooth_window": window,
         "start": section["start"], "end": section["end"]},
    )
    print(f"series: {len(columns)} series -> {args.out}")
    return 0


def _cmd_granger(args, file_cfg):
    lag = _check_lag(_settings("granger", args, file_cfg)["lag"])
    x = stats.read_series_csv(args.x)
    y = stats.read_series_csv(args.y)
    x_name = args.x_name or Path(args.x).stem
    y_name = args.y_name or Path(args.y).stem
    results = [
        stats.granger_test(x, y, lag=lag, names=(x_name, y_name)),
        stats.granger_test(y, x, lag=lag, names=(y_name, x_name)),
    ]
    files.write_csv(args.out, ["cause", "effect", "lag", "n_used", "F", "p"], (
        [r.direction[0], r.direction[1], r.lag, r.n_used, repr(r.f_stat), repr(r.p_value)]
        for r in results
    ))
    _write_meta(args.out, {"x": args.x, "y": args.y, "lag": lag})
    for r in results:
        print(f"granger: {r.direction[0]} -> {r.direction[1]}: F={r.f_stat:.4f} p={r.p_value:.4f}")
    return 0


def _write_group_compare(path, table, group_a: str, group_b: str, mode: str) -> dict:
    """Tables 7-8: per-aspect Welch t-tests between two group selectors."""
    results = stats.group_compare(table, _group_mask(table, group_a), _group_mask(table, group_b),
                                  mode)
    files.write_csv(
        path, ["aspect", "group_a_mean", "group_b_mean", "difference", "t", "df", "p", "stars"],
        ([aspect, f"{r.mean_a:.3f}", f"{r.mean_b:.3f}", f"{r.difference:.3f}",
          repr(r.t_stat), repr(r.df), repr(r.p_value), r.stars]
         for aspect, r in results.items()),
    )
    return results


def _cmd_compare_groups(args, file_cfg):
    rows = read_prediction_rows(args.predictions)
    results = _write_group_compare(args.out, rows, args.group_a, args.group_b, args.mode)
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


# Granger tables: file, key columns, and the series mode of each key under an aspect
_GRANGER_TABLES = (
    ("table5_granger_aspects.csv", ["aspect"], {(): "aspect-proportion"}),
    ("table6_granger_sentiments.csv", ["aspect", "sentiment"],
     {("negative",): "negative-proportion", ("nonnegative",): "nonnegative-proportion"}),
)
_FIGURES = {
    "fig2_daily_counts.csv": {"daily_count": ("count", None)},
    "fig3_aspect_proportions.csv": {a: ("aspect-proportion", a) for a in _ASPECT_NAMES},
    "fig5_sentiment_proportions.csv": {
        f"{a}_negative": ("negative-proportion", a) for a in _ASPECT_NAMES
    },
}


def _cmd_report(args, file_cfg):
    if "report" not in file_cfg:
        raise PipelineError("report requires a config file with a 'report' section")
    section = file_cfg["report"]
    lag = _check_lag(section["lag"])
    window = _check_window(section["smoothing_window"])
    # a key set without a key its tables need is an error; a table with no key set is skipped
    for key, needed in (("params", "test"), ("test", "params"), ("group_a", "group_b"),
                        ("group_b", "group_a"), ("group_a", "predictions"),
                        ("media_predictions", "predictions")):
        if section[key] and not section[needed]:
            raise PipelineError(f"report.{key} needs report.{needed}, which is not set")
    tables = {}  # each predictions file the section names must have rows
    for key in ("predictions", "media_predictions"):
        if section[key]:
            tables[key] = read_prediction_rows(section[key])
            if not tables[key]:
                raise PipelineError(f"report.{key}: {section[key]} has no prediction rows")
    rows, media_rows = tables.get("predictions"), tables.get("media_predictions")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted = []

    if section["dataset"]:
        _write_dataset_stats(section["dataset"], out_dir / "table1_dataset_stats.csv")
        emitted.append("table1_dataset_stats.csv")
    if section["params"]:
        _write_eval(section["params"], section["test"],
                    out_dir / "table2_model_performance.csv", {})
        emitted.append("table2_model_performance.csv")

    if rows:
        for name, columns in _FIGURES.items():
            emit_figure_data(_series_map(rows, columns, window), out_dir / name)
            _write_meta(out_dir / name, section)
            emitted.append(name)

    if rows and media_rows:
        # raw series of both sources over the union of their days; a pair too
        # short or degenerate for the test is a row with blank cells
        days = rows.span() + media_rows.span()
        for name, key_columns, modes in _GRANGER_TABLES:
            columns = {(a.value, *key): (mode, a.value)
                       for a in corpus.A_USED for key, mode in modes.items()}
            media, public = (_series_map(source, columns, 1, min(days), max(days))
                             for source in (media_rows, rows))
            table = []
            for key in columns:
                for cause, effect, direction in ((media[key], public[key], "media->public"),
                                                 (public[key], media[key], "public->media")):
                    try:
                        r = stats.granger_test(cause, effect, lag=lag, names=(direction, key[0]))
                        cells = [r.lag, r.n_used, repr(r.f_stat), repr(r.p_value)]
                    except PipelineError:
                        cells = [lag, "", "", ""]
                    table.append([*key, direction, *cells])
            files.write_csv(out_dir / name, key_columns + ["direction", "lag", "n_used", "F", "p"],
                            table)
            _write_meta(out_dir / name, section)
            emitted.append(name)

    if rows and section["group_a"]:
        for mode, name in (
            ("aspect-proportion", "table7_group_aspects.csv"),
            ("sentiment-mean", "table8_group_sentiments.csv"),
        ):
            _write_group_compare(out_dir / name, rows, section["group_a"], section["group_b"], mode)
            _write_meta(out_dir / name, section)
            emitted.append(name)

    if not emitted:
        raise PipelineError("report config produced no outputs; check the 'report' section")
    print(f"report: wrote {len(emitted)} files to {out_dir}")
    return 0


# --- parser ---


# a flag whose dest is `<section>.<key>` sets that setting (see SETTINGS)


def _add_endpoint_flags(sub):
    sub.add_argument("--endpoint", dest="provider.endpoint")
    sub.add_argument("--timeout", type=float, dest="provider.timeout")
    sub.add_argument("--embed-batch-size", type=int, dest="provider.batch_size")


def _add_provider_flags(sub):
    sub.add_argument("--provider", choices=PROVIDER_SETTINGS["kind"][0], dest="provider.kind")
    sub.add_argument("--ngram-max", type=int, dest="provider.ngram_max")
    sub.add_argument("--dim", type=int, dest="provider.dim")
    sub.add_argument("--hash-seed", type=int, dest="provider.hash_seed")
    sub.add_argument("--sentiment-endpoint", dest="provider.sentiment_endpoint",
                     help="second remote endpoint for distinct sentiment-stage embeddings")
    _add_endpoint_flags(sub)


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
    sub.add_argument("--lang", dest="ingest.lang")
    sub.add_argument("--date-start", dest="ingest.date_start")
    sub.add_argument("--date-end", dest="ingest.date_end")
    sub.add_argument("--accounts", dest="ingest.accounts")
    sub.add_argument("--sample-rate", type=float, dest="ingest.sample_rate")
    sub.add_argument("--seed", type=int, dest="ingest.seed")

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
    sub.add_argument("--seed", type=int, dest="split.seed")

    sub = add("train", _cmd_train, "train the two-stage model (or the SVM baseline)")
    sub.add_argument("--train", required=True)
    sub.add_argument("--dev")
    sub.add_argument("--params-out", dest="params_out", required=True)
    sub.add_argument("--objective", choices=["bce", "hinge"], default="bce")
    sub.add_argument("--lr", type=float, dest="train.learning_rate")
    sub.add_argument("--epochs", type=int, dest="train.epochs")
    sub.add_argument("--batch-size", type=int, dest="train.batch_size")
    sub.add_argument("--weight-decay", type=float, dest="train.weight_decay")
    sub.add_argument("--train-seed", type=int, dest="train.seed")
    sub.add_argument("--aspect-threshold", type=float, dest="train.aspect_threshold")
    sub.add_argument("--sentiment-threshold", type=float, dest="train.sentiment_threshold")
    _add_provider_flags(sub)

    sub = add("eval", _cmd_eval, "Table-2-style per-aspect macro/micro F1 report")
    sub.add_argument("--params", required=True)
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)
    _add_endpoint_flags(sub)

    sub = add("infer", _cmd_infer, "two-stage predictions for a corpus")
    sub.add_argument("--params", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--out", required=True)
    _add_endpoint_flags(sub)

    sub = add("augment-candidates", _cmd_augment_candidates,
              "high-confidence unlabeled texts per aspect, for human labeling")
    sub.add_argument("--params", required=True)
    sub.add_argument("--pool", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--threshold", type=float, dest="augment.threshold")
    sub.add_argument("--cap", type=int, dest="augment.cap")
    _add_endpoint_flags(sub)

    sub = add("series", _cmd_series, "daily series (counts/proportions) from predictions")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--select", action="append",
                     help="count, aspect:<A>, negative:<A>, nonnegative:<A>; repeatable")
    sub.add_argument("--start", dest="series.start")
    sub.add_argument("--end", dest="series.end")
    sub.add_argument("--smooth-window", type=int, dest="series.smooth_window")
    sub.add_argument("--out", required=True)

    sub = add("granger", _cmd_granger, "Granger causality between two series, both directions")
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True)
    sub.add_argument("--lag", type=int, dest="granger.lag")
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
        file_cfg = _load_config_file(args.config)
        return args.func(args, file_cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable input (a directory), a full disk
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
