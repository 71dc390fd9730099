"""Subcommand CLI tying the pipeline together.

Configuration precedence is flags > config file > defaults; the config file
is JSON with the sections and keys of `SETTINGS`, and an unknown section or
key, or a value not of its key's type, is a domain error when the file is
loaded. Every output file gets a sibling `<name>.meta.json` recording the
tool version, a hash of the effective configuration, and the seed, so runs
are auditable; all non-metadata outputs are byte-reproducible given
identical inputs, configuration, and seeds. `main` runs each command in one
`files.committed()` block: its outputs and metas land together when the
handler returns, and a command that fails before then changes no previous output.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from collections import Counter
from contextlib import closing, contextmanager
from datetime import date, datetime, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__, corpus, evaluation, files, ingest, model, stats
from .errors import PipelineError
from .features import (PROVIDER_SETTINGS, HashedProvider, embed_bodies, iter_chunks, providers,
                       request_bodies)
from .stats import DailySeries

# Every setting, by config-file section: key -> (kind, default). A flag sets
# the setting its argparse dest names, `<section>.<key>`, and is generated
# from this table by `_add_setting_flags`. A setting whose default is None
# is optional; range checks stay with the code that uses it.
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
        return providers(settings)
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
    days: dict[str, int] = {}  # a date string already parsed -> its ordinal

    def row(obj: dict) -> tuple[int, int, int, int]:
        detected = negative = 0
        for a in files.field(obj, "detected", [_ASPECT_NAMES]):
            detected |= stats.ASPECT_BITS[a]
        sentiment = files.field(obj, "sentiment", dict, optional=True) or {}
        for a in sentiment:  # an aspect outside `detected` is ignored, so its name is not checked
            if files.field(files.field(sentiment, a, dict), "label", _LABELS) == "Negative":
                negative |= stats.ASPECT_BITS.get(a, 0)
        files.field(obj, "id", str)
        text = files.field(obj, "date", str)
        day = days.get(text)
        if day is None:
            day = days[text] = _parse_date(text).toordinal()
        group = (tuple(files.field(obj, "group_tags", [str], optional=True) or ()),
                 files.field(obj, "bot_flag", bool, optional=True))
        return day, detected, negative & detected, groups.setdefault(group, len(groups))

    rows = np.fromiter(files.read_jsonl(path, row, "prediction"), stats.PREDICTION_COLUMNS)
    return stats.Predictions(rows, list(groups))


def _group_selector(spec: str):
    """The test that group selector `spec` makes of a (group_tags, bot_flag) group."""
    if spec.startswith("tag:"):
        return lambda tags, bot: spec[4:] in tags
    if spec in ("all", "bots", "users"):
        return lambda tags, bot: spec == "all" or bot is (spec == "bots")
    raise PipelineError(f"unknown group selector {spec!r} "
                        "(use all, bots, users, or tag:<name>)")


def _group_mask(table: stats.Predictions, selector) -> np.ndarray:
    """The rows of `table` in the groups `selector` passes; each distinct group is tested once."""
    members = [selector(tags, bot) for tags, bot in table.groups]
    return np.isin(table.rows["group"], np.flatnonzero(members))


# --- figure data ---


def figure_table(series_map: dict[str, DailySeries]) -> tuple[list, list]:
    """Wide table: date column plus one column per named, date-aligned series."""
    if not series_map:
        raise PipelineError("no series to emit")
    first = next(iter(series_map.values()))
    for name, s in series_map.items():
        if s.start_date != first.start_date or len(s) != len(first):
            raise PipelineError(f"series {name!r} is misaligned with the others")
    # from Python floats, so a cell is a float's repr; NaN (a missing day) is an empty cell
    columns = [s.values.tolist() for s in series_map.values()]
    return ["date", *series_map], [
        [first.date_at(i).isoformat()] + ["" if v != v else repr(v) for v in row]
        for i, row in enumerate(zip(*columns))
    ]


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
    out = files.staged(args.out)  # ingest_file fills it in place
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
        counts = ingest.ingest_file(corpus_path, spec, out, name=args.corpus)
    _write_meta(args.out, section, seed=spec.seed, counts=counts)
    print(f"ingest: kept {counts['kept']} tweets -> {args.out}")


def _cmd_adjudicate(args, file_cfg):
    try:
        annotations = corpus.read_annotations(args.annotations)
    except PipelineError:
        if args.tweets:  # an annotation repeats its tweet's id: report a bad id where it comes from
            for _ in ingest.iter_corpus(args.tweets):
                pass
        raise
    annotated = {ann.tweet_id for ann in annotations}
    tweets_by_id = None
    if args.tweets:  # every id is checked, but only the annotated tweets are kept
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
    phases = Counter(e.provenance for e in examples)
    _write_meta(args.out, {"annotations": args.annotations, "tweets": args.tweets},
                counts={"tweets": len(annotated), "phase_1": phases["phase-1"],
                        "phase_2": phases["phase-2"], "discarded": discarded})
    print(f"adjudicate: accepted {len(examples)}, discarded {discarded} -> {args.out}")


def _pct(count: int, total: int) -> str:
    """`count` in percent of `total`, rounded half-up to one decimal, as text; 0.0 if no total."""
    return f"{math.floor(count / total * 1000 + 0.5) / 10 if total else 0.0:.1f}"


def _dataset_stats_table(dataset_path) -> tuple[list, list]:
    """Table 1: per-aspect and per-sentiment counts of a labeled dataset, each
    with its percent of the aspect's tweets, and each aspect's percent of the
    corpus; prints its summary."""
    dataset = corpus.read_dataset(dataset_path)
    aspects = []  # (aspect, count, percent of corpus, [(sentiment, count, percent)])
    for aspect, cells in zip(corpus.TABLE_ASPECTS, corpus.dataset_stats(dataset).tolist()):
        n = sum(cells)
        aspects.append((aspect.value, n, _pct(n, len(dataset)),
                        [(s.value, c, _pct(c, n)) for s, c in zip(corpus.Sentiment, cells)]))
    print(f"stats-dataset: {len(dataset)} examples")
    for aspect, n, n_pct, cells in aspects:
        breakdown = ", ".join(f"{s} {c} ({pct}%)" for s, c, pct in cells)
        print(f"  {aspect}: {n} ({n_pct}%) | {breakdown}")
    return (["aspect", "sentiment", "count_aspect_sentiment", "percent_within_aspect",
             "count_aspect", "percent_of_corpus"],
            [[aspect, s, c, pct, n, n_pct] for aspect, n, n_pct, cells in aspects
             for s, c, pct in cells])


def _cmd_stats_dataset(args, file_cfg):
    files.write_csv(args.out, *_dataset_stats_table(args.dataset))
    _write_meta(args.out, {"dataset": args.dataset})


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


def _load_bundle_and_provider(params_path, flags: dict):
    """Load a params file and its providers; `flags` (endpoint settings)
    override the file's provider object."""
    bundle = model.load_params(params_path)
    _, provider, provider_y = _providers({**bundle.provider_config, **flags})
    return bundle, provider, provider_y


def _eval_table(params_path, dataset_path, flags: dict) -> tuple[list, list]:
    """Table 2: per-aspect macro/micro F1 of a params file on a labeled dataset."""
    bundle, provider, provider_y = _load_bundle_and_provider(params_path, flags)
    gold = corpus.labeled_set(corpus.read_dataset(dataset_path))
    if not gold:
        raise PipelineError("evaluation dataset is empty")
    _, _, pred_a, pred_y = model.predict_batch(gold.texts, provider, bundle.params, bundle,
                                               provider_y)
    return evaluation.report_table({
        "aspect": evaluation.evaluate(pred_a, gold.aspects),
        "sentiment": evaluation.evaluate(pred_y, gold.negative, gold.aspects),
    })


def _print_eval(rows, out) -> None:
    _, macro, micro, *_ = rows[-1]  # the pooled Overall row
    print(f"eval: aspect Overall macro={macro} micro={micro} -> {out}")


def _cmd_eval(args, file_cfg):
    header, rows = _eval_table(args.params, args.dataset, _flags(args, "provider"))
    files.write_csv(args.out, header, rows)
    _write_meta(args.out, {"params": args.params, "dataset": args.dataset})
    _print_eval(rows, args.out)


def _cmd_infer(args, file_cfg):
    """Predict every tweet of the corpus into `--out`.

    The corpus goes to forked workers, and this process writes each task's
    lines in corpus order, holding one task's text at a time:

    * with a hashed provider, whose rows do not depend on their batch, through
      `ingest.map_ranges`: each worker parses, predicts and formats one byte
      range at a time;
    * with a remote provider, through `ingest.map_tasks`: this process reads
      the corpus in `iter_chunks` blocks of `EMBED_CHUNK_ROWS` tweets and sends
      every HTTP request itself, one at a time in input order, first each batch
      of the provider and then each of the sentiment provider. It streams a
      block's tweets and raw response bodies to a worker, which decodes and
      checks them (`features.embed_bodies`, as `embed_remote` does), predicts
      the whole block and formats it.

    A host of one CPU, a hashed corpus that is not a regular file or is one
    range, and a remote corpus of at most one block stream here instead,
    `EMBED_CHUNK_ROWS` tweets at a time. Either way, `--out`, its counts, the
    requests and the first error are the same.
    """
    bundle, provider, provider_y = _load_bundle_and_provider(args.params, _flags(args, "provider"))
    detected = np.zeros(len(_ASPECT_NAMES), dtype=np.int64)  # rows per detected aspect

    def records(chunk, arrays, found):  # the prediction records of one block
        found += arrays[2].sum(axis=0)
        return map(_prediction_to_obj, chunk, *(a.tolist() for a in arrays))

    def predictions(chunks, found):
        for chunk in chunks:
            yield from records(chunk, model.predict_batch([t.text for t in chunk], provider,
                                                          bundle.params, bundle, provider_y), found)

    def infer_range(lines):  # in a worker
        tweets = list(ingest.parse_lines(lines, args.corpus))
        found = np.zeros_like(detected)
        return files.jsonl_text(predictions(iter_chunks(tweets), found)), len(tweets), found

    def remote_task(chunk):  # a block's tweets, then the response body of each request
        yield chunk
        texts = [t.text for t in chunk]
        for remote in filter(None, (provider, provider_y)):
            yield from request_bodies(texts, remote.spec)

    def infer_block(pieces):  # in a worker
        chunk = next(pieces)
        h = embed_bodies(pieces, len(chunk), provider.spec)
        h_y = None if provider_y is None else embed_bodies(pieces, len(chunk), provider_y.spec)
        found = np.zeros_like(detected)
        arrays = model.predict_rows(h, bundle.params, bundle, h_y)
        return files.jsonl_text(records(chunk, arrays, found)), len(chunk), found

    chunks = iter_chunks(ingest.iter_corpus(args.corpus))
    if isinstance(provider, HashedProvider):
        results = ingest.map_ranges(args.corpus, args.corpus, infer_range, "infer")
    else:  # forks only for a second block, so read ahead to it
        head = list(islice(chunks, 1))
        try:
            head += islice(chunks, 1)
        except PipelineError as exc:  # a bad line in block 2: raised after block 1's requests
            chunks = ingest.raising([exc])
        chunks = chain(head, chunks)
        results = None
        if len(head) > 1:
            results = ingest.map_tasks(map(remote_task, chunks), infer_block, args.corpus, "infer")
    if results is None:
        count = files.write_jsonl(args.out, predictions(chunks, detected))
    else:
        count = 0
        with closing(results), files.open_output(args.out) as fh:
            for text, rows, found in results:
                fh.write(text)
                count += rows
                detected += found
    _write_meta(args.out, {"params": args.params, "corpus": args.corpus},
                counts={"rows": count, "detected": dict(zip(_ASPECT_NAMES, detected.tolist()))})
    print(f"infer: {count} tweets -> {args.out}")


def _cmd_augment_candidates(args, file_cfg):
    bundle, provider, _ = _load_bundle_and_provider(args.params, _flags(args, "provider"))
    section = _settings("augment", args, file_cfg)
    threshold, cap = section["threshold"], section["cap"]
    pool = ((t.id, t.text) for t in ingest.iter_corpus(args.pool))
    candidates = model.select_confident(pool, provider, bundle.params, threshold, cap)
    total = files.write_jsonl(args.out, (
        {"aspect": aspect.value, "id": cand.tweet_id, "text": cand.text,
         "probability": cand.probability}
        for aspect in corpus.A_USED for cand in candidates.get(aspect, [])
    ))
    _write_meta(args.out, {"params": args.params, "pool": args.pool,
                           "threshold": threshold, "cap": cap})
    print(f"augment-candidates: {total} candidates -> {args.out}")


def _cmd_series(args, file_cfg):
    section = _settings("series", args, file_cfg)
    start = _parse_date(section["start"]) if section["start"] else None
    end = _parse_date(section["end"]) if section["end"] else None
    window = stats.check_window(section["smooth_window"])
    selects = args.select or ["count"]
    columns = {spec: _parse_select(spec) for spec in selects}
    if len(columns) == 1:  # one series: a `date,value` CSV, as `granger` reads
        columns = {"value": next(iter(columns.values()))}
    files.write_csv(args.out, *figure_table(_series_map(read_prediction_rows(args.predictions),
                                                        columns, window, start, end)))
    _write_meta(
        args.out,
        {"predictions": args.predictions, "select": selects, "smooth_window": window,
         "start": section["start"], "end": section["end"]},
    )
    print(f"series: {len(columns)} series -> {args.out}")


_GRANGER_COLUMNS = ("lag", "n_used", "F", "p")  # the cells of one Granger direction


def _granger_cells(cause, effect, lag: int) -> list:
    """The `_GRANGER_COLUMNS` cells of one direction; blank but its lag if it cannot be tested."""
    try:
        r = stats.granger_test(cause, effect, lag=lag)
    except stats.UntestableError:
        return [lag, "", "", ""]
    return [lag, r.n_used, repr(r.f_stat), repr(r.p_value)]


def _cmd_granger(args, file_cfg):
    lag = stats.check_lag(_settings("granger", args, file_cfg)["lag"])
    x = stats.read_series_csv(args.x)
    y = stats.read_series_csv(args.y)
    x_name, y_name = args.x_name or Path(args.x).stem, args.y_name or Path(args.y).stem
    rows = [[x_name, y_name, *_granger_cells(x, y, lag)],
            [y_name, x_name, *_granger_cells(y, x, lag)]]
    files.write_csv(args.out, ["cause", "effect", *_GRANGER_COLUMNS], rows)
    _write_meta(args.out, {"x": args.x, "y": args.y, "lag": lag})
    for cause, effect, _, _, f_stat, p in rows:
        tested = f"F={float(f_stat):.4f} p={float(p):.4f}" if f_stat else "not tested"
        print(f"granger: {cause} -> {effect}: {tested}")


def _group_table(table, selector_a, selector_b, mode: str) -> tuple[list, list]:
    """Tables 7-8: per-aspect Welch t-tests between two groups."""
    results = stats.group_compare(table, _group_mask(table, selector_a),
                                  _group_mask(table, selector_b), mode)
    return (["aspect", "group_a_mean", "group_b_mean", "difference", "t", "df", "p", "stars"],
            [[aspect, f"{r.mean_a:.3f}", f"{r.mean_b:.3f}", f"{r.difference:.3f}",
              repr(r.t_stat), repr(r.df), repr(r.p_value), r.stars]
             for aspect, r in results.items()])


def _cmd_compare_groups(args, file_cfg):
    selectors = _group_selector(args.group_a), _group_selector(args.group_b)
    header, rows = _group_table(read_prediction_rows(args.predictions), *selectors, args.mode)
    files.write_csv(args.out, header, rows)
    _write_meta(
        args.out,
        {"predictions": args.predictions, "group_a": args.group_a,
         "group_b": args.group_b, "mode": args.mode},
    )
    for aspect, mean_a, mean_b, difference, *_, stars in rows:
        print(f"compare-groups[{aspect}]: {mean_a} vs {mean_b} diff={difference}{stars}")


_TABLE2 = "table2_model_performance.csv"  # its `eval:` line prints once it is written
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
    lag = stats.check_lag(section["lag"])
    window = stats.check_window(section["smoothing_window"])
    # a key set without a key its tables need is an error; a table with no key set is skipped
    for key, needed in (("params", "test"), ("test", "params"), ("group_a", "group_b"),
                        ("group_b", "group_a"), ("group_a", "predictions"),
                        ("media_predictions", "predictions")):
        if section[key] and not section[needed]:
            raise PipelineError(f"report.{key} needs report.{needed}, which is not set")
    selectors = [_group_selector(section[key]) for key in ("group_a", "group_b") if section[key]]
    predictions = {}  # each predictions file the section names must have rows
    for key in ("predictions", "media_predictions"):
        if section[key]:
            predictions[key] = read_prediction_rows(section[key])
            if not predictions[key]:
                raise PipelineError(f"report.{key}: {section[key]} has no prediction rows")
    rows, media_rows = predictions.get("predictions"), predictions.get("media_predictions")

    tables = {}  # file name -> (header, rows); every table is built before any is written
    if section["dataset"]:
        tables["table1_dataset_stats.csv"] = _dataset_stats_table(section["dataset"])
    if section["params"]:
        tables[_TABLE2] = _eval_table(section["params"], section["test"], {})

    if rows:
        for name, columns in _FIGURES.items():
            tables[name] = figure_table(_series_map(rows, columns, window))

    if rows and media_rows:
        # raw series of both sources over the union of their days
        days = rows.span() + media_rows.span()
        for name, key_columns, modes in _GRANGER_TABLES:
            columns = {(a.value, *key): (mode, a.value)
                       for a in corpus.A_USED for key, mode in modes.items()}
            media, public = (_series_map(source, columns, 1, min(days), max(days))
                             for source in (media_rows, rows))
            tables[name] = (key_columns + ["direction", *_GRANGER_COLUMNS], [
                [*key, direction, *_granger_cells(cause, effect, lag)] for key in columns
                for cause, effect, direction in ((media[key], public[key], "media->public"),
                                                 (public[key], media[key], "public->media"))])

    if rows and selectors:
        for mode, name in (("aspect-proportion", "table7_group_aspects.csv"),
                           ("sentiment-mean", "table8_group_sentiments.csv")):
            tables[name] = _group_table(rows, *selectors, mode)

    if not tables:
        raise PipelineError("report config produced no outputs; check the 'report' section")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, table_rows) in tables.items():
        files.write_csv(out_dir / name, header, table_rows)
        _write_meta(out_dir / name, section)
    if _TABLE2 in tables:
        _print_eval(tables[_TABLE2][1], out_dir / _TABLE2)
    print(f"report: wrote {len(tables)} tables to {out_dir}")


# --- parser ---


# the flag of a setting is `--<key>` with dashes, except these; a bool
# setting has no flag, since argparse's type=bool reads "false" as True
_FLAG_NAMES = {"train.learning_rate": "--lr", "train.seed": "--train-seed",
               "provider.kind": "--provider", "provider.batch_size": "--embed-batch-size"}
_ENDPOINT_KEYS = ("endpoint", "timeout", "batch_size")  # what eval, infer and augment take


def _add_setting_flags(sub, section: str, keys=None) -> None:
    """A flag for each setting of `section` (or its `keys`), with dest
    `<section>.<key>` (see SETTINGS) and the setting's type or choices."""
    for key in keys or SETTINGS[section]:
        kind, dest = SETTINGS[section][key][0], f"{section}.{key}"
        if kind is bool:
            continue
        checks = ({"choices": kind} if isinstance(kind, tuple)
                  else {} if kind is str else {"type": kind})
        sub.add_argument(_FLAG_NAMES.get(dest, "--" + key.replace("_", "-")), dest=dest, **checks)


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
    _add_setting_flags(sub, "ingest")

    sub = add("adjudicate", _cmd_adjudicate, "resolve multi-annotator labels into a dataset")
    sub.add_argument("--annotations", required=True)
    sub.add_argument("--tweets")
    sub.add_argument("--out", required=True)

    sub = add("stats-dataset", _cmd_stats_dataset, "per-aspect dataset statistics table")
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)

    sub = add("split", _cmd_split, "deterministic 8:1:1 train/dev/test split")
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out-dir", required=True)
    _add_setting_flags(sub, "split")

    sub = add("train", _cmd_train, "train the two-stage model (or the SVM baseline)")
    sub.add_argument("--train", required=True)
    sub.add_argument("--dev")
    sub.add_argument("--params-out", required=True)
    sub.add_argument("--objective", choices=["bce", "hinge"], default="bce")
    _add_setting_flags(sub, "train")
    _add_setting_flags(sub, "provider")

    sub = add("eval", _cmd_eval, "Table-2-style per-aspect macro/micro F1 report")
    sub.add_argument("--params", required=True)
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--out", required=True)
    _add_setting_flags(sub, "provider", _ENDPOINT_KEYS)

    sub = add("infer", _cmd_infer, "two-stage predictions for a corpus")
    sub.add_argument("--params", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--out", required=True)
    _add_setting_flags(sub, "provider", _ENDPOINT_KEYS)

    sub = add("augment-candidates", _cmd_augment_candidates,
              "high-confidence unlabeled texts per aspect, for human labeling")
    sub.add_argument("--params", required=True)
    sub.add_argument("--pool", required=True)
    sub.add_argument("--out", required=True)
    _add_setting_flags(sub, "augment")
    _add_setting_flags(sub, "provider", _ENDPOINT_KEYS)

    sub = add("series", _cmd_series, "daily series (counts/proportions) from predictions")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--select", action="append",
                     help="count, aspect:<A>, negative:<A>, nonnegative:<A>; repeatable")
    sub.add_argument("--out", required=True)
    _add_setting_flags(sub, "series")

    sub = add("granger", _cmd_granger, "Granger causality between two series, both directions")
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True)
    sub.add_argument("--x-name")
    sub.add_argument("--y-name")
    sub.add_argument("--out", required=True)
    _add_setting_flags(sub, "granger")

    sub = add("compare-groups", _cmd_compare_groups, "per-aspect Welch t-tests between groups")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--group-a", required=True)
    sub.add_argument("--group-b", required=True)
    sub.add_argument("--mode", choices=list(stats.GROUP_COMPARE_MODES), required=True)
    sub.add_argument("--out", required=True)

    sub = add("report", _cmd_report, "bundle all table/figure CSVs into a directory")
    sub.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_cfg = _load_config_file(args.config)
        with files.committed():  # the command's outputs land together when it returns
            args.func(args, file_cfg)
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable input (a directory), a full disk
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
