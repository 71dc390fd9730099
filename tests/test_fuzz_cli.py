"""Fuzzed inputs for every subcommand: exit 0, 1 or 2, no traceback, no temp file
left, and a failed command changes no file.

Each example copies a set of valid inputs, breaks one file a subcommand reads
(a wrong-typed field, a truncated line, a non-UTF-8 byte, an empty file, a
huge number, deep nesting) and runs the subcommand in-process. An exception
escaping `cli.main` fails the example. The suite runs a fixed set of a few
dozen examples; raise `max_examples` and drop `derandomize` for a longer
random search.
"""

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aspectsent import synth
from aspectsent.cli import main

# what each subcommand reads besides config.json; "{x}" is input x in the example's directory
COMMANDS = {
    "ingest": ["ingest", "--corpus", "{corpus.jsonl}", "--keywords", "{keywords.txt}",
               "--out", "{out}", "--date-start", "2020-01-01", "--date-end", "2020-12-31",
               "--sample-rate", "0.5"],
    "adjudicate": ["adjudicate", "--annotations", "{ann.jsonl}", "--tweets", "{corpus.jsonl}",
                   "--out", "{out}"],
    "stats-dataset": ["stats-dataset", "--dataset", "{dataset.jsonl}", "--out", "{out}"],
    "split": ["split", "--dataset", "{dataset.jsonl}", "--out-dir", "{out}"],
    "train": ["train", "--train", "{dataset.jsonl}", "--dev", "{dataset.jsonl}",
              "--params-out", "{out}", "--dim", "1024", "--epochs", "1"],
    "train-hinge": ["train", "--objective", "hinge", "--train", "{dataset.jsonl}",
                    "--params-out", "{out}", "--dim", "1024", "--epochs", "1"],
    "eval": ["eval", "--params", "{params.json}", "--dataset", "{dataset.jsonl}",
             "--out", "{out}"],
    "infer": ["infer", "--params", "{params.json}", "--corpus", "{corpus.jsonl}",
              "--out", "{out}"],
    "augment-candidates": ["augment-candidates", "--params", "{params.json}",
                           "--pool", "{corpus.jsonl}", "--threshold", "0.5", "--out", "{out}"],
    "series": ["series", "--predictions", "{pred.jsonl}", "--select", "aspect:Politics",
               "--select", "negative:Politics", "--out", "{out}"],
    "granger": ["granger", "--x", "{x.csv}", "--y", "{y.csv}", "--out", "{out}"],
    "compare-groups": ["compare-groups", "--predictions", "{pred.jsonl}", "--group-a", "bots",
                       "--group-b", "users", "--mode", "sentiment-mean", "--out", "{out}"],
    "report": ["report", "-c", "{config.json}", "--out-dir", "{out}"],
}
REPORT_INPUTS = ("dataset.jsonl", "params.json", "pred.jsonl")

DEEP = "[" * 100_000 + "]" * 100_000
ODD_VALUES = [None, True, 0, -1, 2**70, 10**400, 1e308, float("inf"), float("nan"), 0.5, "",
              "x", "\ud800x", "Politics", "2020-03-01", [], ["x"], {}, {"label": "Negative"}, DEEP]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    synth.write_jsonl(d / "corpus.jsonl", synth.make_corpus_records(12, seed=5, days=4))
    (d / "keywords.txt").write_text("china\nwuhan\n", encoding="utf-8")
    synth.write_jsonl(d / "ann.jsonl", synth.make_annotation_records(4, seed=6))
    synth.write_jsonl(d / "dataset.jsonl", synth.make_dataset_records(20, seed=7))
    with redirect_stdout(io.StringIO()):
        assert main(["train", "--train", str(d / "dataset.jsonl"), "--params-out",
                     str(d / "params.json"), "--dim", "1024", "--epochs", "2"]) == 0
        assert main(["infer", "--params", str(d / "params.json"), "--corpus",
                     str(d / "corpus.jsonl"), "--out", str(d / "pred.jsonl")]) == 0
        for name, select in (("x.csv", "aspect:Politics"), ("y.csv", "count")):
            assert main(["series", "--predictions", str(d / "pred.jsonl"), "--select", select,
                         "--out", str(d / name)]) == 0
    (d / "config.json").write_text(json.dumps({
        "ingest": {"lang": "en", "seed": 3, "accounts": None},
        "split": {"seed": 2},
        "train": {"learning_rate": 0.1, "batch_size": 8, "weight_decay": 0.0, "seed": 1},
        "provider": {"ngram_max": 1, "hash_seed": 0, "normalize": True, "timeout": 5.0},
        "augment": {"cap": 5},
        "series": {"smooth_window": 1, "start": None},
        "granger": {"lag": 1},
        "report": {
            "dataset": "dataset.jsonl", "params": "params.json", "test": "dataset.jsonl",
            "predictions": "pred.jsonl", "media_predictions": "pred.jsonl",
            "group_a": "bots", "group_b": "users", "lag": 1, "smoothing_window": 3,
        },
    }), encoding="utf-8")
    for f in d.glob("*.meta.json"):
        f.unlink()
    return d


def _inputs(argv: list[str]) -> list[str]:
    names = [a[1:-1] for a in argv if a.startswith("{") and a != "{out}"]
    return names + list(REPORT_INPUTS) if argv[0] == "report" else names + ["config.json"]


def _json_paths(obj, prefix=()):
    """The key path of every value inside nested JSON objects."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _json_paths(value, prefix + (key,))


@st.composite
def mutation(draw, data: bytes, name: str) -> bytes:
    """`data` with one fault in it."""
    kind = draw(st.sampled_from(["empty", "truncate", "bad-utf8", "field", "line"]))
    if kind == "empty":
        return b""
    if kind == "truncate":
        return data[:draw(st.integers(0, max(0, len(data) - 1)))]
    if kind == "bad-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    lines = data.decode("utf-8").splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "line" or not name.endswith((".jsonl", ".json")):
        lines[i] = draw(st.sampled_from(["{}\n", "[]\n", "null\n", "1e400\n", DEEP + "\n",
                                         ",,\n", "date,value\n", "2020-03-01,1e400\n",
                                         lines[i] * 2]))
        return "".join(lines).encode("utf-8")
    doc = json.loads(lines[i])
    path = draw(st.sampled_from(list(_json_paths(doc)) or [("id",)]))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = "__ODD__"
    value = draw(st.sampled_from(ODD_VALUES))
    text = DEEP if value is DEEP else json.dumps(value)
    lines[i] = json.dumps(doc).replace('"__ODD__"', text, 1) + "\n"
    return "".join(lines).encode("utf-8")


@settings(max_examples=60, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_fuzzed_input_exits_cleanly(valid_inputs, tmp_path_factory, command, data):
    d = tmp_path_factory.mktemp("fuzz")
    for f in valid_inputs.iterdir():
        shutil.copy(f, d / f.name)
    argv = COMMANDS[command]
    name = data.draw(st.sampled_from(_inputs(argv)), label="input")
    broken = data.draw(mutation((d / name).read_bytes(), name), label="content")
    (d / name).write_bytes(broken)
    before = {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(d)  # the report config names its inputs relative to the directory
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([a.replace("{out}", str(d / "out")).strip("{}") for a in argv]
                        + ([] if command == "report" else ["-c", "config.json"]))
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [p for p in Path(d).rglob(".*.tmp")]
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert {p: p.read_bytes() for p in before if p.exists()} == before
