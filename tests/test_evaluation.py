import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from aspectsent.evaluation import Metrics, evaluate, metrics, report_table
from aspectsent.files import write_csv

K = 6  # |A_USED|


def class_f1s(tp, fp, fn, tn):
    """The F1 of the positive and of the negative class, each 0 on a zero denominator."""
    return tuple(2 * t / (2 * t + fp + fn) if 2 * t + fp + fn else 0.0 for t in (tp, tn))


class TestF1:
    # macro F1 is the mean of the two class F1s, so a class F1 is read off a
    # count whose other class F1 is known
    def test_perfect(self):
        assert metrics(tp=5, fp=0, fn=0, tn=0).macro_f1 == (1.0 + 0.0) / 2

    def test_zero_denominator_rule(self):
        assert metrics(tp=0, fp=0, fn=0, tn=10).macro_f1 == (0.0 + 1.0) / 2

    def test_hand_arithmetic(self):
        # P = 3/4, R = 3/5, F1 = 2*0.45/1.35; the negative class has tn = 0, F1 0
        got = metrics(tp=3, fp=1, fn=2, tn=0).macro_f1 * 2
        assert got == pytest.approx(2 * 0.45 / 1.35, abs=1e-12)
        assert got == pytest.approx(0.666667, abs=1e-6)

    def test_negative_class_view(self):
        # swapping the classes swaps tp with tn and fp with fn
        assert metrics(tp=3, fp=1, fn=2, tn=4) == metrics(tp=4, fp=2, fn=1, tn=3)
        assert class_f1s(3, 1, 2, 4)[1] == class_f1s(4, 2, 1, 3)[0]


def _full(n, k, value):
    return np.full((n, k), value, dtype=bool)


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        gold = rng.integers(0, 2, size=(30, K))
        report = evaluate(gold, gold)
        for metrics in report.values():
            assert metrics.macro_f1 == 1.0
            assert metrics.micro_f1 == 1.0

    def test_constant_predictor_balanced_micro(self):
        gold = np.zeros((10, K), dtype=bool)
        gold[:5] = True  # 50/50 per column
        report = evaluate(_full(10, K, True), gold)
        assert report["Overall"].micro_f1 == 0.5

    def test_twelve_slot_hand_fixture(self):
        # 2 aspects x 6 examples = 12 slots, worked by hand, in the Politics and
        # Foreign columns; the other four columns are all tn.
        # col0: gold 1,1,1,0,0,0  pred 1,0,1,0,0,1 -> tp2 fn1 fp1 tn2
        #   pos: P=2/3 R=2/3 F1=2/3; neg: P=2/3 R=2/3 F1=2/3; macro=2/3; micro=4/6
        # col1: gold 1,0,0,0,0,0  pred 1,1,1,1,1,1 -> tp1 fp5 tn0 fn0
        #   pos: P=1/6 R=1 F1=2/7; neg: 0; macro=1/7; micro=1/6
        # pooled: tp3 fp6 fn1 tn2+24=26
        #   pos: P=1/3 R=3/4 F1=6/13; neg: F1=2*26/(2*26+1+6)=52/59
        #   macro=(6/13+52/59)/2; micro=29/36
        gold = np.array([[1, 1], [1, 0], [1, 0], [0, 0], [0, 0], [0, 0]])
        pred = np.array([[1, 1], [0, 1], [1, 1], [0, 1], [0, 1], [1, 1]])
        pad = np.zeros((6, K - 2), dtype=int)
        report = evaluate(np.hstack([pred, pad]), np.hstack([gold, pad]))
        assert report["Politics"].macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report["Politics"].micro_f1 == pytest.approx(4 / 6, abs=1e-12)
        assert report["Foreign"].macro_f1 == pytest.approx((2 / 7) / 2, abs=1e-12)
        assert report["Foreign"].micro_f1 == pytest.approx(1 / 6, abs=1e-12)
        assert report["Overall"].macro_f1 == pytest.approx((6 / 13 + 52 / 59) / 2, abs=1e-12)
        assert report["Overall"].micro_f1 == pytest.approx(29 / 36, abs=1e-12)

    def test_sentiment_stage_conditions_on_gold_aspects(self):
        rng = np.random.default_rng(1)
        gold_aspects = rng.integers(0, 2, size=(20, K))
        gold = rng.integers(0, 2, size=(20, K)) * gold_aspects
        pred = rng.integers(0, 2, size=(20, K))
        base = evaluate(pred, gold, gold_aspects)
        poisoned = gold.copy()
        poisoned[gold_aspects == 0] = rng.integers(0, 2, size=int((gold_aspects == 0).sum()))
        again = evaluate(pred, poisoned, gold_aspects)
        assert base == again

    def test_gold_aspects_shape_must_match(self):
        gold = np.zeros((4, K))
        with pytest.raises(ValueError, match="^gold_aspects shape mismatch$"):
            evaluate(gold, gold, np.zeros((3, K)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((3, K)), np.zeros((4, K)))

    def test_relevance_slot_feeds_only_the_pool(self):
        # the slot named Overall has no individual row; the pooled row exists
        gold = np.zeros((4, K))
        report = evaluate(np.zeros((4, K)), gold)
        assert set(report) == {"Politics", "Foreign", "Situation", "Measures",
                               "Racism", "Overall"}


binary_matrix = arrays(np.int8, (12, 1), elements=st.integers(0, 1))


@given(pred=arrays(np.int8, (12, K), elements=st.integers(0, 1)),
       gold=arrays(np.int8, (12, K), elements=st.integers(0, 1)))
def test_micro_f1_equals_accuracy(pred, gold):
    report = evaluate(pred, gold)
    accuracy = float(np.mean(pred.astype(bool) == gold.astype(bool)))
    assert report["Overall"].micro_f1 == pytest.approx(accuracy, abs=1e-12)


def slot_counts(pred, gold):
    """tp, fp, fn, tn of one slot, one example at a time."""
    counts = [0, 0, 0, 0]
    for p, g in zip(pred.astype(bool).ravel().tolist(), gold.astype(bool).ravel().tolist()):
        counts[(not p) * 2 + (not g)] += 1
    return counts


@given(pred=binary_matrix, gold=binary_matrix)
def test_macro_f1_between_class_f1s(pred, gold):
    counts = slot_counts(pred, gold)
    lo, hi = sorted(class_f1s(*counts))
    assert lo - 1e-12 <= metrics(*counts).macro_f1 <= hi + 1e-12


def test_counts_total_invariant():
    counts = slot_counts(np.array([1, 0, 1, 1]), np.array([1, 1, 0, 1]))
    assert sum(counts) == 4
    assert metrics(*counts).micro_f1 == pytest.approx(0.5)


def test_report_csv_layout(tmp_path):
    reports = {
        "aspect": {"Politics": Metrics(0.5, 0.75), "Overall": Metrics(0.25, 0.5)},
        "sentiment": {"Politics": Metrics(1.0, 1.0), "Overall": Metrics(0.0, 0.0)},
    }
    path = tmp_path / "report.csv"
    write_csv(path, *report_table(reports))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "aspect,aspect_macro_f1,aspect_micro_f1,sentiment_macro_f1,sentiment_micro_f1"
    assert lines[1] == "Politics,0.5000,0.7500,1.0000,1.0000"
    assert lines[2] == "Overall,0.2500,0.5000,0.0000,0.0000"


def reference_report(pred, gold, keep):
    """`evaluate` by enumeration: each slot's counts over its kept examples, one
    at a time, pooled over every slot, scored by the class-F1 definitions."""
    def scored(tp, fp, fn, tn):
        total = tp + fp + fn + tn
        return Metrics(sum(class_f1s(tp, fp, fn, tn)) / 2.0, (tp + tn) / total if total else 0.0)

    names = ["Politics", "Foreign", "Situation", "Measures", "Racism", "Overall"]
    report, pooled = {}, [0, 0, 0, 0]
    for j, name in enumerate(names):
        kept = [i for i in range(len(pred)) if keep[i][j]]
        counts = slot_counts(pred[kept, j], gold[kept, j])
        pooled = [a + b for a, b in zip(pooled, counts)]
        if name != "Overall":
            report[name] = scored(*counts)
    report["Overall"] = scored(*pooled)
    return report


@st.composite
def stage_inputs(draw):
    n = draw(st.integers(0, 9))
    matrix = arrays(np.int8, (n, K), elements=st.integers(0, 1))
    return draw(matrix), draw(matrix), draw(matrix)


class TestEvaluateEqualsEnumeration:
    @given(stage_inputs())
    def test_both_stages(self, inputs):
        pred, gold, gold_aspects = inputs
        assert evaluate(pred, gold) == reference_report(
            pred, gold, np.ones_like(gold))
        assert evaluate(pred, gold, gold_aspects) == (
            reference_report(pred, gold, gold_aspects))

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_slots_and_all_zero_gold(self, n):
        rng = np.random.default_rng(n)
        pred = rng.integers(0, 2, size=(n, K))
        gold = np.zeros((n, K), dtype=int)
        gold_aspects = np.zeros((n, K), dtype=int)
        gold_aspects[:, 0] = 1  # every other slot is empty in the sentiment stage
        assert evaluate(pred, gold) == reference_report(
            pred, gold, np.ones_like(gold))
        report = evaluate(pred, gold, gold_aspects)
        assert report == reference_report(pred, gold, gold_aspects)
        assert report["Foreign"] == Metrics(0.0, 0.0)
