import base64
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aspectsent import model, synth
from aspectsent.corpus import (
    A_USED,
    ASPECT_INDEX,
    Aspect,
    LabeledSet,
    example_from_obj,
    labeled_set,
)
from aspectsent.errors import PipelineError
from aspectsent.features import HashedProvider, providers
from aspectsent.model import (
    HeadParams,
    ModelBundle,
    TrainConfig,
    full_loss,
    gradients,
    load_params,
    loss_aspect,
    loss_sentiment,
    predict_batch,
    probabilities,
    save_params,
    train,
    train_svm_baseline,
)

from conftest import init_params

K = len(A_USED)


def predict(text, provider, params, config, provider_y=None):
    """Row 0 of each `predict_batch` array for one text: (p_a, p_y, detected, negative)."""
    return tuple(a[0] for a in predict_batch([text], provider, params, config, provider_y))


def zero_params(d=4):
    return HeadParams(np.zeros((K, d)), np.zeros(K), np.zeros((K, d)), np.zeros(K))


def random_params(d, rng):
    return HeadParams(
        rng.normal(0, 0.8, size=(K, d)),
        rng.normal(0, 0.8, size=K),
        rng.normal(0, 0.8, size=(K, d)),
        rng.normal(0, 0.8, size=K),
    )


class TestForward:
    def test_zero_parameters_give_half(self):
        p = probabilities(np.ones(4), zero_params(4))
        assert np.allclose(p, 0.5)

    def test_logistic_fixture(self):
        # one row with W=(2,-1), b=0.5, h=(1,0): z=2.5
        params = zero_params(2)
        params.W_a[0] = [2.0, -1.0]
        params.b_a[0] = 0.5
        p = probabilities(np.array([1.0, 0.0]), params)[:K]
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.5)), abs=1e-9)
        assert p[0] == pytest.approx(0.924142, abs=1e-6)

    def test_monotone_in_positive_logit(self):
        params = zero_params(2)
        params.W_a[0] = [1.0, 0.0]
        p1 = probabilities(np.array([1.0, 0.0]), params)[0]
        p2 = probabilities(np.array([2.0, 0.0]), params)[0]
        assert p2 > p1 > 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(PipelineError, match="^embedding dim 3 != parameter dim 4$"):
            probabilities(np.zeros(3), zero_params(4))

    def test_outputs_strictly_inside_unit_interval(self):
        params = zero_params(2)
        params.W_a[0] = [1000.0, 0.0]
        params.W_a[1] = [-1000.0, 0.0]
        p = probabilities(np.array([1.0, 0.0]), params)[:K]
        assert 0.0 < p[0] < 1.0  # saturation is clamped away from the bounds
        assert 0.0 < p[1] < 1.0

    def test_sigmoid_takes_each_sign_s_form_bit_for_bit(self):
        z = np.random.default_rng(0).normal(scale=30.0, size=500)
        z[:10] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-320, -1e-320, 36.7, -36.7]
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        assert model._sigmoid(z).tobytes() == expected.tobytes()
        assert np.isnan(model._sigmoid(np.array([np.nan]))).all()

    def test_sentiment_head_mirrors_aspect_head(self):
        rng = np.random.default_rng(0)
        params = random_params(3, rng)
        h = rng.normal(size=3)
        swapped = HeadParams(params.W_y, params.b_y, params.W_a, params.b_a)
        assert np.allclose(probabilities(h, params)[K:], probabilities(h, swapped)[:K])


class TestLosses:
    def test_perfect_prediction_is_near_zero(self):
        t = np.array([1.0, 0, 1, 0, 0, 1])
        assert loss_aspect(t, t) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_analytic(self):
        p = np.full(K, 0.5)
        t = np.array([1.0, 0, 0, 1, 0, 1])
        assert loss_aspect(p, t) == pytest.approx(6 * math.log(2), abs=1e-12)

    def test_random_fixture_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, size=(3, K))
        t = rng.integers(0, 2, size=(3, K)).astype(float)
        direct = math.fsum(
            -(t[i, j] * math.log(p[i, j]) + (1 - t[i, j]) * math.log(1 - p[i, j]))
            for i in range(3)
            for j in range(K)
        )
        assert loss_aspect(p, t) == pytest.approx(direct, abs=1e-12)

    def test_all_masked_out_is_zero(self):
        p = np.full(K, 0.9)
        t = np.zeros(K)
        assert loss_sentiment(p, t, np.zeros(K)) == 0.0

    def test_single_masked_slot(self):
        p = np.zeros(K)
        p[0] = 0.5
        t = np.zeros(K)
        mask = np.zeros(K)
        mask[0] = 1.0
        assert loss_sentiment(p, t, mask) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_masked_slots_analytic(self):
        p = np.full(K, 0.5)
        t = np.zeros(K)
        mask = np.zeros(K)
        mask[:2] = 1.0
        assert loss_sentiment(p, t, mask) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_masked_targets_never_matter(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.05, 0.95, size=K)
        mask = np.array([1.0, 0, 1, 0, 0, 0])
        t = np.array([1.0, 0, 0, 0, 0, 0])
        poisoned = t.copy()
        poisoned[mask == 0] = rng.integers(0, 2, size=int((mask == 0).sum()))
        assert loss_sentiment(p, t, mask) == loss_sentiment(p, poisoned, mask)


def _fd_check(params, h, t_a, t_y, mask, step=1e-5):
    """Central finite differences over every parameter entry.

    Returns the worst per-tensor norm-relative error ||fd - grad|| / ||fd||,
    the usual gradient-check metric; an entrywise ratio would only measure
    finite-difference roundoff on near-zero entries.
    """
    analytic = gradients(h, t_a, t_y, mask, params)
    max_rel = 0.0
    for name in ("W_a", "b_a", "W_y", "b_y"):
        tensor = getattr(params, name)
        grad = getattr(analytic, name)
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + step
            up = full_loss(h, t_a, t_y, mask, params)
            tensor[idx] = orig - step
            down = full_loss(h, t_a, t_y, mask, params)
            tensor[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(grad)), 1e-12)
        max_rel = max(max_rel, float(np.linalg.norm(fd - grad)) / denom)
    return max_rel


def _random_batch(rng, d, n):
    h = rng.normal(0, 1, size=(n, d))
    t_a = rng.integers(0, 2, size=(n, K)).astype(float)
    mask = t_a.copy()
    t_y = (rng.integers(0, 2, size=(n, K)) * t_a).astype(float)
    return h, t_a, t_y, mask


class TestGradients:
    def test_zero_gradient_when_targets_equal_predictions(self):
        # with t set to the model's own output, (p - t) vanishes identically
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 4))
        params = random_params(4, rng)
        p = probabilities(h, params)
        t_a, t_y = p[:, :K], p[:, K:]
        mask = np.ones_like(t_a)
        g = gradients(h, t_a, t_y, mask, params)
        for name in ("W_a", "b_a", "W_y", "b_y"):
            assert np.allclose(getattr(g, name), 0.0, atol=1e-15)

    def test_gradient_matches_closed_form(self):
        rng = np.random.default_rng(0)
        h, t_a, t_y, mask = _random_batch(rng, 4, 3)
        params = random_params(4, rng)
        g = gradients(h, t_a, t_y, mask, params)
        p = probabilities(h, params)
        p_a, p_y = p[:, :K], p[:, K:]
        assert np.allclose(g.W_a, (p_a - t_a).T @ h, atol=1e-12)
        assert np.allclose(g.b_a, (p_a - t_a).sum(axis=0), atol=1e-12)
        assert np.allclose(g.W_y, ((p_y - t_y) * mask).T @ h, atol=1e-12)

    def test_finite_difference_oracle_small(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 5))
            h, t_a, t_y, mask = _random_batch(rng, d, n)
            params = random_params(d, rng)
            assert _fd_check(params, h, t_a, t_y, mask) <= 1e-6

    def test_duplicating_batch_doubles_gradient(self):
        rng = np.random.default_rng(3)
        h, t_a, t_y, mask = _random_batch(rng, 4, 2)
        params = random_params(4, rng)
        g1 = gradients(h, t_a, t_y, mask, params)
        g2 = gradients(
            np.vstack([h, h]), np.vstack([t_a, t_a]), np.vstack([t_y, t_y]),
            np.vstack([mask, mask]), params,
        )
        assert np.allclose(g2.W_a, 2 * g1.W_a, atol=1e-10)
        assert np.allclose(g2.b_y, 2 * g1.b_y, atol=1e-10)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        h, t_a, t_y, mask = _random_batch(rng, 5, 8)
        params = random_params(5, rng)
        perm = rng.permutation(8)
        base_loss = full_loss(h, t_a, t_y, mask, params)
        perm_loss = full_loss(h[perm], t_a[perm], t_y[perm], mask[perm], params)
        assert base_loss == pytest.approx(perm_loss, abs=1e-12)
        g = gradients(h, t_a, t_y, mask, params)
        gp = gradients(h[perm], t_a[perm], t_y[perm], mask[perm], params)
        assert np.allclose(g.W_a, gp.W_a, atol=1e-12)
        assert np.allclose(g.W_y, gp.W_y, atol=1e-12)

    def test_masked_out_slots_have_zero_sentiment_gradient(self):
        rng = np.random.default_rng(6)
        h, t_a, t_y, mask = _random_batch(rng, 4, 3)
        mask[:, 2] = 0.0
        t_y[:, 2] = 0.0
        params = random_params(4, rng)
        g = gradients(h, t_a, t_y, mask, params)
        assert np.allclose(g.W_y[2], 0.0)
        assert g.b_y[2] == 0.0

    def test_perturbing_masked_out_targets_changes_nothing(self):
        rng = np.random.default_rng(8)
        h, t_a, t_y, mask = _random_batch(rng, 4, 3)
        params = random_params(4, rng)
        base_loss = full_loss(h, t_a, t_y, mask, params)
        base_grad = gradients(h, t_a, t_y, mask, params)
        poisoned = t_y.copy()
        poisoned[mask == 0] = rng.uniform(0, 1, size=int((mask == 0).sum()))
        assert full_loss(h, t_a, poisoned, mask, params) == base_loss
        poisoned_grad = gradients(h, t_a, poisoned, mask, params)
        for name in ("W_a", "b_a", "W_y", "b_y"):
            assert np.array_equal(getattr(base_grad, name), getattr(poisoned_grad, name))

    def test_empty_batch_rejected(self):
        with pytest.raises(PipelineError, match="^gradient of an empty batch$"):
            gradients(np.zeros((0, 4)), np.zeros((0, K)), np.zeros((0, K)),
                      np.zeros((0, K)), zero_params(4))


def separable_examples(n=20):
    """Two aspects with disjoint vocabularies; linearly separable."""
    texts = []
    t_a = np.zeros((n, K))
    t_y = np.zeros((n, K))
    for i in range(n):
        if i % 2 == 0:
            text = f"alpha apple anchor item{i % 4}"
            aspect = Aspect.POLITICS
            negative = True
        else:
            text = f"beta banana borough item{i % 4}"
            aspect = Aspect.FOREIGN
            negative = False
        texts.append(text)
        t_a[i, ASPECT_INDEX[aspect]] = 1.0
        if negative:
            t_y[i, ASPECT_INDEX[aspect]] = 1.0
    return LabeledSet(texts, t_a, t_y)


def first(examples: LabeledSet, k: int) -> LabeledSet:
    return LabeledSet(examples.texts[:k], examples.aspects[:k], examples.negative[:k])


class TestStackedHeads:
    """Both heads live in one `W` ([W_a; W_y]) and one `b` ([b_a; b_y])."""

    def test_writing_a_head_view_writes_the_stacked_arrays(self):
        params = random_params(3, np.random.default_rng(0))
        assert params.W.shape == (2 * K, 3) and params.W.flags.c_contiguous
        params.W_a[0] = [1.0, 2.0, 3.0]
        params.W_y -= 1.0
        params.b_a[:] = 4.0
        params.b_y[2] = 5.0
        assert params.W[0].tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(params.W[K:], params.W_y)
        assert params.b[:K].tolist() == [4.0] * K and params.b[K + 2] == 5.0

    def test_constructor_takes_the_four_tensors_in_order(self):
        rng = np.random.default_rng(1)
        tensors = [rng.normal(size=(K, 3)), rng.normal(size=K), rng.normal(size=(K, 3)),
                   rng.normal(size=K)]
        params = HeadParams(*tensors)
        assert np.array_equal(params.W, np.vstack([tensors[0], tensors[2]]))
        assert np.array_equal(params.b, np.concatenate([tensors[1], tensors[3]]))
        swapped = HeadParams(params.W_y, params.b_y, params.W_a, params.b_a)
        assert np.array_equal(swapped.W_a, params.W_y) and np.array_equal(swapped.b_y, params.b_a)

    def test_copy_is_independent(self):
        params = random_params(3, np.random.default_rng(2))
        copy = params.copy()
        copy.W_a[0, 0] += 1.0
        copy.b_y[0] += 1.0
        assert copy.W[0, 0] == params.W[0, 0] + 1.0
        assert copy.b[K] == params.b[K] + 1.0

    @pytest.mark.parametrize("epochs, batch_size", [(3, 11), (2, 45), (1, 50), (0, 8)])
    def test_train_computes_one_gradient_per_batch(self, monkeypatch, epochs, batch_size):
        calls = []
        real = model.gradients
        monkeypatch.setattr(model, "gradients", lambda *a: calls.append(1) or real(*a))
        records = synth.make_dataset_records(45, seed=4)
        examples = labeled_set([example_from_obj(r) for r in records])
        train(examples, None, HashedProvider(dim=1024),
              TrainConfig(epochs=epochs, batch_size=batch_size, seed=0))
        assert len(calls) == math.ceil(45 / batch_size) * epochs

    def test_load_params_holds_the_heads_once(self, tmp_path):
        dim = 2**16
        heads = 2 * K * dim * 8
        path = tmp_path / "params.json"
        save_params(path, ModelBundle(random_params(dim, np.random.default_rng(3)), {
            "kind": "native-hashed", "ngram_max": 1, "dim": dim, "hash_seed": 0}))
        tracemalloc.start()
        try:
            loaded = load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params.W.base is None and loaded.params.W.nbytes == heads
        # the file's text, the stacked heads and less than half of them again; decoding
        # each head whole and stacking copies of them would hold the heads twice
        assert peak < path.stat().st_size + 1.5 * heads


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        examples = separable_examples()
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(epochs=0, seed=9)
        got = train(examples, None, provider, cfg)
        expected = init_params(provider.dim, seed=9)
        assert np.array_equal(got.W_a, expected.W_a)
        assert np.array_equal(got.W_y, expected.W_y)
        assert np.array_equal(got.b_a, expected.b_a)

    def test_deterministic_under_seed(self):
        examples = separable_examples()
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(epochs=3, seed=5, batch_size=4)
        a = train(examples, first(examples, 4), provider, cfg)
        b = train(examples, first(examples, 4), provider, cfg)
        assert np.array_equal(a.W_a, b.W_a)
        assert np.array_equal(a.W_y, b.W_y)

    def test_divergence_raises_with_epoch(self):
        # weight decay at an absurd learning rate multiplies W each step,
        # so the parameters overflow exponentially
        examples = separable_examples()
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(learning_rate=1e200, weight_decay=1.0, epochs=3,
                          batch_size=5, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                PipelineError, match=r"^training diverged at epoch \d+$"):
            train(examples, None, provider, cfg)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_returned_heads_are_row_major(self, weight_decay):
        # a hashed training with no decay holds W feature-major; what it returns is not
        examples = separable_examples()
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(epochs=2, seed=5, batch_size=8, weight_decay=weight_decay)
        for params in (train(examples, None, provider, cfg),
                       train(examples, first(examples, 4), provider, cfg),
                       train_svm_baseline(examples, cfg, provider)):
            assert params.W.shape == (2 * K, 1024)
            assert params.W.flags.c_contiguous

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_a_batch_of_rows_without_tokens_trains(self, weight_decay):
        # such a batch has no stored entry, and numpy's bincount of nothing is int64
        examples = LabeledSet(["", "!!!", "#"], np.zeros((3, K)), np.zeros((3, K)))
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(epochs=2, weight_decay=weight_decay)
        params = train(examples, None, provider, cfg)
        hinge = train_svm_baseline(examples, cfg, provider)
        assert params.W.dtype == hinge.W.dtype == np.float64
        assert not hinge.W.any()

    def test_empty_train_set_rejected(self):
        provider = HashedProvider(dim=1024)
        with pytest.raises(PipelineError, match="^empty training set$"):
            train(labeled_set([]), None, provider, TrainConfig())

    def test_provider_swap_is_invisible_to_training(self):
        # training consumes only (vector, dim): a stub replaying the hashed
        # matrix must produce identical parameters
        examples = separable_examples()
        hashed = HashedProvider(dim=1024)
        matrix = hashed.embed(examples.texts)

        class Replay:
            dim = 1024
            fingerprint = "replay"

            def embed(self, texts):
                assert len(texts) == len(examples)
                return matrix[:]  # a fresh SparseRows of every row

        cfg = TrainConfig(epochs=4, seed=6, batch_size=8)
        a = train(examples, None, hashed, cfg)
        b = train(examples, None, Replay(), cfg)
        assert np.array_equal(a.W_a, b.W_a)
        assert np.array_equal(a.W_y, b.W_y)

    def test_separable_set_reaches_perfect_train_f1(self):
        from aspectsent import evaluation

        examples = separable_examples()
        provider = HashedProvider(dim=1024)
        cfg = TrainConfig(learning_rate=0.5, epochs=200, batch_size=20, seed=1)
        params = train(examples, None, provider, cfg)
        h = provider.embed(examples.texts)
        pred = probabilities(h, params)[:, :K] >= 0.5
        gold = examples.aspects
        report = evaluation.evaluate(pred, gold)
        assert report["Overall"].micro_f1 == 1.0

    @staticmethod
    def reference_bce(examples, config, h, h_y):
        """`train`'s minibatch loop (no dev set) written out per head, as the oracle.

        Returns the four tensors and each epoch's full training loss.
        """
        t_a, t_y, mask = examples.aspects, examples.negative, examples.aspects
        n, dim = h.shape
        rng = np.random.default_rng(config.seed)
        bound = 1.0 / math.sqrt(dim)
        W_a = rng.uniform(-bound, bound, size=(K, dim))
        b_a = np.zeros(K)
        W_y = rng.uniform(-bound, bound, size=(K, dim))
        b_y = np.zeros(K)

        def probs(x, W, b):
            z = x @ W.T + b
            p = np.empty_like(z)
            pos = z >= 0
            p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            p[~pos] = ez / (1.0 + ez)
            return np.clip(p, 1e-12, 1.0 - 1e-12)

        def bce(p, t):
            return -(t * np.log(p) + (1.0 - t) * np.log1p(-p))

        decay = config.learning_rate * config.weight_decay
        losses = []
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                hb, hb_y = h[idx], h_y[idx]
                scale = config.learning_rate / len(idx)
                d_a = probs(hb, W_a, b_a) - t_a[idx]
                d_y = (probs(hb_y, W_y, b_y) - t_y[idx]) * mask[idx]
                W_a -= scale * (d_a.T @ hb) + decay * W_a
                b_a -= scale * d_a.sum(axis=0)
                W_y -= scale * (d_y.T @ hb_y) + decay * W_y
                b_y -= scale * d_y.sum(axis=0)
            losses.append(math.fsum(bce(probs(h, W_a, b_a), t_a).ravel())
                          + math.fsum((bce(probs(h_y, W_y, b_y), t_y) * mask).ravel()))
        return (W_a, b_a, W_y, b_y), losses

    @pytest.mark.parametrize("inputs", ["sparse", "dense", "dense-two"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("batch_size", [11, 32])  # 45 = 4*11 + 1 = 32 + 13
    def test_matches_reference_loop_bit_for_bit(self, inputs, weight_decay, batch_size):
        records = synth.make_dataset_records(45, seed=4)
        examples = labeled_set([example_from_obj(r) for r in records])
        cfg = TrainConfig(learning_rate=0.3, epochs=4, batch_size=batch_size,
                          weight_decay=weight_decay, seed=8)
        provider, provider_y = {
            "sparse": (HashedProvider(ngram_max=2, dim=1024), None),
            "dense": (DenseRows(ngram_max=2, dim=1024), None),
            "dense-two": (DenseRows(ngram_max=1, dim=1024),
                          DenseRows(ngram_max=2, dim=1024, hash_seed=3)),
        }[inputs]
        losses = []
        params = train(examples, None, provider, cfg, provider_y,
                       epoch_callback=lambda epoch, loss: losses.append(loss))
        h = provider.embed(examples.texts)
        h_y = h if provider_y is None else provider_y.embed(examples.texts)
        expected, expected_losses = self.reference_bce(examples, cfg, h, h_y)
        got = (params.W_a, params.b_a, params.W_y, params.b_y)
        for name, g, e in zip(("W_a", "b_a", "W_y", "b_y"), got, expected):
            assert np.array_equal(g, e), name
        assert losses == expected_losses


class DenseRows:
    """`HashedProvider(**settings)`'s rows as dense arrays, as a remote provider returns rows."""

    def __init__(self, **settings):
        self.hashed = HashedProvider(**settings)
        self.dim = self.hashed.dim

    def embed(self, texts):
        return self.hashed.embed(texts).toarray()


class TestPredict:
    def test_nothing_detected(self):
        provider = HashedProvider(dim=1024)
        params = zero_params(provider.dim)
        params.b_a[:] = -3.0  # p ~ 0.047 everywhere
        _, _, detected, negative = predict("china news", provider, params, TrainConfig())
        assert not detected.any()
        assert not (detected & negative).any()  # no sentiment is read

    def test_fixture_detection_and_negative_call(self):
        provider = HashedProvider(dim=1024)
        params = zero_params(provider.dim)
        params.b_a[:] = -3.0  # keep the other aspects below threshold
        i = ASPECT_INDEX[Aspect.POLITICS]
        params.b_a[i] = math.log(0.9 / 0.1)
        params.b_y[i] = math.log(0.99 / 0.01)
        p_a, p_y, detected, negative = predict("anything", provider, params, TrainConfig())
        assert detected.tolist() == [j == i for j in range(K)]
        assert negative[i]
        assert p_y[i] == pytest.approx(0.99, abs=1e-9)
        assert p_a[i] == pytest.approx(0.9, abs=1e-9)

    def test_threshold_semantics(self):
        provider = HashedProvider(dim=1024)
        params = zero_params(provider.dim)
        params.b_a[:] = math.log(0.6 / 0.4)  # p = 0.6 everywhere
        _, _, detected, _ = predict("x", provider, params, TrainConfig(aspect_threshold=0.7))
        assert not detected.any()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20)
    def test_sentiment_keys_equal_detected(self, seed):
        rng = np.random.default_rng(seed)
        provider = HashedProvider(dim=1024)
        params = random_params(provider.dim, rng)
        p_a, p_y, detected, negative = predict_batch(["china policy news"], provider, params,
                                                     TrainConfig())
        h = provider.embed(["china policy news"])
        p = probabilities(h, params)
        assert np.array_equal(p_a, p[:, :K])
        assert np.array_equal(p_y, p[:, K:])
        assert all(a.shape == (1, K) for a in (p_a, p_y, detected, negative))
        assert np.array_equal(detected, p_a >= 0.5)
        assert np.array_equal(negative, p_y >= 0.5)

    @pytest.mark.parametrize("dense", [False, True], ids=["hashed", "dense"])
    def test_select_confident_reads_predict_batch_probabilities(self, dense):
        # candidate selection and inference read one forward pass, to the bit
        texts = [f"{'alpha beta ' * (i % 3)}item{i} china news #covid @who" for i in range(40)]
        provider = (DenseRows if dense else HashedProvider)(ngram_max=2, dim=1024)
        params = random_params(1024, np.random.default_rng(2))
        pool = [(f"id{i:02d}", text) for i, text in enumerate(texts)]
        p_a = predict_batch(texts, provider, params, TrainConfig())[0]
        got = model.select_confident(pool, provider, params, threshold=0.5, cap=len(pool))
        selected = [(ASPECT_INDEX[aspect], c) for aspect, cands in got.items() for c in cands]
        assert len(selected) == (p_a >= 0.5).sum() > 0
        for j, c in selected:
            assert c.probability.hex() == float(p_a[int(c.tweet_id[2:]), j]).hex()

    def test_no_texts_give_empty_arrays(self):
        provider = HashedProvider(dim=1024)
        arrays = predict_batch([], provider, zero_params(provider.dim), TrainConfig())
        assert [a.shape for a in arrays] == [(0, K)] * 4


class TestSparseRowsInModel:
    """Hashed rows reach the heads as SparseRows; results match the dense path.

    Sparse products sum in another order than BLAS, so they agree to a
    tolerance fixed from float64 rounding on values of order one.
    """

    RTOL, ATOL = 1e-12, 1e-15

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        texts = [f"{'alpha beta ' * (i % 3)}item{i} china news #covid @who" for i in range(12)]
        texts[3] = ""  # an all-zero row
        rows = HashedProvider(ngram_max=2, dim=1024).embed(texts)
        _, t_a, t_y, mask = _random_batch(rng, 1, len(texts))
        return rows, t_a, t_y, mask, random_params(1024, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_and_gradients_match_dense(self, seed):
        rows, t_a, t_y, mask, params = self._batch(seed)
        dense = rows.toarray()
        np.testing.assert_allclose(probabilities(rows, params), probabilities(dense, params),
                                   rtol=self.RTOL, atol=self.ATOL)
        sparse_g = gradients(rows, t_a, t_y, mask, params)
        dense_g = gradients(dense, t_a, t_y, mask, params)
        for name in ("W_a", "b_a", "W_y", "b_y"):
            np.testing.assert_allclose(getattr(sparse_g, name), getattr(dense_g, name),
                                       rtol=self.RTOL, atol=self.ATOL)
        idx = np.array([5, 0, 3])
        np.testing.assert_allclose(
            gradients(rows[idx], t_a[idx], t_y[idx], mask[idx], params).W_y,
            gradients(dense[idx], t_a[idx], t_y[idx], mask[idx], params).W_y,
            rtol=self.RTOL, atol=self.ATOL,
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_touched_gradient_is_the_full_one_over_its_columns(self, seed):
        rows, t_a, t_y, mask, params = self._batch(seed)
        full = gradients(rows, t_a, t_y, mask, params)
        touched = gradients(rows, t_a, t_y, mask, params, touched=True)
        assert full.cols is None
        assert np.array_equal(touched.cols, np.unique(rows.indices))
        assert touched.W.tobytes() == np.ascontiguousarray(full.W[:, touched.cols]).tobytes()
        assert touched.b.tobytes() == full.b.tobytes()
        assert not np.delete(full.W, touched.cols, axis=1).any()
        # dense rows, or two representations, have no touched columns to restrict to
        assert gradients(rows.toarray(), t_a, t_y, mask, params, touched=True).cols is None
        assert gradients(rows, t_a, t_y, mask, params, rows[:], touched=True).cols is None

    def test_dim_mismatch_is_model_error(self):
        rows, *_ = self._batch(0)
        with pytest.raises(PipelineError, match="^embedding dim 1024 != parameter dim 2048$"):
            probabilities(rows, zero_params(2048))

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 300])
    def test_one_product_for_both_heads_equals_one_per_head(self, n):
        # training and inference on hashed rows form one 2k-column product for both
        # heads; each column must come out as the head's own k-column product makes it
        rng = np.random.default_rng(n)
        texts = [" ".join(f"w{rng.integers(0, 5000)}" for _ in range(rng.integers(0, 40)))
                 for _ in range(300)]
        rows = HashedProvider(ngram_max=2, dim=4096).embed(texts)[rng.permutation(300)[:n]]
        params = random_params(4096, rng)
        W_a, W_y = params.W_a.copy(), params.W_y.copy()  # each head on its own, as before
        both = rows @ params.W.T
        assert np.array_equal(both[:, :K], rows @ W_a.T)
        assert np.array_equal(both[:, K:], rows @ W_y.T)
        d = rng.normal(size=(n, 2 * K))
        both = d.T @ rows
        assert np.array_equal(both[:K], np.ascontiguousarray(d[:, :K]).T @ rows)
        assert np.array_equal(both[K:], np.ascontiguousarray(d[:, K:]).T @ rows)


class TestSvmBaseline:
    def test_separable_training_accuracy(self):
        examples = separable_examples()
        cfg = TrainConfig(learning_rate=0.5, epochs=100, batch_size=20, seed=2)
        provider = HashedProvider(ngram_max=1)
        params = train_svm_baseline(examples, cfg, provider)
        _, _, pred, _ = predict_batch(examples.texts, provider, params, TrainConfig())
        gold = examples.aspects.astype(bool)
        assert np.array_equal(pred, gold)

    def test_all_one_class_predicts_that_class(self):
        t_a = np.zeros((10, K))
        t_a[:, ASPECT_INDEX[Aspect.RACISM]] = 1.0
        t_y = t_a.copy()  # always negative
        examples = LabeledSet([f"text {i}" for i in range(10)], t_a, t_y)
        cfg = TrainConfig(learning_rate=0.5, epochs=50, seed=0)
        provider = HashedProvider(ngram_max=1)
        params = train_svm_baseline(examples, cfg, provider)
        _, _, detected, negative = predict("text 3", provider, params, TrainConfig())
        assert detected[ASPECT_INDEX[Aspect.RACISM]]
        assert negative[ASPECT_INDEX[Aspect.RACISM]]

    def test_deterministic_under_seed(self):
        examples = separable_examples()
        cfg = TrainConfig(epochs=5, seed=4)
        provider = HashedProvider(ngram_max=1)
        p1 = train_svm_baseline(examples, cfg, provider)
        p2 = train_svm_baseline(examples, cfg, provider)
        assert np.array_equal(p1.W_a, p2.W_a)
        assert np.array_equal(p1.W_y, p2.W_y)

    def test_divergence_raises_at_the_first_non_finite_epoch(self):
        # as in BCE training, decay at an absurd learning rate overflows W in epoch 1
        cfg = TrainConfig(learning_rate=1e200, weight_decay=1.0, epochs=3, batch_size=5, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                PipelineError, match=r"^training diverged at epoch 1$"):
            train_svm_baseline(separable_examples(), cfg, HashedProvider(dim=1024))

    @staticmethod
    def reference_hinge(examples, config, provider):
        """The baseline's subgradient loop written out on its own, as the oracle."""
        h = provider.embed(examples.texts)
        t_a = examples.aspects
        t_y = examples.negative
        mask = examples.aspects.copy()
        s_a = 2.0 * t_a - 1.0
        s_y = 2.0 * t_y - 1.0
        n = len(examples)
        W_a = np.zeros((K, provider.dim))
        b_a = np.zeros(K)
        W_y = np.zeros((K, provider.dim))
        b_y = np.zeros(K)
        rng = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                hb = h[idx]
                scale = config.learning_rate / len(idx)

                m_a = hb @ W_a.T + b_a
                active = (1.0 - s_a[idx] * m_a > 0).astype(float)
                coef = -s_a[idx] * active
                W_a -= scale * (coef.T @ hb) + config.learning_rate * config.weight_decay * W_a
                b_a -= scale * coef.sum(axis=0)

                m_y = hb @ W_y.T + b_y
                active = ((1.0 - s_y[idx] * m_y > 0).astype(float)) * mask[idx]
                coef = -s_y[idx] * active
                W_y -= scale * (coef.T @ hb) + config.learning_rate * config.weight_decay * W_y
                b_y -= scale * coef.sum(axis=0)
        return W_a, b_a, W_y, b_y

    @pytest.mark.parametrize("batch_size, weight_decay", [
        pytest.param(7, 0.01, id="7"),
        pytest.param(32, 0.01, id="32"),
        pytest.param(7, 0.0, id="7-no-decay"),  # steps over the touched columns only
        pytest.param(32, 0.0, id="32-no-decay"),
    ])
    def test_matches_reference_loop_with_decay_and_ragged_batches(self, batch_size, weight_decay):
        records = synth.make_dataset_records(45, seed=3)  # 45 = 6*7 + 3 = 32 + 13
        examples = labeled_set([example_from_obj(r) for r in records])
        cfg = TrainConfig(learning_rate=0.3, epochs=6, batch_size=batch_size,
                          weight_decay=weight_decay, seed=8)
        provider = HashedProvider(ngram_max=1, dim=1024)
        params = train_svm_baseline(examples, cfg, provider)
        expected = self.reference_hinge(examples, cfg, provider)
        got = (params.W_a, params.b_a, params.W_y, params.b_y)
        for name, g, e in zip(("W_a", "b_a", "W_y", "b_y"), got, expected):
            assert np.array_equal(g, e), name


def _provider_objects(dims):
    """Well-typed `provider` objects of a params file, any setting left out."""
    return st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["native-hashed", "remote"]), "ngram_max": st.integers(),
        "dim": dims, "hash_seed": st.integers(0, 2**64 - 1), "normalize": st.booleans(),
        "endpoint": st.none() | st.text(), "sentiment_endpoint": st.none() | st.text(),
        "timeout": st.floats() | st.integers(-2**53, 2**53), "batch_size": st.integers()})


class TestParamsIO:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        params = random_params(1024, rng)
        bundle = ModelBundle(
            params=params,
            provider_config={"kind": "native-hashed", "ngram_max": 1, "dim": 1024,
                             "hash_seed": 0, "normalize": True},
            aspect_threshold=0.4,
            sentiment_threshold=0.6,
        )
        path = tmp_path / "params.json"
        save_params(path, bundle)
        again = load_params(path)
        for name in ("W_a", "b_a", "W_y", "b_y"):
            assert np.array_equal(getattr(again.params, name), getattr(params, name))
        assert again.aspect_threshold == 0.4
        assert again.sentiment_threshold == 0.6
        assert again.provider_config == bundle.provider_config

        second = tmp_path / "params2.json"
        save_params(second, again)
        assert path.read_bytes() == second.read_bytes()

    @given(provider=_provider_objects(st.sampled_from([8, 1024]) | st.integers()),
           tensor_dim=st.sampled_from([8, 1024]))
    @example(provider={"dim": 1024}, tensor_dim=1024)
    @example(provider={"kind": "remote", "endpoint": "http://e", "dim": 8}, tensor_dim=8)
    @example(provider={"kind": "remote", "endpoint": "http://e", "dim": 1024}, tensor_dim=8)
    @example(provider={"dim": 1024, "timeout": math.nan}, tensor_dim=1024)  # refused, though hashed
    @settings(max_examples=60)
    def test_a_saved_provider_object_loads_iff_providers_accepts_it(self, provider, tensor_dim):
        try:
            accepted = providers(provider)[1].dim == tensor_dim
        except (PipelineError, ValueError):
            accepted = False
        bundle = ModelBundle(random_params(tensor_dim, np.random.default_rng(0)), provider)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.json"
            if not math.isfinite(provider.get("timeout", 0)):  # standard JSON has no NaN
                with pytest.raises(ValueError, match="not JSON compliant"):
                    save_params(path, bundle)
                assert list(Path(tmp).iterdir()) == []  # no params file, no temp file
                return
            save_params(path, bundle)
            if accepted:
                assert load_params(path).provider_config == bundle.provider_config
            else:
                with pytest.raises(PipelineError, match=re.escape(f"bad parameter file {path}: ")):
                    load_params(path)

    # dims up to 2**12 keep each saved file small; MAX_DIM is checked in test_features
    @given(_provider_objects(st.sampled_from([8, 1024]) | st.integers(max_value=2**12)))
    @example({"timeout": 5.0, "batch_size": 8})
    @example({"kind": "remote", "endpoint": "http://e", "sentiment_endpoint": ""})
    @example({"kind": "remote", "endpoint": "http://e", "sentiment_endpoint": "http://s"})
    @settings(max_examples=60)
    def test_provider_config_is_idempotent_and_round_trips(self, provider):
        remote = provider.get("kind") == "remote"
        endpoint_fault = not provider.get("endpoint") if remote else bool(
            provider.get("endpoint") or provider.get("sentiment_endpoint"))
        try:
            cfg, built, _ = providers(provider)
        except ValueError as exc:  # the endpoint rules, else a range check of the provider
            assert ("endpoint" in str(exc)) == endpoint_fault
            return
        assert not endpoint_fault
        assert providers(cfg)[0] == cfg
        remote_only = {"endpoint", "sentiment_endpoint", "timeout", "batch_size"}
        if cfg["kind"] == "native-hashed":
            assert not remote_only & cfg.keys()
        else:
            assert cfg["endpoint"] and cfg.get("sentiment_endpoint", "set")
        bundle = ModelBundle(random_params(built.dim, np.random.default_rng(0)), cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.json"
            save_params(path, bundle)
            assert load_params(path).provider_config == bundle.provider_config

    @pytest.mark.parametrize("provider, tensor_dim, message", [
        ({"kind": "native-hashed", "hash_seed": -1}, 4096, "hash_seed must be in 0..2**64-1"),
        ({"kind": "native-hashed", "dim": 64}, 64, "dim must be a power of two in 1024.."),
        ({"kind": "remote", "dim": 8}, 8, "remote provider requires an endpoint"),
        ({"kind": "native-hashed", "dim": 1024}, 8, "provider dim 1024 != tensor dim 8"),
    ], ids=["negative-hash-seed", "hashed-dim-64", "remote-without-endpoint", "dim-mismatch"])
    def test_a_file_whose_own_provider_is_bad_is_refused(self, tmp_path, provider, tensor_dim,
                                                         message):
        path = tmp_path / "params.json"
        save_params(path, ModelBundle(random_params(tensor_dim, np.random.default_rng(0)),
                                      provider))
        with pytest.raises(PipelineError, match=re.escape(f"bad parameter file {path}: {message}")):
            load_params(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["provider"].update(hash_seed=99),
        lambda doc: doc["provider"].pop("ngram_max"),
        lambda doc: doc.pop("provider_fingerprint"),
        lambda doc: doc.update(provider_fingerprint=doc["provider"]),
    ], ids=["provider-edited", "provider-key-dropped", "fingerprint-missing",
            "fingerprint-not-a-string"])
    def test_fingerprint_must_match_the_provider_object(self, tmp_path, edit):
        path = tmp_path / "params.json"
        save_params(path, ModelBundle(random_params(2, np.random.default_rng(0)), {
            "kind": "native-hashed", "ngram_max": 2, "dim": 2, "hash_seed": 0}))
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"bad parameter file {path}: "
                                                       "provider_fingerprint")):
            load_params(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t["W_a"].update(dtype="<f4"), "dtype: expected one of <f8, got '<f4'"),
        (lambda t: t["W_y"].update(shape=[K, 3]), "weight matrices must be |A_used| x d"),
        (lambda t: t["b_a"].update(shape=[K + 1]), "bias vectors must have length |A_used|"),
        # a shape is checked against the text before memory for it is taken
        (lambda t: [t[name].update(shape=[K, 2**40]) for name in ("W_a", "W_y")],
         f"tensor W_a does not hold {K * 2**40} float64 values"),
        (lambda t: t["b_y"].update(b64=t["b_y"]["b64"][:-4]),
         f"tensor b_y does not hold {K} float64 values"),
        (lambda t: t["W_y"].update(b64="*" + t["W_y"]["b64"][1:]), "tensor W_y is not base64: "),
        (lambda t: t["W_y"].update(b64="****" + t["W_y"]["b64"][4:]), "tensor W_y is not base64"),
        (lambda t: t["b_y"].update(b64=base64.b64encode(np.full(K, np.nan).tobytes()).decode()),
         "non-finite entries in b_y"),
    ], ids=["dtype", "weight-shape", "bias-shape", "huge-shape", "short-text", "bad-padding",
            "not-base64", "nan"])
    def test_a_bad_tensor_is_refused(self, tmp_path, edit, message):
        path = tmp_path / "params.json"
        save_params(path, ModelBundle(random_params(2, np.random.default_rng(0)), {
            "kind": "remote", "endpoint": "http://e", "dim": 2}))
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["tensors"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"bad parameter file {path}: {message}")):
            load_params(path)

    @pytest.mark.parametrize("bug", [KeyError, TypeError])
    def test_a_loader_bug_propagates_unchanged(self, tmp_path, monkeypatch, bug):
        # only bad input is a `bad parameter file`; any other exception is a bug in the loader
        path = tmp_path / "params.json"
        save_params(path, ModelBundle(random_params(2, np.random.default_rng(0)), {
            "kind": "remote", "endpoint": "http://e", "dim": 2}))

        def broken(tensors):
            raise bug("W_a")

        monkeypatch.setattr(model, "_params_from_tensors", broken)
        with pytest.raises(bug, match="W_a"):
            load_params(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(
                f"bad parameter file {path}: format_version: expected one of 1, got 99") + "$"):
            load_params(path)

    def test_non_finite_params_rejected(self):
        with pytest.raises(PipelineError, match="^non-finite entries in W_a$"):
            HeadParams(np.full((K, 2), np.nan), np.zeros(K), np.zeros((K, 2)), np.zeros(K))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(aspect_threshold=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
