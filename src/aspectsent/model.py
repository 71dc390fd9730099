"""Two-stage classifier: multi-label aspect detection, then masked sentiment.

Both heads are linear layers under a sigmoid: the aspect head emits, per
aspect, the probability that the tweet discusses it; the sentiment head
emits, per aspect, the probability that the expressed sentiment is Negative
(the three-way scheme collapses to Negative vs NonNegative after the
neutral/positive merge). Training minimizes the sum of two binary
cross-entropies, with the sentiment terms masked to the aspects actually
labeled on each example. Inference first thresholds the aspect
probabilities, then reads sentiment only for the detected aspects.

The heads are stored stacked: one `W` = [W_a; W_y], C-contiguous outside a
training, and one `b` = [b_a; b_y], of which `W_a`, `b_a`, `W_y` and `b_y`
are views; a params file still holds the four tensors. `probabilities` is
the one forward pass: both heads' probabilities side by side, from one
product where both heads read the same sparse rows. Training, dev-epoch
selection, inference and `select_confident` all read it.

`_descend` is the one descent loop, of the BCE `train` and of the hinge
`train_svm_baseline` alike; it stops at the first epoch whose heads are not
finite. Training on hashed rows with no weight decay holds `W` feature-major
for its length: `W.T` (d x 2k) is the C-contiguous array, so a sparse product
gathers whole rows of it, and each step updates only the columns of `W` (rows
of `W.T`) that its batch touches, from a gradient over those columns alone. A
column no row of the batch touches has a +0.0 gradient, and `W - (+0.0)` is
`W`, so the result is the dense update's to the bit. Weight decay shrinks
every column at every step, so with decay > 0 (and for dense rows, which
touch every column) each step stays dense over a row-major `W`. The rows of
a hashed training are permuted once per epoch, so a batch is a contiguous
slice of them; dense rows are gathered a batch at a time. Both trainers
return row-major heads.

Losses are accumulated with exact (fsum) summation, so full-batch loss is
invariant under any permutation of the batch.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import evaluation, files
from .corpus import A_USED, Aspect, LabeledSet
from .errors import PipelineError
from .features import SparseRows, iter_chunks, providers

LOSS_CLAMP_EPS = 1e-12

PARAMS_FORMAT_VERSION = 1

_K = len(A_USED)  # aspects per head

_TENSORS = ("W_a", "b_a", "W_y", "b_y")  # as a params file names them, in order


def _half(stacked: str, rows: slice) -> property:
    """A read-write view of `rows` of the stacked array named `stacked`."""

    def get(self) -> np.ndarray:
        return getattr(self, stacked)[rows]

    def set(self, value) -> None:
        getattr(self, stacked)[rows] = value

    return property(get, set)


class _Heads:
    """The aspect rows and the sentiment rows of a stacked `W` ([W_a; W_y], 2k x d)
    and `b` ([b_a; b_y], 2k), as views: writing into one writes into `W` or `b`."""

    W: np.ndarray
    b: np.ndarray
    W_a = _half("W", slice(None, _K))
    b_a = _half("b", slice(None, _K))
    W_y = _half("W", slice(_K, None))
    b_y = _half("b", slice(_K, None))


class HeadParams(_Heads):
    """The four trainable tensors: W_a/b_a (aspect), W_y/b_y (sentiment).

    They are held stacked, in one C-contiguous `W` and one `b`; the
    constructor copies the four tensors into them.
    """

    def __init__(self, W_a, b_a, W_y, b_y):
        W_a, b_a, W_y, b_y = (np.asarray(t, dtype=float) for t in (W_a, b_a, W_y, b_y))
        if W_a.ndim != 2 or not W_a.shape == W_y.shape == (_K, W_a.shape[1]):
            raise PipelineError("weight matrices must be |A_used| x d")
        if b_a.shape != (_K,) or b_y.shape != (_K,):
            raise PipelineError("bias vectors must have length |A_used|")
        self._hold(np.concatenate([W_a, W_y]), np.concatenate([b_a, b_y]))

    @classmethod
    def stacked(cls, W: np.ndarray, b: np.ndarray) -> "HeadParams":
        """The heads whose stacked tensors are `W` (2k x d, float64; C-contiguous,
        or feature-major within a training) and `b` (2k), held as they are,
        without a copy."""
        params = cls.__new__(cls)
        params._hold(W, b)
        return params

    def _hold(self, W: np.ndarray, b: np.ndarray) -> None:
        self.W, self.b = W, b
        for name in _TENSORS:
            if not np.isfinite(getattr(self, name)).all():
                raise PipelineError(f"non-finite entries in {name}")

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "HeadParams":
        """A copy, with a C-contiguous `W` whatever the layout of this one."""
        return HeadParams.stacked(self.W.copy(), self.b.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.W).all() and np.isfinite(self.b).all())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 20
    batch_size: int = 32
    weight_decay: float = 0.0
    seed: int = 0
    aspect_threshold: float = 0.5
    sentiment_threshold: float = 0.5

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise TypeError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be >= 0 and finite")
        _check_thresholds(self)


def _check_thresholds(config: TrainConfig | ModelBundle) -> None:
    """The threshold rule of training and of a loaded params file: both in (0, 1), not NaN."""
    for name in ("aspect_threshold", "sentiment_threshold"):
        if not 0.0 < getattr(config, name) < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {getattr(config, name)!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) where z >= 0, and e^z / (1 + e^z) elsewhere, so no exp overflows.

    Both are 1 or e over 1 + e, where e = exp(-|z|) is exp(-z) for z >= 0 and
    exp(z) elsewhere: the bits of two boolean-masked passes, in a few
    whole-array ones.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def _product(h: np.ndarray | SparseRows, W: np.ndarray) -> np.ndarray:
    if h.shape[-1] != W.shape[1]:
        raise PipelineError(f"embedding dim {h.shape[-1]} != parameter dim {W.shape[1]}")
    return h @ W.T


def _probs(z: np.ndarray) -> np.ndarray:
    # clamp so emitted probabilities stay strictly inside (0, 1) even at
    # sigmoid saturation
    return np.clip(_sigmoid(z), LOSS_CLAMP_EPS, 1.0 - LOSS_CLAMP_EPS)


def _shares_product(h, h_y) -> bool:
    """Whether one product serves both heads: they read the same `SparseRows`, whose
    products compute each column on its own. A dense BLAS product blocks columns,
    so a 2k-column product can round otherwise than two k-column ones."""
    return h_y is h and isinstance(h, SparseRows)


def _logits(h, params: HeadParams, h_y) -> np.ndarray:
    """Both heads' logits side by side, (n, 2k): `h @ W_a.T + b_a`, then `h_y @ W_y.T + b_y`."""
    if _shares_product(h, h_y):
        z = _product(h, params.W)
    else:
        z = np.concatenate([_product(h, params.W_a), _product(h_y, params.W_y)], axis=-1)
    z += params.b
    return z


def _grads(d: np.ndarray, h, h_y, touched: bool = False) -> HeadGrads:
    """The gradient whose logit residuals are `d` (n, 2k): `W` stacks `d[:, :k].T @ h`
    over `d[:, k:].T @ h_y`, and `b` sums `d` over the rows. With `touched`, and one
    `SparseRows` for both heads, `W` holds only the columns `cols` that it touches."""
    b = d.sum(axis=0)
    if not _shares_product(h, h_y):
        return HeadGrads(np.concatenate([d[:, :_K].T @ h, d[:, _K:].T @ h_y]), b)
    if touched:
        cols, W = h.rmatmul_touched(d.T)
        return HeadGrads(W, b, cols)
    return HeadGrads(d.T @ h, b)


def probabilities(h: np.ndarray | SparseRows, params: HeadParams,
                  h_y: np.ndarray | SparseRows | None = None) -> np.ndarray:
    """Both heads' probabilities side by side, (n, 2k): `[p_a | p_y]`, the aspect
    detection probabilities sigmoid(W_a h + b_a), then the P(Negative)
    probabilities sigmoid(W_y h_y + b_y). `h_y` defaults to `h`."""
    return _probs(_logits(h, params, h if h_y is None else h_y))


def _bce_terms(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), LOSS_CLAMP_EPS, 1.0 - LOSS_CLAMP_EPS)
    t = np.asarray(t, dtype=float)
    if p.shape != t.shape:
        raise PipelineError(f"probability shape {p.shape} != target shape {t.shape}")
    return -(t * np.log(p) + (1.0 - t) * np.log1p(-p))


def loss_aspect(p_a: np.ndarray, t_a: np.ndarray) -> float:
    """Binary cross-entropy summed over all aspect slots (and batch rows)."""
    return math.fsum(_bce_terms(p_a, t_a).ravel().tolist())  # a list: fsum reads it faster


def loss_sentiment(p_y: np.ndarray, t_y: np.ndarray, mask: np.ndarray) -> float:
    """Binary cross-entropy summed only over slots where mask = 1."""
    terms = _bce_terms(p_y, t_y) * np.asarray(mask, dtype=float)
    return math.fsum(terms.ravel().tolist())


@dataclass
class HeadGrads(_Heads):
    """A gradient of both heads, stacked as `HeadParams` stacks them. With `cols`,
    `W` (2k x len(cols)) holds those columns of the weight gradient, and every
    other column is +0.0."""

    W: np.ndarray
    b: np.ndarray
    cols: np.ndarray | None = None


def gradients(
    h: np.ndarray | SparseRows,
    t_a: np.ndarray,
    t_y: np.ndarray,
    mask: np.ndarray,
    params: HeadParams,
    h_y: np.ndarray | SparseRows | None = None,
    touched: bool = False,
) -> HeadGrads:
    """Analytic gradient of L_a + L_y, summed over the batch.

    Uses the sigmoid-BCE identity dL/dz = p - t, masked for the sentiment
    head. `h` is an (n, d) batch of dense or `SparseRows` embeddings; `h_y`
    supplies separate sentiment-stage embeddings when two representations are
    in use and defaults to `h`. With `touched`, and `h` a `SparseRows` used for
    both heads, the weight gradient covers only the columns `h` touches
    (`HeadGrads.cols`).
    """
    if h_y is None:
        h_y = h
    t_a = np.atleast_2d(np.asarray(t_a, dtype=float))
    t_y = np.atleast_2d(np.asarray(t_y, dtype=float))
    mask = np.atleast_2d(np.asarray(mask, dtype=float))
    if h.shape[0] == 0:
        raise PipelineError("gradient of an empty batch")

    d = probabilities(h, params, h_y)
    d[:, :_K] -= t_a
    d[:, _K:] -= t_y
    d[:, _K:] *= mask
    return _grads(d, h, h_y, touched)


def _init_from_rng(rng: np.random.Generator, dim: int) -> HeadParams:
    bound = 1.0 / math.sqrt(dim)
    return HeadParams(
        W_a=rng.uniform(-bound, bound, size=(_K, dim)),
        b_a=np.zeros(_K),
        W_y=rng.uniform(-bound, bound, size=(_K, dim)),
        b_y=np.zeros(_K),
    )


def full_loss(h, t_a, t_y, mask, params, h_y=None) -> float:
    p = probabilities(h, params, h_y)
    return loss_aspect(p[..., :_K], t_a) + loss_sentiment(p[..., _K:], t_y, mask)


def _touches_columns(h, h_y, config: TrainConfig) -> bool:
    """Whether each training step updates only the columns its batch touches: one
    `SparseRows` serves both heads, and no weight decay shrinks the other columns."""
    return _shares_product(h, h_y) and not config.weight_decay


def _laid_out(params: HeadParams, feature_major: bool) -> HeadParams:
    """`params` with `W` held feature-major (`W.T` C-contiguous) or row-major (`W`
    C-contiguous); a copy only where the layout changes."""
    W = np.ascontiguousarray(params.W.T).T if feature_major else np.ascontiguousarray(params.W)
    return HeadParams.stacked(W, params.b)


def _mini_batches(order: np.ndarray, size: int, h, h_y, targets: np.ndarray):
    """One epoch's mini-batches of the examples in `order`, each as (rows,
    sentiment rows, targets); where `h_y is h`, each batch's are one object too.

    The targets and any `SparseRows` are permuted once, so that a batch of them
    is a contiguous slice; dense rows are gathered a batch at a time, so that
    no more than a batch of them is copied.
    """

    def permuted(x):
        return x[order] if isinstance(x, SparseRows) else x

    def batch(x, rows: slice):
        return x[rows] if isinstance(x, SparseRows) else x[order[rows]]

    epoch_h = permuted(h)
    epoch_h_y = epoch_h if h_y is h else permuted(h_y)
    targets = targets[order]
    for start in range(0, len(order), size):
        rows = slice(start, start + size)
        hb = batch(epoch_h, rows)
        yield hb, hb if h_y is h else batch(epoch_h_y, rows), targets[rows]


def _sgd_epoch(params: HeadParams, batches, config: TrainConfig, batch_grads) -> None:
    """One epoch of mini-batch descent over `batches` (from `_mini_batches`), in place.

    `batch_grads(rows, rows_y, targets, params)` returns the batch's summed
    `HeadGrads`; the update divides it by the batch size so the learning rate
    is batch-size independent, and L2 weight decay shrinks the weight matrices
    only. Each step is `W -= scale * g.W + decay * W`, computed in `g` and one
    reused buffer: IEEE multiplication and addition commute, so the bits are
    the same. With no decay the term is skipped: `0 * W` is a signed zero, and
    adding it changes no update of a finite W (a non-finite W fails training
    either way). A gradient over the touched columns only (`g.cols`, given with
    no decay) updates those columns alone, as rows of the feature-major `W.T`.
    """
    decay = config.learning_rate * config.weight_decay
    shrink = np.empty_like(params.W) if decay else None
    for batch in batches:
        g = batch_grads(*batch, params)
        scale = config.learning_rate / len(batch[-1])
        g.W *= scale
        if g.cols is not None:  # `W.T[cols] -= g.W.T`, gathering with the faster `take`
            WT = params.W.T
            WT[g.cols] = WT.take(g.cols, axis=0) - g.W.T
        else:
            if decay:
                g.W += np.multiply(params.W, decay, out=shrink)
            params.W -= g.W
        g.b *= scale
        params.b -= g.b


def _descend(params: HeadParams, h, h_y, targets: np.ndarray, rng: np.random.Generator,
             config: TrainConfig, batch_grads, loss=None, after_epoch=None) -> HeadParams:
    """Mini-batch descent from `params` for `config.epochs` epochs, the one loop of
    both objectives; returns the final heads, row-major.

    Each epoch steps (`_sgd_epoch`) over the `_mini_batches` of a fresh
    `rng` permutation of the aspect rows `h`, the sentiment rows `h_y` and
    `targets` (a row per example). `batch_grads(rows, rows_y, targets, params,
    touched)` returns a batch's summed `HeadGrads`; `touched` is
    `_touches_columns`, under which `W` is held feature-major throughout. An
    epoch that leaves the heads, or `loss(params)` where given, not finite
    raises `training diverged at epoch N`; else `after_epoch(epoch, params,
    loss)`, where given, observes it.
    """
    touched = _touches_columns(h, h_y, config)
    params = _laid_out(params, feature_major=touched)
    for epoch in range(1, config.epochs + 1):
        batches = _mini_batches(rng.permutation(len(targets)), config.batch_size, h, h_y, targets)
        _sgd_epoch(params, batches, config, lambda *batch: batch_grads(*batch, touched))
        epoch_loss = loss(params) if loss is not None else 0.0
        if not (params.is_finite() and math.isfinite(epoch_loss)):
            raise PipelineError(f"training diverged at epoch {epoch}")
        if after_epoch is not None:
            after_epoch(epoch, params, epoch_loss)
    return _laid_out(params, feature_major=False)


def train(
    train_set: LabeledSet,
    dev_set: LabeledSet | None,
    provider,
    config: TrainConfig,
    provider_y=None,
    epoch_callback=None,
) -> HeadParams:
    """Mini-batch gradient descent (`_descend`) on the summed BCE losses.

    Deterministic under `config.seed`. Returns the parameters with the best
    dev-set aspect-stage macro F1 (pooled over all slots) seen at any epoch
    end; with no or an empty dev set, the final epoch wins.
    `epoch_callback(epoch, full_train_loss)`, when given, observes each epoch.
    """
    if not train_set:
        raise PipelineError("empty training set")
    h = provider.embed(train_set.texts)
    h_y = provider_y.embed(train_set.texts) if provider_y is not None else h
    t_a, t_y, mask = train_set.aspects, train_set.negative, train_set.aspects
    h_dev = provider.embed(dev_set.texts) if dev_set else None
    best = None  # the best epoch's (dev score, heads)

    def batch_grads(hb, hb_y, tb, p, touched):
        return gradients(hb, tb[:, :_K], tb[:, _K : 2 * _K], tb[:, 2 * _K :], p, hb_y, touched)

    def after_epoch(epoch, params, loss):
        nonlocal best
        if epoch_callback is not None:
            epoch_callback(epoch, loss)
        if h_dev is not None:
            detected = probabilities(h_dev, params)[:, :_K] >= config.aspect_threshold
            score = evaluation.evaluate(detected, dev_set.aspects)["Overall"].macro_f1
            if best is None or score > best[0]:
                best = score, params.copy()

    rng = np.random.default_rng(config.seed)
    params = _descend(_init_from_rng(rng, provider.dim), h, h_y, np.hstack([t_a, t_y, mask]),
                      rng, config, batch_grads, lambda p: full_loss(h, t_a, t_y, mask, p, h_y),
                      after_epoch)
    return params if best is None else best[1]


def predict_batch(
    texts: Sequence[str],
    provider,
    params: HeadParams,
    thresholds: TrainConfig | ModelBundle,
    provider_y=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-stage inference: embed `texts`, run both heads, threshold both.

    Returns `(p_a, p_y, detected, negative)`, each n x |A_used|: the aspect
    probabilities, the P(Negative) probabilities, `p_a >= aspect_threshold`
    and `p_y >= sentiment_threshold`. `negative` is not masked: a sentiment
    call counts only where its aspect is detected (or, in evaluation, gold).
    """
    texts = list(texts)
    h = provider.embed(texts)
    h_y = provider_y.embed(texts) if provider_y is not None else h
    p = probabilities(h, params, h_y)
    p_a, p_y = p[:, :_K], p[:, _K:]
    return p_a, p_y, p_a >= thresholds.aspect_threshold, p_y >= thresholds.sentiment_threshold


def train_svm_baseline(train_set: LabeledSet, config: TrainConfig, provider) -> HeadParams:
    """Linear one-vs-rest hinge-loss baseline over `provider`'s features
    (the CLI passes hashed unigrams).

    Subgradient descent on hinge loss with L2 regularization, one detector
    per aspect and one Negative-vs-NonNegative classifier per aspect
    (sentiment slots masked as in the main model), by the same `_descend`
    loop as `train` from zero weights. `predict_batch` then works unchanged,
    since the margins pass through the logistic and margin >= 0 lands at
    probability >= 0.5.
    """
    if not train_set:
        raise PipelineError("empty training set")
    h = provider.embed(train_set.texts)
    s = 2.0 * np.hstack([train_set.aspects, train_set.negative]) - 1.0  # the target signs
    targets = np.hstack([s, train_set.aspects])  # the signs, then the sentiment mask

    def margin_grads(hb, hb_y, tb, p, touched):
        # subgradient of sum(max(0, 1 - s * margin)): -s where the hinge is active
        sb = tb[:, : 2 * _K]
        coef = -sb * (1.0 - sb * _logits(hb, p, hb_y) > 0).astype(float)
        coef[:, _K:] *= tb[:, 2 * _K :]
        return _grads(coef, hb, hb_y, touched)

    zeros = HeadParams.stacked(np.zeros((2 * _K, provider.dim)), np.zeros(2 * _K))
    return _descend(zeros, h, h, targets, np.random.default_rng(config.seed), config,
                    margin_grads)


@dataclass(frozen=True)
class ConfidentCandidate:
    tweet_id: str
    text: str
    probability: float


def select_confident(pool: Iterable[tuple[str, str]], provider, params, threshold: float,
                     cap: int) -> dict[Aspect, list[ConfidentCandidate]]:
    """Per aspect, up to `cap` pool texts with detection probability >= threshold.

    `pool` is (tweet_id, text) pairs, embedded in `iter_chunks` blocks so a
    pool of any size fits in memory; candidates are sorted by descending
    probability with ties broken by tweet id, then by pool order. Aspects with
    no candidate are omitted. The output is a candidate file for human labeling.
    """
    if not 0.0 < threshold < 1.0 or cap < 1:
        raise PipelineError("augment-candidates needs 0 < threshold < 1 and cap >= 1")
    best: dict[Aspect, list[ConfidentCandidate]] = {a: [] for a in A_USED}
    for chunk in iter_chunks(pool):
        probs = probabilities(provider.embed([text for _, text in chunk]), params)[:, :_K]
        for i, aspect in enumerate(A_USED):
            hits = best[aspect] + [
                ConfidentCandidate(tweet_id, text, float(p))
                for (tweet_id, text), p in zip(chunk, probs[:, i])
                if p >= threshold
            ]
            # a stable sort keeps earlier chunks first among ties, as one sort would
            hits.sort(key=lambda c: (-c.probability, c.tweet_id))
            best[aspect] = hits[:cap]
    return {aspect: hits for aspect, hits in best.items() if hits}


@dataclass
class ModelBundle:
    """Everything needed to run inference: tensors, provider config, thresholds."""

    params: HeadParams
    provider_config: dict
    aspect_threshold: float = 0.5
    sentiment_threshold: float = 0.5
    objective: str = "bce"

    def __post_init__(self):
        _check_thresholds(self)


def provider_fingerprint(provider_config: dict) -> str:
    """The provider object as sorted-key JSON, as a params file records it."""
    return json.dumps(provider_config, sort_keys=True)


def _tensor_to_obj(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


_B64_CHUNK = 1 << 18  # base64 characters decoded at a time; a multiple of 4


def _params_from_tensors(tensors: dict) -> HeadParams:
    """The `tensors` object of a params file, decoded straight into the stacked
    `W` and `b` a chunk at a time, so loading holds the heads once (96 MiB at
    `features.MAX_DIM`) and not a second time as copies."""
    objs = [files.field(tensors, name, dict) for name in _TENSORS]
    shape_a, shape_ba, shape_y, shape_by = (files.field(obj, "shape", [int]) for obj in objs)
    dim = shape_a[-1] if shape_a else -1
    if dim < 0 or not shape_a == shape_y == [_K, dim]:
        raise PipelineError("weight matrices must be |A_used| x d")
    if not shape_ba == shape_by == [_K]:
        raise PipelineError("bias vectors must have length |A_used|")
    # every text is checked before anything is allocated, so a bad shape cannot ask for more
    # memory than the file's size
    texts = [_tensor_text(obj, name, size)
             for obj, name, size in zip(objs, _TENSORS, (_K * dim, _K) * 2)]
    W = np.empty((2 * _K, dim), dtype="<f8")
    b = np.empty(2 * _K, dtype="<f8")
    for out, text, name in zip((W[:_K], b[:_K], W[_K:], b[_K:]), texts, _TENSORS):
        raw = out.reshape(-1).view(np.uint8)
        written = 0
        try:
            for start in range(0, len(text), _B64_CHUNK):
                chunk = binascii.a2b_base64(text[start : start + _B64_CHUNK])
                raw[start // 4 * 3 : start // 4 * 3 + len(chunk)] = np.frombuffer(chunk, np.uint8)
                written += len(chunk)
        except binascii.Error as exc:
            raise PipelineError(f"tensor {name} is not base64: {exc}") from None
        if written != raw.size:  # characters outside the base64 alphabet were skipped
            raise PipelineError(f"tensor {name} is not base64")
    return HeadParams.stacked(W, b)


def _tensor_text(obj: dict, name: str, size: int) -> str:
    """The base64 text of tensor `name`, checked to be as long as `size` float64 values."""
    files.field(obj, "dtype", ("<f8",))
    text = files.field(obj, "b64", str)
    if len(text) != 4 * -(-8 * size // 3):
        raise PipelineError(f"tensor {name} does not hold {size} float64 values")
    return text


def save_params(path, bundle: ModelBundle) -> None:
    """Write the versioned parameter container; round-trips bit-exactly."""
    doc = {
        "format_version": PARAMS_FORMAT_VERSION,
        "dim": bundle.params.dim,
        "aspects": [a.value for a in A_USED],
        "objective": bundle.objective,
        "provider": bundle.provider_config,
        "provider_fingerprint": provider_fingerprint(bundle.provider_config),
        "aspect_threshold": bundle.aspect_threshold,
        "sentiment_threshold": bundle.sentiment_threshold,
        "tensors": {name: _tensor_to_obj(getattr(bundle.params, name)) for name in _TENSORS},
    }
    files.write_json(path, doc)


def load_params(path) -> ModelBundle:
    """Read a `save_params` file; a malformed one is a `PipelineError` naming `path`.

    The file's own provider object must resolve by `features.providers`, with
    no endpoint flag applied, to a provider of the tensors' dim.
    """
    try:
        doc = files.read_json(path)
        files.field(doc, "format_version", (PARAMS_FORMAT_VERSION,))
        if doc.get("aspects") != [a.value for a in A_USED]:
            raise PipelineError("trained with a different aspect set")
        tensors = files.field(doc, "tensors", dict)
        provider_config = files.field(doc, "provider", dict)
        if files.field(doc, "provider_fingerprint", str) != provider_fingerprint(provider_config):
            raise PipelineError("provider_fingerprint does not match the provider object")
        _, provider, _ = providers(provider_config)
        bundle = ModelBundle(
            params=_params_from_tensors(tensors),
            provider_config=provider_config,
            aspect_threshold=files.field(doc, "aspect_threshold", float),
            sentiment_threshold=files.field(doc, "sentiment_threshold", float),
            objective=files.field(doc, "objective", ("bce", "hinge"), optional=True) or "bce",
        )
        if provider.dim != bundle.params.dim:
            raise PipelineError(f"provider dim {provider.dim} != tensor dim {bundle.params.dim}")
        return bundle
    except (PipelineError, ValueError) as exc:
        # ValueError: bad JSON or UTF-8, a provider setting out of range, a threshold outside (0, 1)
        raise PipelineError(f"bad parameter file {path}: {exc}") from None
