"""First-order linear-chain CRF over sparse binary features.

Scoring, exact log-partition and marginals, L2-regularized
maximum-likelihood training with L-BFGS, and Viterbi decoding constrained to
legal IOBES transitions.  One batched forward-backward recursion
(`_forward_backward`) serves the training objective, `posteriors` and
`log_partition`.  It runs in scaled probability space and falls back to a
log-space recursion when the weights spread too widely for that; scores and
Viterbi decoding are in log space.  All computation is double precision.

Training normalizes over the full tag alphabet (no transition masking);
the IOBES constraints are applied only at decode time, which guarantees
scheme-valid output.
"""

from __future__ import annotations

import base64
import gzip
import json
import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.optimize
import scipy.sparse

from .corpus import (
    Corpus,
    Scheme,
    Sentence,
    TagSequence,
    is_legal_end,
    is_legal_start,
    is_legal_transition,
    split_tag,
)
from .features import FeatureMap, TemplateSet, extract, fit_feature_map

_FORMAT = "casener-crf"
_VERSION = 1


class TrainingError(RuntimeError):
    """Numerical failure during training (non-finite objective or gradient)."""


class ModelFormatError(ValueError):
    """Serialized model data cannot be decoded."""


@dataclass(frozen=True)
class TrainConfig:
    """L-BFGS training hyperparameters.

    `l2_sigma` is the sigma of the Gaussian prior: the penalty is
    ||w||^2 / (2 sigma^2).  `max_epochs` caps L-BFGS iterations.
    `tolerance` is the relative-objective-change stopping criterion.
    Training is deterministic.
    """

    l2_sigma: float = 1.0
    max_epochs: int = 200
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.l2_sigma <= 0:
            raise ValueError("l2_sigma must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


class CrfModel:
    """Tag set + feature map + weights; realizes the sequence scorer.

    `emission` has shape (num_features, num_tags); `begin`, `end` have shape
    (num_tags,); `transition` has shape (num_tags, num_tags).  All weights
    must be finite.  Tags must form an IOBES label space ("O" or
    "<B|I|E|S>-<TYPE>"); decoding constraints are derived from it.
    """

    def __init__(
        self,
        feature_map: FeatureMap,
        template_set: TemplateSet,
        emission: np.ndarray,
        begin: np.ndarray,
        end: np.ndarray,
        transition: np.ndarray,
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        k = feature_map.num_tags
        f = feature_map.num_features
        emission = np.asarray(emission, dtype=np.float64).reshape(f, k)
        begin = np.asarray(begin, dtype=np.float64).reshape(k)
        end = np.asarray(end, dtype=np.float64).reshape(k)
        transition = np.asarray(transition, dtype=np.float64).reshape(k, k)
        for name, arr in (
            ("emission", emission),
            ("begin", begin),
            ("end", end),
            ("transition", transition),
        ):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name} weights")
        for tag in feature_map.tags:
            prefix, _ = split_tag(tag)
            if prefix != "O" and prefix not in "BIES":
                raise ValueError(f"tag {tag!r} is not an IOBES label")

        self.feature_map = feature_map
        self.template_set = template_set
        self.emission = emission
        self.begin = begin
        self.end = end
        self.transition = transition
        self.metadata: dict[str, object] = dict(metadata or {})

        tags = feature_map.tags
        self._start_mask = np.where(
            [is_legal_start(t, Scheme.IOBES) for t in tags], 0.0, -np.inf
        )
        self._end_mask = np.where(
            [is_legal_end(t, Scheme.IOBES) for t in tags], 0.0, -np.inf
        )
        trans_ok = [
            [is_legal_transition(a, b, Scheme.IOBES) for b in tags] for a in tags
        ]
        self._trans_mask = np.where(trans_ok, 0.0, -np.inf)

    @property
    def num_tags(self) -> int:
        return self.feature_map.num_tags


def _emissions(model: CrfModel, sentence: Sentence) -> np.ndarray:
    """Per-position emission scores, shape (len(sentence), num_tags)."""
    fmap = model.feature_map
    out = np.zeros((len(sentence), model.num_tags))
    for i in range(len(sentence)):
        rows = [
            idx
            for f in extract(sentence, i, model.template_set)
            if (idx := fmap.feature_index(f)) is not None
        ]
        if rows:
            out[i] = model.emission[rows].sum(axis=0)
    return out


def score_sequence(model: CrfModel, sentence: Sentence, tags: TagSequence) -> float:
    """Unnormalized log-space score of tagging `sentence` with `tags`."""
    if len(tags) != len(sentence):
        raise ValueError(
            f"tag sequence length {len(tags)} != sentence length {len(sentence)}"
        )
    idx = [model.feature_map.tag_index(t) for t in tags.tags]
    emit = _emissions(model, sentence)
    score = model.begin[idx[0]] + model.end[idx[-1]]
    for i, k in enumerate(idx):
        score += emit[i, k]
    for prev, cur in zip(idx, idx[1:]):
        score += model.transition[prev, cur]
    return float(score)


def log_partition(model: CrfModel, sentence: Sentence) -> float:
    """log Z: log of the summed exponentiated scores of all K^n taggings."""
    return posteriors(model, sentence)[0]


def posteriors(
    model: CrfModel, sentence: Sentence
) -> tuple[float, np.ndarray, np.ndarray]:
    """Forward-backward marginals for one sentence.

    Returns (logZ, node marginals (n, K), edge marginals (n-1, K, K)).
    Node marginals sum to 1 per position; edge marginals marginalize to the
    node marginals on both sides.
    """
    emit = _emissions(model, sentence)
    logz, node, edge = _forward_backward(
        emit[None], model.begin, model.end, model.transition
    )
    return float(logz[0]), node[0], edge


#: Largest summed weight spread (nats) the scaled kernel accepts: see
#: `_forward_backward`.
_MAX_SCALED_SPREAD = 200.0


def _forward_backward(
    emit: np.ndarray, begin: np.ndarray, end: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over S sentences of equal length L.

    `emit` has shape (S, L, K).  Returns logZ per sentence (S,), node
    marginals (S, L, K), and edge marginals summed over the batch
    (L-1, K, K).

    The recursion runs in probability space (Rabiner, 1989): every factor is
    exponentiated relative to its maximum, the forward row is normalized at
    each step, and the logs of those scales sum to logZ; the backward pass
    reuses the forward scales.  Each step is one (S, K) @ (K, K) matmul.

    Every exponentiated factor lies in [exp(-d), 1], where d is the spread
    (max - min) of the transition weights plus that of the begin weights,
    the end weights and the widest per-position emission row.  Every
    intermediate product is then at least about exp(-3d) / K^2, so the
    scaled path runs only when d <= `_MAX_SCALED_SPREAD` (200 nats), which
    keeps it above the smallest normal double (exp(-708)).  A wider or
    non-finite spread falls back to the log-space recursion
    (`_forward_backward_log`) for that batch.
    """
    s, length, k = emit.shape
    emax = emit.max(axis=2)
    ex = emit - emax[:, :, None]
    spread = np.ptp(trans) + np.ptp(begin) + np.ptp(end) - ex.min()
    if not spread <= _MAX_SCALED_SPREAD:
        return _forward_backward_log(emit, begin, end, trans)

    tmax, bmax, fmax = trans.max(), begin.max(), end.max()
    tm = np.exp(trans - tmax)
    np.exp(ex, out=ex)
    e_end = np.exp(end - fmax)

    a = np.empty((s, length, k))
    c = np.empty((s, length))
    a_t = ex[:, 0] * np.exp(begin - bmax)
    for t in range(length):
        if t:
            a_t = (a[:, t - 1] @ tm) * ex[:, t]
        c[:, t] = a_t.sum(axis=1)
        a[:, t] = a_t / c[:, t, None]
    z = a[:, length - 1] @ e_end
    logz = (
        emax.sum(axis=1) + (length - 1) * tmax + bmax + fmax
        + np.log(c).sum(axis=1) + np.log(z)
    )

    # b is the scaled backward vector; ex[:, t] is overwritten with
    # ex * b / c, the right-hand factor of the edge marginals into t.
    node = np.empty((s, length, k))
    edge = np.empty((length - 1, k, k))
    b = e_end[None, :] / z[:, None]
    for t in range(length - 1, 0, -1):
        node[:, t] = a[:, t] * b
        v = ex[:, t]
        v *= b / c[:, t, None]
        edge[t - 1] = tm * (a[:, t - 1].T @ v)
        b = v @ tm.T
    node[:, 0] = a[:, 0] * b
    return logz, node, edge


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable log-sum-exp along `axis` (inputs assumed finite)."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(
        np.exp(a - m).sum(axis=axis)
    )


def _forward_backward_log(
    emit: np.ndarray, begin: np.ndarray, end: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-space forward-backward: `_forward_backward`'s fallback for
    weight spreads that would underflow in probability space.  Same
    arguments and results."""
    s, length, k = emit.shape
    alpha = np.empty((s, length, k))
    alpha[:, 0] = begin[None, :] + emit[:, 0]
    for t in range(1, length):
        alpha[:, t] = (
            _logsumexp(alpha[:, t - 1][:, :, None] + trans[None], axis=1)
            + emit[:, t]
        )
    logz = _logsumexp(alpha[:, length - 1] + end[None, :], axis=1)

    beta = np.empty((s, length, k))
    beta[:, length - 1] = end[None, :]
    for t in range(length - 2, -1, -1):
        beta[:, t] = _logsumexp(
            trans[None] + (emit[:, t + 1] + beta[:, t + 1])[:, None, :],
            axis=2,
        )

    node = np.exp(alpha + beta - logz[:, None, None])
    edge = np.empty((length - 1, k, k))
    for t in range(1, length):
        edge[t - 1] = np.exp(
            alpha[:, t - 1][:, :, None]
            + trans[None]
            + (emit[:, t] + beta[:, t])[:, None, :]
            - logz[:, None, None]
        ).sum(axis=0)
    return logz, node, edge


# ---------------------------------------------------------------------------
# Corpus encoding for training


@dataclass
class _EncodedCorpus:
    """Corpus pre-digested for repeated objective evaluations.

    `feature_rows` is a (total_positions, num_features) binary indicator
    matrix; `buckets` groups sentences of equal length so the forward and
    backward recursions vectorize across sentences without padding.
    """

    feature_rows: scipy.sparse.csr_matrix
    lengths: np.ndarray
    gold: np.ndarray
    first_tags: np.ndarray
    last_tags: np.ndarray
    pair_prev: np.ndarray
    pair_next: np.ndarray
    buckets: list[tuple[int, np.ndarray]]
    obs_emission: np.ndarray
    obs_begin: np.ndarray
    obs_end: np.ndarray
    obs_transition: np.ndarray
    num_tags: int

    @property
    def num_positions(self) -> int:
        return int(self.lengths.sum())


def _encode(
    corpus: Corpus, fmap: FeatureMap, template_set: TemplateSet
) -> _EncodedCorpus:
    k = fmap.num_tags
    indptr = [0]
    indices: list[int] = []
    lengths = []
    gold: list[int] = []
    for ann in corpus:
        lengths.append(len(ann.sentence))
        for i in range(len(ann.sentence)):
            active = sorted(
                idx
                for feat in extract(ann.sentence, i, template_set)
                if (idx := fmap.feature_index(feat)) is not None
            )
            indices.extend(active)
            indptr.append(len(indices))
        gold.extend(fmap.tag_index(t) for t in ann.gold.tags)

    lengths_arr = np.asarray(lengths, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths_arr)[:-1]))
    total = int(lengths_arr.sum())
    matrix = scipy.sparse.csr_matrix(
        (
            np.ones(len(indices), dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(total, fmap.num_features),
    )
    gold_arr = np.asarray(gold, dtype=np.int64)
    first_tags = gold_arr[offsets]
    last_tags = gold_arr[offsets + lengths_arr - 1]

    pair_prev: list[np.ndarray] = []
    pair_next: list[np.ndarray] = []
    for off, length in zip(offsets, lengths_arr):
        if length > 1:
            pair_prev.append(gold_arr[off : off + length - 1])
            pair_next.append(gold_arr[off + 1 : off + length])
    prev_arr = (
        np.concatenate(pair_prev) if pair_prev else np.empty(0, dtype=np.int64)
    )
    next_arr = (
        np.concatenate(pair_next) if pair_next else np.empty(0, dtype=np.int64)
    )

    buckets: list[tuple[int, np.ndarray]] = []
    by_length: dict[int, list[int]] = {}
    for sid, length in enumerate(lengths):
        by_length.setdefault(length, []).append(sid)
    for length in sorted(by_length):
        sids = np.asarray(by_length[length], dtype=np.int64)
        rows = offsets[sids][:, None] + np.arange(length)[None, :]
        buckets.append((length, rows))

    onehot = np.zeros((total, k))
    onehot[np.arange(total), gold_arr] = 1.0
    obs_emission = np.asarray(matrix.T @ onehot)
    obs_begin = np.bincount(first_tags, minlength=k).astype(np.float64)
    obs_end = np.bincount(last_tags, minlength=k).astype(np.float64)
    obs_transition = np.zeros((k, k))
    np.add.at(obs_transition, (prev_arr, next_arr), 1.0)

    return _EncodedCorpus(
        feature_rows=matrix,
        lengths=lengths_arr,
        gold=gold_arr,
        first_tags=first_tags,
        last_tags=last_tags,
        pair_prev=prev_arr,
        pair_next=next_arr,
        buckets=buckets,
        obs_emission=obs_emission,
        obs_begin=obs_begin,
        obs_end=obs_end,
        obs_transition=obs_transition,
        num_tags=k,
    )


def _unpack(w: np.ndarray, num_features: int, k: int):
    fk = num_features * k
    emission = w[:fk].reshape(num_features, k)
    begin = w[fk : fk + k]
    end = w[fk + k : fk + 2 * k]
    trans = w[fk + 2 * k :].reshape(k, k)
    return emission, begin, end, trans


def _pack(emission, begin, end, trans) -> np.ndarray:
    return np.concatenate(
        [emission.ravel(), begin, end, trans.ravel()]
    )


def _neg_ll_and_grad(
    w: np.ndarray, enc: _EncodedCorpus, sigma: float
) -> tuple[float, np.ndarray]:
    """Negative penalized log-likelihood and its gradient (for minimizers)."""
    num_features = enc.feature_rows.shape[1]
    k = enc.num_tags
    emission, begin, end, trans = _unpack(w, num_features, k)
    total = enc.num_positions

    emit_all = enc.feature_rows @ emission  # (total, K) dense

    gold_score = (
        emit_all[np.arange(total), enc.gold].sum()
        + begin[enc.first_tags].sum()
        + end[enc.last_tags].sum()
        + trans[enc.pair_prev, enc.pair_next].sum()
    )

    logz_total = 0.0
    node_post = np.empty((total, k))
    exp_begin = np.zeros(k)
    exp_end = np.zeros(k)
    exp_trans = np.zeros((k, k))

    for _, rows in enc.buckets:
        logz, node, edge = _forward_backward(emit_all[rows], begin, end, trans)
        logz_total += logz.sum()
        node_post[rows.reshape(-1)] = node.reshape(-1, k)
        exp_begin += node[:, 0].sum(axis=0)
        exp_end += node[:, -1].sum(axis=0)
        exp_trans += edge.sum(axis=0)

    exp_emission = np.asarray(enc.feature_rows.T @ node_post)

    inv_var = 1.0 / (sigma * sigma)
    with np.errstate(over="ignore"):  # non-finite results are caught below
        ll = gold_score - logz_total - 0.5 * inv_var * float(w @ w)
        grad = _pack(
            enc.obs_emission - exp_emission,
            enc.obs_begin - exp_begin,
            enc.obs_end - exp_end,
            enc.obs_transition - exp_trans,
        )
        grad -= inv_var * w

    if not (np.isfinite(ll) and np.isfinite(grad).all()):
        raise TrainingError("objective or gradient became non-finite")
    return -float(ll), -grad


def log_likelihood_and_gradient(
    model: CrfModel, corpus: Corpus, l2_sigma: float
) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood of `corpus` under `model`, with gradient.

    The gradient is flat: emission weights (row-major, feature-major), then
    begin, end, and transition weights (row-major).
    """
    if l2_sigma <= 0:
        raise ValueError("l2_sigma must be positive")
    enc = _encode(corpus, model.feature_map, model.template_set)
    w = _pack(model.emission, model.begin, model.end, model.transition)
    neg_ll, neg_grad = _neg_ll_and_grad(w, enc, l2_sigma)
    return -neg_ll, -neg_grad


# ---------------------------------------------------------------------------
# Training


def train(
    corpus: Corpus,
    template_set: TemplateSet,
    cfg: TrainConfig | None = None,
    min_count: int = 1,
) -> CrfModel:
    """Fit a CRF on `corpus`; deterministic given the config.

    The model metadata records the config, the iteration count, the number
    of objective evaluations, and whether L-BFGS met its stopping criterion
    (`converged`) rather than hitting `max_epochs` or a failed line search.
    """
    cfg = cfg or TrainConfig()
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    fmap = fit_feature_map(corpus, template_set, min_count=min_count)
    enc = _encode(corpus, fmap, template_set)
    k = fmap.num_tags
    size = fmap.num_features * k + 2 * k + k * k
    w0 = np.zeros(size)

    result = scipy.optimize.minimize(
        _neg_ll_and_grad,
        w0,
        args=(enc, cfg.l2_sigma),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": cfg.max_epochs, "ftol": cfg.tolerance},
    )

    emission, begin, end, trans = _unpack(result.x, fmap.num_features, k)
    metadata = {
        "l2_sigma": cfg.l2_sigma,
        "max_epochs": cfg.max_epochs,
        "tolerance": cfg.tolerance,
        "min_count": min_count,
        "training_sentences": len(corpus),
        "iterations": int(result.nit),
        "function_evaluations": int(result.nfev),
        "converged": bool(result.success),
    }
    return CrfModel(
        fmap, template_set, emission.copy(), begin.copy(), end.copy(),
        trans.copy(), metadata,
    )


# ---------------------------------------------------------------------------
# Decoding


def decode(model: CrfModel, sentence: Sentence) -> TagSequence:
    """Highest-scoring IOBES-legal tagging of `sentence` (Viterbi).

    Illegal transitions are masked to -inf; ties break toward the lowest
    tag index at each backtrace step.  The all-"O" path is always legal, so
    decoding always succeeds.
    """
    emit = _emissions(model, sentence)
    n, k = emit.shape
    trans = model.transition + model._trans_mask
    delta = model.begin + emit[0] + model._start_mask
    back = np.zeros((n, k), dtype=np.int64)
    for t in range(1, n):
        scores = delta[:, None] + trans
        back[t] = scores.argmax(axis=0)
        delta = scores.max(axis=0) + emit[t]
    final = delta + model.end + model._end_mask
    best = int(np.argmax(final))
    path = [best]
    for t in range(n - 1, 0, -1):
        best = int(back[t, best])
        path.append(best)
    path.reverse()
    tags = tuple(model.feature_map.tags[i] for i in path)
    return TagSequence(tags, Scheme.IOBES)


# ---------------------------------------------------------------------------
# Persistence


def _encode_array(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def _decode_array(text: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, AttributeError) as exc:
        raise ModelFormatError(f"bad weight encoding: {exc}") from exc
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise ModelFormatError(
            f"weight block holds {len(raw)} bytes, expected {expected}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save(model: CrfModel) -> bytes:
    """Serialize to a versioned, self-describing container (gzip + JSON).

    Weights are stored as raw little-endian float64, so save/load round
    trips are bit-lossless and repeated saves are byte-identical.
    """
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "template_set": model.template_set.value,
        "tags": list(model.feature_map.tags),
        "features": list(model.feature_map.features),
        "emission": _encode_array(model.emission),
        "begin": _encode_array(model.begin),
        "end": _encode_array(model.end),
        "transition": _encode_array(model.transition),
        "metadata": model.metadata,
    }
    payload = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return gzip.compress(payload, mtime=0)


def load(data: bytes) -> CrfModel:
    """Inverse of :func:`save`; raises ModelFormatError on any defect."""
    if not data:
        raise ModelFormatError("empty model data")
    try:
        payload = gzip.decompress(data)
        doc = json.loads(payload)
    except (OSError, EOFError, zlib.error, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupt model container: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ModelFormatError("not a CRF model file")
    if doc.get("version") != _VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        fmap = FeatureMap(tuple(doc["features"]), tuple(doc["tags"]))
        template_set = TemplateSet(doc["template_set"])
        f, k = fmap.num_features, fmap.num_tags
        return CrfModel(
            fmap,
            template_set,
            _decode_array(doc["emission"], (f, k)),
            _decode_array(doc["begin"], (k,)),
            _decode_array(doc["end"], (k,)),
            _decode_array(doc["transition"], (k, k)),
            doc.get("metadata", {}),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model fields: {exc}") from exc


def save_file(model: CrfModel, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(save(model))


def load_file(path: str) -> CrfModel:
    with open(path, "rb") as handle:
        return load(handle.read())
