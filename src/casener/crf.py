"""First-order linear-chain CRF over sparse binary features.

Scoring, exact log-partition and marginals, L2-regularized
maximum-likelihood training with L-BFGS-B (`lbfgs.minimize`), and Viterbi
decoding constrained to legal IOBES transitions.  One batched
forward-backward recursion (`_forward_backward`) serves the training
objective, `posteriors` and `log_partition`.  It runs in scaled probability
space and falls back to a log-space recursion when the weights spread too
widely for that; scores and Viterbi decoding are in log space.  All
computation is double precision.

Training's design is argued where it is built: `_EncodedCorpus` (each
distinct pair once, packed), `_merged` (one weight row per group of equal
feature columns) and `_emissions` (the order emission rows are summed in).

Training normalizes over the full tag alphabet (no transition masking);
the IOBES constraints are applied only at decode time, which guarantees
scheme-valid output.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse

from . import container, lbfgs
from .corpus import Corpus, Sentence, TagSequence, label_space_rules
from .features import (
    WINDOW,
    FeatureFactors,
    FeatureMap,
    TemplateSet,
    extract,  # noqa: F401  (perfbench's tracer wraps this name here)
    feature_factors,
    feature_map_from_factors,
    fit_feature_map,  # noqa: F401  (perfbench's tracer wraps this name here)
)

_KIND = "crf"
_VERSION = 3


class TrainingError(RuntimeError):
    """Numerical failure in training (non-finite objective, gradient or g'd)."""


class ModelFormatError(ValueError):
    """Serialized model data cannot be decoded."""


def _check_l2_sigma(l2_sigma: float) -> None:
    """Reject a prior sigma the penalty 1 / sigma^2 cannot use."""
    # Written so that NaN fails too: every comparison with it is False.  A
    # sigma below about 1.5e-154 squares to a subnormal, whose inverse
    # overflows below about 7.5e-155; below about 1.6e-162 the square is 0.
    if not (0 < l2_sigma < np.inf and l2_sigma * l2_sigma > 0
            and 1 / (l2_sigma * l2_sigma) < np.inf):
        raise ValueError(
            "l2_sigma must be positive and finite, and 1 / l2_sigma^2 finite"
        )


@dataclass(frozen=True)
class TrainConfig:
    """L-BFGS training hyperparameters.

    `l2_sigma` is the sigma of the Gaussian prior: the penalty is
    ||w||^2 / (2 sigma^2).  `max_epochs` caps L-BFGS iterations.
    `tolerance` is the relative-objective-change stopping criterion.
    """

    l2_sigma: float = 1.0
    max_epochs: int = 200
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        _check_l2_sigma(self.l2_sigma)
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")


class CrfModel:
    """Tag set + feature map + weights; realizes the sequence scorer.

    `emission` has shape (num_features, num_tags); `begin`, `end` have shape
    (num_tags,); `transition` has shape (num_tags, num_tags).  All weights
    must be finite.  The tags, IOBES with "O" and no whitespace, are checked,
    and decoding's constraints derived, by `corpus.label_space_rules`.
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
        start_ok, trans_ok, end_ok = label_space_rules(feature_map.tags)

        self.feature_map = feature_map
        self.template_set = template_set
        self.emission = emission
        self.begin = begin
        self.end = end
        self.transition = transition
        self.metadata: dict[str, object] = dict(metadata or {})
        self._start_mask = np.where(start_ok, 0.0, -np.inf)
        self._end_mask = np.where(end_ok, 0.0, -np.inf)
        self._trans_mask = np.where(trans_ok, 0.0, -np.inf)

    @property
    def num_tags(self) -> int:
        return self.feature_map.num_tags


def _mapped_types(fmap: FeatureMap, factors: FeatureFactors) -> np.ndarray:
    """`factors.by_type` with each name ID replaced by the name's feature
    index in `fmap`: int32, shape (slots, types), -1 where the slot emits
    nothing or `fmap` lacks the name."""
    ids = np.array(
        [-1 if (i := fmap.feature_index(name)) is None else i
         for name in factors.names] + [-1],
        dtype=np.int32,
    )
    return ids[factors.by_type]


def _emissions(model: CrfModel, sentence: Sentence) -> np.ndarray:
    """Per-position emission scores, shape (len(sentence), num_tags): each
    position's `model.emission` rows summed in ascending index order.  The
    mapped factors give the rows in template-slot order, which does not
    depend on the string hash seed; the sort fixes the ascending order that
    `test_emissions_sum_the_reference_rows` pins.  Training keeps the two
    factors apart (`_EncodedCorpus`), so it sums per window offset: the
    rows each offset's token type gives, in ascending index order, then the
    offsets from left to right.  Its emission scores can thus differ from
    these in the last bits."""
    factors = feature_factors([sentence], model.template_set)
    slot_offsets = factors.slot_offsets
    rows = _mapped_types(model.feature_map, factors)[
        np.arange(len(slot_offsets)), factors.window[:, slot_offsets + WINDOW]
    ]
    rows.sort(axis=1)
    scores = model.emission[rows]
    scores[rows < 0] = 0.0
    return scores.sum(axis=1)


def _overflow_raises() -> np.errstate:
    """The floating-point state of the one-sentence entry points
    (`score_sequence`, `posteriors`, `log_partition`, `decode`): weights
    up to the largest finite double load, and a score that overflows
    raises FloatingPointError instead of returning inf or NaN."""
    return np.errstate(over="raise", invalid="raise")


def score_sequence(model: CrfModel, sentence: Sentence, tags: TagSequence) -> float:
    """Unnormalized log-space score of tagging `sentence` with `tags`."""
    if len(tags) != len(sentence):
        raise ValueError(
            f"tag sequence length {len(tags)} != sentence length {len(sentence)}"
        )
    idx = [model.feature_map.tag_index(t) for t in tags.tags]
    with _overflow_raises():
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
    with _overflow_raises():
        logz, node, edge = _forward_backward(
            _emissions(model, sentence), _packed(np.array([len(sentence)])),
            np.ones(1), model.begin, model.end, model.transition,
        )
    return float(logz[0]), node, edge


#: Largest summed weight spread (nats) the scaled kernel accepts: see
#: `_forward_backward`.
_MAX_SCALED_SPREAD = 200.0


class _Packed(NamedTuple):
    """The time-major layout of a batch of sentences ordered longest first.

    Step t holds one row per sentence longer than t, in batch order, so
    every step's sentences are a prefix of the batch (the layout of
    `torch.nn.utils.rnn.pack_padded_sequence`).  `lengths` are the
    sentence lengths; `steps` holds, for each step t >= 1, the rows of step
    t - 1 that continue into step t and the rows of step t; `rank` is the
    batch rank of every row and `last` every sentence's last row.
    """

    lengths: np.ndarray
    steps: list[tuple[slice, slice]]
    rank: np.ndarray
    last: np.ndarray


def _packed(lengths: np.ndarray) -> _Packed:
    """The `_Packed` layout of sentences of `lengths`, longest first."""
    # sizes[t] counts the sentences longer than t.
    sizes = np.cumsum(np.bincount(lengths)[:0:-1])[::-1]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    steps = [
        (slice(start, start + size), slice(stop, stop + size))
        for start, stop, size in zip(
            offsets[:-2].tolist(), offsets[1:-1].tolist(), sizes[1:].tolist()
        )
    ]
    rank = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)
    last = offsets[lengths - 1] + np.arange(len(lengths))
    return _Packed(lengths, steps, rank, last)


def _forward_backward(
    emit: np.ndarray,
    packed: _Packed,
    counts: np.ndarray,
    begin: np.ndarray,
    end: np.ndarray,
    trans: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over a batch of S sentences in one pass.

    `emit` has one emission row (K,) per position, laid out as `packed`
    describes.  Returns logZ per sentence (S,), node marginals in `emit`'s
    row order, and per step the edge marginals into it summed over the
    batch, shape (max(lengths) - 1, K, K); the marginals are count-weighted.

    The recursion runs in probability space (Rabiner, 1989; Sutton &
    McCallum, 2012, section 4): every factor is exponentiated relative to
    its maximum, the forward rows are normalized at each step, and the logs
    of those scales sum to logZ; the backward pass reuses them and starts
    each sentence at its own last step (`_Packed`), times its count.

    Every exponentiated factor lies in [exp(-d), 1], where d is the spread
    (max - min) of the transition weights plus that of the begin weights,
    the end weights and the widest emission row of the batch.  Every
    intermediate product is then at least about exp(-3d) / K^2, so the
    scaled path runs only when d <= `_MAX_SCALED_SPREAD` (200 nats), which
    keeps it above the smallest normal double (exp(-708)).  A wider or
    non-finite spread sends the whole batch to the log-space recursion
    (`_forward_backward_log`).

    The scaled path overwrites `emit` with its working values; the
    fallback leaves it as it was.
    """
    # Maxima and minima are exact, and over the contiguous rows of the
    # transpose numpy reduces several times faster than along the short tag
    # axis.  Rounding is monotonic, so min(e - emax) == emin - emax.
    by_tag = emit.T.copy()
    emax, emin = by_tag.max(axis=0), by_tag.min(axis=0)
    del by_tag  # freed before the recursion allocates its own rows
    bmax, fmax, tmax = begin.max(), end.max(), trans.max()
    spread = (
        (tmax - trans.min()) + (bmax - begin.min()) + (fmax - end.min())
        - (emin - emax).min()
    )
    if not spread <= _MAX_SCALED_SPREAD:
        return _forward_backward_log(emit, packed, counts, begin, end, trans)

    lengths, steps, rank, last = packed
    s = len(lengths)
    tm = np.exp(trans - tmax)
    ex = emit  # rescaled and exponentiated in place
    ex -= emax[:, None]
    np.exp(ex, out=ex)
    a = np.empty_like(ex)
    c = np.empty(len(ex))
    a_t = ex[:s] * np.exp(begin - bmax)
    c[:s] = a_t.sum(axis=1)
    a[:s] = a_t / c[:s, None]
    for prev, cur in steps:
        a_t = (a[prev] @ tm) * ex[cur]
        c[cur] = a_t.sum(axis=1)
        a[cur] = a_t / c[cur, None]
    z = a[last] @ np.exp(end - fmax)
    logz = (
        np.bincount(rank, weights=emax + np.log(c), minlength=s)
        + (lengths - 1) * tmax + bmax + fmax + np.log(z)
    )

    # b[i] is sentence i's scaled backward vector at the current step times
    # its count (multiplied first: a count of 1 changes no bit).  a becomes
    # the node marginals a * b, and ex the edge marginals' factor ex * b / c.
    edge = np.empty((len(steps), *trans.shape))
    b = counts[:, None] * np.exp(end - fmax)[None, :] / z[:, None]
    for t, (prev, cur) in reversed(list(enumerate(steps))):
        n = cur.stop - cur.start
        b_t = b[:n]
        v = ex[cur]
        v *= b_t / c[cur, None]
        edge[t] = tm * (a[prev].T @ v)
        a[cur] *= b_t
        b_t[:] = v @ tm.T
    a[:s] *= b
    return logz, a, edge


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable log-sum-exp along `axis` (inputs assumed finite)."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(
        np.exp(a - m).sum(axis=axis)
    )


def _forward_backward_log(
    emit: np.ndarray,
    packed: _Packed,
    counts: np.ndarray,
    begin: np.ndarray,
    end: np.ndarray,
    trans: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-space forward-backward: `_forward_backward`'s fallback for
    weight spreads that would underflow in probability space.  Same
    arguments, layout and results."""
    lengths, steps, rank, last = packed
    s = len(lengths)
    alpha = np.empty_like(emit)
    alpha[:s] = begin[None, :] + emit[:s]
    for prev, cur in steps:
        alpha[cur] = (
            _logsumexp(alpha[prev][:, :, None] + trans[None], axis=1)
            + emit[cur]
        )
    logz = _logsumexp(alpha[last] + end[None, :], axis=1)

    # A sentence's beta starts at its last row, shifted by its log count;
    # the rows of step t - 1 that continue into step t take theirs from it.
    beta = np.empty_like(emit)
    beta[last] = end[None, :] + np.log(counts)[:, None]
    edge = np.empty((len(steps), *trans.shape))
    for t, (prev, cur) in reversed(list(enumerate(steps))):
        n = cur.stop - cur.start
        right = (emit[cur] + beta[cur])[:, None, :]
        beta[prev] = _logsumexp(trans[None] + right, axis=2)
        edge[t] = np.exp(
            alpha[prev][:, :, None] + trans[None] + right
            - logz[:n, None, None]
        ).sum(axis=0)
    node = np.exp(alpha + beta - logz[rank, None])
    return logz, node, edge


# ---------------------------------------------------------------------------
# Corpus encoding for training


@dataclass
class _EncodedCorpus:
    """Corpus pre-digested for repeated objective evaluations.

    The sentences are the distinct (tokens, tags) pairs of the corpus
    (`_distinct`), ordered longest first (a stable sort); `packed` is their
    layout and `counts` how often each counts, in that order, which scale
    each sentence's backward start.  One forward-backward pass covers them
    all, so the expected counts and logZ sum in another order than sentence
    by sentence: the trained weights agree with per-sentence training only
    to the last bits (the iteration counts and decoded tags were the same
    on the synthetic data).

    The positions' features are kept as the featurizer's two factors, whose
    product is the (positions, num_features) 0/1 feature matrix.
    `offset_types` has one row per packed position and one column per
    (window offset, token type): a row holds a 1 for the type at each of
    its offsets.  `type_features` has a row per such column, holding a 1
    for each feature index that the slots at that offset give that type.
    Each is stored with its transpose (a CSC view of the same arrays) for
    the gradient's products.

    `observed` holds the count-weighted gold feature counts, laid out like
    the weights (`_pack` order): the log-likelihood is `observed @ w` minus
    the summed logZ, and its gradient is `observed` minus the expected
    counts (Lafferty et al., 2001), both through `feature_counts`.  Those
    are sums of whole counts, so the gold score is bitwise that of encoding
    every sentence.
    """

    offset_types: scipy.sparse.csr_matrix
    offset_types_t: scipy.sparse.csc_matrix
    type_features: scipy.sparse.csr_matrix
    type_features_t: scipy.sparse.csc_matrix
    packed: _Packed
    counts: np.ndarray
    observed: np.ndarray
    num_tags: int

    def feature_counts(self, node: np.ndarray, edge: np.ndarray) -> np.ndarray:
        """The `_pack`-order feature counts of tag weights `node`, a row per
        packed position, and per-step edge weights `edge` (`_forward_backward`)."""
        lengths, _, _, last = self.packed
        return _pack(
            self.type_features_t @ (self.offset_types_t @ node),
            node[: len(lengths)].sum(axis=0),
            node[last].sum(axis=0),
            edge.sum(axis=0),
        )


def _distinct(corpus: Corpus) -> tuple[Corpus, np.ndarray]:
    """The distinct annotated sentences of `corpus`, in first-occurrence
    order, and how many times each occurs (as floats, for `_encode`)."""
    # Tuple keys hash in C; the dataclasses' own hash runs Python code per
    # field.  A validated tag sequence is IOBES, so (tokens, tags) decides
    # equality.  Walking backwards leaves each key's first sentence.
    keys = [(ann.sentence.tokens, ann.gold.tags) for ann in corpus]
    counts = Counter(keys)
    first = dict(zip(reversed(keys), reversed(corpus.sentences)))
    return Corpus(tuple(first[key] for key in counts)), np.fromiter(
        counts.values(), dtype=np.float64, count=len(counts)
    )


def _encode(
    corpus: Corpus,
    fmap: FeatureMap,
    counts: np.ndarray,
    factors: FeatureFactors,
) -> _EncodedCorpus:
    """Encode every sentence of `corpus`, whose `feature_factors` are
    `factors`; sentence `i` counts `counts[i]` times in the objective, both
    in forward-backward's backward start and in the gold statistics
    `observed`."""
    k = fmap.num_tags
    _, by_type, slot_offsets, window = factors
    lengths = np.fromiter(
        (len(ann.sentence) for ann in corpus), dtype=np.int64, count=len(corpus)
    )
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    lengths, counts, starts = lengths[order], counts[order], starts[order]
    packed = _packed(lengths)
    _, steps, rank, _ = packed
    # The corpus position each packed row holds: step t of sentence i is
    # position t of the corpus' sentence order[i].
    source = np.concatenate([starts] + [
        starts[: cur.stop - cur.start] + t
        for t, (_, cur) in enumerate(steps, 1)
    ])
    total = len(source)

    # Column j * types + t of both factors is type t at offset j - WINDOW,
    # so a row of `offset_types` has one column per offset, ascending.
    # `type_features` comes out with the indices of each row sorted.
    width, types = window.shape[1], by_type.shape[1]
    offset_types = scipy.sparse.csr_matrix(
        (np.ones(total * width),
         (window[source] + np.arange(width) * types).ravel(),
         np.arange(0, total * width + 1, width)),
        shape=(total, width * types),
    )
    mapped = _mapped_types(fmap, factors)
    slot, type_id = np.nonzero(mapped >= 0)
    row = (slot_offsets[slot] + WINDOW) * types + type_id
    type_features = scipy.sparse.csr_matrix(
        (np.ones(len(row)), (row, mapped[slot, type_id])),
        shape=(width * types, fmap.num_features),
    )
    tags = [t for ann in corpus for t in ann.gold.tags]
    tag_ids = {t: fmap.tag_index(t) for t in dict.fromkeys(tags)}
    gold = np.eye(k)[np.fromiter(
        (tag_ids[t] for t in tags), dtype=np.int64, count=total
    )[source]]  # one-hot rows

    enc = _EncodedCorpus(
        offset_types=offset_types,
        offset_types_t=offset_types.T,
        type_features=type_features,
        type_features_t=type_features.T,
        packed=packed,
        counts=counts,
        observed=None,  # set below, from the gold path
        num_tags=k,
    )
    node = gold * counts[rank, None]
    edge = np.reshape([node[prev].T @ gold[cur] for prev, cur in steps],
                      (-1, k, k))
    enc.observed = enc.feature_counts(node, edge)
    return enc


def _unpack(w: np.ndarray, num_features: int, k: int):
    """Views of flat `w` as (emission, begin, end, transition) weights."""
    fk = num_features * k
    emission = w[:fk].reshape(num_features, k)
    begin = w[fk : fk + k]
    end = w[fk + k : fk + 2 * k]
    trans = w[fk + 2 * k :].reshape(k, k)
    return emission, begin, end, trans


def _pack(emission, begin, end, trans) -> np.ndarray:
    return np.concatenate([emission.ravel(), begin, end, trans.ravel()])


def _neg_ll_and_grad(
    w: np.ndarray, enc: _EncodedCorpus, sigma: float
) -> tuple[float, np.ndarray]:
    """Negative penalized log-likelihood and its gradient (for minimizers);
    the kernel's marginals are count-weighted, so counts weight only logZ."""
    emission, begin, end, trans = _unpack(
        w, enc.type_features.shape[1], enc.num_tags
    )
    logz, node, edge = _forward_backward(
        enc.offset_types @ (enc.type_features @ emission), enc.packed,
        enc.counts, begin, end, trans,
    )
    grad = enc.feature_counts(node, edge)  # the expected counts

    inv_var = 1.0 / (sigma * sigma)
    with np.errstate(over="ignore"):  # non-finite results are caught below
        ll = (
            enc.observed @ w - logz @ enc.counts
            - 0.5 * inv_var * float(w @ w)
        )
        grad -= enc.observed
        grad += inv_var * w

    if not (np.isfinite(ll) and np.isfinite(grad).all()):
        raise TrainingError("objective or gradient became non-finite")
    return -float(ll), grad


def _encoded(
    corpus: Corpus, template_set: TemplateSet, fmap: FeatureMap | None = None
) -> tuple[FeatureMap, _EncodedCorpus]:
    """`fmap` and the `_encode` of the distinct sentences of `corpus`, each
    counted as often as it occurs; with no `fmap`, the map fitted on them."""
    distinct, counts = _distinct(corpus)
    factors = feature_factors([ann.sentence for ann in distinct], template_set)
    if fmap is None:
        fmap = feature_map_from_factors(distinct, factors)
    return fmap, _encode(distinct, fmap, counts, factors)


def log_likelihood_and_gradient(
    model: CrfModel, corpus: Corpus, l2_sigma: float
) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood of `corpus` under `model`, with gradient.

    The gradient is flat: emission weights (row-major, feature-major), then
    begin, end, and transition weights (row-major).
    """
    _check_l2_sigma(l2_sigma)
    _, enc = _encoded(corpus, model.template_set, model.feature_map)
    w = _pack(model.emission, model.begin, model.end, model.transition)
    neg_ll, neg_grad = _neg_ll_and_grad(w, enc, l2_sigma)
    return -neg_ll, -neg_grad


# ---------------------------------------------------------------------------
# Training


def _column_groups(x: scipy.sparse.csc_matrix) -> np.ndarray:
    """The group of every column of `x`, a 0/1 CSC matrix whose row indices
    it sorts in place: equal columns share a group, and groups are numbered
    in the order of their first columns.

    Every stored entry is 1 (`_merged`), so a column is keyed by the bytes
    of its row indices alone: keys are equal exactly when columns are.
    """
    x.sort_indices()
    data = memoryview(x.indices).cast("B")
    bounds = (x.indptr * x.indices.itemsize).tolist()
    groups: dict[bytes, int] = {}
    return np.array([
        groups.setdefault(bytes(data[start:stop]), len(groups))
        for start, stop in zip(bounds, bounds[1:])
    ], dtype=np.intp)


def _merged(enc: _EncodedCorpus) -> tuple[_EncodedCorpus, np.ndarray]:
    """`enc` with one emission row per group of features with exactly equal
    columns of X = `offset_types @ type_features`, and the group of every
    feature (`_column_groups`).  X is built once, in CSC, and is 0/1, so
    row indices decide its columns: a position has one token type per window
    offset, and a feature belongs to one template slot at one offset.

    A group of c features keeps its first feature's column of
    `type_features` and row of `observed`, both times sqrt(c).  Its weight
    row u is sqrt(c) times the row v each member gets (`train` divides it
    back, taking c from `group`), so the emission scores (c * v summed per
    position), the gold score, the L2 norm and every inner product of
    weights or gradients equal those of the full problem:
    L-BFGS-B takes the same steps in exact arithmetic.  Only its
    infinity-norm `gtol` test sees the change: the gradient of u is sqrt(c)
    times that of each member, so that test can pass later, never earlier.
    """
    group = _column_groups(enc.offset_types.tocsc() @ enc.type_features.tocsc())
    first = np.unique(group, return_index=True)[1]
    scale = np.sqrt(np.bincount(group))
    gold, *chain = _unpack(enc.observed, len(group), enc.num_tags)
    type_features = (
        enc.type_features[:, first] @ scipy.sparse.diags(scale)
    ).tocsr()
    return replace(
        enc,
        type_features=type_features,
        type_features_t=type_features.T,
        observed=_pack(gold[first] * scale[:, None], *chain),
    ), group


def train(
    corpus: Corpus,
    template_set: TemplateSet,
    cfg: TrainConfig | None = None,
) -> CrfModel:
    """Fit a CRF on `corpus`; deterministic given the config.  L-BFGS runs
    on one weight row per feature group (`_merged`), and every feature of a
    group gets the group's row.  The model metadata records the config,
    the iteration count, the number of objective evaluations, and whether
    L-BFGS met its stopping criterion (`converged`) rather than hitting
    `max_epochs` or a failed line search.
    """
    cfg = cfg or TrainConfig()
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    fmap, enc = _encoded(corpus, template_set)
    enc, group = _merged(enc)
    try:
        result = lbfgs.minimize(
            lambda w: _neg_ll_and_grad(w, enc, cfg.l2_sigma),
            np.zeros_like(enc.observed), cfg.max_epochs, cfg.tolerance,
        )
    except FloatingPointError as exc:
        raise TrainingError(f"gradient-direction product: {exc}") from exc

    rows, begin, end, trans = _unpack(
        result.x, enc.type_features.shape[1], fmap.num_tags
    )
    emission = (rows / np.sqrt(np.bincount(group))[:, None])[group]
    metadata = {
        **asdict(cfg),
        "training_sentences": len(corpus),
        "iterations": result.nit,
        "function_evaluations": result.nfev,
        "converged": result.converged,
    }
    return CrfModel(
        fmap, template_set, emission, begin.copy(), end.copy(), trans.copy(),
        metadata,
    )


# ---------------------------------------------------------------------------
# Decoding


#: How many distinct decoded paths `decode` shares at once.  Decoding
#: yields few distinct paths: 42 in the 45,000 decodes of a `tag_bulk`
#: benchmark round, 27 for the 725 distinct sentences of a long-tail test
#: split.  An entry holds about 240 bytes plus 8 per token, so the full
#: table holds 0.31 MB of 8-token paths and 0.37 MB of 15-token ones
#: (tracemalloc).
_SHARED_PATHS = 1024

#: The one shared, validated `TagSequence` per recent distinct tags tuple;
#: the least recently used one goes first when the table is full.
_shared_path = functools.lru_cache(maxsize=_SHARED_PATHS)(TagSequence)


def decode(model: CrfModel, sentence: Sentence) -> TagSequence:
    """Highest-scoring IOBES-legal tagging of `sentence` (Viterbi).

    Illegal transitions are masked to -inf; ties break toward the lowest
    tag index at each backtrace step.  The all-"O" path is always legal, so
    the best path is, unless a score overflows: then inf plus the -inf mask
    would be NaN, and FloatingPointError is raised instead.

    Equal predictions are one object: the result is the shared, immutable
    `TagSequence` of its tags, validated when first made, from a table of
    the `_SHARED_PATHS` most recently decoded paths (whose comment gives
    the measured path counts and the table's bytes).  So a repeated path
    allocates nothing that outlives the call.
    """
    with _overflow_raises():
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
    return _shared_path(tuple(model.feature_map.tags[i] for i in path))


# ---------------------------------------------------------------------------
# Persistence


def save(model: CrfModel) -> bytes:
    """Serialize to a versioned, self-describing `container`: the template
    set, tags, feature names and metadata, then the block of `_pack`'s
    weights in raw little-endian float64, so save/load round trips are
    bit-lossless and repeated saves byte-identical."""
    weights = (model.emission, model.begin, model.end, model.transition)
    return container.dump(_KIND, _VERSION, {
        "template_set": model.template_set.value,
        "tags": list(model.feature_map.tags),
        "features": list(model.feature_map.features),
        "metadata": model.metadata,
    }, *(np.ascontiguousarray(a, dtype="<f8") for a in weights))


def _strings(doc: dict, key: str) -> tuple[str, ...]:
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelFormatError(f"model field {key!r} is not a list of strings")
    return tuple(value)


def load(data: bytes) -> CrfModel:
    """Inverse of :func:`save`; raises ModelFormatError on any defect."""
    doc, block = container.load(data, _KIND, _VERSION, ModelFormatError)
    try:
        fmap = FeatureMap(_strings(doc, "features"), _strings(doc, "tags"))
        template_set = TemplateSet(doc["template_set"])
        metadata = doc["metadata"]
        if not isinstance(metadata, dict):
            raise ModelFormatError("model metadata is not a JSON object")
        f, k = fmap.num_features, fmap.num_tags
        expected = 8 * (f * k + 2 * k + k * k)
        if len(block) != expected:
            raise ModelFormatError(
                f"weight block holds {len(block)} bytes, expected {expected}"
            )
        weights = np.frombuffer(block, dtype="<f8").astype(np.float64)
        return CrfModel(fmap, template_set, *_unpack(weights, f, k), metadata)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model fields: {exc}") from exc


def save_file(model: CrfModel, path: str) -> None:
    container.write_file(path, save(model))


def load_file(path: str) -> CrfModel:
    with open(path, "rb") as handle:
        return load(handle.read())
