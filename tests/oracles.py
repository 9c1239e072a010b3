"""Independent reference implementations used to check the real code.

Everything here is deliberately brute-force and kept separate from the
package: the feature templates are spelled out one position at a time
(`extract_reference`), feature maps and feature rows collect them at every
position, sequence scores are re-summed term by term, partition functions
and argmax paths are found by enumerating all taggings, span counting
re-implements conlleval's chunk-boundary logic, gradients come from
central finite differences, token and tag checks walk every position, and
the truecaser classifies every occurrence.  Feature groups are found by
listing every feature's positions, and the full-space trainer minimizes
the package's objective over one weight per feature and tag.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import scipy.optimize

from casener import crf
from casener.corpus import (
    CorpusError,
    Scheme,
    TagValidationError,
    extract_spans,
    split_tag,
)
from casener.crf import CrfModel, log_likelihood_and_gradient
from casener.features import (
    FeatureMap,
    TemplateSet,
    feature_factors,
    feature_map_from_factors,
    word_shape,
)
from casener.truecase import (
    INITIAL_INIT_CAP_WEIGHT,
    CaseClass,
    Truecaser,
    classify_case,
)


_CAP_NAMES = {
    CaseClass.LOWER: "AllLower",
    CaseClass.INIT_CAP: "InitCap",
    CaseClass.ALL_CAP: "AllCap",
    CaseClass.MIXED: "Mixed",
    CaseClass.NO_CASE: "NoCase",
}


def extract_reference(sentence, i: int, template_set) -> set[str]:
    """The feature strings of position `i`, template by template: the
    word's key (w) and, case-aware, its shape (sh) at offsets -2..2,
    case-aware its case class (cap) at -1..1, the key's prefixes and
    suffixes of one to four characters, and "bos" at i == 0.  A word's key
    is the word uppercased, then casefolded.  Offsets outside the sentence
    give the "<s>" and "</s>" sentinels."""
    n = len(sentence)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range for a {n}-token sentence")
    case_aware = template_set is TemplateSet.CASE_AWARE
    feats: set[str] = set()

    for d in range(-2, 3):
        j = i + d
        if j < 0:
            feats.add(f"w{d}=<s>")
            if case_aware:
                feats.add(f"sh{d}=<s>")
        elif j >= n:
            feats.add(f"w{d}=</s>")
            if case_aware:
                feats.add(f"sh{d}=</s>")
        else:
            token = sentence.tokens[j]
            feats.add(f"w{d}={token.upper().casefold()}")
            if case_aware:
                feats.add(f"sh{d}={word_shape(token)}")

    word = sentence.tokens[i].upper().casefold()
    for length in range(1, min(4, len(word)) + 1):
        feats.add(f"pre{length}={word[:length]}")
        feats.add(f"suf{length}={word[-length:]}")

    if case_aware:
        for d in (-1, 0, 1):
            j = i + d
            if j < 0:
                feats.add(f"cap{d}=<s>")
            elif j >= n:
                feats.add(f"cap{d}=</s>")
            else:
                feats.add(f"cap{d}={_CAP_NAMES[classify_case(sentence.tokens[j])]}")

    if i == 0:
        feats.add("bos")
    return feats


def emission_table(model: CrfModel, sentence) -> np.ndarray:
    """Per-position emission scores via explicit feature lookup and Python sums."""
    k = model.num_tags
    out = np.zeros((len(sentence), k))
    for i in range(len(sentence)):
        for feat in extract_reference(sentence, i, model.template_set):
            idx = model.feature_map.feature_index(feat)
            if idx is not None:
                for t in range(k):
                    out[i, t] += model.emission[idx, t]
    return out


def fit_feature_map_reference(corpus, template_set) -> FeatureMap:
    """`fit_feature_map` by collecting `extract_reference` at every
    position."""
    seen: set[str] = set()
    types: set[str] = set()
    for ann in corpus:
        for i in range(len(ann.sentence)):
            seen.update(extract_reference(ann.sentence, i, template_set))
        types.update(span.entity_type for span in extract_spans(ann.gold))
    kept = sorted(seen)
    tags = ("O",) + tuple(
        sorted(f"{p}-{t}" for t in types for p in ("B", "I", "E", "S"))
    )
    return FeatureMap(tuple(kept), tags)


def feature_rows_reference(
    corpus, fmap: FeatureMap, template_set
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indices, indptr) of the mapped `extract_reference` features, one
    row per position in corpus order, each row sorted."""
    indptr = [0]
    indices: list[int] = []
    for ann in corpus:
        for i in range(len(ann.sentence)):
            indices.extend(sorted(
                idx
                for feat in extract_reference(ann.sentence, i, template_set)
                if (idx := fmap.feature_index(feat)) is not None
            ))
            indptr.append(len(indices))
    return np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int64)


def observed_reference(corpus, fmap: FeatureMap, template_set, counts):
    """The gold statistics of `corpus` in the flat weight layout (emission,
    begin, end, transition), each sentence counted `counts[i]` times, summed
    in Python position by position over `feature_rows_reference`."""
    k = fmap.num_tags
    emission = [[0.0] * k for _ in range(fmap.num_features)]
    begin, end = [0.0] * k, [0.0] * k
    trans = [[0.0] * k for _ in range(k)]
    indices, indptr = feature_rows_reference(corpus, fmap, template_set)
    position = 0
    for ann, count in zip(corpus, counts):
        gold = [fmap.tag_index(tag) for tag in ann.gold.tags]
        for tag in gold:
            for f in indices[indptr[position]:indptr[position + 1]]:
                emission[f][tag] += float(count)
            position += 1
        begin[gold[0]] += float(count)
        end[gold[-1]] += float(count)
        for prev, cur in zip(gold, gold[1:]):
            trans[prev][cur] += float(count)
    return np.array(
        [v for row in emission for v in row] + begin + end
        + [v for row in trans for v in row],
        dtype=np.float64,
    )


def column_groups_reference(corpus, fmap: FeatureMap, template_set) -> list[int]:
    """Each feature's group: features that fire at the same positions of
    `corpus` (by `feature_rows_reference`) share one, and groups are
    numbered in the order of their first features."""
    indices, indptr = feature_rows_reference(corpus, fmap, template_set)
    positions: list[list[int]] = [[] for _ in range(fmap.num_features)]
    for position in range(len(indptr) - 1):
        for f in indices[indptr[position]:indptr[position + 1]]:
            positions[f].append(position)
    groups: dict[tuple[int, ...], int] = {}
    return [groups.setdefault(tuple(p), len(groups)) for p in positions]


def train_full_space_reference(corpus, template_set, cfg):
    """`crf.train` with one L-BFGS-B weight per feature and tag: the
    package's encoding and objective, minimized over the full weight
    layout.  Returns the feature map and scipy's result."""
    distinct, counts = crf._distinct(corpus)
    factors = feature_factors([ann.sentence for ann in distinct], template_set)
    fmap = feature_map_from_factors(distinct, factors)
    enc = crf._encode(distinct, fmap, counts, factors)
    return fmap, scipy.optimize.minimize(
        crf._neg_ll_and_grad,
        np.zeros_like(enc.observed),
        args=(enc, cfg.l2_sigma),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": cfg.max_epochs, "ftol": cfg.tolerance},
    )


def packed_positions(lengths) -> list[int]:
    """The corpus-order position each row of the forward-backward layout
    holds: the sentences sorted longest first (ties in corpus order), then
    step t of every sentence longer than t, step by step."""
    starts = np.cumsum(lengths) - np.asarray(lengths)
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    return [
        int(starts[i]) + t
        for t in range(max(lengths))
        for i in order
        if lengths[i] > t
    ]


def path_score(model: CrfModel, emissions: np.ndarray, path: tuple[int, ...]) -> float:
    score = model.begin[path[0]] + model.end[path[-1]]
    for pos, tag in enumerate(path):
        score += emissions[pos, tag]
    for prev, cur in zip(path, path[1:]):
        score += model.transition[prev, cur]
    return float(score)


def enumerate_log_partition(model: CrfModel, sentence) -> float:
    """log of the summed exponentiated scores over all K^n taggings."""
    emissions = emission_table(model, sentence)
    k = model.num_tags
    n = len(sentence)
    scores = [
        path_score(model, emissions, path)
        for path in itertools.product(range(k), repeat=n)
    ]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def enumerate_marginals(model: CrfModel, sentence) -> tuple[np.ndarray, np.ndarray]:
    """Node (n, K) and edge (n-1, K, K) marginals summed over all K^n taggings."""
    emissions = emission_table(model, sentence)
    log_z = enumerate_log_partition(model, sentence)
    k = model.num_tags
    n = len(sentence)
    node = np.zeros((n, k))
    edge = np.zeros((n - 1, k, k))
    for path in itertools.product(range(k), repeat=n):
        prob = math.exp(path_score(model, emissions, path) - log_z)
        for pos, tag in enumerate(path):
            node[pos, tag] += prob
        for pos, (prev, cur) in enumerate(zip(path, path[1:])):
            edge[pos, prev, cur] += prob
    return node, edge


def enumerate_best_legal_path(
    model: CrfModel, sentence
) -> tuple[tuple[str, ...], float]:
    """Argmax over IOBES-legal taggings; ties prefer the path whose tag
    indices are smallest from the last position backwards (the Viterbi
    backtrace tie-break)."""
    emissions = emission_table(model, sentence)
    tags = model.feature_map.tags
    k = len(tags)
    n = len(sentence)
    best_path: tuple[int, ...] | None = None
    best_score = -math.inf
    for path in itertools.product(range(k), repeat=n):
        if not _legal_start_reference(tags[path[0]], Scheme.IOBES):
            continue
        if not _legal_end_reference(tags[path[-1]], Scheme.IOBES):
            continue
        if any(
            not _legal_transition_reference(tags[a], tags[b], Scheme.IOBES)
            for a, b in zip(path, path[1:])
        ):
            continue
        score = path_score(model, emissions, path)
        if score > best_score or (
            score == best_score
            and best_path is not None
            and path[::-1] < best_path[::-1]
        ):
            best_score = score
            best_path = path
    assert best_path is not None
    return tuple(tags[i] for i in best_path), best_score


def finite_difference_gradient(
    model: CrfModel, corpus, l2_sigma: float, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of the penalized log-likelihood."""
    arrays = [model.emission, model.begin, model.end, model.transition]
    flat = np.concatenate([a.ravel() for a in arrays])
    grad = np.zeros_like(flat)

    def rebuild(values: np.ndarray) -> CrfModel:
        shapes = [a.shape for a in arrays]
        sizes = [a.size for a in arrays]
        pieces = np.split(values, np.cumsum(sizes)[:-1])
        return CrfModel(
            model.feature_map,
            model.template_set,
            pieces[0].reshape(shapes[0]),
            pieces[1].reshape(shapes[1]),
            pieces[2].reshape(shapes[2]),
            pieces[3].reshape(shapes[3]),
        )

    for j in range(flat.size):
        plus = flat.copy()
        plus[j] += step
        minus = flat.copy()
        minus[j] -= step
        ll_plus, _ = log_likelihood_and_gradient(rebuild(plus), corpus, l2_sigma)
        ll_minus, _ = log_likelihood_and_gradient(rebuild(minus), corpus, l2_sigma)
        grad[j] = (ll_plus - ll_minus) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# conlleval-style span counting, implemented with boundary predicates rather
# than the package's per-scheme walkers.


def _split(tag: str) -> tuple[str, str | None]:
    if tag == "O":
        return "O", None
    prefix, _, etype = tag.partition("-")
    return prefix, etype


def _chunk_end(prev: str, cur: str) -> bool:
    p1, t1 = _split(prev)
    p2, t2 = _split(cur)
    if p1 == "O":
        return False
    if p2 == "O":
        return True
    if t1 != t2:
        return True
    return p2 in ("B", "S") or p1 in ("E", "S")


def _chunk_start(prev: str, cur: str) -> bool:
    p1, t1 = _split(prev)
    p2, t2 = _split(cur)
    if p2 == "O":
        return False
    if p1 == "O":
        return True
    if t1 != t2:
        return True
    return p2 in ("B", "S") or p1 in ("E", "S")


def conlleval_spans(tags) -> list[tuple[int, int, str]]:
    """Chunks of one tag sequence via conlleval boundary tests."""
    spans = []
    start = None
    cur_type = None
    prev = "O"
    for i, tag in enumerate(tags):
        if start is not None and _chunk_end(prev, tag):
            spans.append((start, i - 1, cur_type))
            start = None
        if _chunk_start(prev, tag):
            start = i
            cur_type = _split(tag)[1]
        prev = tag
    if start is not None:
        spans.append((start, len(tags) - 1, cur_type))
    return spans


def conlleval_counts(
    predicted, gold
) -> tuple[int, int, int, dict[str, tuple[int, int, int]]]:
    """(tp, predicted, gold) pooled and per type, by quadratic list matching."""
    tp = pred_n = gold_n = 0
    per_type: dict[str, list[int]] = {}
    for pred_seq, gold_seq in zip(predicted, gold):
        pred_spans = conlleval_spans(pred_seq.tags)
        gold_spans = conlleval_spans(gold_seq.tags)
        pred_n += len(pred_spans)
        gold_n += len(gold_spans)
        for span in pred_spans:
            per_type.setdefault(span[2], [0, 0, 0])[1] += 1
        for span in gold_spans:
            per_type.setdefault(span[2], [0, 0, 0])[2] += 1
        used = [False] * len(gold_spans)
        for span in pred_spans:
            for j, gspan in enumerate(gold_spans):
                if not used[j] and span == gspan:
                    used[j] = True
                    tp += 1
                    per_type[span[2]][0] += 1
                    break
    return tp, pred_n, gold_n, {
        t: tuple(v) for t, v in per_type.items()
    }


# ---------------------------------------------------------------------------
# Vectorized enumeration (still brute force over all paths, no dynamic
# programming) for the acceptance suite's 200-model runs.


def _all_paths(k: int, n: int) -> np.ndarray:
    """Every tagging of n positions over k tags, shape (k^n, n)."""
    return np.indices((k,) * n).reshape(n, -1).T


def _all_path_scores(model: CrfModel, sentence) -> tuple[np.ndarray, np.ndarray]:
    emissions = emission_table(model, sentence)
    n = len(sentence)
    k = model.num_tags
    paths = _all_paths(k, n)
    scores = model.begin[paths[:, 0]] + model.end[paths[:, -1]]
    for pos in range(n):
        scores = scores + emissions[pos, paths[:, pos]]
    for pos in range(1, n):
        scores = scores + model.transition[paths[:, pos - 1], paths[:, pos]]
    return paths, scores


def enumerate_log_partition_fast(model: CrfModel, sentence) -> float:
    _, scores = _all_path_scores(model, sentence)
    m = float(scores.max())
    return m + math.log(float(np.exp(scores - m).sum()))


def enumerate_best_legal_path_fast(
    model: CrfModel, sentence
) -> tuple[tuple[str, ...], float]:
    paths, scores = _all_path_scores(model, sentence)
    tags = model.feature_map.tags
    start_ok = np.array(
        [_legal_start_reference(t, Scheme.IOBES) for t in tags]
    )
    end_ok = np.array([_legal_end_reference(t, Scheme.IOBES) for t in tags])
    trans_ok = np.array([
        [_legal_transition_reference(a, b, Scheme.IOBES) for b in tags]
        for a in tags
    ])
    legal = start_ok[paths[:, 0]] & end_ok[paths[:, -1]]
    for pos in range(1, paths.shape[1]):
        legal &= trans_ok[paths[:, pos - 1], paths[:, pos]]
    scores = np.where(legal, scores, -np.inf)
    best = float(scores.max())
    candidates = paths[scores == best]
    rows = sorted(map(tuple, candidates[:, ::-1]))
    path = rows[0][::-1]
    return tuple(tags[i] for i in path), best


def finite_difference_flat(objective, w: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar objective over a flat weight vector."""
    grad = np.zeros_like(w)
    for j in range(w.size):
        plus = w.copy()
        plus[j] += step
        minus = w.copy()
        minus[j] -= step
        grad[j] = (objective(plus) - objective(minus)) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# Corpus checks and the truecaser, one position or occurrence at a time.


def check_tokens_reference(tokens) -> None:
    """`Sentence`'s token check, character by character."""
    if not tokens:
        raise CorpusError("a sentence must contain at least one token")
    for i, tok in enumerate(tokens):
        if not tok:
            raise CorpusError(f"token {i} is empty")
        if any(c.isspace() for c in tok):
            raise CorpusError(f"token {i} ({tok!r}) contains whitespace")


def _legal_start_reference(tag: str, scheme: Scheme) -> bool:
    prefix, _ = split_tag(tag)
    if scheme is Scheme.IOB1:
        return prefix in ("O", "I")
    if scheme is Scheme.IOB2:
        return prefix in ("O", "B")
    return prefix in ("O", "B", "S")


def _legal_transition_reference(prev: str, cur: str, scheme: Scheme) -> bool:
    pp, pt = split_tag(prev)
    cp, ct = split_tag(cur)
    if scheme is Scheme.IOB1:
        if cp == "B":
            return pp in ("B", "I") and pt == ct
        return True
    if scheme is Scheme.IOB2:
        if cp == "I":
            return pp in ("B", "I") and pt == ct
        return True
    if pp in ("B", "I"):
        return cp in ("I", "E") and ct == pt
    return cp in ("O", "B", "S")


def _legal_end_reference(tag: str, scheme: Scheme) -> bool:
    prefix, _ = split_tag(tag)
    if scheme is Scheme.IOBES:
        return prefix in ("O", "E", "S")
    return True


def validate_tags_reference(tags, scheme: Scheme, context: str = "") -> None:
    """`validate_tags`, parsing and checking every position in turn."""
    if not tags:
        raise TagValidationError(f"{context}empty tag sequence")
    prefixes = "BIES" if scheme is Scheme.IOBES else "BI"
    for i, tag in enumerate(tags):
        prefix, _ = split_tag(tag)
        if prefix != "O" and prefix not in prefixes:
            raise TagValidationError(
                f"{context}position {i}: prefix {prefix!r} of tag {tag!r} "
                f"is not part of scheme {scheme.value}"
            )
    if not _legal_start_reference(tags[0], scheme):
        raise TagValidationError(
            f"{context}position 0: tag {tags[0]!r} cannot open a sentence "
            f"in scheme {scheme.value}"
        )
    for i in range(1, len(tags)):
        if not _legal_transition_reference(tags[i - 1], tags[i], scheme):
            raise TagValidationError(
                f"{context}position {i}: transition {tags[i - 1]!r} -> "
                f"{tags[i]!r} is illegal in scheme {scheme.value}"
            )
    if not _legal_end_reference(tags[-1], scheme):
        raise TagValidationError(
            f"{context}position {len(tags) - 1}: tag {tags[-1]!r} cannot close "
            f"a sentence in scheme {scheme.value}"
        )


def iob_tags_reference(spans, length: int, scheme: Scheme) -> tuple[str, ...]:
    """Non-overlapping `spans` written in IOB2, where every chunk opens with
    B, or in IOB1, where a chunk opens with B only right after a chunk of
    its own type and with I otherwise."""
    tags = ["O"] * length
    prev = None
    for span in sorted(spans):
        adjacent = (
            prev is not None
            and prev.end == span.start - 1
            and prev.entity_type == span.entity_type
        )
        opener = "B" if scheme is Scheme.IOB2 or adjacent else "I"
        tags[span.start] = f"{opener}-{span.entity_type}"
        for i in range(span.start + 1, span.end + 1):
            tags[i] = f"I-{span.entity_type}"
        prev = span
    return tuple(tags)


def train_truecaser_reference(corpus) -> Truecaser:
    """`train_truecaser`, classifying every occurrence anew.

    A token's word is the token uppercased, then casefolded.  Each
    occurrence adds its weight, an exact fraction, to its word's class
    and one to its own spelling; a word then takes its majority class, ties
    going to the earlier class in `CaseClass` order, and keeps the class's
    most frequent spelling, ties going to the smallest string, unless no
    occurrence has that class."""
    weight = INITIAL_INIT_CAP_WEIGHT  # a Fraction
    case_counts: dict = defaultdict(lambda: defaultdict(Fraction))
    spellings: dict = defaultdict(lambda: defaultdict(Counter))
    for ann in corpus:
        for pos, token in enumerate(ann.sentence.tokens):
            cls = classify_case(token)
            folded = token.upper().casefold()
            if pos == 0:
                if cls is CaseClass.INIT_CAP:
                    case_counts[folded][CaseClass.INIT_CAP] += weight
                    case_counts[folded][CaseClass.LOWER] += 1 - weight
                else:
                    case_counts[folded][cls] += 1
            else:
                case_counts[folded][cls] += 1
            spellings[folded][cls][token] += 1
    order = list(CaseClass)
    surfaces = {}
    for word, counts in case_counts.items():
        cls = min(counts, key=lambda c: (-counts[c], order.index(c)))
        if not spellings[word][cls]:
            continue
        surface = min(spellings[word][cls].items(),
                      key=lambda kv: (-kv[1], kv[0]))[0]
        if surface != word:
            surfaces[word] = surface
    return Truecaser(surfaces)
