"""Sparse feature extraction for sequence tagging.

Two template sets over a +/-2 token window.  CASE_AWARE adds word-shape and
capitalization-pattern features on top of case-free ones; CASE_AGNOSTIC
emits only features that cannot distinguish a sentence from its lowercased
form.  Word identities are stored lowercased in both sets, so casing is
carried exclusively by the shape/pattern features.

`extract` gives the feature strings of one position; it is the reference
for the templates and the featurizer used at decode time.  Training
featurizes a whole corpus with `feature_table` instead, which computes each
distinct token's attributes (lowercase form, shape, case class, affixes)
once and builds every template as a numpy gather over the corpus' token-type
IDs: an int32 (positions, slots) table of feature-name IDs, -1 where a
template emits nothing.  Both give the same feature set at every position.
A fitted `FeatureMap` holds, in sorted order, every feature that some
position of the training corpus has.
"""

from __future__ import annotations

import enum

import numpy as np

from .corpus import Corpus, Sentence, split_tag
from .truecase import CaseClass, classify_case

#: Offsets considered around the current position.
WINDOW = 2

_BOS = "<s>"
_EOS = "</s>"

_CAP_NAME = {
    CaseClass.LOWER: "AllLower",
    CaseClass.INIT_CAP: "InitCap",
    CaseClass.ALL_CAP: "AllCap",
    CaseClass.MIXED: "Mixed",
    CaseClass.NO_CASE: "NoCase",
}

_MAX_AFFIX = 4
_MAX_SHAPE_RUN = 4


class TemplateSet(enum.Enum):
    CASE_AWARE = "case_aware"
    CASE_AGNOSTIC = "case_agnostic"


def word_shape(word: str) -> str:
    """Character-class sketch: uppercase X, lowercase x, digit d, other #.

    Runs of one class are capped at four characters, so "York" -> "Xxxx"
    and "Acknowledgement" -> "Xxxxx".
    """
    out: list[str] = []
    run_char = ""
    run_len = 0
    for ch in word:
        if ch.isupper():
            cls = "X"
        elif ch.islower():
            cls = "x"
        elif ch.isdigit():
            cls = "d"
        else:
            cls = "#"
        if cls == run_char:
            run_len += 1
            if run_len <= _MAX_SHAPE_RUN:
                out.append(cls)
        else:
            run_char, run_len = cls, 1
            out.append(cls)
    return "".join(out)


def extract(sentence: Sentence, i: int, template_set: TemplateSet) -> set[str]:
    """Feature strings for position `i` of `sentence`.

    Out-of-range window offsets emit boundary sentinels instead of being
    skipped, so models can learn sentence-edge behavior.
    """
    n = len(sentence)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range for a {n}-token sentence")
    case_aware = template_set is TemplateSet.CASE_AWARE
    feats: set[str] = set()

    for d in range(-WINDOW, WINDOW + 1):
        j = i + d
        if j < 0:
            feats.add(f"w{d}={_BOS}")
            if case_aware:
                feats.add(f"sh{d}={_BOS}")
        elif j >= n:
            feats.add(f"w{d}={_EOS}")
            if case_aware:
                feats.add(f"sh{d}={_EOS}")
        else:
            token = sentence.tokens[j]
            feats.add(f"w{d}={token.lower()}")
            if case_aware:
                feats.add(f"sh{d}={word_shape(token)}")

    word = sentence.tokens[i].lower()
    for length in range(1, min(_MAX_AFFIX, len(word)) + 1):
        feats.add(f"pre{length}={word[:length]}")
        feats.add(f"suf{length}={word[-length:]}")

    if case_aware:
        for d in (-1, 0, 1):
            j = i + d
            if j < 0:
                feats.add(f"cap{d}={_BOS}")
            elif j >= n:
                feats.add(f"cap{d}={_EOS}")
            else:
                feats.add(f"cap{d}={_CAP_NAME[classify_case(sentence.tokens[j])]}")

    if i == 0:
        feats.add("bos")
    return feats


def _intern(values: list[str | None]) -> tuple[np.ndarray, list[str]]:
    """Codes (-1 for None) and the distinct non-None values they index."""
    index: dict[str, int] = {}
    codes = [-1 if v is None else index.setdefault(v, len(index)) for v in values]
    return np.asarray(codes, dtype=np.int32), list(index)


def feature_table(
    corpus: Corpus, template_set: TemplateSet
) -> tuple[list[str], np.ndarray]:
    """Feature-name IDs of every token position of `corpus`, in corpus order.

    Returns (names, table).  `table` is int32 with shape (positions, slots),
    one slot per template, holding an index into `names` or -1 where the
    template emits nothing; row p holds exactly the features `extract`
    gives for position p.  `names` are distinct and may include names that
    occur at no position (such as "w0=<s>").
    """
    type_ids: dict[str, int] = {}
    tids = np.fromiter(
        (type_ids.setdefault(tok, len(type_ids))
         for ann in corpus for tok in ann.sentence.tokens),
        dtype=np.int32,
    )
    lengths = np.fromiter(
        (len(ann.sentence) for ann in corpus), dtype=np.int64, count=len(corpus)
    )
    words = list(type_ids)
    lower = [w.lower() for w in words]

    # Every sentence is padded with WINDOW sentinels on each side.  The
    # sentinels get type IDs of their own, so a literal "<s>" token keeps
    # its own shape and case class.
    bos, eos = len(words), len(words) + 1
    starts = np.cumsum(lengths) - lengths
    pad_at = np.arange(len(tids)) + np.repeat(
        2 * WINDOW * np.arange(len(lengths)) + WINDOW, lengths
    )
    padded = np.full(len(tids) + 2 * WINDOW * len(lengths), eos, dtype=np.int32)
    for d in range(1, WINDOW + 1):
        padded[pad_at[starts] - d] = bos
    padded[pad_at] = tids

    windows = [("w", lower, range(-WINDOW, WINDOW + 1))]
    if template_set is TemplateSet.CASE_AWARE:
        windows += [
            ("sh", [word_shape(w) for w in words], range(-WINDOW, WINDOW + 1)),
            ("cap", [_CAP_NAME[classify_case(w)] for w in words], (-1, 0, 1)),
        ]
    # (template, codes per type ID, distinct values, window offset or None
    # for the position's own token)
    slots = []
    for template, values, offsets in windows:
        codes, distinct = _intern(values + [_BOS, _EOS])
        slots += [(f"{template}{d}", codes, distinct, d) for d in offsets]
    for length in range(1, _MAX_AFFIX + 1):
        for template, cut in (("pre", slice(length)), ("suf", slice(-length, None))):
            codes, distinct = _intern(
                [w[cut] if len(w) >= length else None for w in lower]
            )
            slots.append((f"{template}{length}", codes, distinct, None))

    names: list[str] = []
    table = np.empty((len(tids), len(slots) + 1), dtype=np.int32)
    for col, (template, codes, distinct, d) in enumerate(slots):
        ids = codes[tids if d is None else padded[pad_at + d]]
        table[:, col] = np.where(ids >= 0, ids + len(names), -1)
        names += [f"{template}={v}" for v in distinct]
    table[:, -1] = -1
    table[starts, -1] = len(names)
    names.append("bos")
    return names, table


class FeatureMap:
    """Immutable bidirectional feature/tag <-> dense index mapping.

    Index order is fixed at construction; unknown feature strings map to
    None (absent) rather than growing the map.
    """

    __slots__ = ("features", "tags", "_feature_index", "_tag_index")

    def __init__(self, features: tuple[str, ...], tags: tuple[str, ...]) -> None:
        features = tuple(features)
        tags = tuple(tags)
        if len(set(features)) != len(features):
            raise ValueError("duplicate feature strings")
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate tags")
        if not tags:
            raise ValueError("a feature map needs at least one tag")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(
            self, "_feature_index", {f: i for i, f in enumerate(features)}
        )
        object.__setattr__(self, "_tag_index", {t: i for i, t in enumerate(tags)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FeatureMap is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return self.features == other.features and self.tags == other.tags

    def __hash__(self) -> int:
        return hash((self.features, self.tags))

    def __repr__(self) -> str:
        return (
            f"FeatureMap({len(self.features)} features, {len(self.tags)} tags)"
        )

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    def feature_index(self, feature: str) -> int | None:
        """Dense index of `feature`, or None if absent."""
        return self._feature_index.get(feature)

    def tag_index(self, tag: str) -> int:
        try:
            return self._tag_index[tag]
        except KeyError:
            raise ValueError(f"unknown tag {tag!r}") from None


def fit_feature_map(corpus: Corpus, template_set: TemplateSet) -> FeatureMap:
    """Collect every feature that occurs in `corpus`, plus its tag set.

    Feature indices are assigned lexicographically; the tag list puts "O"
    first and closes the IOBES label space over every entity type seen (all
    of B/I/E/S per type), so decoding constraints are always well-formed.
    """
    if len(corpus) == 0:
        raise ValueError("cannot fit a feature map on an empty corpus")
    return feature_map_from_table(corpus, *feature_table(corpus, template_set))


def feature_map_from_table(
    corpus: Corpus, names: list[str], table: np.ndarray
) -> FeatureMap:
    """`fit_feature_map` from the `feature_table` of `corpus`."""
    # The table names sentinel shapes at offsets where no position has them;
    # only the names some position holds are kept.
    counts = np.bincount(table.ravel() + 1, minlength=len(names) + 1)[1:]
    kept = sorted(names[i] for i in np.flatnonzero(counts))
    # A validated tag sequence puts every non-O tag in a span of its own
    # type, so the distinct tags name every entity type.
    distinct = {tag for ann in corpus for tag in ann.gold.tags} - {"O"}
    types = {split_tag(tag)[1] for tag in distinct}
    tags = ("O",) + tuple(
        sorted(f"{p}-{t}" for t in types for p in ("B", "I", "E", "S"))
    )
    return FeatureMap(tuple(kept), tags)
