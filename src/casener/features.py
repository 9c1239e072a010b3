"""Sparse feature extraction for sequence tagging.

Two template sets over a +/-2 token window.  CASE_AWARE adds word-shape and
capitalization-pattern features on top of case-free ones; CASE_AGNOSTIC
emits only features that cannot distinguish a sentence from its lowercased
form.  Word identities are stored lowercased in both sets, so casing is
carried exclusively by the shape/pattern features.

There is one featurizer, `feature_table`, and training and decoding both
use it.  It computes each distinct token's attributes (lowercase form,
shape, case class, affixes) once, lays out every template slot's
feature-name ID per token type, and builds the table of a list of
sentences with one gather over their token-type IDs: an int32 (positions,
slots) table of feature-name IDs, -1 where a template emits nothing.
`extract` is its row view: the feature strings of one position.  A fitted
`FeatureMap` holds, in sorted order, every feature that some position of
the training corpus has.
"""

from __future__ import annotations

import enum
from typing import Sequence

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


def feature_table(
    sentences: Sequence[Sentence], template_set: TemplateSet
) -> tuple[list[str], np.ndarray]:
    """Feature-name IDs of every token position of `sentences`, in order.

    Returns (names, table).  `table` is int32 with shape (positions, slots),
    one slot per template, holding an index into `names` or -1 where the
    template emits nothing.  `names` are distinct and may include names
    that occur at no position (such as "w0=<s>").

    Out-of-range window offsets emit boundary sentinels instead of being
    skipped, so models can learn sentence-edge behavior.
    """
    # The type ID of every token, each sentence padded with WINDOW start
    # (-2) and end (-1) sentinels, which `%` turns into type IDs of their
    # own after the tokens', the last two entries of every per-type list
    # below.  So a literal "<s>" token keeps its own shape and case class.
    type_ids: dict[str, int] = {}
    padded: list[int] = []
    start, end = [-2] * WINDOW, [-1] * WINDOW
    for sentence in sentences:
        padded += start
        padded += [type_ids.setdefault(t, len(type_ids)) for t in sentence.tokens]
        padded += end
    words = list(type_ids)
    lower = [w.lower() for w in words]
    types = np.array(padded, dtype=np.int32) % (len(words) + 2)

    # Each template: its value for every type and the two sentinels (None
    # where it emits nothing), and the (name prefix, window offset) of each
    # of its slots.  The affixes are those of the position's own token.
    window = range(-WINDOW, WINDOW + 1)
    sentinels = [_BOS, _EOS]
    templates = [(lower + sentinels, [(f"w{d}=", d) for d in window])]
    if template_set is TemplateSet.CASE_AWARE:
        templates += [
            ([word_shape(w) for w in words] + sentinels,
             [(f"sh{d}=", d) for d in window]),
            ([_CAP_NAME[classify_case(w)] for w in words] + sentinels,
             [(f"cap{d}=", d) for d in (-1, 0, 1)]),
        ]
    for length in range(1, _MAX_AFFIX + 1):
        for template, cut in (("pre", slice(length)), ("suf", slice(-length, None))):
            templates.append((
                [w[cut] if len(w) >= length else None for w in lower]
                + [None, None],
                [(f"{template}{length}=", 0)],
            ))
    # "bos" marks the position whose left neighbour is the start sentinel.
    templates.append(([None] * len(words) + ["", None], [("bos", -1)]))

    # codes[j, t]: the index of type t's value among template j's distinct
    # values, or -1; slot s of template j names them from names[base[s]].
    names: list[str] = []
    codes, template_of, base, offsets = [], [], [], []
    for values, slots in templates:
        index: dict[str, int] = {}
        codes.append(
            [-1 if v is None else index.setdefault(v, len(index)) for v in values]
        )
        for prefix, d in slots:
            template_of.append(len(codes) - 1)
            base.append(len(names))
            offsets.append(d)
            names += [prefix + v for v in index]
    # by_type[s, t]: the name ID slot s gives a position whose token at the
    # slot's offset has type t, or -1.
    slot_codes = np.array(codes, dtype=np.int32)[template_of]
    by_type = np.where(
        slot_codes >= 0, slot_codes + np.array(base, dtype=np.int32)[:, None], -1
    )
    windows = types[np.add.outer(np.flatnonzero(types < len(words)), offsets)]
    return names, by_type.ravel()[windows + np.arange(len(offsets)) * by_type.shape[1]]


def extract(sentence: Sentence, i: int, template_set: TemplateSet) -> set[str]:
    """Feature strings for position `i` of `sentence`: row `i` of its
    `feature_table`."""
    n = len(sentence)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range for a {n}-token sentence")
    names, table = feature_table([sentence], template_set)
    return {names[j] for j in table[i] if j >= 0}


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
    return feature_map_from_table(corpus, *feature_table(
        [ann.sentence for ann in corpus], template_set
    ))


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
