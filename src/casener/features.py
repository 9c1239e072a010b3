"""Sparse feature extraction for sequence tagging.

Two template sets over a +/-2 token window.  CASE_AWARE adds word-shape and
capitalization-pattern features on top of case-free ones; CASE_AGNOSTIC
emits only features that cannot distinguish a sentence from its lowercased
or uppercased form.  Both sets read word identities and affixes off each
token's `corpus.case_key`, so casing is carried only by the shape/pattern
features.

There is one featurizer, `feature_factors`; training, decoding and
`extract` all read its `FeatureFactors`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sentence, case_key, label_space
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


class FeatureFactors(NamedTuple):
    """The featurizer's output for a list of sentences, by token type.

    `by_type[s, t]` is the index into `names` that slot s (one per
    template and window offset) gives token type t, or -1 where the
    template emits nothing; the types are the distinct tokens, then the
    start and the end sentinel.  `window[p, d + WINDOW]` is the type at
    offset d from token position p, and `slot_offsets[s]` slot s's offset.
    Every template reads one token at one offset, so position p's name in
    slot s is `by_type[s, window[p, slot_offsets[s] + WINDOW]]`.  `names`
    are distinct and may include names no position has (such as "w0=<s>").
    """

    names: list[str]
    by_type: np.ndarray
    slot_offsets: np.ndarray
    window: np.ndarray


def feature_factors(
    sentences: Sequence[Sentence], template_set: TemplateSet
) -> FeatureFactors:
    """The `FeatureFactors` of every token position of `sentences`, with
    each distinct token's attributes (case-free key, shape, case class,
    affixes) computed once.

    Out-of-range window offsets read boundary sentinels instead of being
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
    keys = list(map(case_key, words))
    types = np.array(padded, dtype=np.int32) % (len(words) + 2)

    # Each template: its value for every type and the two sentinels (None
    # where it emits nothing), and the (name prefix, window offset) of each
    # of its slots.  The affixes are those of the position's own token.
    window = range(-WINDOW, WINDOW + 1)
    sentinels = [_BOS, _EOS]
    templates = [(keys + sentinels, [(f"w{d}=", d) for d in window])]
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
                [w[cut] if len(w) >= length else None for w in keys]
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
    slot_codes = np.array(codes, dtype=np.int32)[template_of]
    by_type = np.where(
        slot_codes >= 0, slot_codes + np.array(base, dtype=np.int32)[:, None], -1
    )
    positions = np.flatnonzero(types < len(words))
    return FeatureFactors(
        names, by_type, np.array(offsets, dtype=np.int32),
        types[np.add.outer(positions, np.arange(-WINDOW, WINDOW + 1))],
    )


def extract(sentence: Sentence, i: int, template_set: TemplateSet) -> set[str]:
    """Feature strings for position `i` of `sentence`, read off its
    `feature_factors`."""
    n = len(sentence)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range for a {n}-token sentence")
    names, by_type, slot_offsets, window = feature_factors(
        [sentence], template_set
    )
    row = by_type[np.arange(len(slot_offsets)), window[i, slot_offsets + WINDOW]]
    return {names[j] for j in row if j >= 0}


@dataclass(frozen=True)
class FeatureMap:
    """Immutable bidirectional feature/tag <-> dense index mapping.

    Stores the `features` and `tags` it is given, in index order; equality
    and hashing are on those two.  The name -> index dicts are derived from
    them at construction.  Unknown feature strings map to None (absent)
    rather than growing the map.
    """

    features: tuple[str, ...] = field(repr=False)
    tags: tuple[str, ...]
    _feature_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _tag_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate feature strings")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("duplicate tags")
        if not self.tags:
            raise ValueError("a feature map needs at least one tag")
        object.__setattr__(
            self, "_feature_index", {f: i for i, f in enumerate(self.features)}
        )
        object.__setattr__(
            self, "_tag_index", {t: i for i, t in enumerate(self.tags)}
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

    Feature indices are assigned lexicographically; the tags are
    `corpus.label_space` of the tags seen (all of B/I/E/S for every entity
    type seen, after "O"), so decoding constraints are always well-formed.
    """
    if len(corpus) == 0:
        raise ValueError("cannot fit a feature map on an empty corpus")
    return feature_map_from_factors(corpus, feature_factors(
        [ann.sentence for ann in corpus], template_set
    ))


def feature_map_from_factors(
    corpus: Corpus, factors: FeatureFactors
) -> FeatureMap:
    """`fit_feature_map` from the `feature_factors` of `corpus`."""
    # A slot's name for type t occurs iff some position has type t at the
    # slot's offset.  The factors name sentinel shapes at offsets where no
    # position has them; only the names some position holds are kept.
    names, by_type, slot_offsets, window = factors
    occurs = np.zeros((window.shape[1], by_type.shape[1]), dtype=bool)
    occurs[np.arange(window.shape[1]), window] = True
    held = by_type[occurs[slot_offsets + WINDOW] & (by_type >= 0)]
    kept = sorted(names[i] for i in np.unique(held))
    tags = label_space(tag for ann in corpus for tag in ann.gold.tags)
    return FeatureMap(tuple(kept), tags)
