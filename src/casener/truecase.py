"""Word-level unigram truecaser.

Restores the usual spelling of each word before tagging, so a downstream
case-aware model sees well-formed text regardless of how the input was
cased: `train_truecaser` learns one spelling per word, and `truecase`
restores it.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Mapping

from . import container
from .corpus import Corpus, Sentence, case_key, init_cap_form
from .transforms import to_lower

#: Share of its votes a sentence-initial InitCap occurrence casts for
#: INIT_CAP; the rest go to LOWER (the uncapitalized reading).
INITIAL_INIT_CAP_WEIGHT = Fraction(1, 10)

_KIND = "truecaser"
_VERSION = 4


class TruecaserFormatError(ValueError):
    """Raised when serialized truecaser data cannot be decoded."""


class CaseClass(enum.Enum):
    LOWER = "lower"
    INIT_CAP = "init_cap"
    ALL_CAP = "all_cap"
    MIXED = "mixed"
    NO_CASE = "no_case"


#: Tie-break preference when two classes have equal votes: enum order.
_CLASS_PRIORITY = list(CaseClass)


def classify_case(word: str) -> CaseClass:
    """Classify the capitalization of a single token.

    NO_CASE if the word has no cased characters; ALL_CAP needs at least two
    cased characters, all uppercase; INIT_CAP means the first cased character
    is uppercase and every other cased character is lowercase.
    """
    if not word:
        raise ValueError("cannot classify an empty token")
    cased = [c for c in word if c.isupper() or c.islower()]
    if not cased:
        return CaseClass.NO_CASE
    if all(c.islower() for c in cased):
        return CaseClass.LOWER
    if len(cased) >= 2 and all(c.isupper() for c in cased):
        return CaseClass.ALL_CAP
    if cased[0].isupper() and all(c.islower() for c in cased[1:]):
        return CaseClass.INIT_CAP
    return CaseClass.MIXED


class Truecaser:
    """The spelling each word is restored to.

    `surfaces` maps a word (a `case_key`) to its restored spelling, whose
    key it is; a word it does not hold (unseen, or spelled as its key) is
    restored as itself.
    """

    def __init__(self, surfaces: Mapping[str, str]) -> None:
        self.surfaces = dict(surfaces)

    def to_bytes(self) -> bytes:
        return container.dump(_KIND, _VERSION, {"surfaces": self.surfaces})

    @classmethod
    def from_bytes(cls, data: bytes) -> "Truecaser":
        doc = container.load(data, _KIND, _VERSION, TruecaserFormatError)
        surfaces = doc.get("surfaces")
        # A surface spells its word (its key), as `train_truecaser` builds
        # it; so restoring one always gives a valid token.
        if not isinstance(surfaces, dict) or not all(
            isinstance(v, str) and case_key(v) == w for w, v in surfaces.items()
        ):
            raise TruecaserFormatError(
                "malformed truecaser surfaces: each must spell its word"
            )
        return cls(surfaces)


def train_truecaser(corpus: Corpus) -> Truecaser:
    """Build a truecaser from token occurrences; annotations are ignored.

    Each word is restored to a spelling of its majority case class (Lita
    et al., 2003), from one table of votes per word, in tenths, keyed by
    (class, spelling).  An occurrence votes 10 for (its class, itself); a
    sentence-initial InitCap one, whose capital says little, votes 1 for
    (INIT_CAP, itself) and 9 for (LOWER, itself after `to_lower`, or its
    word if that changes its `case_key`).  A word takes the class with the
    most votes, ties going to the earlier `CaseClass`, then that class's
    spelling with the most votes, ties going to the smallest string.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train a truecaser on an empty corpus")
    occurrences = Counter(t for ann in corpus for t in ann.sentence.tokens)
    initial = Counter(ann.sentence.tokens[0] for ann in corpus)
    lowered = dict(zip(initial, to_lower(Sentence(tuple(initial))).tokens))
    m, d = INITIAL_INIT_CAP_WEIGHT.as_integer_ratio()
    votes: dict[str, Counter[tuple[CaseClass, str]]] = defaultdict(Counter)
    for token, n in occurrences.items():
        cls, word = classify_case(token), case_key(token)
        k = initial[token] if cls is CaseClass.INIT_CAP else 0
        votes[word][cls, token] += d * n - (d - m) * k
        if k:
            lower = lowered[token] if case_key(lowered[token]) == word else word
            votes[word][CaseClass.LOWER, lower] += (d - m) * k
    surfaces = {}
    for word, row in votes.items():
        totals: Counter[CaseClass] = Counter()
        for (cls, _), n in row.items():
            totals[cls] += n
        _, spelling = min(row, key=lambda key: (
            -totals[key[0]], _CLASS_PRIORITY.index(key[0]), -row[key], key[1]
        ))
        if spelling != word:
            surfaces[word] = spelling
    return Truecaser(surfaces)


def truecase(truecaser: Truecaser, sentence: Sentence) -> Sentence:
    """Restore each token's usual spelling.

    Tokens are looked up by their `case_key`, so the output is a function
    of the keys.  A sentence-initial token restored as its key (not always
    lowercase: "ϒ" keys to itself) or to a lowercase spelling is emitted in
    InitCap form, mimicking well-formed text.
    """
    words = list(map(case_key, sentence.tokens))
    out = [truecaser.surfaces.get(word, word) for word in words]
    if out[0] == words[0] or classify_case(out[0]) is CaseClass.LOWER:
        out[0] = init_cap_form(out[0])
    return Sentence(tuple(out))
