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

#: Weight a sentence-initial InitCap occurrence contributes to INIT_CAP;
#: the remaining 0.9 is credited to LOWER (the uncapitalized reading).
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


#: Tie-break preference when two classes have equal counts: enum order.
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
    key it is; a word it does not hold (unseen, or usually lowercase) is
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

    Each word is restored to its majority case class (Lita et al., 2003).
    Sentence-initial InitCap occurrences, which say little about a word's
    lexical case, are discounted (weight 0.1 to INIT_CAP, 0.9 to LOWER);
    all other occurrences count fully, and `_CLASS_PRIORITY` breaks ties.
    A word whose class is not LOWER keeps the most frequent spelling of
    that class, ties going to the smallest string.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train a truecaser on an empty corpus")
    occurrences = Counter(t for ann in corpus for t in ann.sentence.tokens)
    initial = Counter(ann.sentence.tokens[0] for ann in corpus)
    # Weights are summed exactly, in units of 1/d where the discount weight
    # is m/d (tenths): a token seen n times, k of them sentence-initial in
    # InitCap, gives its class d*n - (d-m)*k units and LOWER (d-m)*k.
    m, d = INITIAL_INIT_CAP_WEIGHT.as_integer_ratio()
    units: dict[str, Counter[CaseClass]] = defaultdict(Counter)
    classes = {}
    for token, n in occurrences.items():
        cls = classes[token] = classify_case(token)
        row = units[case_key(token)]
        k = initial[token] if cls is CaseClass.INIT_CAP else 0
        row[cls] += d * n - (d - m) * k
        if k:
            row[CaseClass.LOWER] += (d - m) * k
    majority = {
        word: min(row, key=lambda c: (-row[c], _CLASS_PRIORITY.index(c)))
        for word, row in units.items()
    }
    spellings: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for token, cls in classes.items():
        word = case_key(token)
        if cls is majority[word] and cls is not CaseClass.LOWER:
            spellings[word].append((-occurrences[token], token))
    surfaces = {word: min(found)[1] for word, found in spellings.items()}
    return Truecaser(
        {word: token for word, token in surfaces.items() if token != word}
    )


def truecase(truecaser: Truecaser, sentence: Sentence) -> Sentence:
    """Restore each token's usual spelling.

    Tokens are looked up by their `case_key`, so the output is a function
    of the keys.  A sentence-initial token restored as its key is emitted
    in InitCap form, mimicking well-formed text.
    """
    words = list(map(case_key, sentence.tokens))
    out = [truecaser.surfaces.get(word, word) for word in words]
    if out[0] == words[0]:
        out[0] = init_cap_form(words[0])
    return Sentence(tuple(out))
