"""Word-level unigram truecaser.

Restores the usual spelling of each word before tagging, so a downstream
case-aware model sees well-formed text regardless of how the input was
cased.  Training takes a per-word majority vote over case classes, with
sentence-initial capitalization discounted because it says little about a
word's lexical case, and keeps one decision per word: the spelling it is
restored to (format version 3).  Restoring is a lookup on the lowercased
token, so the output depends only on the lowercased sentence.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from typing import Mapping

from . import container
from .corpus import Corpus, Sentence

#: Weight a sentence-initial InitCap occurrence contributes to INIT_CAP;
#: the remaining 0.9 is credited to LOWER (the uncapitalized reading).
INITIAL_INIT_CAP_WEIGHT = 0.1

_KIND = "truecaser"
_VERSION = 3


class TruecaserFormatError(ValueError):
    """Raised when serialized truecaser data cannot be decoded."""


class CaseClass(enum.Enum):
    LOWER = "lower"
    INIT_CAP = "init_cap"
    ALL_CAP = "all_cap"
    MIXED = "mixed"
    NO_CASE = "no_case"


#: Tie-break preference when two classes have equal counts.
_CLASS_PRIORITY = [
    CaseClass.LOWER,
    CaseClass.INIT_CAP,
    CaseClass.ALL_CAP,
    CaseClass.MIXED,
    CaseClass.NO_CASE,
]


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


def _init_cap_form(word: str) -> str:
    """Uppercase the first cased character of `word`."""
    for i, c in enumerate(word):
        if c.isupper() or c.islower():
            return word[:i] + c.upper() + word[i + 1 :]
    return word


class Truecaser:
    """The spelling each lowercased word is restored to.

    `surfaces` maps a lowercased word to its restored spelling, which
    lowercases back to it; a word it does not hold (unseen, or usually
    lowercase) is restored as itself.
    """

    def __init__(self, surfaces: Mapping[str, str]) -> None:
        self.surfaces = dict(surfaces)

    def to_bytes(self) -> bytes:
        return container.dump(_KIND, _VERSION, {"surfaces": self.surfaces})

    @classmethod
    def from_bytes(cls, data: bytes) -> "Truecaser":
        doc = container.load(data, _KIND, _VERSION, TruecaserFormatError)
        surfaces = doc.get("surfaces")
        # A surface spells its lowercased word, as `train_truecaser` builds
        # it; so restoring one always gives a valid token.
        if not isinstance(surfaces, dict) or not all(
            isinstance(v, str) and v.lower() == w for w, v in surfaces.items()
        ):
            raise TruecaserFormatError(
                "malformed truecaser surfaces: each must spell its word"
            )
        return cls(surfaces)


def train_truecaser(corpus: Corpus) -> Truecaser:
    """Build a truecaser from token occurrences; annotations are ignored.

    Each word is restored to its majority case class (Lita et al., 2003).
    Sentence-initial InitCap occurrences are discounted (weight 0.1 to
    INIT_CAP, 0.9 to LOWER); all other occurrences count fully, and
    `_CLASS_PRIORITY` breaks ties.  A word whose class is not LOWER keeps
    the most frequent spelling of that class, ties going to the smallest
    string.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train a truecaser on an empty corpus")
    # word -> class -> one-element list holding the weighted count
    class_counts: dict[str, dict[CaseClass, list[float]]] = {}
    occurrences: Counter[str] = Counter()
    # Each distinct token is classified and lowercased once, and `seen`
    # keeps its word's row and its own class's cell, so an occurrence
    # inside a sentence hashes no CaseClass.  The counts still accumulate
    # per occurrence, in corpus order, so the float sums do not depend on
    # how the work is shared.
    seen: dict[str, tuple] = {}
    for ann in corpus:
        occurrences.update(ann.sentence.tokens)
        for pos, token in enumerate(ann.sentence.tokens):
            known = seen.get(token)
            if known is None:
                cls, lowered = classify_case(token), token.lower()
                row = class_counts.setdefault(lowered, {})
                known = seen[token] = (
                    cls, lowered, row, row.setdefault(cls, [0.0])
                )
            cls, lowered, row, cell = known
            if pos == 0 and cls is CaseClass.INIT_CAP:
                cell[0] += INITIAL_INIT_CAP_WEIGHT
                row.setdefault(CaseClass.LOWER, [0.0])[0] += (
                    1.0 - INITIAL_INIT_CAP_WEIGHT
                )
            else:
                cell[0] += 1.0
    majority = {
        word: min(row, key=lambda c: (-row[c][0], _CLASS_PRIORITY.index(c)))
        for word, row in class_counts.items()
    }
    spellings: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for token, (cls, lowered, _, _) in seen.items():
        if cls is majority[lowered] and cls is not CaseClass.LOWER:
            spellings[lowered].append((-occurrences[token], token))
    surfaces = {word: min(found)[1] for word, found in spellings.items()}
    return Truecaser(
        {word: token for word, token in surfaces.items() if token != word}
    )


def truecase(truecaser: Truecaser, sentence: Sentence) -> Sentence:
    """Restore each token's usual spelling.

    Tokens are looked up by their lowercased form, so the output is a
    function of the lowercased sentence.  A sentence-initial token restored
    as its lowercased form is emitted in InitCap form, mimicking
    well-formed text.
    """
    words = [token.lower() for token in sentence.tokens]
    out = [truecaser.surfaces.get(word, word) for word in words]
    if out[0] == words[0]:
        out[0] = _init_cap_form(words[0])
    return Sentence(tuple(out))
