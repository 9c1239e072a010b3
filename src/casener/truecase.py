"""Word-level unigram truecaser.

Restores the most frequent capitalization of each word before tagging, so a
downstream case-aware model sees well-formed text regardless of how the
input was cased.  The model is a per-word majority vote over case classes,
with sentence-initial capitalization discounted because it says little
about a word's lexical case.
"""

from __future__ import annotations

import enum
import gzip
import json
import zlib
from collections import Counter, defaultdict
from typing import Mapping

from .corpus import Corpus, Sentence

#: Weight a sentence-initial InitCap occurrence contributes to INIT_CAP;
#: the remaining 0.9 is credited to LOWER (the uncapitalized reading).
INITIAL_INIT_CAP_WEIGHT = 0.1

_FORMAT = "casener-truecaser"
_VERSION = 2


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
    """Frequency tables mapping lowercased words to their usual casing.

    Lookup is total: unseen words fall back to LOWER.
    """

    def __init__(
        self,
        case_counts: Mapping[str, Mapping[CaseClass, float]],
        mixed_surface: Mapping[str, str],
    ) -> None:
        self.case_counts = {
            word: dict(counts) for word, counts in case_counts.items()
        }
        self.mixed_surface = dict(mixed_surface)
        for word, counts in self.case_counts.items():
            for cls, count in counts.items():
                if count < 0:
                    raise ValueError(
                        f"negative count for {word!r}/{cls.value}: {count}"
                    )
        self._majority = {
            word: self._pick_majority(counts)
            for word, counts in self.case_counts.items()
            if counts
        }

    @staticmethod
    def _pick_majority(counts: Mapping[CaseClass, float]) -> CaseClass:
        return min(
            counts,
            key=lambda cls: (-counts[cls], _CLASS_PRIORITY.index(cls)),
        )

    def majority_class(self, lowercased_word: str) -> CaseClass:
        """The most frequent case class of a word, or LOWER if unseen."""
        return self._majority.get(lowercased_word, CaseClass.LOWER)

    def to_bytes(self) -> bytes:
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "case_counts": {
                word: {cls.value: count for cls, count in counts.items()}
                for word, counts in self.case_counts.items()
            },
            "mixed_surface": self.mixed_surface,
        }
        payload = json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        return gzip.compress(payload, mtime=0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Truecaser":
        if not data:
            raise TruecaserFormatError("empty truecaser data")
        try:
            payload = gzip.decompress(data)
            doc = json.loads(payload)
        except (OSError, EOFError, zlib.error, ValueError,
                RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integers;
            # RecursionError, arrays nested too deep.
            raise TruecaserFormatError(f"corrupt truecaser data: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise TruecaserFormatError("not a truecaser file")
        if doc.get("version") != _VERSION:
            raise TruecaserFormatError(
                f"unsupported truecaser version {doc.get('version')!r}"
            )
        try:
            case_counts = {
                word: {CaseClass(c): float(n) for c, n in counts.items()}
                for word, counts in doc["case_counts"].items()
            }
            mixed = doc["mixed_surface"]
            # A surface spells its lowercased key, as `train_truecaser`
            # builds it; so restoring one always gives a valid token.
            if not all(isinstance(v, str) and v.lower() == w
                       for w, v in mixed.items()):
                raise TruecaserFormatError(
                    "a mixed_surface value does not spell its key"
                )
            return cls(case_counts, mixed)
        except (KeyError, ValueError, AttributeError, TypeError) as exc:
            raise TruecaserFormatError(f"malformed truecaser fields: {exc}") from exc


def train_truecaser(corpus: Corpus) -> Truecaser:
    """Build a truecaser from token occurrences; annotations are ignored.

    Sentence-initial InitCap occurrences are discounted (weight 0.1 to
    INIT_CAP, 0.9 to LOWER); all other occurrences count fully.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train a truecaser on an empty corpus")
    # word -> class -> one-element list holding the count
    case_counts: dict[str, dict[CaseClass, list[float]]] = {}
    mixed_counts: dict[str, Counter[str]] = defaultdict(Counter)
    # Each distinct token is classified and lowercased once, and `seen`
    # keeps its word's row and its own class's cell, so an occurrence
    # inside a sentence hashes no CaseClass.  The counts still accumulate
    # per occurrence, in corpus order, so the float sums do not depend on
    # how the work is shared.
    seen: dict[str, tuple] = {}
    for ann in corpus:
        for pos, token in enumerate(ann.sentence.tokens):
            known = seen.get(token)
            if known is None:
                cls, lowered = classify_case(token), token.lower()
                row = case_counts.setdefault(lowered, {})
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
            if cls is CaseClass.MIXED:
                mixed_counts[lowered][token] += 1
    mixed_surface = {
        word: min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        for word, counter in mixed_counts.items()
    }
    return Truecaser(
        {
            word: {cls: cell[0] for cls, cell in row.items()}
            for word, row in case_counts.items()
        },
        mixed_surface,
    )


def truecase(truecaser: Truecaser, sentence: Sentence) -> Sentence:
    """Restore each token's majority capitalization.

    Tokens are keyed by their lowercased form, so the output is independent
    of how the input was cased.  A sentence-initial token whose class is
    LOWER is emitted in InitCap form, mimicking well-formed text.
    """
    out: list[str] = []
    for pos, token in enumerate(sentence.tokens):
        lowered = token.lower()
        cls = truecaser.majority_class(lowered)
        if pos == 0 and cls is CaseClass.LOWER:
            cls = CaseClass.INIT_CAP
        if cls is CaseClass.LOWER:
            out.append(lowered)
        elif cls is CaseClass.INIT_CAP:
            out.append(_init_cap_form(lowered))
        elif cls is CaseClass.ALL_CAP:
            out.append(lowered.upper())
        elif cls is CaseClass.MIXED:
            out.append(truecaser.mixed_surface.get(lowered, lowered))
        else:  # NO_CASE: nothing to restore
            out.append(token)
    return Sentence(tuple(out))
