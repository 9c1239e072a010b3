"""Label-preserving case transforms and augmented-corpus construction.

Lowercasing or uppercasing every word of a sentence leaves its entity
annotation valid, so these transforms copy gold tags through unchanged.
Case mappings are the default Unicode ones (no locale tailoring).

Within one `make_variant` call each distinct (tokens, tags) pair is
transformed and checked once, and its repeats share that immutable
object; `augment` inherits this from it.  Nothing is cached across calls.
"""

from __future__ import annotations

import enum

from .corpus import AnnotatedSentence, Corpus, Sentence


class CaseVariant(enum.Enum):
    ORIGINAL = "original"
    LOWER = "lower"
    UPPER = "upper"


def to_lower(sentence: Sentence) -> Sentence:
    """Lowercase every token; token count is unchanged."""
    return Sentence(tuple(map(str.lower, sentence.tokens)))


def to_upper(sentence: Sentence) -> Sentence:
    """Uppercase every token; token count is unchanged (characters may not be)."""
    return Sentence(tuple(map(str.upper, sentence.tokens)))


def make_variant(corpus: Corpus, variant: CaseVariant) -> Corpus:
    """Apply `variant` to every sentence of `corpus`; gold tags are carried
    over as-is.  Equal annotated sentences share one transformed object."""
    if variant is CaseVariant.ORIGINAL:
        return corpus
    transform = to_lower if variant is CaseVariant.LOWER else to_upper
    # Keyed on the two tuples, whose hashes are computed in C; hashing the
    # AnnotatedSentence itself runs a Python-level hash per field.
    built: dict[tuple[tuple[str, ...], tuple[str, ...]], AnnotatedSentence] = {}
    sentences = []
    for ann in corpus:
        key = (ann.sentence.tokens, ann.gold.tags)
        out = built.get(key)
        if out is None:
            out = built[key] = AnnotatedSentence(transform(ann.sentence), ann.gold)
        sentences.append(out)
    return Corpus(
        tuple(sentences), f"{variant.value} variant of: {corpus.provenance}"
    )


def augment(corpus: Corpus) -> Corpus:
    """Originals, then lowercased copies, then uppercased copies (3x size).

    Duplicates are kept: a sentence that is already all-lowercase still
    contributes an identical lower copy.
    """
    n = len(corpus)
    sentences = (
        corpus.sentences
        + make_variant(corpus, CaseVariant.LOWER).sentences
        + make_variant(corpus, CaseVariant.UPPER).sentences
    )
    provenance = (
        f"augmented from {n} sentence(s): originals at [0,{n}), lower copies "
        f"at [{n},{2 * n}) with source i-{n}, upper copies at [{2 * n},{3 * n}) "
        f"with source i-{2 * n}; base: {corpus.provenance}"
    )
    return Corpus(sentences, provenance)
