"""Label-preserving case transforms and augmented-corpus construction.

Lowercasing or uppercasing every word of a sentence leaves its entity
annotation valid, so these transforms copy gold tags through unchanged.
Case mappings are the default Unicode ones (no locale tailoring).
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


def transform_annotated(
    annotated: AnnotatedSentence, variant: CaseVariant
) -> AnnotatedSentence:
    """Apply a case variant to the sentence; gold tags are carried over as-is."""
    if variant is CaseVariant.ORIGINAL:
        return annotated
    if variant is CaseVariant.LOWER:
        return AnnotatedSentence(to_lower(annotated.sentence), annotated.gold)
    return AnnotatedSentence(to_upper(annotated.sentence), annotated.gold)


def make_variant(corpus: Corpus, variant: CaseVariant) -> Corpus:
    """Apply `variant` to every sentence of `corpus`."""
    if variant is CaseVariant.ORIGINAL:
        return corpus
    return Corpus(
        tuple(transform_annotated(ann, variant) for ann in corpus),
        f"{variant.value} variant of: {corpus.provenance}",
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
