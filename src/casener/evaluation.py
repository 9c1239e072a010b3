"""Span-level micro-averaged precision/recall/F1 with conlleval semantics.

A predicted span counts as a true positive only when a gold span matches it
exactly in (start, end, type).  Counts are pooled over all sentences before
ratios are taken (micro-averaging).

Test-time tagging lives here too: `tag_corpus` is the one place a test
sentence is preprocessed (truecased) and decoded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .corpus import Corpus, TagSequence, case_key, extract_spans, spans_to_tags
from .crf import CrfModel, decode
from .features import TemplateSet
from .transforms import CaseVariant, make_variant
from .truecase import Truecaser, truecase


@dataclass(frozen=True)
class Metrics:
    """Pooled span counts, plus per-type breakdowns.

    Only the counts are stored; precision, recall and F1 are derived from
    them (0.0 where a denominator is zero, as in conlleval).
    """

    true_positives: int
    predicted_count: int
    gold_count: int
    per_type: Mapping[str, "Metrics"] = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return (self.true_positives / self.predicted_count
                if self.predicted_count else 0.0)

    @property
    def recall(self) -> float:
        return self.true_positives / self.gold_count if self.gold_count else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return (2 * precision * recall / (precision + recall)
                if precision + recall else 0.0)


def evaluate(
    predicted: Sequence[TagSequence], gold: Sequence[TagSequence]
) -> Metrics:
    """Micro-averaged span metrics of `predicted` against `gold`."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"{len(predicted)} predicted sentences vs {len(gold)} gold"
        )
    # Per type: true positives, predicted spans, gold spans.
    type_counts: dict[str, list[int]] = {}
    for idx, (pred_seq, gold_seq) in enumerate(zip(predicted, gold)):
        if len(pred_seq) != len(gold_seq):
            raise ValueError(
                f"sentence {idx}: predicted length {len(pred_seq)} "
                f"!= gold length {len(gold_seq)}"
            )
        pred_spans = set(extract_spans(pred_seq))
        gold_spans = set(extract_spans(gold_seq))
        for column, spans in enumerate(
                (pred_spans & gold_spans, pred_spans, gold_spans)):
            for span in spans:
                type_counts.setdefault(span.entity_type, [0, 0, 0])[column] += 1
    per_type = {
        etype: Metrics(*counts)
        for etype, counts in sorted(type_counts.items())
    }
    totals = [sum(column) for column in zip((0, 0, 0), *type_counts.values())]
    return Metrics(*totals, per_type)


def tag_corpus(
    model: CrfModel,
    corpus: Corpus,
    *,
    truecaser: Truecaser | None = None,
) -> list[TagSequence]:
    """Decode each sentence, truecased first if a `truecaser` is given.

    Decoding is deterministic, so each distinct sentence is truecased and
    decoded once and its tags reused for every repeat.  A caseless model's
    features read only the tokens' `case_key`s, and truecasing reads only
    those too, so for either, sentences with equal keys are repeats: a
    caseless model needs no test-time lowercasing.
    """
    case_free = (truecaser is not None
                 or model.template_set is TemplateSet.CASE_AGNOSTIC)
    tagged: dict[tuple[str, ...], TagSequence] = {}
    predictions = []
    for ann in corpus:
        sentence = ann.sentence
        key = sentence.tokens
        if case_free:
            key = tuple(map(case_key, key))
        tags = tagged.get(key)
        if tags is None:
            if truecaser is not None:
                sentence = truecase(truecaser, sentence)
            tags = tagged[key] = decode(model, sentence)
        predictions.append(tags)
    return predictions


def map_prediction_types(
    tags: TagSequence, type_map: Mapping[str, str]
) -> tuple[TagSequence, int]:
    """Map predicted span types onto a target inventory.

    Spans whose type is absent from the mapping are dropped to O; the count
    of dropped spans is returned for reporting.
    """
    spans = extract_spans(tags)
    kept = [replace(span, entity_type=target) for span in spans
            if (target := type_map.get(span.entity_type)) is not None]
    return spans_to_tags(kept, len(tags)), len(spans) - len(kept)


def variant_grid(
    model: CrfModel,
    test: Corpus,
    *,
    truecaser: Truecaser | None = None,
    type_map: Mapping[str, str] | None = None,
) -> tuple[dict[CaseVariant, Metrics], int]:
    """Tag (see `tag_corpus`) and score the test corpus under all three
    case variants; every cell scores against the same gold spans.

    With a `type_map` predicted types are mapped first; the second value
    counts the spans dropped for an unmapped type over all variants.
    """
    # One tag_corpus call over the three variants, so that its memo spans
    # them: the caseless and truecasing rows tag the same text in each.
    variants = [make_variant(test, variant) for variant in CaseVariant]
    tagged = tag_corpus(
        model, Corpus(tuple(ann for c in variants for ann in c)),
        truecaser=truecaser,
    )
    grid: dict[CaseVariant, Metrics] = {}
    dropped_total = 0
    for i, (variant, corpus) in enumerate(zip(CaseVariant, variants)):
        predictions = tagged[i * len(test) : (i + 1) * len(test)]
        if type_map is not None:
            mapped = [map_prediction_types(p, type_map) for p in predictions]
            predictions = [tags for tags, _ in mapped]
            dropped_total += sum(dropped for _, dropped in mapped)
        grid[variant] = evaluate(predictions, [ann.gold for ann in corpus])
    return grid, dropped_total


def metrics_lines(metrics: Metrics, prefix: str = "") -> list[str]:
    """Key-value lines for the machine-readable report."""
    lines = [
        f"{prefix}tp={metrics.true_positives}",
        f"{prefix}predicted={metrics.predicted_count}",
        f"{prefix}gold={metrics.gold_count}",
        f"{prefix}precision={metrics.precision!r}",
        f"{prefix}recall={metrics.recall!r}",
        f"{prefix}f1={metrics.f1!r}",
    ]
    for etype, sub in sorted(metrics.per_type.items()):
        lines.extend(metrics_lines(sub, f"{prefix}type.{etype}."))
    return lines
