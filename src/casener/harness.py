"""Experiment runner: train under a strategy, score the variant grid, report.

The four strategies differ in how training data and test input are
prepared:

* BASELINE    - train on the data as-is, case-aware templates.
* CASELESS    - lowercase all training data, case-agnostic templates,
                lowercase test input before decoding.
* TRUECASING  - train as BASELINE; truecase test input with a truecaser
                fitted on the training corpus.
* AUGMENT     - train on the corpus plus its all-lower and all-upper
                copies (3x size), case-aware templates.

Reports are a fixed-layout text table plus a machine-readable key-value
file; both are deterministic for a fixed config (no timestamps).
"""

from __future__ import annotations

import enum
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .corpus import (
    Corpus,
    TagSequence,
    extract_spans,
    read_conll_file,
    spans_to_tags,
)
from .crf import CrfModel, TrainConfig, decode, save_file, train
from .evaluation import Metrics, evaluate, metrics_lines, robustness_grid
from .features import TemplateSet
from .synth import SynthConfig, generate, vocabulary_overlap
from .transforms import CaseVariant, augment, make_variant, to_lower
from .truecase import Truecaser, train_truecaser, truecase


class Strategy(enum.Enum):
    BASELINE = "baseline"
    CASELESS = "caseless"
    TRUECASING = "truecasing"
    AUGMENT = "augment"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a strategy, one data source, training settings, outputs.

    Exactly one of (`train_path` and `test_path`) or `synth` must be given.
    `seed` is a run label printed in the reports; training is deterministic
    and does not read it.
    """

    strategy: Strategy
    train_path: str | None = None
    test_path: str | None = None
    synth: SynthConfig | None = None
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    report_path: str | None = None
    model_path: str | None = None
    type_map: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        files = self.train_path is not None and self.test_path is not None
        partial_files = (self.train_path is None) != (self.test_path is None)
        if partial_files:
            raise ValueError("train_path and test_path must be given together")
        if files == (self.synth is not None):
            raise ValueError(
                "exactly one data source is required: train/test paths or a "
                "synthetic config"
            )
        if self.type_map is not None:
            object.__setattr__(self, "type_map", dict(self.type_map))

    def data_key(self) -> tuple:
        """Identity of the test data; grids require all configs to share it."""
        if self.synth is not None:
            return ("synth", self.synth)
        return ("files", self.test_path)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    grid: dict[CaseVariant, Metrics]
    model: CrfModel
    train_sentences: int
    effective_train_sentences: int
    dropped_prediction_spans: int
    report_text: str
    report_kv: str


def _synth_data_line(synth: SynthConfig) -> str:
    return (
        f"data: synthetic (seed={synth.seed}, "
        f"train={synth.train_sentences}, "
        f"test={synth.test_sentences}, "
        f"noise_rate={synth.noise_rate})"
    )


def _load_corpora(cfg: ExperimentConfig) -> tuple[Corpus, Corpus, list[str]]:
    """Returns (train, test, provenance lines for the report header)."""
    if cfg.synth is not None:
        train_corpus, test_corpus = generate(cfg.synth)
        overlap = vocabulary_overlap(train_corpus, test_corpus)
        lines = [
            _synth_data_line(cfg.synth),
            f"test token types seen in training: "
            f"{overlap['test_token_types_seen']:.3f}",
            f"test entity types seen in training: "
            f"{overlap['test_entity_types_seen']:.3f}",
        ]
        return train_corpus, test_corpus, lines
    train_corpus = read_conll_file(cfg.train_path)
    test_corpus = read_conll_file(cfg.test_path)
    lines = [f"data: train={cfg.train_path} test={cfg.test_path}"]
    return train_corpus, test_corpus, lines


def training_view(corpus: Corpus, strategy: Strategy) -> tuple[Corpus, TemplateSet]:
    if strategy is Strategy.CASELESS:
        return make_variant(corpus, CaseVariant.LOWER), TemplateSet.CASE_AGNOSTIC
    if strategy is Strategy.AUGMENT:
        return augment(corpus), TemplateSet.CASE_AWARE
    return corpus, TemplateSet.CASE_AWARE


def map_prediction_types(
    tags: TagSequence, type_map: Mapping[str, str]
) -> tuple[TagSequence, int]:
    """Map predicted span types onto a target inventory.

    Spans whose type is absent from the mapping are dropped to O; the count
    of dropped spans is returned for reporting.
    """
    spans = extract_spans(tags)
    kept = []
    dropped = 0
    for span in spans:
        target = type_map.get(span.entity_type)
        if target is None:
            dropped += 1
        else:
            kept.append(replace(span, entity_type=target))
    return spans_to_tags(kept, len(tags), tags.scheme), dropped


def _mapped_grid(
    model: CrfModel,
    test: Corpus,
    type_map: Mapping[str, str],
    truecaser: Truecaser | None,
    caseless: bool,
) -> tuple[dict[CaseVariant, Metrics], int]:
    grid: dict[CaseVariant, Metrics] = {}
    dropped_total = 0
    for variant in CaseVariant:
        corpus = make_variant(test, variant)
        predictions = []
        for ann in corpus:
            sentence = ann.sentence
            if caseless:
                sentence = to_lower(sentence)
            elif truecaser is not None:
                sentence = truecase(truecaser, sentence)
            mapped, dropped = map_prediction_types(
                decode(model, sentence), type_map
            )
            predictions.append(mapped)
            dropped_total += dropped
        grid[variant] = evaluate(predictions, [ann.gold for ann in corpus])
    return grid, dropped_total


def _format_f1_table(rows: Sequence[tuple[str, dict[CaseVariant, Metrics]]]) -> str:
    header = f"{'Method':<12}" + "".join(
        f"{v.value.capitalize():>10}" for v in CaseVariant
    )
    lines = [header]
    for name, grid in rows:
        lines.append(
            f"{name:<12}"
            + "".join(f"{100 * grid[v].f1:>10.1f}" for v in CaseVariant)
        )
    return "\n".join(lines)


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train per the strategy, score all variants, and write report files."""
    train_corpus, test_corpus, data_lines = _load_corpora(cfg)
    if len(train_corpus) == 0:
        raise ValueError("training corpus is empty")

    train_cfg = cfg.train_config
    train_view, template_set = training_view(train_corpus, cfg.strategy)
    model = train(train_view, template_set, train_cfg)

    truecaser = None
    if cfg.strategy is Strategy.TRUECASING:
        truecaser = train_truecaser(train_corpus)
    caseless = cfg.strategy is Strategy.CASELESS

    if cfg.type_map is not None:
        grid, dropped = _mapped_grid(
            model, test_corpus, cfg.type_map, truecaser, caseless
        )
    else:
        grid = robustness_grid(
            model, test_corpus, truecaser=truecaser, caseless=caseless
        )
        dropped = 0

    header = [
        "casener experiment report",
        "=========================",
        f"strategy: {cfg.strategy.value}",
        *data_lines,
        f"seed: {cfg.seed}",
        f"l2_sigma: {train_cfg.l2_sigma}  max_epochs: {train_cfg.max_epochs}"
        f"  tolerance: {train_cfg.tolerance}",
        f"feature templates: {template_set.value}",
        f"training sentences: {len(train_corpus)}"
        f" (effective {len(train_view)})",
        f"features: {model.feature_map.num_features}"
        f"  tags: {model.feature_map.num_tags}",
    ]
    if truecaser is not None:
        header.append(
            "truecaser: unigram majority model fitted on the training corpus "
            "(internal; not an external truecasing system)"
        )
    if cfg.type_map is not None:
        header.append(
            f"type map applied to predictions; {dropped} span(s) with "
            f"unmapped types dropped to O"
        )

    table = _format_f1_table([(cfg.strategy.value, grid)])
    detail_lines = []
    for variant in CaseVariant:
        m = grid[variant]
        detail_lines.append(
            f"{variant.value}: P={m.precision:.4f} R={m.recall:.4f} "
            f"F1={m.f1:.4f} (tp={m.true_positives} pred={m.predicted_count} "
            f"gold={m.gold_count})"
        )
    report_text = (
        "\n".join(header)
        + "\n\nF1 (%) by test variant\n"
        + table
        + "\n\n"
        + "\n".join(detail_lines)
        + "\n"
    )

    kv_lines = [
        f"strategy={cfg.strategy.value}",
        f"seed={cfg.seed}",
        f"l2_sigma={train_cfg.l2_sigma!r}",
        f"max_epochs={train_cfg.max_epochs}",
        f"tolerance={train_cfg.tolerance!r}",
        f"template_set={template_set.value}",
        f"train.sentences={len(train_corpus)}",
        f"train.effective_sentences={len(train_view)}",
        f"model.features={model.feature_map.num_features}",
        f"model.tags={model.feature_map.num_tags}",
        f"predictions.dropped_spans={dropped}",
    ]
    if cfg.synth is not None:
        kv_lines.append(f"data.synth.seed={cfg.synth.seed}")
        kv_lines.append(f"data.synth.noise_rate={cfg.synth.noise_rate!r}")
    else:
        kv_lines.append(f"data.train={cfg.train_path}")
        kv_lines.append(f"data.test={cfg.test_path}")
    for variant in CaseVariant:
        kv_lines.extend(
            metrics_lines(grid[variant], prefix=f"variant.{variant.value}.")
        )
    report_kv = "\n".join(kv_lines) + "\n"

    if cfg.model_path is not None:
        save_file(model, cfg.model_path)
    if cfg.report_path is not None:
        _atomic_write(cfg.report_path + ".txt", report_text)
        _atomic_write(cfg.report_path + ".kv", report_kv)

    return ExperimentResult(
        config=cfg,
        grid=grid,
        model=model,
        train_sentences=len(train_corpus),
        effective_train_sentences=len(train_view),
        dropped_prediction_spans=dropped,
        report_text=report_text,
        report_kv=report_kv,
    )


def run_grid(
    configs: Sequence[ExperimentConfig], report_path: str | None = None
) -> tuple[list[ExperimentResult], str]:
    """Run several strategies against one shared test set; combined table.

    Returns the individual results plus the combined report text.
    """
    if not configs:
        raise ValueError("at least one experiment config is required")
    first_key = configs[0].data_key()
    if any(cfg.data_key() != first_key for cfg in configs[1:]):
        raise ValueError("all grid experiments must share the same test data")

    results = [run_experiment(cfg) for cfg in configs]
    table = _format_f1_table(
        [(r.config.strategy.value, r.grid) for r in results]
    )
    first = configs[0]
    if first.synth is not None:
        data_line = _synth_data_line(first.synth)
    else:
        data_line = f"data: test={first.test_path}"
    combined = (
        "casener strategy grid\n=====================\n"
        + data_line
        + "\n\nF1 (%) by test variant\n"
        + table
        + "\n"
    )

    kv_lines = []
    for result in results:
        prefix = f"{result.config.strategy.value}."
        kv_lines.extend(
            f"{prefix}{line}" for line in result.report_kv.strip().split("\n")
        )
    combined_kv = "\n".join(kv_lines) + "\n"

    if report_path is not None:
        _atomic_write(report_path + ".txt", combined)
        _atomic_write(report_path + ".kv", combined_kv)
    return results, combined


def read_config_file(path: str) -> dict[str, str]:
    """Parse a plain key=value config file ('#' starts a comment line)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            out[key.strip()] = value.strip()
    return out
