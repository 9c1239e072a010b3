"""Experiment runner: train under a strategy, score the variant grid, report.

The four strategies differ in how training data and test input are
prepared:

* BASELINE    - train on the data as-is, case-aware templates.
* CASELESS    - lowercase all training data, case-agnostic templates;
                test input is decoded as-is (the templates lowercase it).
* TRUECASING  - train as BASELINE; truecase test input with a truecaser
                fitted on the training corpus.
* AUGMENT     - train on the corpus plus its all-lower and all-upper
                copies (3x size), case-aware templates.

`run_grid` is the one runner: it loads the data once and trains each
distinct model once, so TRUECASING scores the model BASELINE trained.
`run_experiment` is its one-strategy case.

Reports are a fixed-layout text table plus a machine-readable key-value
file; both are deterministic for a fixed config (no timestamps).
"""

from __future__ import annotations

import enum
import os
import tempfile
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import Corpus, read_conll_file
from .crf import CrfModel, TrainConfig, save_file, train
from .evaluation import Metrics, metrics_lines, variant_grid
from .features import TemplateSet
from .synth import SynthConfig, generate, vocabulary_overlap_lines
from .transforms import CaseVariant, augment, make_variant
from .truecase import train_truecaser


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
        """Identity of the train and test data; grids require all configs
        to share it."""
        if self.synth is not None:
            return ("synth", self.synth)
        return ("files", self.train_path, self.test_path)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    grid: dict[CaseVariant, Metrics]
    model: CrfModel
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
        lines = [
            _synth_data_line(cfg.synth),
            *vocabulary_overlap_lines(train_corpus, test_corpus),
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


def _run_strategy(cfg: ExperimentConfig, data: tuple[Corpus, Corpus, list[str]],
                  models: dict[tuple, CrfModel]) -> ExperimentResult:
    """Score one strategy on `data` (from `_load_corpora`) and write the
    files its config names.  The model comes from `models`, keyed by what
    determines its weights, and is trained and added there if missing."""
    train_corpus, test_corpus, data_lines = data
    train_cfg = cfg.train_config
    # TRUECASING trains as BASELINE: only its test input differs.
    recipe = Strategy.BASELINE if cfg.strategy is Strategy.TRUECASING else cfg.strategy
    key = (recipe, train_cfg)
    if key not in models:
        models[key] = train(*training_view(train_corpus, recipe), train_cfg)
    model = models[key]
    template_set = model.template_set
    effective_sentences = model.metadata["training_sentences"]

    truecaser = None
    if cfg.strategy is Strategy.TRUECASING:
        truecaser = train_truecaser(train_corpus)
    grid, dropped = variant_grid(
        model, test_corpus, truecaser=truecaser, type_map=cfg.type_map
    )

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
        f" (effective {effective_sentences})",
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
        f"train.effective_sentences={effective_sentences}",
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
        report_text=report_text,
        report_kv=report_kv,
    )


def run_grid(
    configs: Sequence[ExperimentConfig], report_path: str | None = None
) -> tuple[list[ExperimentResult], str]:
    """Run several strategies on one shared data source; combined table.

    The data is generated or read once, and each distinct model is trained
    once.  Returns the individual results plus the combined report text.
    """
    if not configs:
        raise ValueError("at least one experiment config is required")
    first = configs[0]
    if any(cfg.data_key() != first.data_key() for cfg in configs[1:]):
        raise ValueError(
            "all grid experiments must share the same train and test data"
        )
    data = _load_corpora(first)
    if len(data[0]) == 0:
        raise ValueError("training corpus is empty")

    models: dict[tuple, CrfModel] = {}
    results = [_run_strategy(cfg, data, models) for cfg in configs]
    table = _format_f1_table(
        [(r.config.strategy.value, r.grid) for r in results]
    )
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train per the strategy, score all variants, and write report files."""
    [result], _ = run_grid([cfg])
    return result


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
