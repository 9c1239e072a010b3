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

`run_grid` is the one runner, and `run_experiment` its one-strategy case.

Reports are a fixed-layout text table plus a machine-readable key-value
file, deterministic for a fixed config (no timestamps).
"""

from __future__ import annotations

import enum
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .container import write_file
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
            for key, target in self.type_map.items():
                if target.split() != [target]:
                    raise ValueError(
                        f"type map: {key} = {target!r}: the target type must "
                        "be non-empty, with no whitespace"
                    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    grid: dict[CaseVariant, Metrics]
    model: CrfModel
    report_text: str
    report_kv: str


class _Data(NamedTuple):
    """An experiment's corpora and how its reports describe their source."""

    train: Corpus
    test: Corpus
    header_lines: list[str]  # the experiment report's header
    kv_lines: list[str]  # its kv file's `data.*` lines
    grid_line: str  # the grid report's data line


def _load_corpora(cfg: ExperimentConfig) -> _Data:
    """Generate or read the config's data source: the only code that tells
    a synthetic source from a pair of files."""
    synth = cfg.synth
    if synth is not None:
        train_corpus, test_corpus = generate(synth)
        line = (f"data: synthetic (seed={synth.seed}, train="
                f"{synth.train_sentences}, test={synth.test_sentences}, "
                f"noise_rate={synth.noise_rate})")
        return _Data(
            train_corpus, test_corpus,
            [line, *vocabulary_overlap_lines(train_corpus, test_corpus)],
            [f"data.synth.seed={synth.seed}",
             f"data.synth.noise_rate={synth.noise_rate!r}"],
            line,
        )
    return _Data(
        read_conll_file(cfg.train_path), read_conll_file(cfg.test_path),
        [f"data: train={cfg.train_path} test={cfg.test_path}"],
        [f"data.train={cfg.train_path}", f"data.test={cfg.test_path}"],
        f"data: test={cfg.test_path}",
    )


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


#: What a report path gets appended for its two files.
_REPORT_SUFFIXES = (".txt", ".kv")


class PathCollisionError(ValueError):
    """Two files a run writes, or one it writes and one it reads, are one."""


def check_output_paths(outputs: Sequence[tuple[str, str, str | None]],
                       reads: Sequence[tuple[str, str | None]] = ()) -> None:
    """Fail, before any work, unless each output (name, what, path) can be
    written, and no two outputs, nor an output and a read (name, path),
    resolve to one file (PathCollisionError).  None paths are skipped, and
    a "report" path stands for its `.txt` and `.kv` files."""
    files = []
    for name, what, path in outputs:
        if path is None:
            continue
        if not path:
            raise ValueError(f"{what} path is empty")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise FileNotFoundError(
                f"{what} path {path!r}: directory {directory!r} does not exist"
            )
        for suffix in _REPORT_SUFFIXES if what == "report" else ("",):
            if os.path.isdir(path + suffix):
                raise IsADirectoryError(
                    f"{what} path {path + suffix!r} is a directory")
            files.append((name, path + suffix))
    written: dict[str, str] = {}  # resolved file -> name of its output
    for i, (name, path) in enumerate(files + [(n, p) for n, p in reads if p]):
        key = os.path.realpath(path)
        if key in written:
            raise PathCollisionError(
                f"{written[key]} and {name} name the same file")
        if i < len(files):  # two reads may name one file
            written[key] = name


def _write_report(path: str | None, text: str, kv: str) -> None:
    """Unless `path` is None, write `text` and `kv` to its two files."""
    if path is not None:
        for suffix, content in zip(_REPORT_SUFFIXES, (text, kv)):
            write_file(path + suffix, content.encode("utf-8"))


def _run_strategy(cfg: ExperimentConfig, data: _Data,
                  models: dict[tuple, CrfModel]) -> ExperimentResult:
    """Score one strategy on `data` (from `_load_corpora`) and write the
    files its config names.  The model comes from `models`, keyed by what
    determines its weights, and is trained and added there if missing."""
    train_cfg = cfg.train_config
    # TRUECASING trains as BASELINE: only its test input differs.
    recipe = Strategy.BASELINE if cfg.strategy is Strategy.TRUECASING else cfg.strategy
    key = (recipe, train_cfg)
    if key not in models:
        models[key] = train(*training_view(data.train, recipe), train_cfg)
    model = models[key]
    template_set = model.template_set
    effective_sentences = model.metadata["training_sentences"]
    settings = asdict(train_cfg)

    truecaser = None
    if cfg.strategy is Strategy.TRUECASING:
        truecaser = train_truecaser(data.train)
    grid, dropped = variant_grid(
        model, data.test, truecaser=truecaser, type_map=cfg.type_map
    )

    header = [
        "casener experiment report",
        "=========================",
        f"strategy: {cfg.strategy.value}",
        *data.header_lines,
        f"seed: {cfg.seed}",
        "  ".join(f"{name}: {value}" for name, value in settings.items()),
        f"feature templates: {template_set.value}",
        f"training sentences: {len(data.train)}"
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
        *(f"{name}={value!r}" for name, value in settings.items()),
        f"template_set={template_set.value}",
        f"train.sentences={len(data.train)}",
        f"train.effective_sentences={effective_sentences}",
        f"model.features={model.feature_map.num_features}",
        f"model.tags={model.feature_map.num_tags}",
        f"predictions.dropped_spans={dropped}",
        *data.kv_lines,
    ]
    for variant in CaseVariant:
        kv_lines.extend(
            metrics_lines(grid[variant], prefix=f"variant.{variant.value}.")
        )
    report_kv = "\n".join(kv_lines) + "\n"

    if cfg.model_path is not None:
        save_file(model, cfg.model_path)
    _write_report(cfg.report_path, report_text, report_kv)

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
    once, so TRUECASING scores the model BASELINE trained.  Returns the
    individual results plus the combined report text.
    """
    if not configs:
        raise ValueError("at least one experiment config is required")
    sources = {(cfg.synth, cfg.train_path, cfg.test_path) for cfg in configs}
    if len(sources) > 1:
        raise ValueError(
            "all grid experiments must share the same train and test data"
        )
    check_output_paths([("report_path", "report", report_path)] + [
        (f"configs[{i}].{field}", field.removesuffix("_path"), getattr(cfg, field))
        for i, cfg in enumerate(configs) for field in ("report_path", "model_path")
    ], [("train_path", configs[0].train_path), ("test_path", configs[0].test_path)])
    data = _load_corpora(configs[0])
    if len(data.train) == 0:
        raise ValueError("training corpus is empty")

    models: dict[tuple, CrfModel] = {}
    results = [_run_strategy(cfg, data, models) for cfg in configs]
    table = _format_f1_table(
        [(r.config.strategy.value, r.grid) for r in results]
    )
    combined = ("casener strategy grid\n=====================\n"
                f"{data.grid_line}\n\nF1 (%) by test variant\n{table}\n")

    combined_kv = "".join(
        f"{result.config.strategy.value}.{line}\n"
        for result in results
        for line in result.report_kv.strip().split("\n")
    )
    _write_report(report_path, combined, combined_kv)
    return results, combined


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train per the strategy, score all variants, and write report files."""
    [result], _ = run_grid([cfg])
    return result


def read_config_file(path: str) -> dict[str, str]:
    """Parse a plain key=value config file ('#' starts a comment line).

    A key given twice is an error."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key = key.strip()
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: repeated key {key!r} "
                    f"(first set on line {first_line[key]})"
                )
            first_line[key] = lineno
            out[key] = value.strip()
    return out
