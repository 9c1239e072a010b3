"""Experiment runner: train under a strategy, score the variant grid, report.

The four strategies differ in how training data and test input are
prepared:

* BASELINE    - train on the data as-is, case-aware templates.
* CASELESS    - lowercase all training data, case-agnostic templates;
                test input is decoded as-is (the templates read `case_key`).
* TRUECASING  - train as BASELINE; truecase test input with a truecaser
                fitted on the training corpus.
* AUGMENT     - train on the corpus plus its all-lower and all-upper
                copies (3x size), case-aware templates.

`run_grid` is the one runner, and `run_experiment` its one-strategy case.
`_report` is the one report builder: a fixed-layout text file plus a
machine-readable key-value file, deterministic for a fixed config (no
timestamps).
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
from .synth import SynthConfig, describe, generate, vocabulary_overlap_lines
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


@dataclass(frozen=True)
class ExperimentResult:
    """One strategy's scores; its report is `_report` of it alone."""

    config: ExperimentConfig
    grid: dict[CaseVariant, Metrics]
    model: CrfModel
    dropped_spans: int  # predicted spans the type map dropped to O


class _Data(NamedTuple):
    """An experiment's corpora, how the reports name their source (its
    `kind` and its settings as `describe` writes them), and how much of
    the test data was seen in training."""

    train: Corpus
    test: Corpus
    kind: str
    settings: list[str]
    overlap_lines: list[str]


def _load_corpora(cfg: ExperimentConfig) -> _Data:
    """Generate or read the config's data source: the only code that tells
    a synthetic source from a pair of files."""
    if cfg.synth is not None:
        train_corpus, test_corpus = generate(cfg.synth)
        kind, settings = "synth", describe(cfg.synth)
    else:
        train_corpus = read_conll_file(cfg.train_path)
        test_corpus = read_conll_file(cfg.test_path)
        kind = "files"
        settings = describe({"train": cfg.train_path, "test": cfg.test_path})
    return _Data(train_corpus, test_corpus, kind, settings,
                 vocabulary_overlap_lines(train_corpus, test_corpus))


def training_view(corpus: Corpus, strategy: Strategy) -> tuple[Corpus, TemplateSet]:
    if strategy is Strategy.CASELESS:
        return make_variant(corpus, CaseVariant.LOWER), TemplateSet.CASE_AGNOSTIC
    if strategy is Strategy.AUGMENT:
        return augment(corpus), TemplateSet.CASE_AWARE
    return corpus, TemplateSet.CASE_AWARE


#: What a report path gets appended for its two files.
_REPORT_SUFFIXES = (".txt", ".kv")


class PathCollisionError(ValueError):
    """Two files a run writes, or one it writes and one it reads, are one."""


def check_output_paths(outputs: Sequence[tuple[str, str, str | None]],
                       reads: Sequence[tuple[str, str | None]] = ()) -> None:
    """Fail, before any work, unless each output (name, what, path) can be
    written, and no two outputs, nor an output and a read (name, path),
    resolve to one file (PathCollisionError).  None paths are skipped, and
    a "report" path stands for its `.txt` and `.kv` files; neither it nor
    they may name a directory, as a path that ends in a separator does."""
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
        targets = ([path + suffix for suffix in _REPORT_SUFFIXES]
                   if what == "report" else [path])
        for target in dict.fromkeys([path, *targets]):
            if os.path.isdir(target):
                raise IsADirectoryError(
                    f"{what} path {target!r} is a directory")
        if os.path.basename(path) in ("", os.curdir, os.pardir):
            raise IsADirectoryError(f"{what} path {path!r} names a directory")
        files += [(name, target) for target in targets]
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


def _report(data: _Data,
            results: Sequence[ExperimentResult]) -> tuple[str, str]:
    """The text and kv files reporting `results`, all scored on `data`: the
    only code that writes a report.  Every setting and count is written
    `name=value!r` (`describe`): the source's once, on the `data:` line and
    as `data.<kind>.<name>` keys, and each strategy's on its own line and as
    `<strategy>.<name>` keys, before its scores."""
    text = [
        "casener report",
        "==============",
        " ".join(["data:", data.kind, *data.settings]),
        *data.overlap_lines,
        "",
        "F1 (%) by test variant",
        f"{'Method':<12}"
        + "".join(f"{v.value.capitalize():>10}" for v in CaseVariant),
    ]
    for result in results:
        text.append(f"{result.config.strategy.value:<12}" + "".join(
            f"{100 * result.grid[v].f1:>10.1f}" for v in CaseVariant))
    kv = [f"data.{data.kind}.{setting}" for setting in data.settings]
    for result in results:
        cfg, model = result.config, result.model
        name = cfg.strategy.value
        facts = describe({
            "seed": cfg.seed,
            **asdict(cfg.train_config),
            "template_set": model.template_set.value,
            "train.sentences": len(data.train),
            "train.effective_sentences": model.metadata["training_sentences"],
            "model.features": model.feature_map.num_features,
            "model.tags": model.feature_map.num_tags,
            "predictions.dropped_spans": result.dropped_spans,
        })
        text += ["", " ".join([f"{name}:", *facts])]
        kv += [f"{name}.{fact}" for fact in facts]
        if cfg.strategy is Strategy.TRUECASING:
            text.append(
                "truecaser: unigram majority model fitted on the training "
                "corpus (internal; not an external truecasing system)"
            )
        if cfg.type_map is not None:
            text.append("type map applied to predictions; spans with "
                        "unmapped types dropped to O")
        for variant in CaseVariant:
            m = result.grid[variant]
            text.append(
                f"{variant.value}: P={m.precision:.4f} R={m.recall:.4f} "
                f"F1={m.f1:.4f} (tp={m.true_positives} "
                f"pred={m.predicted_count} gold={m.gold_count})"
            )
            kv += metrics_lines(m, prefix=f"{name}.variant.{variant.value}.")
    return "\n".join(text) + "\n", "\n".join(kv) + "\n"


def run_grid(
    configs: Sequence[ExperimentConfig], report_path: str | None = None
) -> tuple[list[ExperimentResult], str]:
    """Run several strategies, one a config, on one data source; one report.

    The data is generated or read once, and each distinct model is trained
    once, so TRUECASING scores the model BASELINE trained.  Every config is
    scored before any file is written, so a failed run writes none.
    Returns the individual results plus the text of the report of them
    all, which is also written to `report_path`.
    """
    if not configs:
        raise ValueError("at least one experiment config is required")
    if len({cfg.strategy for cfg in configs}) < len(configs):
        raise ValueError("each config of a grid needs its own strategy")
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

    models: dict[tuple, CrfModel] = {}  # keyed by what sets the weights
    results = []
    for cfg in configs:
        # TRUECASING trains as BASELINE: only its test input differs.
        truecasing = cfg.strategy is Strategy.TRUECASING
        recipe = Strategy.BASELINE if truecasing else cfg.strategy
        key = (recipe, cfg.train_config)
        if key not in models:
            models[key] = train(*training_view(data.train, recipe),
                                cfg.train_config)
        truecaser = train_truecaser(data.train) if truecasing else None
        grid, dropped = variant_grid(models[key], data.test,
                                     truecaser=truecaser, type_map=cfg.type_map)
        results.append(ExperimentResult(cfg, grid, models[key], dropped))

    for result in results:
        cfg = result.config
        if cfg.model_path is not None:
            save_file(result.model, cfg.model_path)
        if cfg.report_path is not None:
            _write_report(cfg.report_path, *_report(data, [result]))
    text, kv = _report(data, results)
    _write_report(report_path, text, kv)
    return results, text


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train per the strategy, score all variants, and write report files."""
    [result], _ = run_grid([cfg])
    return result


def read_config_file(path: str) -> dict[str, str]:
    """Parse a plain key=value config file ('#' starts a comment line).

    A line with no '=' or no key, or a key given twice, is an error."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: repeated key {key!r} "
                    f"(first set on line {first_line[key]})"
                )
            first_line[key] = lineno
            out[key] = value.strip()
    return out
