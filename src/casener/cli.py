"""Command-line interface.

Subcommands: train, tag, eval, augment, truecase, synth, experiment, grid.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Experiment settings come from an optional key=value config file; flags
override file values, and a key the command does not read, or a value that
fails its flag's cast or lies outside its choices, is a data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import harness
from .corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusError,
    Sentence,
    TagSequence,
    parse_conll,
    read_conll_file,
    write_conll,
    write_conll_file,
)
from .crf import (
    ModelFormatError,
    TrainConfig,
    TrainingError,
    load_file,
    save_file,
    train,
)
from .evaluation import evaluate, metrics_lines, tag_corpus
from .harness import ExperimentConfig, Strategy, read_config_file
from .synth import default_config, generate, vocabulary_overlap_lines
from .transforms import augment
from .truecase import (
    Truecaser,
    TruecaserFormatError,
    train_truecaser,
    truecase,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


_SEED_HELP = "run label printed in the reports; training does not read it"

#: Training settings: (flag, add_argument keywords).
_TRAIN_FLAGS = (
    ("--l2-sigma", {"type": float}),
    ("--max-epochs", {"type": int}),
    ("--tolerance", {"type": float}),
)
#: Settings `experiment` and `grid` share.  Every flag of those two commands
#: but --config is also a config-file key: the flag without its dashes.
_SHARED_FLAGS = (
    ("--train", {"help": "training CoNLL file"}),
    ("--test", {"help": "test CoNLL file"}),
    ("--data", {"choices": ["files", "synth"]}),
    ("--synth-seed", {"type": int}),
    ("--synth-train-sentences", {"type": int}),
    ("--synth-test-sentences", {"type": int}),
    ("--synth-noise-rate", {"type": float}),
    ("--report", {"help": "report base path (.txt/.kv appended)"}),
    ("--type-map", {"help": "key=value file mapping predicted entity types "
                            "onto the gold inventory"}),
    *_TRAIN_FLAGS,
    ("--seed", {"type": int, "help": _SEED_HELP}),
)
_EXPERIMENT_FLAGS = (
    ("--strategy", {"choices": [s.value for s in Strategy]}),
    ("--model", {"help": "save the trained model here"}),
    *_SHARED_FLAGS,
)
_GRID_FLAGS = (
    ("--strategies", {"help": "comma-separated list, each strategy at most "
                              "once (default: all four)"}),
    *_SHARED_FLAGS,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="casener", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p: argparse.ArgumentParser, flags) -> None:
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("train", help="train a model under a strategy")
    p.add_argument("--train", required=True, help="training CoNLL file")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.BASELINE.value,
    )
    p.add_argument("--model", required=True, help="output model file")
    add_flags(p, _TRAIN_FLAGS)

    p = sub.add_parser("tag", help="decode a file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CoNLL file (existing tags are ignored) or one token "
                        "per line with blank-line sentence breaks")
    p.add_argument("--output", help="output CoNLL file (default: stdout)")
    p.add_argument("--truecaser", help="apply this truecaser before decoding")

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)

    p = sub.add_parser("augment", help="write corpus + lower + upper copies")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("truecase", help="fit or apply a truecasing model")
    p.add_argument("--model", required=True)
    p.add_argument("--fit", help="fit the model on this corpus")
    p.add_argument("--input", help="apply the model to this corpus")
    p.add_argument("--output", help="output file for --input (default: stdout)")

    p = sub.add_parser("synth", help="generate the synthetic corpora")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-sentences", type=int, default=2000)
    p.add_argument("--test-sentences", type=int, default=500)
    p.add_argument("--noise-rate", type=float, default=0.05)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)

    for name, help_text, flags in (
        ("experiment", "run one strategy on one dataset", _EXPERIMENT_FLAGS),
        ("grid", "run several strategies on shared data", _GRID_FLAGS),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        add_flags(p, flags)

    return parser


def _read_tokens_file(path: str) -> Corpus:
    """Read tagging input: CoNLL columns or bare one-token-per-line text."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    multi_column = any(
        len(line.split()) > 1
        for line in text.split("\n")
        if line.strip() and line.split()[0] != "-DOCSTART-"
    )
    if multi_column:
        return parse_conll(text)
    padded = []
    for line in text.split("\n"):
        stripped = line.strip()
        padded.append(f"{stripped} O" if stripped else "")
    return parse_conll("\n".join(padded))


def _settings(args: argparse.Namespace, flags) -> dict[str, object]:
    """Each setting of `flags` by its dest: the flag value if given, else
    the config-file value cast like the flag, else None.  A config-file key
    that names none of the flags, or a value that fails its flag's cast or
    lies outside its choices, is a data error."""
    file_cfg = read_config_file(args.config) if args.config else {}
    keys = {flag.removeprefix("--"): kwargs for flag, kwargs in flags}
    unknown = sorted(set(file_cfg) - set(keys))
    if unknown:
        raise ValueError(
            f"{args.config}: unknown config key(s): {', '.join(unknown)}"
        )
    settings = {}
    for key, kwargs in keys.items():
        dest = key.replace("-", "_")
        settings[dest] = getattr(args, dest)
        if settings[dest] is None and key in file_cfg:
            try:
                value = kwargs.get("type", str)(file_cfg[key])
            except ValueError as exc:
                raise ValueError(
                    f"{args.config}: {key} = {file_cfg[key]!r}: {exc}"
                ) from None
            settings[dest] = value
            if value not in kwargs.get("choices", [value]):
                raise ValueError(f"{args.config}: {key} = {value!r} is not "
                                 f"one of {', '.join(kwargs['choices'])}")
    return settings


def _train_config(settings: dict[str, object]) -> TrainConfig:
    """TrainConfig from the settings named like its fields that are given."""
    return TrainConfig(**{
        f.name: settings[f.name] for f in fields(TrainConfig)
        if settings[f.name] is not None
    })


def _experiment_config(settings: dict[str, object],
                       strategy: Strategy) -> ExperimentConfig:
    data = settings["data"]
    train_path, test_path = settings["train"], settings["test"]
    if data is None:
        data = "files" if train_path else "synth"
    if data == "synth":
        synth_cfg = default_config(**{
            key.removeprefix("synth_"): value for key, value in settings.items()
            if key.startswith("synth_") and value is not None
        })
        train_path = test_path = None
    else:
        synth_cfg = None
        if not train_path or not test_path:
            raise UsageError("file data source needs --train and --test")
    type_map_path = settings["type_map"]
    return ExperimentConfig(
        strategy=strategy,
        train_path=train_path,
        test_path=test_path,
        synth=synth_cfg,
        train_config=_train_config(settings),
        seed=settings["seed"] or 0,
        report_path=settings["report"],
        model_path=settings.get("model"),
        type_map=read_config_file(type_map_path) if type_map_path else None,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = read_conll_file(args.train)
    strategy = Strategy(args.strategy)
    train_view, template_set = harness.training_view(corpus, strategy)
    model = train(train_view, template_set, _train_config(vars(args)))
    save_file(model, args.model)
    if not model.metadata["converged"]:
        print(
            f"warning: L-BFGS did not converge (stopped after "
            f"{model.metadata['iterations']} iterations)",
            file=sys.stderr,
        )
    print(
        f"trained {strategy.value} model on {len(train_view)} sentence(s); "
        f"{model.feature_map.num_features} features -> {args.model}"
    )
    return EXIT_OK


def _load_truecaser(path: str) -> Truecaser:
    with open(path, "rb") as handle:
        return Truecaser.from_bytes(handle.read())


def _write_tagged(sentences: list[Sentence], tags: list[TagSequence],
                  path: str | None) -> None:
    """Write sentences with their tags as CoNLL to `path`, else to stdout."""
    output = write_conll(Corpus(tuple(map(AnnotatedSentence, sentences, tags))))
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)


def _cmd_tag(args: argparse.Namespace) -> int:
    model = load_file(args.model)
    corpus = _read_tokens_file(args.input)
    truecaser = _load_truecaser(args.truecaser) if args.truecaser else None
    predictions = tag_corpus(model, corpus, truecaser=truecaser)
    _write_tagged([ann.sentence for ann in corpus], predictions, args.output)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    gold = read_conll_file(args.gold)
    pred = read_conll_file(args.pred)
    metrics = evaluate(
        [ann.gold for ann in pred], [ann.gold for ann in gold]
    )
    for line in metrics_lines(metrics):
        print(line)
    return EXIT_OK


def _cmd_augment(args: argparse.Namespace) -> int:
    corpus = read_conll_file(args.input)
    augmented = augment(corpus)
    write_conll_file(augmented, args.output)
    print(f"{len(corpus)} sentence(s) -> {len(augmented)} (3x) -> {args.output}")
    return EXIT_OK


def _cmd_truecase(args: argparse.Namespace) -> int:
    if args.fit is None and args.input is None:
        raise UsageError("truecase needs --fit and/or --input")
    if args.fit is not None:
        corpus = read_conll_file(args.fit)
        truecaser = train_truecaser(corpus)
        with open(args.model, "wb") as handle:
            handle.write(truecaser.to_bytes())
        print(f"fitted truecaser on {len(corpus)} sentence(s) -> {args.model}")
    if args.input is not None:
        truecaser = _load_truecaser(args.model)
        corpus = read_conll_file(args.input)
        _write_tagged(
            [truecase(truecaser, ann.sentence) for ann in corpus],
            [ann.gold for ann in corpus],
            args.output,
        )
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = default_config(
        seed=args.seed,
        train_sentences=args.train_sentences,
        test_sentences=args.test_sentences,
        noise_rate=args.noise_rate,
    )
    train_corpus, test_corpus = generate(cfg)
    write_conll_file(train_corpus, args.out_train)
    write_conll_file(test_corpus, args.out_test)
    print(f"train: {len(train_corpus)} sentence(s) -> {args.out_train}")
    print(f"test:  {len(test_corpus)} sentence(s) -> {args.out_test}")
    for line in vocabulary_overlap_lines(train_corpus, test_corpus):
        print(line)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    settings = _settings(args, _EXPERIMENT_FLAGS)
    if settings["strategy"] is None:
        raise UsageError("a strategy is required (flag or config file)")
    cfg = _experiment_config(settings, Strategy(settings["strategy"]))
    result = harness.run_experiment(cfg)
    sys.stdout.write(result.report_text)
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    settings = _settings(args, _GRID_FLAGS)
    names = settings["strategies"]
    choices = [s.value for s in Strategy]
    listed = choices if names is None else [
        name.strip() for name in names.split(",") if name.strip()
    ]
    for i, name in enumerate(listed):
        if name not in choices or name in listed[:i]:
            problem = (
                f"{'repeated' if name in choices else 'invalid'} choice: "
                f"{name!r} (choose from {', '.join(map(repr, choices))}, "
                "each at most once)"
            )
            if args.strategies is not None:
                raise UsageError(f"argument --strategies: {problem}")
            raise ValueError(f"{args.config}: strategies = {names!r}: {problem}")
    if not listed:
        raise UsageError("no strategies selected")
    strategies = [Strategy(name) for name in listed]
    cfg = _experiment_config(settings, strategies[0])
    configs = [replace(cfg, strategy=s, report_path=None) for s in strategies]
    _, combined = harness.run_grid(configs, report_path=cfg.report_path)
    sys.stdout.write(combined)
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "augment": _cmd_augment,
    "truecase": _cmd_truecase,
    "synth": _cmd_synth,
    "experiment": _cmd_experiment,
    "grid": _cmd_grid,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, ModelFormatError, TruecaserFormatError,
            FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
