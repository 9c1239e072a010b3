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

from . import container, harness
from .corpus import (
    AnnotatedSentence,
    Corpus,
    parse_conll,
    read_conll_file,
    write_conll,
    write_conll_file,
)
from .crf import TrainConfig, TrainingError, load_file, save_file, train
from .evaluation import evaluate, metrics_lines, tag_corpus
from .harness import ExperimentConfig, Strategy, read_config_file
from .synth import default_config, generate, vocabulary_overlap_lines
from .transforms import augment
from .truecase import Truecaser, train_truecaser, truecase

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
#: `synth` settings: `default_config`'s keywords, which a flag not given
#: leaves at their defaults.
_SYNTH_FLAGS = (
    ("--seed", {"type": int}),
    ("--train-sentences", {"type": int}),
    ("--test-sentences", {"type": int}),
    ("--noise-rate", {"type": float}),
)
#: Settings `experiment` and `grid` share.  Every flag of those two commands
#: but --config is also a config-file key: the flag without its dashes.
_SHARED_FLAGS = (
    ("--train", {"help": "training CoNLL file"}),
    ("--test", {"help": "test CoNLL file"}),
    ("--data", {"choices": ["files", "synth"]}),
    *((f"--synth-{flag[2:]}", kwargs) for flag, kwargs in _SYNTH_FLAGS),
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


def _strategy_list(text: str) -> list[Strategy]:
    """`--strategies`' cast: a comma-separated list of strategy names, each
    at most once, with blanks around the names ignored."""
    choices = [s.value for s in Strategy]
    listed = [name.strip() for name in text.split(",") if name.strip()]
    for i, name in enumerate(listed):
        if name not in choices or name in listed[:i]:
            raise argparse.ArgumentTypeError(
                f"{'repeated' if name in choices else 'invalid'} choice: "
                f"{name!r} (choose from {', '.join(map(repr, choices))}, "
                "each at most once)"
            )
    if not listed:
        raise argparse.ArgumentTypeError("no strategies selected")
    return [Strategy(name) for name in listed]


_GRID_FLAGS = (
    ("--strategies", {"type": _strategy_list,
                      "help": "comma-separated list, each strategy at most "
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
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.BASELINE.value)
    p.add_argument("--model", required=True, help="output model file")
    add_flags(p, _TRAIN_FLAGS)

    p = sub.add_parser("tag", help="decode a file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="one token per line with blank-line sentence breaks; "
                        "only the first column is read, so a CoNLL file's "
                        "other columns, tags included, are ignored")
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
    add_flags(p, _SYNTH_FLAGS)
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
    """Read tagging input: the first column of each line is a token, any
    other column is ignored, and a blank line ends a sentence."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        lines = handle.read().split("\n")
    return parse_conll("\n".join(
        f"{line.split()[0]} O" if line.strip() else "" for line in lines
    ))


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
            except (ValueError, argparse.ArgumentTypeError) as exc:
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


def _experiment_config(settings: dict[str, object], strategy: Strategy,
                       config_path: str | None) -> ExperimentConfig:
    """The run `settings` describe, its paths checked.  A synthetic source
    with files, or files with a synth setting, is a usage error."""
    train_path, test_path = settings["train"], settings["test"]
    files = train_path is not None or test_path is not None
    synth = {key.removeprefix("synth_"): value for key, value in settings.items()
             if key.startswith("synth_") and value is not None}
    synth_cfg = None
    if (settings["data"] or ("files" if files else "synth")) == "synth":
        if files:
            raise UsageError("synthetic data source takes no --train or --test")
        synth_cfg = default_config(**synth)
    elif synth:
        raise UsageError("file data source takes no --synth-* settings")
    elif not train_path or not test_path:
        raise UsageError("file data source needs --train and --test")
    type_map_path = settings["type_map"]
    harness.check_output_paths(
        [("--report", "report", settings["report"]),
         ("--model", "model", settings.get("model"))],
        [("--train", train_path), ("--test", test_path),
         ("--type-map", type_map_path), ("--config", config_path)],
    )
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
    harness.check_output_paths([("--model", "model", args.model)],
                               [("--train", args.train)])
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


def _write_tagged(corpus: Corpus, path: str | None) -> None:
    """Write `corpus` as CoNLL to `path` (None: stdout)."""
    if path is not None:
        write_conll_file(corpus, path)
    else:
        sys.stdout.write(write_conll(corpus))


def _cmd_tag(args: argparse.Namespace) -> int:
    harness.check_output_paths(
        [("--output", "output", args.output)],
        [("--model", args.model), ("--input", args.input),
         ("--truecaser", args.truecaser)],
    )
    model = load_file(args.model)
    corpus = _read_tokens_file(args.input)
    truecaser = _load_truecaser(args.truecaser) if args.truecaser else None
    predictions = tag_corpus(model, corpus, truecaser=truecaser)
    _write_tagged(Corpus(tuple(map(AnnotatedSentence, (
        ann.sentence for ann in corpus), predictions))), args.output)
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
    harness.check_output_paths([("--output", "output", args.output)],
                               [("--input", args.input)])
    corpus = read_conll_file(args.input)
    augmented = augment(corpus)
    write_conll_file(augmented, args.output)
    print(f"{len(corpus)} sentence(s) -> {len(augmented)} (3x) -> {args.output}")
    return EXIT_OK


def _cmd_truecase(args: argparse.Namespace) -> int:
    if args.fit is None and args.input is None:
        raise UsageError("truecase needs --fit and/or --input")
    fit = args.fit is not None
    harness.check_output_paths(
        [("--model", "model", args.model if fit else None),
         ("--output", "output", None if args.input is None else args.output)],
        [("--fit", args.fit), ("--input", args.input),
         ("--model", None if fit else args.model)],
    )
    if fit:
        corpus = read_conll_file(args.fit)
        truecaser = train_truecaser(corpus)
        container.write_file(args.model, truecaser.to_bytes())
        print(f"fitted truecaser on {len(corpus)} sentence(s) -> {args.model}")
    if args.input is not None:
        truecaser = _load_truecaser(args.model)
        corpus = read_conll_file(args.input)
        _write_tagged(Corpus(tuple(
            AnnotatedSentence(truecase(truecaser, ann.sentence), ann.gold)
            for ann in corpus)), args.output)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    harness.check_output_paths([("--out-train", "train output", args.out_train),
                                ("--out-test", "test output", args.out_test)])
    dests = [flag[2:].replace("-", "_") for flag, _ in _SYNTH_FLAGS]
    train_corpus, test_corpus = generate(default_config(**{
        dest: getattr(args, dest) for dest in dests
        if getattr(args, dest) is not None
    }))
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
    cfg = _experiment_config(settings, Strategy(settings["strategy"]),
                             args.config)
    result = harness.run_experiment(cfg)
    sys.stdout.write(result.report_text)
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    settings = _settings(args, _GRID_FLAGS)
    strategies = settings["strategies"] or list(Strategy)
    cfg = _experiment_config(settings, strategies[0], args.config)
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
    except (UsageError, harness.PathCollisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # CorpusError and the package's format errors are ValueErrors; a file
    # that cannot be read or written (missing, a full disk) is an OSError.
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def cli_main() -> None:
    sys.exit(main())
