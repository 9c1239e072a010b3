"""Command-line interface.

Subcommands: train, tag, eval, augment, truecase, synth, grid.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Run settings come from an optional key=value config file; flags
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
    case_key,
    parse_conll,
    read_conll_file,
    write_conll,
    write_conll_file,
)
from .crf import TrainConfig, TrainingError, load_file, save_file, train
from .evaluation import evaluate, metrics_lines, tag_corpus
from .harness import ExperimentConfig, Strategy, read_config_file
from .synth import SynthConfig, generate, vocabulary_overlap_lines
from .transforms import augment
from .truecase import Truecaser, train_truecaser, truecase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


def _config_flags(config: type) -> tuple:
    """(flag, add_argument keywords) per field of the dataclass `config`:
    `--` and the name with `-` for `_`, cast to the type of the default,
    which a flag not given leaves."""
    return tuple((f"--{f.name.replace('_', '-')}", {"type": type(f.default)})
                 for f in fields(config))


def _given(config: type, settings: dict, prefix: str = "") -> dict:
    """`config`'s fields that `settings` sets (not None), at prefix + name."""
    return {f.name: settings[prefix + f.name] for f in fields(config)
            if settings[prefix + f.name] is not None}


_TRAIN_FLAGS = _config_flags(TrainConfig)
_SYNTH_FLAGS = _config_flags(SynthConfig)


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


#: `grid`'s settings.  Every flag but --config is also a config-file key:
#: the flag without its dashes.
_GRID_FLAGS = (
    ("--strategies", {"type": _strategy_list,
                      "help": "comma-separated list, each strategy at most "
                              "once (default: all four)"}),
    ("--model", {"help": "save the trained model here (one strategy only)"}),
    ("--train", {"help": "training CoNLL file"}),
    ("--test", {"help": "test CoNLL file"}),
    ("--data", {"choices": ["files", "synth"]}),
    *((f"--synth-{flag[2:]}", kwargs) for flag, kwargs in _SYNTH_FLAGS),
    ("--report", {"help": "report base path (.txt/.kv appended)"}),
    ("--type-map", {"help": "key=value file mapping predicted entity types "
                            "onto the gold inventory"}),
    *_TRAIN_FLAGS,
    ("--seed", {"type": int, "help": "run label printed in the reports; "
                                     "training does not read it"}),
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
    job = p.add_mutually_exclusive_group(required=True)
    job.add_argument("--fit", help="fit a truecaser on this corpus, saved as --model")
    job.add_argument("--input", help="truecase this corpus with the --model truecaser")
    p.add_argument("--output", help="output file for --input (default: stdout)")

    p = sub.add_parser("synth", help="generate the synthetic corpora")
    add_flags(p, _SYNTH_FLAGS)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)

    p = sub.add_parser("grid", help="run strategies on one data source")
    p.add_argument("--config", help="key=value config file")
    add_flags(p, _GRID_FLAGS)

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


def _run_config(settings: dict[str, object], strategy: Strategy,
                config_path: str | None) -> ExperimentConfig:
    """The run `settings` describe, its paths checked.  A synthetic source
    with files, or files with a synth setting, is a usage error."""
    train_path, test_path = settings["train"], settings["test"]
    files = train_path is not None or test_path is not None
    synth = _given(SynthConfig, settings, "synth_")
    synth_cfg = None
    if (settings["data"] or ("files" if files else "synth")) == "synth":
        if files:
            raise UsageError("synthetic data source takes no --train or --test")
        synth_cfg = SynthConfig(**synth)
    elif synth:
        raise UsageError("file data source takes no --synth-* settings")
    elif not train_path or not test_path:
        raise UsageError("file data source needs --train and --test")
    type_map_path = settings["type_map"]
    harness.check_output_paths(
        [("--report", "report", settings["report"]),
         ("--model", "model", settings["model"])],
        [("--train", train_path), ("--test", test_path),
         ("--type-map", type_map_path), ("--config", config_path)],
    )
    return ExperimentConfig(
        strategy=strategy,
        train_path=train_path,
        test_path=test_path,
        synth=synth_cfg,
        train_config=TrainConfig(**_given(TrainConfig, settings)),
        seed=settings["seed"] or 0,
        model_path=settings["model"],
        type_map=read_config_file(type_map_path) if type_map_path else None,
    )


def _warn_unconverged(model, label: str = "") -> None:
    """Say on stderr, after `label`, when L-BFGS stopped before meeting its
    tolerance; the model is still written."""
    if not model.metadata["converged"]:
        print(f"warning: {label}L-BFGS did not converge (stopped after "
              f"{model.metadata['iterations']} iterations)", file=sys.stderr)


def _cmd_train(args: argparse.Namespace) -> int:
    harness.check_output_paths([("--model", "model", args.model)],
                               [("--train", args.train)])
    corpus = read_conll_file(args.train)
    strategy = Strategy(args.strategy)
    train_view, template_set = harness.training_view(corpus, strategy)
    model = train(train_view, template_set,
                  TrainConfig(**_given(TrainConfig, vars(args))))
    save_file(model, args.model)
    _warn_unconverged(model)
    print(
        f"trained {strategy.value} model on {len(train_view)} sentence(s); "
        f"{model.feature_map.num_features} features -> {args.model}"
    )
    return EXIT_OK


def _load_truecaser(path: str) -> Truecaser:
    with open(path, "rb") as handle:
        return Truecaser.from_bytes(handle.read())


def _write_tagged(sentences, tags, path: str | None) -> None:
    """Write each sentence with its tags as CoNLL to `path` (None: stdout)."""
    corpus = Corpus(tuple(map(AnnotatedSentence, sentences, tags)))
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
    _write_tagged((ann.sentence for ann in corpus), predictions, args.output)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    """Score `--pred` against `--gold`.  The two must hold the same text up
    to case (`case_key`), so predictions for a lowercased, uppercased or
    truecased copy score; any other token is a data error."""
    gold = read_conll_file(args.gold)
    pred = read_conll_file(args.pred)
    metrics = evaluate(
        [ann.gold for ann in pred], [ann.gold for ann in gold]
    )
    for i, (p, g) in enumerate(zip(pred, gold)):
        for j, (p_tok, g_tok) in enumerate(zip(p.sentence, g.sentence)):
            if case_key(p_tok) != case_key(g_tok):
                raise ValueError(f"sentence {i}, token {j}: predicted text "
                                 f"{p_tok!r} is not gold text {g_tok!r}")
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
    if args.fit is not None:
        if args.output is not None:
            raise UsageError("argument --output: not allowed with argument --fit")
        harness.check_output_paths([("--model", "model", args.model)],
                                   [("--fit", args.fit)])
        corpus = read_conll_file(args.fit)
        container.write_file(args.model, train_truecaser(corpus).to_bytes())
        print(f"fitted truecaser on {len(corpus)} sentence(s) -> {args.model}")
        return EXIT_OK
    harness.check_output_paths([("--output", "output", args.output)],
                               [("--input", args.input), ("--model", args.model)])
    truecaser = _load_truecaser(args.model)
    corpus = read_conll_file(args.input)
    _write_tagged((truecase(truecaser, ann.sentence) for ann in corpus),
                  (ann.gold for ann in corpus), args.output)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    harness.check_output_paths([("--out-train", "train output", args.out_train),
                                ("--out-test", "test output", args.out_test)])
    train_corpus, test_corpus = generate(
        SynthConfig(**_given(SynthConfig, vars(args))))
    write_conll_file(train_corpus, args.out_train)
    write_conll_file(test_corpus, args.out_test)
    print(f"train: {len(train_corpus)} sentence(s) -> {args.out_train}")
    print(f"test:  {len(test_corpus)} sentence(s) -> {args.out_test}")
    for line in vocabulary_overlap_lines(train_corpus, test_corpus):
        print(line)
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    """Run the selected strategies (default: all four) on one data source;
    the report goes to stdout and to --report."""
    settings = _settings(args, _GRID_FLAGS)
    strategies = settings["strategies"] or list(Strategy)
    if settings["model"] is not None and len(strategies) > 1:
        raise UsageError("--model saves one strategy's model; "
                         f"{len(strategies)} strategies are selected")
    cfg = _run_config(settings, strategies[0], args.config)
    configs = [replace(cfg, strategy=s) for s in strategies]
    results, text = harness.run_grid(configs, report_path=settings["report"])
    for result in results:
        _warn_unconverged(result.model, f"{result.config.strategy.value}: ")
    sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "augment": _cmd_augment,
    "truecase": _cmd_truecase,
    "synth": _cmd_synth,
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
    # that cannot be read or written (missing, a full disk) is an OSError;
    # input too large to hold is a MemoryError, often with no message.
    except (ValueError, OSError, MemoryError) as exc:
        print(f"data error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


def cli_main() -> None:
    sys.exit(main())
