"""Command-line interface.

Subcommands: train, tag, eval, augment, truecase, synth, experiment, grid.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Experiment settings come from an optional key=value config file; flags
override file values, and a key the command does not read is a data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusError,
    parse_conll,
    read_conll_file,
    write_conll,
    write_conll_file,
)
from .crf import (
    ModelFormatError,
    TrainConfig,
    TrainingError,
    decode,
    load_file,
    save_file,
    train,
)
from .evaluation import evaluate, metrics_lines
from .harness import ExperimentConfig, Strategy, read_config_file
from .synth import default_config, generate, vocabulary_overlap
from .transforms import augment, to_lower
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="casener", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--l2-sigma", type=float)
        p.add_argument("--max-epochs", type=int)
        p.add_argument("--tolerance", type=float)

    p = sub.add_parser("train", help="train a model under a strategy")
    p.add_argument("--train", required=True, help="training CoNLL file")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.BASELINE.value,
    )
    p.add_argument("--model", required=True, help="output model file")
    add_train_flags(p)

    p = sub.add_parser("tag", help="decode a file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CoNLL file (existing tags are ignored) or one token "
                        "per line with blank-line sentence breaks")
    p.add_argument("--output", help="output CoNLL file (default: stdout)")
    p.add_argument("--truecaser", help="apply this truecaser before decoding")
    p.add_argument("--lowercase", action="store_true",
                   help="lowercase input before decoding (caseless tagging)")

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

    p = sub.add_parser("experiment", help="run one strategy on one dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--train", help="training CoNLL file")
    p.add_argument("--test", help="test CoNLL file")
    p.add_argument("--data", choices=["files", "synth"])
    p.add_argument("--synth-seed", type=int)
    p.add_argument("--synth-train-sentences", type=int)
    p.add_argument("--synth-test-sentences", type=int)
    p.add_argument("--synth-noise-rate", type=float)
    p.add_argument("--report", help="report base path (.txt/.kv appended)")
    p.add_argument("--model", help="save the trained model here")
    p.add_argument("--type-map", help="key=value file mapping predicted "
                                      "entity types onto the gold inventory")
    add_train_flags(p)
    p.add_argument("--seed", type=int, help=_SEED_HELP)

    p = sub.add_parser("grid", help="run several strategies on shared data")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--strategies",
                   help="comma-separated list (default: all four)")
    p.add_argument("--train", help="training CoNLL file")
    p.add_argument("--test", help="test CoNLL file")
    p.add_argument("--data", choices=["files", "synth"])
    p.add_argument("--synth-seed", type=int)
    p.add_argument("--synth-train-sentences", type=int)
    p.add_argument("--synth-test-sentences", type=int)
    p.add_argument("--synth-noise-rate", type=float)
    p.add_argument("--report", help="combined report base path")
    add_train_flags(p)
    p.add_argument("--seed", type=int, help=_SEED_HELP)

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


#: Config-file keys read by both `experiment` and `grid`.
_SHARED_KEYS = frozenset({
    "data", "train", "test", "synth-seed", "synth-train-sentences",
    "synth-test-sentences", "synth-noise-rate", "report", "type-map",
    "l2-sigma", "max-epochs", "tolerance", "seed",
})
_EXPERIMENT_KEYS = _SHARED_KEYS | {"strategy", "model"}
_GRID_KEYS = _SHARED_KEYS | {"strategies"}


def _read_settings(path: str | None, known: frozenset[str]) -> dict[str, str]:
    """Config file as a dict (empty without a path); unknown keys raise."""
    if path is None:
        return {}
    file_cfg = read_config_file(path)
    unknown = sorted(set(file_cfg) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    return file_cfg


def _merged(args: argparse.Namespace, key: str, file_cfg: dict[str, str],
            default: str | None = None) -> str | None:
    """Flag value if set, else config-file value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None and flag is not False:
        return str(flag)
    if key in file_cfg:
        return file_cfg[key]
    return default


def _train_config_from(args: argparse.Namespace,
                       file_cfg: dict[str, str]) -> TrainConfig:
    cfg = TrainConfig()
    for key, attr, cast in (
        ("l2-sigma", "l2_sigma", float),
        ("max-epochs", "max_epochs", int),
        ("tolerance", "tolerance", float),
    ):
        value = _merged(args, key, file_cfg)
        if value is not None:
            cfg = replace(cfg, **{attr: cast(value)})
    return cfg


def _experiment_config(args: argparse.Namespace, strategy: Strategy,
                       file_cfg: dict[str, str]) -> ExperimentConfig:
    data = _merged(args, "data", file_cfg)
    train_path = _merged(args, "train", file_cfg)
    test_path = _merged(args, "test", file_cfg)
    if data is None:
        data = "files" if train_path else "synth"
    if data == "synth":
        synth_cfg = default_config(
            seed=int(_merged(args, "synth-seed", file_cfg, "42")),
            train_sentences=int(
                _merged(args, "synth-train-sentences", file_cfg, "2000")
            ),
            test_sentences=int(
                _merged(args, "synth-test-sentences", file_cfg, "500")
            ),
            noise_rate=float(
                _merged(args, "synth-noise-rate", file_cfg, "0.05")
            ),
        )
        train_path = test_path = None
    else:
        synth_cfg = None
        if not train_path or not test_path:
            raise UsageError("file data source needs --train and --test")

    type_map = None
    type_map_path = _merged(args, "type-map", file_cfg)
    if type_map_path:
        type_map = read_config_file(type_map_path)

    return ExperimentConfig(
        strategy=strategy,
        train_path=train_path,
        test_path=test_path,
        synth=synth_cfg,
        train_config=_train_config_from(args, file_cfg),
        seed=int(_merged(args, "seed", file_cfg, "0")),
        report_path=_merged(args, "report", file_cfg),
        model_path=_merged(args, "model", file_cfg),
        type_map=type_map,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = read_conll_file(args.train)
    strategy = Strategy(args.strategy)
    train_view, template_set = harness.training_view(corpus, strategy)
    model = train(train_view, template_set, _train_config_from(args, {}))
    save_file(model, args.model)
    print(
        f"trained {strategy.value} model on {len(train_view)} sentence(s); "
        f"{model.feature_map.num_features} features -> {args.model}"
    )
    return EXIT_OK


def _cmd_tag(args: argparse.Namespace) -> int:
    model = load_file(args.model)
    corpus = _read_tokens_file(args.input)
    truecaser = None
    if args.truecaser and args.lowercase:
        raise UsageError("--truecaser and --lowercase are mutually exclusive")
    if args.truecaser:
        with open(args.truecaser, "rb") as handle:
            truecaser = Truecaser.from_bytes(handle.read())
    tagged = []
    for ann in corpus:
        sentence = ann.sentence
        decode_input = sentence
        if args.lowercase:
            decode_input = to_lower(sentence)
        elif truecaser is not None:
            decode_input = truecase(truecaser, sentence)
        tagged.append(AnnotatedSentence(sentence, decode(model, decode_input)))
    output = write_conll(Corpus(tuple(tagged)))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
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
        with open(args.model, "rb") as handle:
            truecaser = Truecaser.from_bytes(handle.read())
        corpus = read_conll_file(args.input)
        recased = Corpus(
            tuple(
                AnnotatedSentence(truecase(truecaser, ann.sentence), ann.gold)
                for ann in corpus
            )
        )
        output = write_conll(recased)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as f:
                f.write(output)
        else:
            sys.stdout.write(output)
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
    overlap = vocabulary_overlap(train_corpus, test_corpus)
    print(f"train: {len(train_corpus)} sentence(s) -> {args.out_train}")
    print(f"test:  {len(test_corpus)} sentence(s) -> {args.out_test}")
    print(
        f"test token types seen in training: "
        f"{overlap['test_token_types_seen']:.3f}"
    )
    print(
        f"test entity types seen in training: "
        f"{overlap['test_entity_types_seen']:.3f}"
    )
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    file_cfg = _read_settings(args.config, _EXPERIMENT_KEYS)
    strategy_name = _merged(args, "strategy", file_cfg)
    if strategy_name is None:
        raise UsageError("a strategy is required (flag or config file)")
    cfg = _experiment_config(args, Strategy(strategy_name), file_cfg)
    result = harness.run_experiment(cfg)
    sys.stdout.write(result.report_text)
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    file_cfg = _read_settings(args.config, _GRID_KEYS)
    names = _merged(args, "strategies", file_cfg,
                    ",".join(s.value for s in Strategy))
    strategies = [Strategy(name.strip()) for name in names.split(",") if name.strip()]
    if not strategies:
        raise UsageError("no strategies selected")
    report = _merged(args, "report", file_cfg)
    configs = []
    for strategy in strategies:
        cfg = _experiment_config(args, strategy, file_cfg)
        configs.append(replace(cfg, report_path=None, model_path=None))
    _, combined = harness.run_grid(configs, report_path=report)
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
