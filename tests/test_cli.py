import argparse
import contextlib
import gzip
import io
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casener import cli
from casener.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from casener.corpus import parse_conll, read_conll_file, write_conll_file
from casener.crf import load_file
from casener.evaluation import tag_corpus
from casener.synth import default_config, generate
from casener.transforms import CaseVariant, make_variant
from casener.truecase import train_truecaser
from conftest import conll_texts, old_version_blob


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    train_c, test_c = generate(
        default_config(seed=7, train_sentences=150, test_sentences=30)
    )
    train = str(root / "train.conll")
    test = str(root / "test.conll")
    write_conll_file(train_c, train)
    write_conll_file(test_c, test)
    return root, train, test


def test_usage_errors_exit_1():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train", "--train", "x"]) == EXIT_USAGE  # --model missing
    # --seed labels experiment and grid runs; training has no seed
    assert main(["train", "--train", "x", "--model", "m",
                 "--seed", "1"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_missing_file_exits_2(tmp_path):
    model = str(tmp_path / "m.crf")
    assert main(["train", "--train", str(tmp_path / "nope.conll"),
                 "--model", model]) == EXIT_DATA


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--l2-sigma", "--tolerance"])
def test_non_finite_training_setting_exits_2(data_files, tmp_path, capsys,
                                             flag, value):
    root, train, test = data_files
    model = tmp_path / "m.crf"
    assert main(["train", "--train", train, "--model", str(model),
                 flag, value]) == EXIT_DATA
    assert "must be positive and finite" in capsys.readouterr().err
    assert not model.exists()


def test_bad_corpus_exits_2(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("onlyonetoken\n")
    assert main(["train", "--train", str(bad),
                 "--model", str(tmp_path / "m.crf")]) == EXIT_DATA


@settings(deadline=None)
@given(conll_texts)
def test_train_on_fuzzed_file_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "train.conll")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--train", path, "--model",
                         os.path.join(root, "m.crf"), "--max-epochs", "3"])
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERICAL), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


def test_train_tag_eval_roundtrip(data_files, tmp_path, capsys):
    root, train, test = data_files
    model = str(tmp_path / "model.crf")
    assert main(["train", "--train", train, "--model", model,
                 "--max-epochs", "40"]) == EXIT_OK
    assert os.path.exists(model)

    tagged = str(tmp_path / "tagged.conll")
    assert main(["tag", "--model", model, "--input", test,
                 "--output", tagged]) == EXIT_OK
    pred = read_conll_file(tagged)
    gold = read_conll_file(test)
    assert len(pred) == len(gold)
    assert all(
        p.sentence == g.sentence for p, g in zip(pred, gold)
    )

    capsys.readouterr()
    assert main(["eval", "--gold", test, "--pred", tagged]) == EXIT_OK
    out = capsys.readouterr().out
    assert "f1=" in out and "tp=" in out


def test_train_warns_on_stderr_when_lbfgs_does_not_converge(
    data_files, tmp_path, capsys
):
    root, train, _ = data_files
    capped = str(tmp_path / "capped.crf")
    capsys.readouterr()
    assert main(["train", "--train", train, "--model", capped,
                 "--max-epochs", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "warning: L-BFGS did not converge (stopped after 1 iterations)\n"
    num_features = load_file(capped).feature_map.num_features
    assert out == (f"trained baseline model on 150 sentence(s); "
                   f"{num_features} features -> {capped}\n")

    converged = str(tmp_path / "converged.crf")
    assert main(["train", "--train", train, "--model", converged]) == EXIT_OK
    out, err = capsys.readouterr()
    assert load_file(converged).metadata["converged"] is True
    assert err == "" and out.startswith("trained baseline model")


def test_tag_reads_bare_token_files(data_files, tmp_path, capsys):
    root, train, test = data_files
    model = str(tmp_path / "model.crf")
    assert main(["train", "--train", train, "--model", model,
                 "--max-epochs", "30"]) == EXIT_OK
    bare = tmp_path / "bare.txt"
    bare.write_text("The\nsummit\nwill\nbe\nheld\nin\nOslo\n\n")
    capsys.readouterr()
    assert main(["tag", "--model", model, "--input", str(bare)]) == EXIT_OK
    out = capsys.readouterr().out
    parsed = parse_conll(out)
    assert parsed.sentences[0].sentence.tokens == (
        "The", "summit", "will", "be", "held", "in", "Oslo",
    )


def test_tag_has_no_lowercase_flag(tmp_path, capsys):
    # A caseless model tags its input as it is (see the test below); the
    # flag is rejected while parsing, before the missing files are read.
    assert main(["tag", "--model", str(tmp_path / "none.crf"),
                 "--input", str(tmp_path / "none.conll"),
                 "--lowercase"]) == EXIT_USAGE
    assert "--lowercase" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [pytest.param(None, id="caseless"),
                                  "--truecaser"])
def test_tag_preprocessing_is_case_invariant(data_files, tmp_path, flag):
    root, train, test = data_files
    model_path = str(tmp_path / "model.crf")
    strategy = "truecasing" if flag else "caseless"
    assert main(["train", "--train", train, "--strategy", strategy,
                 "--model", model_path, "--max-epochs", "30"]) == EXIT_OK
    extra = []
    truecaser = None
    if flag == "--truecaser":
        caser_path = str(tmp_path / "tc.bin")
        assert main(["truecase", "--model", caser_path,
                     "--fit", train]) == EXIT_OK
        extra += [flag, caser_path]
        truecaser = train_truecaser(read_conll_file(train))
    gold = read_conll_file(test)
    upper = str(tmp_path / "upper.conll")
    write_conll_file(make_variant(gold, CaseVariant.UPPER), upper)

    columns = []
    for source in (test, upper):
        out = str(tmp_path / "tagged.conll")
        assert main(["tag", "--model", model_path, "--input", source,
                     "--output", out, *extra]) == EXIT_OK
        columns.append([ann.gold.tags for ann in read_conll_file(out)])
    assert columns[0] == columns[1]
    expected = tag_corpus(load_file(model_path), gold, truecaser=truecaser)
    assert columns[0] == [tags.tags for tags in expected]


def test_augment_command(data_files, tmp_path, capsys):
    root, train, test = data_files
    out = str(tmp_path / "aug.conll")
    assert main(["augment", "--input", test, "--output", out]) == EXIT_OK
    assert len(read_conll_file(out)) == 3 * len(read_conll_file(test))


def test_truecase_fit_and_apply(data_files, tmp_path, capsys):
    root, train, test = data_files
    model = str(tmp_path / "tc.bin")
    assert main(["truecase", "--model", model, "--fit", train]) == EXIT_OK
    lowered = tmp_path / "lower.conll"
    gold = read_conll_file(test)
    write_conll_file(make_variant(gold, CaseVariant.LOWER), str(lowered))
    out = str(tmp_path / "recased.conll")
    assert main(["truecase", "--model", model, "--input", str(lowered),
                 "--output", out]) == EXIT_OK
    recased = read_conll_file(out)
    upper_initial = sum(
        1 for ann in recased for t in ann.sentence.tokens if t[0].isupper()
    )
    assert upper_initial > 0

    assert main(["truecase", "--model", model]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["truecase", "tag"])
@pytest.mark.parametrize("version", [1, 2])
def test_old_truecaser_version_exits_2(data_files, fuzz_inputs, tmp_path,
                                       capsys, version, command):
    root, train, test = data_files
    caser = tmp_path / "tc-old.bin"
    caser.write_bytes(
        old_version_blob(train_truecaser(read_conll_file(train)), version)
    )
    out = str(tmp_path / "out.conll")
    if command == "truecase":
        argv = ["truecase", "--model", str(caser), "--input", test]
    else:
        model = tmp_path / "m.crf"
        model.write_bytes(fuzz_inputs["model"])
        argv = ["tag", "--model", str(model), "--input", test,
                "--truecaser", str(caser)]
    assert main([*argv, "--output", out]) == EXIT_DATA
    assert (f"unsupported truecaser version {version}"
            in capsys.readouterr().err)


@pytest.fixture(scope="module")
def fuzz_inputs(data_files):
    """Valid contents of every file the fuzzed commands read, by role."""
    root, train, test = data_files
    model, caser = root / "fuzz.crf", root / "fuzz-tc.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--train", train, "--model", str(model),
                     "--max-epochs", "3"]) == EXIT_OK
        assert main(["truecase", "--model", str(caser),
                     "--fit", train]) == EXIT_OK
    with open(train, "rb") as handle:
        train_bytes = handle.read()
    with open(test, "rb") as handle:
        test_bytes = handle.read()
    return {
        "train": train_bytes, "test": test_bytes, "pred": test_bytes,
        "model": model.read_bytes(), "truecaser": caser.read_bytes(),
        "config": b"strategy = baseline\ndata = synth\nsynth-seed = 3\n"
                  b"synth-train-sentences = 30\nsynth-test-sentences = 10\n"
                  b"max-epochs = 3\n",
    }


#: Each fuzzed command line; an argument naming a role of `fuzz_inputs`
#: becomes a file with that content, and "new" a path not yet written.
_FUZZ_COMMANDS = [
    ["tag", "--model", "model", "--input", "test", "--truecaser", "truecaser"],
    ["eval", "--gold", "test", "--pred", "pred"],
    ["truecase", "--model", "new", "--fit", "train"],
    ["truecase", "--model", "truecaser", "--input", "test"],
    ["experiment", "--config", "config"],
]
_EDGE_VALUES = [b"", b"0", b"-1", b"nan", b"inf", b"x", b"O-X", b"B-",
                b"S-PER", b"I-LOC", "ǅ".encode(), b"-DOCSTART-", b"files",
                b"caseless"]


@st.composite
def _mutated(draw, data: bytes, lines_only: bool) -> bytes:
    """`data` with one edit: a line deleted, duplicated, replaced by
    arbitrary text, or its last field replaced by an edge-case value; or,
    unless `lines_only`, cut short or with a byte range replaced.  A gzip
    file may have its payload edited instead."""
    if data[:2] == b"\x1f\x8b" and draw(st.booleans()):
        payload = draw(_mutated(gzip.decompress(data), lines_only))
        return gzip.compress(payload, mtime=0)
    edits = ["delete", "duplicate", "replace", "value"]
    if not lines_only:
        edits += ["cut", "splice"]
    edit = draw(st.sampled_from(edits))
    if edit == "cut":
        return data[: draw(st.integers(0, len(data)))]
    if edit == "splice":
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, len(data)))
        return data[:start] + draw(st.binary(max_size=4)) + data[stop:]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "replace":
        lines[i] = draw(st.text(max_size=12)).encode("utf-8", "surrogatepass")
    else:
        fields = lines[i].rsplit(None, 1)
        lines[i] = b" ".join(fields[:-1] + [draw(st.sampled_from(_EDGE_VALUES))])
    return b"\n".join(lines)


@settings(deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(fuzz_inputs, data):
    """`main` ends every command on mutated input with an exit code of 0-3
    and raises nothing.  Configs get only line edits, which keep the
    synthetic data and the training run small."""
    argv = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    roles = [arg for arg in argv if arg in fuzz_inputs]
    target = data.draw(st.sampled_from(roles))
    with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
        for role in roles:
            content = fuzz_inputs[role]
            if role == target:
                content = data.draw(
                    _mutated(content, lines_only=role == "config")
                )
            with open(role, "wb") as handle:
                handle.write(content)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL), (
        stderr.getvalue()
    )


def test_synth_command(tmp_path, capsys):
    out_train = str(tmp_path / "tr.conll")
    out_test = str(tmp_path / "te.conll")
    assert main(["synth", "--seed", "3", "--train-sentences", "40",
                 "--test-sentences", "10", "--out-train", out_train,
                 "--out-test", out_test]) == EXIT_OK
    assert len(read_conll_file(out_train)) == 40
    assert len(read_conll_file(out_test)) == 10
    out = capsys.readouterr().out
    assert "seen in training" in out


def test_experiment_command_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategy = caseless\n"
        "data = synth\n"
        "synth-seed = 7\n"
        "synth-train-sentences = 120\n"
        "synth-test-sentences = 30\n"
        "max-epochs = 40\n"
        "seed = 5\n"
        f"report = {tmp_path / 'rep'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
    report = (tmp_path / "rep.txt").read_text()
    assert "strategy: caseless" in report
    assert "seed: 5" in report
    kv = (tmp_path / "rep.kv").read_text()
    f1s = {
        line.split("=")[0]: line.split("=")[1]
        for line in kv.splitlines()
        if line.endswith(tuple("0123456789")) and ".f1" in line
    }
    assert f1s["variant.original.f1"] == f1s["variant.lower.f1"]


def test_experiment_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategy = caseless\ndata = synth\nsynth-train-sentences = 120\n"
        "synth-test-sentences = 30\nmax-epochs = 40\n"
    )
    report = str(tmp_path / "rep")
    assert main(["experiment", "--config", str(cfg), "--strategy", "baseline",
                 "--seed", "9", "--report", report]) == EXIT_OK
    text = (tmp_path / "rep.txt").read_text()
    assert "strategy: baseline" in text
    assert "seed: 9" in text


@pytest.mark.parametrize("command", ["experiment", "grid"])
@pytest.mark.parametrize("line", ["max-epoch = 5", "optimizer = adagrad",
                                  "learning-rate = 0.5"])
def test_config_file_rejects_unknown_key(tmp_path, capsys, command, line):
    selector = "strategies" if command == "grid" else "strategy"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"{selector} = baseline\ndata = synth\nsynth-train-sentences = 40\n"
        f"synth-test-sentences = 10\nmax-epochs = 3\n{line}\n"
    )
    assert main([command, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and line.split(" =")[0] in err


@pytest.mark.parametrize("command", ["experiment", "grid"])
def test_config_file_value_outside_choices_exits_2(data_files, tmp_path,
                                                   capsys, command):
    # As a flag, `--data bogus` is a usage error; in a config file it must
    # not fall through to the file data source.
    root, train, test = data_files
    selector = "strategies" if command == "grid" else "strategy"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{selector} = baseline\ndata = bogus\nmax-epochs = 3\n")
    assert main([command, "--config", str(cfg), "--train", train,
                 "--test", test]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "data = 'bogus'" in err
    assert main([command, "--data", "bogus"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["experiment", "grid"])
def test_config_file_value_failing_cast_exits_2(tmp_path, capsys, command):
    selector = "strategies" if command == "grid" else "strategy"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{selector} = baseline\ndata = synth\nmax-epochs = abc\n")
    assert main([command, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {cfg}: max-epochs = 'abc': invalid literal" in err


_CHOICES = "'baseline', 'caseless', 'truecasing', 'augment'"


@pytest.mark.parametrize("names, problem", [
    ("baseline,foo", "invalid choice: 'foo'"),
    ("caseless, baseline,caseless", "repeated choice: 'caseless'"),
])
def test_grid_rejects_bad_or_repeated_strategy_flag(capsys, names, problem):
    assert main(["grid", "--data", "synth", "--strategies", names]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: argument --strategies: {problem}" in err
    assert _CHOICES in err


@pytest.mark.parametrize("names, problem", [
    ("baseline,foo", "invalid choice: 'foo'"),
    ("baseline,baseline", "repeated choice: 'baseline'"),
])
def test_grid_rejects_bad_or_repeated_strategy_in_config(tmp_path, capsys,
                                                         names, problem):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"strategies = {names}\ndata = synth\n")
    assert main(["grid", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {cfg}: strategies = {names!r}: {problem}" in err
    assert _CHOICES in err


def _readme_commands() -> list[list[str]]:
    """Every `casener ...` line of README's code blocks, split into words,
    with backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("casener ")]


def test_readme_commands_parse():
    parser = cli._build_parser()
    commands = _readme_commands()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except cli.UsageError as exc:
            pytest.fail(f"README line {' '.join(argv)!r}: {exc}")
    [subparsers] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {argv[1] for argv in commands} == set(subparsers.choices)


def test_type_map_file_keys_are_free_form(tmp_path):
    type_map = tmp_path / "types.cfg"
    type_map.write_text("PER = PERSON\nLOC = PLACE\nNOT-A-SETTING = X\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategy = baseline\ndata = synth\nsynth-train-sentences = 40\n"
        f"synth-test-sentences = 10\nmax-epochs = 3\ntype-map = {type_map}\n"
        f"report = {tmp_path / 'rep'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
    assert "type map applied" in (tmp_path / "rep.txt").read_text()


@pytest.mark.parametrize("command, flags", [
    ("experiment", cli._EXPERIMENT_FLAGS), ("grid", cli._GRID_FLAGS),
])
def test_run_flags_and_config_keys_match(tmp_path, command, flags):
    """Every flag but --config is a config-file key, and every key a flag."""
    parser = cli._build_parser()
    [commands] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        action.option_strings[0]: action
        for action in commands.choices[command]._actions
        if action.option_strings[0] not in ("-h", "--config")
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(
        f"{flag[2:]} = {(action.choices or [1])[0]}\n"
        for flag, action in options.items()
    ))
    settings = cli._settings(
        parser.parse_args([command, "--config", str(cfg)]), flags
    )
    assert settings.keys() == {action.dest for action in options.values()}
    assert None not in settings.values()


def test_experiment_requires_strategy(tmp_path):
    assert main(["experiment", "--data", "synth"]) == EXIT_USAGE


def test_grid_command(tmp_path, capsys):
    report = str(tmp_path / "grid")
    assert main(["grid", "--data", "synth", "--synth-seed", "7",
                 "--synth-train-sentences", "100",
                 "--synth-test-sentences", "25",
                 "--strategies", "baseline,caseless",
                 "--max-epochs", "30",
                 "--report", report]) == EXIT_OK
    table = (tmp_path / "grid.txt").read_text()
    assert "baseline" in table and "caseless" in table
    out = capsys.readouterr().out
    assert "Original" in out


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    from casener.crf import TrainingError
    import casener.cli as cli

    def boom(*args, **kwargs):
        raise TrainingError("objective became non-finite")

    monkeypatch.setattr(cli, "train", boom)
    corpus = tmp_path / "c.conll"
    corpus.write_text("a O\n\n")
    assert main(["train", "--train", str(corpus),
                 "--model", str(tmp_path / "m.crf")]) == EXIT_NUMERICAL
