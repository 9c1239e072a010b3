import argparse
import ast
import contextlib
import dataclasses
import gzip
import io
import itertools
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casener import cli, crf, harness
from casener.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from casener.corpus import (
    AnnotatedSentence, Corpus, Sentence, parse_conll, read_conll_file,
    write_conll, write_conll_file,
)
from casener.crf import TrainConfig, load_file
from casener.evaluation import tag_corpus
from casener.synth import SynthConfig, default_config, generate
from casener.transforms import CaseVariant, make_variant, to_lower, to_upper
from casener.truecase import train_truecaser, truecase
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
    # --seed labels grid runs; training has no seed
    assert main(["train", "--train", "x", "--model", "m",
                 "--seed", "1"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_missing_file_exits_2(tmp_path):
    model = str(tmp_path / "m.crf")
    assert main(["train", "--train", str(tmp_path / "nope.conll"),
                 "--model", model]) == EXIT_DATA


@pytest.mark.parametrize(("flag", "value"), [
    *itertools.product(["--l2-sigma", "--tolerance"], ["nan", "inf"]),
    ("--l2-sigma", "1e-200"),  # its square underflows to 0
    # Its square is subnormal, and 1 / square overflows.
    ("--l2-sigma", "1e-155"), ("--l2-sigma", "1e-160"),
])
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


def _tagged_test_split(data_files, fuzz_inputs, tmp_path) -> str:
    """The path of the test split as `casener tag` writes it."""
    _, _, test = data_files
    model, pred = tmp_path / "m.crf", str(tmp_path / "pred.conll")
    model.write_bytes(fuzz_inputs["model"])
    assert main(["tag", "--model", str(model), "--input", test,
                 "--output", pred]) == EXIT_OK
    return pred


def _write_retokenized(pred: str, tokens, path) -> str:
    """`pred`'s tags on the tokens `tokens(i, sentence)` gives, at `path`."""
    write_conll_file(Corpus(tuple(
        AnnotatedSentence(Sentence(tokens(i, ann.sentence)), ann.gold)
        for i, ann in enumerate(read_conll_file(pred))
    )), str(path))
    return str(path)


@pytest.mark.parametrize("recase", ["lower", "upper", "truecase"])
def test_eval_scores_predictions_for_a_recased_copy(data_files, fuzz_inputs,
                                                    tmp_path, capsys, recase):
    """Predictions whose text is the gold text in other case score as the
    predictions for the gold text do."""
    _, train, test = data_files
    pred = _tagged_test_split(data_files, fuzz_inputs, tmp_path)
    caser = train_truecaser(read_conll_file(train))
    recased = {"lower": to_lower, "upper": to_upper,
               "truecase": lambda s: truecase(caser, s)}[recase]
    copy = _write_retokenized(pred, lambda i, s: recased(s).tokens,
                              tmp_path / "copy.conll")
    capsys.readouterr()
    assert main(["eval", "--gold", test, "--pred", pred]) == EXIT_OK
    expected = capsys.readouterr().out
    assert "f1=" in expected
    assert main(["eval", "--gold", test, "--pred", copy]) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("first", [(0, 0), (2, 1)],
                         ids=["every-token", "from-sentence-2-token-1"])
def test_eval_refuses_predictions_for_other_text(data_files, fuzz_inputs,
                                                 tmp_path, capsys, first):
    """Each token from sentence i, position j on (in reading order) becomes
    "zzz": exit 2, naming the first mismatch and both its tokens."""
    _, _, test = data_files
    pred = _tagged_test_split(data_files, fuzz_inputs, tmp_path)
    other = _write_retokenized(pred, lambda i, s: tuple(
        "zzz" if (i, j) >= first else tok for j, tok in enumerate(s)
    ), tmp_path / "other.conll")
    capsys.readouterr()
    assert main(["eval", "--gold", test, "--pred", other]) == EXIT_DATA
    i, j = first
    gold = read_conll_file(test).sentences[i].sentence.tokens[j]
    assert capsys.readouterr() == ("", (
        f"data error: sentence {i}, token {j}: predicted text 'zzz' is not "
        f"gold text {gold!r}\n"))


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


@pytest.mark.parametrize("columns", [
    pytest.param(["NNP", "NN", "MD", "VB", "VBN", "IN", "NNP"], id="pos"),
    pytest.param(["_"] * 7, id="underscore"),
    pytest.param(["I-PER", "O", "O", "O", "E-LOC", "O", "B-X"],
                 id="illegal-tags"),
])
def test_tag_reads_only_the_token_column(fuzz_inputs, tmp_path, capsys,
                                         columns):
    model = tmp_path / "model.crf"
    model.write_bytes(fuzz_inputs["model"])
    tokens = ["The", "summit", "will", "be", "held", "in", "Oslo"]
    bare = tmp_path / "bare.txt"
    bare.write_text("-DOCSTART-\n\n" + "\n".join(tokens) + "\n\nOslo\n")
    extra = tmp_path / "columns.txt"
    extra.write_text("-DOCSTART- -X- O\n\n" + "".join(
        f"{token} {column}\t{column}\n" for token, column in zip(tokens, columns)
    ) + "\r\n  \nOslo NNP I-LOC\n")
    capsys.readouterr()
    assert main(["tag", "--model", str(model), "--input", str(bare)]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["tag", "--model", str(model), "--input", str(extra)]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert [ann.sentence.tokens for ann in parse_conll(expected)] == [
        tuple(tokens), ("Oslo",),
    ]


def test_tag_with_overflowing_scores_exits_3(fuzz_inputs, data_files,
                                            tmp_path, capsys):
    # Weights of 1e308 are finite, so the model loads; their sums are not.
    model = crf.load(fuzz_inputs["model"])
    huge = crf.CrfModel(
        model.feature_map, model.template_set,
        np.full_like(model.emission, 1e308), model.begin, model.end,
        model.transition,
    )
    path = str(tmp_path / "huge.crf")
    crf.save_file(huge, path)
    out = tmp_path / "out.conll"
    assert main(["tag", "--model", path, "--input", data_files[2],
                 "--output", str(out)]) == EXIT_NUMERICAL
    assert "numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_casener_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run([sys.executable, "-m", "casener", "--help"],
                            cwd=Path(__file__).parent.parent, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: casener")


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


def test_truecase_fits_or_applies_not_both(data_files, tmp_path, capsys,
                                           monkeypatch):
    """`--fit` and `--input` are two jobs, one a call: given both, the
    command is a usage error that reads and writes nothing."""
    root, train, test = data_files
    monkeypatch.chdir(tmp_path)
    assert main(["truecase", "--model", "tc.bin", "--fit", train,
                 "--input", test, "--output", "out.conll"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "usage error: argument --input: not allowed with argument --fit\n")
    assert os.listdir() == []


def test_truecase_fit_takes_no_output(data_files, tmp_path, capsys,
                                     monkeypatch):
    """`--output` names the file of the `--input` job: with `--fit`, the
    command is a usage error that reads and writes nothing."""
    root, train, test = data_files
    monkeypatch.chdir(tmp_path)
    assert main(["truecase", "--model", "tc.bin", "--fit", train,
                 "--output", "out.conll"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "usage error: argument --output: not allowed with argument --fit\n")
    assert os.listdir() == []


@pytest.mark.parametrize("command", ["truecase", "tag"])
@pytest.mark.parametrize("version", [1, 2, 3])
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
        "config": b"strategies = baseline\ndata = synth\nsynth-seed = 3\n"
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
    ["grid", "--config", "config"],
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


def test_synth_command_defaults_to_default_config(tmp_path):
    out_train, out_test = tmp_path / "tr.conll", tmp_path / "te.conll"
    assert main(["synth", "--out-train", str(out_train),
                 "--out-test", str(out_test)]) == EXIT_OK
    train_c, test_c = generate(default_config())
    assert out_train.read_text("utf-8") == write_conll(train_c)
    assert out_test.read_text("utf-8") == write_conll(test_c)


def test_experiment_command_with_config_file(tmp_path, capsys):
    """A one-strategy run (an experiment) set up by a config file alone."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategies = caseless\n"
        "data = synth\n"
        "synth-seed = 7\n"
        "synth-train-sentences = 120\n"
        "synth-test-sentences = 30\n"
        "max-epochs = 40\n"
        "seed = 5\n"
        f"report = {tmp_path / 'rep'}\n"
    )
    assert main(["grid", "--config", str(cfg)]) == EXIT_OK
    report = (tmp_path / "rep.txt").read_text()
    assert "seed=5" in _strategy_line(report, "caseless").split()
    kv = (tmp_path / "rep.kv").read_text()
    f1s = {
        line.split("=")[0]: line.split("=")[1]
        for line in kv.splitlines()
        if line.endswith(tuple("0123456789")) and ".f1" in line
    }
    assert f1s["caseless.variant.original.f1"] == f1s["caseless.variant.lower.f1"]


def _strategy_line(report: str, strategy: str) -> str:
    """The report's one line of `strategy`'s settings and counts."""
    [line] = [l for l in report.splitlines() if l.startswith(f"{strategy}: ")]
    return line


def test_experiment_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategies = caseless\ndata = synth\nsynth-train-sentences = 120\n"
        "synth-test-sentences = 30\nmax-epochs = 40\n"
    )
    report = str(tmp_path / "rep")
    assert main(["grid", "--config", str(cfg), "--strategies", "baseline",
                 "--seed", "9", "--report", report]) == EXIT_OK
    text = (tmp_path / "rep.txt").read_text()
    assert "seed=9" in _strategy_line(text, "baseline").split()


#: The two shapes of a `grid` run: one strategy (an experiment, as
#: `harness.run_experiment` runs it) and the default, all four.
_RUN_COMMANDS = [pytest.param(["grid", "--strategies", "baseline"],
                              id="experiment"),
                 pytest.param(["grid"], id="grid")]


@pytest.mark.parametrize("command", _RUN_COMMANDS)
@pytest.mark.parametrize("line", ["max-epoch = 5", "optimizer = adagrad",
                                  "learning-rate = 0.5"])
def test_config_file_rejects_unknown_key(tmp_path, capsys, command, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "data = synth\nsynth-train-sentences = 40\n"
        f"synth-test-sentences = 10\nmax-epochs = 3\n{line}\n"
    )
    assert main([*command, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and line.split(" =")[0] in err


@pytest.mark.parametrize("command", _RUN_COMMANDS)
def test_config_file_value_outside_choices_exits_2(data_files, tmp_path,
                                                   capsys, command):
    # As a flag, `--data bogus` is a usage error; in a config file it must
    # not fall through to the file data source.
    root, train, test = data_files
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("data = bogus\nmax-epochs = 3\n")
    assert main([*command, "--config", str(cfg), "--train", train,
                 "--test", test]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "data = 'bogus'" in err
    assert main([*command, "--data", "bogus"]) == EXIT_USAGE


@pytest.mark.parametrize("command", _RUN_COMMANDS)
def test_config_file_value_failing_cast_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("data = synth\nmax-epochs = abc\n")
    assert main([*command, "--config", str(cfg)]) == EXIT_DATA
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


def test_readme_python_block_prints_the_baseline_row(capsys):
    """README's "Python API" block runs and prints the quick-start table's
    baseline F1s, one line per test variant, then a truecasing F1."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    api = text[text.index("## Python API"):]
    code = re.search(r"^```python\n(.*?)^```", api, flags=re.M | re.S)[1]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    [row] = re.findall(r"^# baseline\s+(.*)$", text, flags=re.M)
    assert [line.split()[0] for line in lines[:3]] == [
        v.value for v in CaseVariant
    ]
    assert [line.split()[1] for line in lines[:3]] == row.split()
    assert len(lines) == 4 and 0 < float(lines[3]) <= 1


def test_grid_rejects_empty_strategy_list(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("strategies = ,\ndata = synth\n")
    assert main(["grid", "--config", str(cfg)]) == EXIT_DATA
    assert (f"data error: {cfg}: strategies = ',': no strategies selected"
            in capsys.readouterr().err)
    assert main(["grid", "--data", "synth", "--strategies", ","]) == EXIT_USAGE
    assert ("usage error: argument --strategies: no strategies selected"
            in capsys.readouterr().err)


def _no_run(*args, **kwargs):
    pytest.fail("a rejected config must not load data or train")


def test_config_file_rejects_repeated_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.harness, "run_grid", _no_run)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("strategies = baseline\ndata = synth\n"
                   "strategies = caseless\n")
    assert main(["grid", "--config", str(cfg)]) == EXIT_DATA
    assert (f"data error: {cfg}:3: repeated key 'strategies' (first set on "
            "line 1)" in capsys.readouterr().err)


def test_type_map_file_rejects_repeated_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.harness, "run_grid", _no_run)
    type_map = tmp_path / "types.cfg"
    type_map.write_text("PER = PERSON\nLOC = PLACE\nPER = PEOPLE\n")
    assert main(["grid", "--strategies", "baseline", "--data", "synth",
                 "--type-map", str(type_map)]) == EXIT_DATA
    assert (f"data error: {type_map}:3: repeated key 'PER' (first set on "
            "line 1)" in capsys.readouterr().err)


def test_config_file_rejects_empty_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.harness, "run_grid", _no_run)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("data = synth\n= 5\n")
    assert main(["grid", "--config", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {cfg}:2: expected 'key = value', got '= 5'\n")


def test_type_map_file_rejects_empty_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    type_map = tmp_path / "types.cfg"
    type_map.write_text("PER = PERSON\n=ORG\n")
    assert main(["grid", "--strategies", "baseline", "--data", "synth",
                 "--type-map", str(type_map)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {type_map}:2: expected 'key = value', got '=ORG'\n")


@pytest.mark.parametrize("line, target", [
    ("PER =", ""), ("PER = A B", "A B"), ("PER = A\tB", "A\tB"),
])
def test_type_map_target_checked_before_data_loads(tmp_path, capsys,
                                                   monkeypatch, line, target):
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    type_map = tmp_path / "types.cfg"
    type_map.write_text(f"LOC = PLACE\n{line}\n")
    assert main(["grid", "--strategies", "baseline", "--data", "synth",
                 "--type-map", str(type_map)]) == EXIT_DATA
    assert (f"data error: type map: PER = {target!r}: the target type must "
            "be non-empty, with no whitespace" in capsys.readouterr().err)


#: Each command that trains before it writes: (test ID, what the path is,
#: argv).  An `experiment` row runs one strategy.
_TRAINING_OUTPUT_COMMANDS = [
    ("train", "model", ["train", "--train", "{file}", "--model", "{path}"]),
    ("experiment-model", "model", ["grid", "--strategies", "baseline",
                                   "--data", "synth", "--model", "{path}"]),
    ("experiment-report", "report", ["grid", "--strategies", "baseline",
                                     "--data", "synth", "--report", "{path}"]),
    ("grid-report", "report", ["grid", "--data", "synth", "--report",
                               "{path}"]),
    ("grid-config", "report", ["grid", "--config", "{config}"]),
]


@pytest.mark.parametrize("what, argv", [
    pytest.param(what, argv, id=name)
    for name, what, argv in _TRAINING_OUTPUT_COMMANDS
])
def test_missing_output_directory_exits_2_before_training(
        data_files, tmp_path, capsys, monkeypatch, what, argv):
    for name in ("train", "read_conll_file"):
        monkeypatch.setattr(cli, name, _no_run)
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    directory = str(tmp_path / "missing" / "dir")
    path = os.path.join(directory, "out")
    config = tmp_path / "grid.cfg"
    config.write_text(f"data = synth\nreport = {path}\n")
    fill = dict(file=data_files[1], path=path, config=config)
    assert main([arg.format(**fill) for arg in argv]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {what} path {path!r}: directory {directory!r} does "
        "not exist\n"
    )


@pytest.mark.parametrize("path", [
    os.path.join("missing", ""), os.path.join("missing", os.pardir),
], ids=["separator", "parent"])
@pytest.mark.parametrize("what, argv", [
    pytest.param(what, argv, id=name)
    for name, what, argv in _TRAINING_OUTPUT_COMMANDS
])
def test_output_path_ending_in_a_separator_exits_2_before_training(
        data_files, tmp_path, capsys, monkeypatch, what, argv, path):
    """A path whose last part is empty or a dot names a directory, even
    one that does not exist: `--model missing/` must not write a file
    named `missing`, and `--report missing/` must not train first."""
    for name in ("train", "read_conll_file"):
        monkeypatch.setattr(cli, name, _no_run)
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "grid.cfg"
    config.write_text(f"data = synth\nreport = {path}\n")
    fill = dict(file=data_files[1], path=path, config=config)
    assert main([arg.format(**fill) for arg in argv]) == EXIT_DATA
    assert capsys.readouterr() == (
        "", f"data error: {what} path {path!r} names a directory\n")
    assert os.listdir() == ["grid.cfg"]


@pytest.mark.parametrize("what, suffix, argv", [
    pytest.param(what, suffix, argv, id=name)
    for (name, what, argv), suffix in zip(_TRAINING_OUTPUT_COMMANDS,
                                          ["", "", ".txt", ".kv", ".txt"])
])
def test_output_path_naming_a_directory_exits_2_before_training(
        data_files, tmp_path, capsys, monkeypatch, what, suffix, argv):
    monkeypatch.setattr(cli, "train", _no_run)
    monkeypatch.setattr(cli.harness, "train", _no_run)
    path = str(tmp_path / "out")
    os.mkdir(path + suffix)
    config = tmp_path / "grid.cfg"
    config.write_text(f"data = synth\nreport = {path}\n")
    fill = dict(file=data_files[1], path=path, config=config)
    assert main([arg.format(**fill) for arg in argv]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {what} path {path + suffix!r} is a directory\n"
    )


#: Each command that writes a file and does no training: (test ID, what
#: the path is, argv).
_OUTPUT_COMMANDS = [
    ("tag", "output", ["tag", "--model", "{file}", "--input", "{file}",
                       "--output", "{path}"]),
    ("truecase-fit", "model", ["truecase", "--model", "{path}",
                               "--fit", "{file}"]),
    ("truecase-input", "output", ["truecase", "--model", "{file}",
                                  "--input", "{file}", "--output", "{path}"]),
    ("augment", "output", ["augment", "--input", "{file}",
                           "--output", "{path}"]),
    ("synth-train", "train output", ["synth", "--out-train", "{path}",
                                     "--out-test", "{other}"]),
    ("synth-test", "test output", ["synth", "--out-train", "{other}",
                                   "--out-test", "{path}"]),
]
@pytest.mark.parametrize("what, argv, case", [
    pytest.param(what, argv, case, id=f"{case}-{name}")
    for case in ("missing-directory", "directory", "empty")
    for name, what, argv in _OUTPUT_COMMANDS
] + [
    pytest.param(what, argv, case, id=f"{case}-{name}")
    for case in ("directory", "empty")
    for name, what, argv in _TRAINING_OUTPUT_COMMANDS
])
def test_bad_output_path_exits_2_before_any_work(
        data_files, tmp_path, capsys, monkeypatch, what, argv, case):
    for name in ("load_file", "read_conll_file", "_read_tokens_file",
                 "_load_truecaser", "tag_corpus", "train_truecaser",
                 "truecase", "augment", "generate", "train"):
        monkeypatch.setattr(cli, name, _no_run)
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    directory = str(tmp_path / "missing" / "dir")
    path = {"missing-directory": os.path.join(directory, "out"),
            "directory": str(tmp_path / "out"), "empty": ""}[case]
    if case == "directory":
        os.mkdir(path)
    other = tmp_path / "other.conll"
    config = tmp_path / "grid.cfg"
    config.write_text(f"data = synth\nreport = {path}\n")
    # An empty path must not stand for the working directory or stdout.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    fill = dict(file=data_files[1], path=path, other=other, config=config)
    assert main([arg.format(**fill) for arg in argv]) == EXIT_DATA
    assert capsys.readouterr() == ("", {
        "missing-directory": f"data error: {what} path {path!r}: directory "
                             f"{directory!r} does not exist\n",
        "directory": f"data error: {what} path {path!r} is a directory\n",
        "empty": f"data error: {what} path is empty\n",
    }[case])
    assert not other.exists()
    assert os.listdir(cwd) == []


@pytest.mark.parametrize("command", _RUN_COMMANDS)
@pytest.mark.parametrize("report", [".", "out/"])
def test_report_path_naming_a_directory_writes_nothing(
        tmp_path, capsys, monkeypatch, command, report):
    """A report path is refused when it, not only its `.txt` or `.kv`
    file, names a directory: `--report .` would write `..txt`, and
    `--report out/` `out/.txt`."""
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert main([*command, "--data", "synth", "--report", report]) == EXIT_DATA
    assert capsys.readouterr() == (
        "", f"data error: report path {report!r} is a directory\n")
    assert os.listdir() == ["out"] and os.listdir("out") == []


@pytest.mark.parametrize("out_train, out_test", [
    ("same.conll", "same.conll"),
    ("same.conll", "./sub/../same.conll"),
    ("link.conll", "same.conll"),
], ids=["same", "alias", "symlink"])
def test_synth_to_one_file_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch, out_train, out_test):
    monkeypatch.setattr(cli, "generate", _no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.conll").symlink_to(tmp_path / "same.conll")
    assert main(["synth", "--out-train", out_train,
                 "--out-test", out_test]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "usage error: --out-train and --out-test name the same file\n"
    )
    assert not (tmp_path / "same.conll").exists()


def _roles(argv: list[str]) -> list[tuple[str, bool]]:
    """Each (flag, whether it names an output) of an argv template of the
    tables above; a config file holds a report path."""
    roles = [(flag, value in ("{path}", "{other}"))
             for flag, value in zip(argv, argv[1:])
             if value in ("{path}", "{other}", "{file}", "{config}")]
    return roles + [("--report", True)] * ("{config}" in argv)


_TABLE_ROWS = {name: argv for name, _, argv in
               _OUTPUT_COMMANDS + _TRAINING_OUTPUT_COMMANDS}
#: The tables' rows, plus rows that write two files or read more: each
#: names every file in its own flag, so that any two can be made one.
_COLLIDING_COMMANDS = {
    **_TABLE_ROWS,
    "experiment-both": _TABLE_ROWS["experiment-report"]
    + ["--model", "{other}", "--type-map", "{file}"],
    "experiment-files": ["grid", "--strategies", "baseline", "--train",
                         "{file}", "--test", "{file}", "--model", "{path}"],
    "tag-truecaser": _TABLE_ROWS["tag"] + ["--truecaser", "{file}"],
}
_COLLISIONS = {
    (argv[0], frozenset(_roles(argv)), output, other): pytest.param(
        argv, output, other, id=f"{name}:{output}={other}")
    for name, argv in _COLLIDING_COMMANDS.items()
    for output, writes in _roles(argv) if writes
    for other, _ in _roles(argv) if other != output
}


@pytest.mark.parametrize("argv, output, other", _COLLISIONS.values())
def test_colliding_paths_exit_1_before_any_work(tmp_path, capsys, monkeypatch,
                                               argv, output, other):
    """An output that names the file of another output or of an input of
    its command, here `other`'s, is a usage error naming both flags.  It
    ends the command before it reads input or trains, and every file that
    existed stays as it was."""
    for name in ("load_file", "read_conll_file", "_read_tokens_file",
                 "_load_truecaser", "tag_corpus", "train_truecaser",
                 "truecase", "augment", "generate", "train"):
        monkeypatch.setattr(cli, name, _no_run)
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    monkeypatch.chdir(tmp_path)
    # Each flag's file is named after it, and `output` takes `other`'s; a
    # report's path is its .txt file's without the suffix.
    files = {flag: f"{flag[2:]}.txt" for flag, _ in _roles(argv)}
    files[output] = files[other]
    paths = {flag: name[:-4] if flag == "--report" else name
             for flag, name in files.items()}
    for flag, name in files.items():
        Path(name).write_text(f"old {flag}\n")
    if "--report" in paths:
        Path(paths["--report"] + ".kv").write_text("old --report\n")
    if "--config" in paths:
        Path(paths["--config"]).write_text(
            f"data = synth\nreport = {paths['--report']}\n")
    before = {name: Path(name).read_bytes() for name in os.listdir()}
    command = [paths[argv[i - 1]] if arg.startswith("{") else arg
               for i, arg in enumerate(argv)]
    assert main(command) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err in (
        f"usage error: {output} and {other} name the same file\n",
        f"usage error: {other} and {output} name the same file\n",
    )
    assert {name: Path(name).read_bytes() for name in os.listdir()} == before


def test_experiment_and_grid_read_conll_files(data_files, capsys):
    root, train, test = data_files
    flags = ["--train", train, "--test", test, "--max-epochs", "5"]
    files = dict(train_path=train, test_path=test,
                 train_config=TrainConfig(max_epochs=5))
    assert main(["grid", "--strategies", "caseless", *flags]) == EXIT_OK
    _, single = harness.run_grid(
        [harness.ExperimentConfig(harness.Strategy.CASELESS, **files)]
    )
    assert capsys.readouterr().out == single
    assert main(["grid", "--strategies", "baseline,caseless", *flags]) == EXIT_OK
    _, combined = harness.run_grid([
        harness.ExperimentConfig(strategy, **files)
        for strategy in (harness.Strategy.BASELINE, harness.Strategy.CASELESS)
    ])
    assert capsys.readouterr().out == combined


def test_file_source_report_lines(data_files, tmp_path, capsys):
    """The data lines of file-source reports, byte for byte.  The paths hold
    characters `str.splitlines` splits at, which `repr` escapes, so each
    path stays on its own line."""
    root, train, test = data_files
    directory = tmp_path / "data \x1c\u2028 dir"
    directory.mkdir()
    train_path = str(directory / "train.conll")
    test_path = str(directory / "test.conll")
    shutil.copy(train, train_path)
    shutil.copy(test, test_path)
    flags = ["--data", "files", "--train", train_path, "--test", test_path,
             "--max-epochs", "5"]

    def report(argv: list[str], base: str) -> tuple[list[bytes], list[bytes]]:
        assert main([*argv, *flags, "--report", base]) == EXIT_OK
        text = Path(base + ".txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == text
        return text.split(b"\n"), Path(base + ".kv").read_bytes().split(b"\n")

    for argv, base in ((["grid", "--strategies", "baseline"], "experiment"),
                       (["grid", "--strategies", "baseline,caseless"], "grid")):
        text, kv = report(argv, str(tmp_path / base))
        assert text[2] == (
            f"data: files train={train_path!r} test={test_path!r}".encode())
        assert kv[:2] == [f"data.files.train={train_path!r}".encode(),
                          f"data.files.test={test_path!r}".encode()]
        assert not any(b".data." in line.partition(b"=")[0] for line in kv)


@pytest.mark.parametrize("strategy", [s.value for s in harness.Strategy])
def test_experiment_is_the_one_strategy_grid(data_files, tmp_path, capsys,
                                             strategy):
    """`grid --strategies S` is one experiment: its stdout, .txt and .kv are
    those `run_experiment` writes, and its `--model` holds the bytes
    `train --strategy S` writes, which for truecasing are baseline's."""
    _, train, test = data_files
    model, base = tmp_path / "grid.crf", str(tmp_path / "grid")
    assert main(["grid", "--strategies", strategy, "--train", train,
                 "--test", test, "--max-epochs", "30", "--model", str(model),
                 "--report", base]) == EXIT_OK
    out = capsys.readouterr().out
    expected = str(tmp_path / "experiment")
    harness.run_experiment(harness.ExperimentConfig(
        harness.Strategy(strategy), train_path=train, test_path=test,
        train_config=TrainConfig(max_epochs=30), report_path=expected))
    assert out.encode("utf-8") == Path(f"{expected}.txt").read_bytes()
    for suffix in (".txt", ".kv"):
        assert (Path(base + suffix).read_bytes()
                == Path(expected + suffix).read_bytes())
    recipes = {strategy, "baseline"} if strategy == "truecasing" else {strategy}
    for recipe in recipes:
        trained = tmp_path / f"{recipe}.crf"
        assert main(["train", "--strategy", recipe, "--train", train,
                     "--max-epochs", "30", "--model", str(trained)]) == EXIT_OK
        assert trained.read_bytes() == model.read_bytes()


@pytest.mark.parametrize("selection, config", [
    (["--strategies", "baseline,caseless", "--model", "m.crf"], ""),
    ([], "model = m.crf\n"),
], ids=["two-flag", "four-config"])
def test_grid_model_with_several_strategies_exits_1(tmp_path, capsys,
                                                    monkeypatch, selection,
                                                    config):
    """`--model` saves one strategy's model: with more selected (four when
    none is), the run is a usage error that loads and writes nothing."""
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["grid", "--config", str(cfg), *selection, "--data", "synth",
                 "--report", "rep"]) == EXIT_USAGE
    count = 2 if selection else 4
    assert capsys.readouterr() == ("", (
        f"usage error: --model saves one strategy's model; {count} "
        "strategies are selected\n"))
    assert os.listdir() == []


def test_grid_warns_on_stderr_when_lbfgs_does_not_converge(
    data_files, tmp_path, capsys
):
    """Each strategy whose model stopped at --max-epochs gets `train`'s
    warning after its name; stdout and the report files are the run's."""
    _, train, test = data_files
    flags = ["--train", train, "--test", test, "--max-epochs", "1"]
    base = str(tmp_path / "capped")
    assert main(["grid", "--strategies", "caseless,truecasing", *flags,
                 "--report", base]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "".join(
        f"warning: {name}: L-BFGS did not converge (stopped after 1 "
        "iterations)\n" for name in ("caseless", "truecasing"))
    expected = str(tmp_path / "expected")
    _, text = harness.run_grid([
        harness.ExperimentConfig(strategy, train_path=train, test_path=test,
                                 train_config=TrainConfig(max_epochs=1))
        for strategy in (harness.Strategy.CASELESS,
                         harness.Strategy.TRUECASING)
    ], report_path=expected)
    assert out == text
    for suffix in (".txt", ".kv"):
        assert (Path(base + suffix).read_bytes()
                == Path(expected + suffix).read_bytes())

    assert main(["grid", "--strategies", "baseline", "--train", train,
                 "--test", test]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("casener report\n")


def test_kv_file_parses_for_any_path(data_files, tmp_path, capsys):
    """Paths holding a newline and a `=` keep the kv file one `key=value`
    per line, with each path's value its `repr`."""
    root, train, test = data_files
    paths = {"train": str(tmp_path / "tr=ain\nfile.conll"),
             "test": str(tmp_path / "te=st\nfile.conll")}
    shutil.copy(train, paths["train"])
    shutil.copy(test, paths["test"])
    base = str(tmp_path / "rep")
    assert main(["grid", "--strategies", "baseline", "--train",
                 paths["train"], "--test", paths["test"], "--max-epochs", "5",
                 "--report", base]) == EXIT_OK
    capsys.readouterr()
    text = Path(base + ".kv").read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines.pop() == "" and lines == text.splitlines()
    assert all("=" in line for line in lines)
    keys = [line.partition("=")[0] for line in lines]
    assert len(set(keys)) == len(keys)
    kv = dict(line.split("=", 1) for line in lines)
    for name, path in paths.items():
        assert ast.literal_eval(kv[f"data.files.{name}"]) == path


@pytest.mark.parametrize("command, selector", [
    ("grid", ["--strategies", "baseline"]), ("grid", []),
])
def test_train_without_test_is_a_usage_error(data_files, capsys, command,
                                             selector):
    root, train, test = data_files
    assert main([command, *selector, "--train", train]) == EXIT_USAGE
    assert ("usage error: file data source needs --train and --test"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", _RUN_COMMANDS)
@pytest.mark.parametrize("config, flags, problem", [
    pytest.param("data = synth\n", ["--train", "{train}", "--test", "{test}"],
                 "synthetic data source takes no --train or --test",
                 id="synth-in-config-with-files"),
    pytest.param("", ["--data", "synth", "--test", "{test}"],
                 "synthetic data source takes no --train or --test",
                 id="synth-with-test"),
    pytest.param("", ["--test", "{test}"],
                 "file data source needs --train and --test",
                 id="test-alone"),
    pytest.param("", ["--data", "files", "--train", "{train}", "--test",
                      "{test}", "--synth-seed", "9"],
                 "file data source takes no --synth-* settings",
                 id="files-with-synth-seed"),
    pytest.param("synth-noise-rate = 0.1\n",
                 ["--train", "{train}", "--test", "{test}"],
                 "file data source takes no --synth-* settings",
                 id="files-with-synth-setting-in-config"),
])
def test_contradictory_data_source_is_a_usage_error(
        data_files, tmp_path, capsys, monkeypatch, command, config, flags,
        problem):
    monkeypatch.setattr(cli.harness, "_load_corpora", _no_run)
    root, train, test = data_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = [*command, "--config", str(cfg),
            *(flag.format(train=train, test=test) for flag in flags)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: {problem}\n")


def test_tokens_file_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("\ufeffEU\nrejects\n\nGerman\n", encoding="utf-8")
    corpus = cli._read_tokens_file(str(path))
    assert [ann.sentence.tokens for ann in corpus] == [("EU", "rejects"),
                                                      ("German",)]


def test_experiment_on_empty_training_file_exits_2(data_files, tmp_path,
                                                   capsys):
    root, train, test = data_files
    empty = tmp_path / "empty.conll"
    empty.write_text("")
    assert main(["grid", "--strategies", "baseline", "--train",
                 str(empty), "--test", test]) == EXIT_DATA
    assert "data error: training corpus is empty" in capsys.readouterr().err


def test_type_map_file_keys_are_free_form(tmp_path):
    type_map = tmp_path / "types.cfg"
    type_map.write_text("PER = PERSON\nLOC = PLACE\nNOT-A-SETTING = X\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "strategies = baseline\ndata = synth\nsynth-train-sentences = 40\n"
        f"synth-test-sentences = 10\nmax-epochs = 3\ntype-map = {type_map}\n"
        f"report = {tmp_path / 'rep'}\n"
    )
    assert main(["grid", "--config", str(cfg)]) == EXIT_OK
    assert "type map applied" in (tmp_path / "rep.txt").read_text()


@pytest.mark.parametrize("command, flags", [
    ("experiment", {"--strategies": "baseline"}),
    ("grid", {"--strategies": "baseline,caseless,truecasing,augment"}),
])
def test_run_flags_and_config_keys_match(tmp_path, command, flags):
    """Every flag but --config is a config-file key, and every key a flag.
    Each key gets its value in `flags` (one strategy, as an experiment
    selects, or all four), its flag's first choice, or 1."""
    parser = cli._build_parser()
    [commands] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        action.option_strings[0]: action
        for action in commands.choices["grid"]._actions
        if action.option_strings[0] not in ("-h", "--config")
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(
        f"{flag[2:]} = {flags.get(flag, (action.choices or [1])[0])}\n"
        for flag, action in options.items()
    ))
    settings = cli._settings(
        parser.parse_args(["grid", "--config", str(cfg)]), cli._GRID_FLAGS
    )
    assert settings.keys() == {action.dest for action in options.values()}
    assert None not in settings.values()
    assert len(settings["strategies"]) == (1 if command == "experiment" else 4)


def test_experiment_is_not_a_command(capsys):
    """`experiment` is no subcommand: `grid --strategies S` runs one
    strategy."""
    assert main(["experiment", "--strategy", "baseline",
                 "--data", "synth"]) == EXIT_USAGE
    assert ("usage error: argument command: invalid choice: 'experiment'"
            in capsys.readouterr().err)


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


def test_diverging_training_exits_3_without_a_warning(tmp_path, capsys):
    """On the seed-42 train split a sigma this small makes the L2
    gradient overflow its product with the first search direction.  That
    ends in one numerical-failure line, not a RuntimeWarning (which the
    suite turns into an error) and not a model file."""
    train = tmp_path / "train.conll"
    write_conll_file(generate(default_config(seed=42))[0], str(train))
    model = tmp_path / "m.crf"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--l2-sigma", "7.5e-155"]) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", (
        "numerical failure: gradient-direction product: overflow "
        "encountered in matmul\n"))
    assert not model.exists()


def test_memory_error_is_a_data_error(data_files, capsys, monkeypatch):
    """Input too large to hold ends in exit 2, not a traceback, with or
    without a message."""
    _, train, test = data_files
    for error in (MemoryError(), MemoryError("cannot allocate 5 GiB")):
        def reader(path, error=error):
            raise error

        monkeypatch.setattr(cli, "read_conll_file", reader)
        assert main(["eval", "--gold", test, "--pred", train]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {str(error) or 'MemoryError'}\n"


def test_config_dataclass_fields_are_the_setting_flags():
    """Each field of a settings dataclass is a flag: `--` and the name with
    `-` for `_`, cast to the type of its default."""

    @dataclasses.dataclass(frozen=True)
    class Settings:
        rare_rate: float = 0.0
        max_count: int = 3

    assert cli._config_flags(Settings) == (
        ("--rare-rate", {"type": float}), ("--max-count", {"type": int}),
    )
    parser = cli._build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    for command, config, prefix in [
        ("train", TrainConfig, ""), ("synth", SynthConfig, ""),
        ("grid", TrainConfig, ""), ("grid", SynthConfig, "synth-"),
    ]:
        types = {action.option_strings[0]: action.type
                 for action in commands.choices[command]._actions}
        for field in dataclasses.fields(config):
            flag = f"--{prefix}{field.name.replace('_', '-')}"
            assert types[flag] is type(field.default)
