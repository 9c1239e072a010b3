import os

import pytest

from casener.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from casener.corpus import parse_conll, read_conll_file, write_conll_file
from casener.synth import default_config, generate


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


def test_bad_corpus_exits_2(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("onlyonetoken\n")
    assert main(["train", "--train", str(bad),
                 "--model", str(tmp_path / "m.crf")]) == EXIT_DATA


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
    from casener.transforms import CaseVariant, make_variant

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
