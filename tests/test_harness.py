import os
from dataclasses import asdict, dataclass, fields, replace

import pytest

from casener import harness
from casener.cli import EXIT_OK, main
from casener.corpus import write_conll_file
from casener.crf import TrainConfig, load_file
from casener.harness import (
    ExperimentConfig,
    Strategy,
    read_config_file,
    run_experiment,
    run_grid,
    training_view,
)
from casener.corpus import Scheme, TagSequence
from casener.evaluation import map_prediction_types
from casener.features import TemplateSet
from casener.synth import SynthConfig, default_config, generate
from casener.transforms import CaseVariant
from conftest import WRITERS, random_corpus

SMALL_SYNTH = default_config(seed=7, train_sentences=150, test_sentences=40)


def small_config(strategy=Strategy.BASELINE, **kwargs) -> ExperimentConfig:
    defaults = dict(
        strategy=strategy,
        synth=SMALL_SYNTH,
        train_config=TrainConfig(max_epochs=40),
        seed=7,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_exactly_one_data_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig(strategy=Strategy.BASELINE)
        with pytest.raises(ValueError):
            ExperimentConfig(
                strategy=Strategy.BASELINE,
                train_path="a", test_path="b", synth=SMALL_SYNTH,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(strategy=Strategy.BASELINE, train_path="a")

    def test_training_view_contracts(self, rng):
        corpus = random_corpus(rng, sentences=4)
        view, tset = training_view(corpus, Strategy.BASELINE)
        assert view is corpus and tset is TemplateSet.CASE_AWARE
        view, tset = training_view(corpus, Strategy.CASELESS)
        assert tset is TemplateSet.CASE_AGNOSTIC
        assert all(
            t == t.lower()
            for ann in view for t in ann.sentence.tokens
        )
        view, tset = training_view(corpus, Strategy.AUGMENT)
        assert len(view) == 3 * len(corpus)
        view, tset = training_view(corpus, Strategy.TRUECASING)
        assert view is corpus and tset is TemplateSet.CASE_AWARE


def run_reported(cfg: ExperimentConfig, directory) -> tuple:
    """`run_experiment(cfg)` with its report written in `directory`: the
    result, then the report's text and kv files as read back."""
    base = str(directory / "report")
    result = run_experiment(replace(cfg, report_path=base))
    return result, open(base + ".txt").read(), open(base + ".kv").read()


@pytest.fixture(scope="module")
def caseless_run(tmp_path_factory):
    return run_reported(small_config(Strategy.CASELESS),
                        tmp_path_factory.mktemp("caseless"))


class TestRunExperiment:

    def test_caseless_cells_equal(self, caseless_run):
        grid = caseless_run[0].grid
        assert grid[CaseVariant.ORIGINAL].f1 == grid[CaseVariant.LOWER].f1
        assert grid[CaseVariant.ORIGINAL].f1 == grid[CaseVariant.UPPER].f1

    def test_report_contents(self, caseless_run):
        _, text, kv = caseless_run
        [line] = [l for l in text.splitlines() if l.startswith("caseless: ")]
        assert "seed=7" in line.split()
        assert "Original" in text and "Lower" in text and "Upper" in text
        assert "caseless.variant.original.f1=" in kv
        assert "caseless.train.sentences=150" in kv.splitlines()

    def test_augment_triples_training_size(self, tmp_path):
        _, _, kv = run_reported(small_config(Strategy.AUGMENT), tmp_path)
        assert "train.sentences=150" in kv
        assert "train.effective_sentences=450" in kv

    def test_report_files_written_atomically(self, tmp_path):
        base = str(tmp_path / "rep")
        model_path = str(tmp_path / "model.crf")
        [result], text = run_grid(
            [small_config(report_path=base, model_path=model_path)],
            report_path=str(tmp_path / "grid"),
        )
        # A one-config grid's report is that config's report.
        assert open(base + ".txt").read() == text
        assert open(base + ".kv").read() == open(str(tmp_path / "grid.kv")).read()
        assert load_file(model_path).feature_map == result.model.feature_map
        # No temporary file (".casener-*") is left beside the outputs.
        assert sorted(os.listdir(tmp_path)) == [
            "grid.kv", "grid.txt", "model.crf", "rep.kv", "rep.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_output_files_honour_the_umask(self, tmp_path, umask, mode):
        """Every writer gives a new file, and a replaced one, the mode a new
        file gets: 0o666 less the umask."""
        for name, write in WRITERS.items():
            directory = tmp_path / name
            directory.mkdir()
            old = os.umask(umask)
            try:
                paths = write(directory)
                for path in paths:
                    path.chmod(0o600)
                paths = write(directory)
            finally:
                os.umask(old)
            for path in paths:
                assert path.stat().st_mode & 0o777 == mode, path

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            base = str(tmp_path / f"rep-{run}")
            model_path = str(tmp_path / f"model-{run}.crf")
            run_experiment(small_config(
                report_path=base, model_path=model_path,
            ))
            outputs.append((
                open(base + ".txt", "rb").read(),
                open(base + ".kv", "rb").read(),
                open(model_path, "rb").read(),
            ))
        assert outputs[0] == outputs[1]

    def test_file_data_source(self, tmp_path, rng):
        train_c, test_c = generate(SMALL_SYNTH)
        train_path = str(tmp_path / "train.conll")
        test_path = str(tmp_path / "test.conll")
        write_conll_file(train_c, train_path)
        write_conll_file(test_c, test_path)
        result = run_experiment(ExperimentConfig(
            strategy=Strategy.BASELINE,
            train_path=train_path,
            test_path=test_path,
            train_config=TrainConfig(max_epochs=40),
            seed=7,
        ))
        direct = run_experiment(small_config(Strategy.BASELINE))
        assert result.grid == direct.grid


@dataclass(frozen=True)
class _WiderSynth(SynthConfig):
    """A `SynthConfig` with one field more, as a later setting would add."""

    extra_rate: float = 0.25


class TestSynthDescription:
    """A synthetic source is described by `SynthConfig`'s fields alone."""

    def test_grid_kv_names_the_split_sizes(self, tmp_path):
        report = tmp_path / "grid"
        assert main(["grid", "--data", "synth", "--synth-test-sentences",
                     "50", "--report", str(report)]) == EXIT_OK
        kv = (tmp_path / "grid.kv").read_text().splitlines()
        # The source is written once, not once per strategy.
        assert kv.count("data.synth.test_sentences=50") == 1
        assert kv.count("data.synth.train_sentences=2000") == 1
        assert not any(".data." in line for line in kv)

    @pytest.mark.parametrize("synth", [
        SMALL_SYNTH, _WiderSynth(seed=7, train_sentences=150, test_sentences=40),
    ], ids=["synth-config", "one-field-more"])
    def test_every_field_is_named(self, tmp_path, synth):
        _, text, kv = run_reported(small_config(synth=synth), tmp_path)
        [data_line] = [line for line in text.splitlines()
                       if line.startswith("data: ")]
        kv = kv.splitlines()
        assert [line.partition("=")[0] for line in kv
                if line.startswith("data.")] == [
            f"data.synth.{field.name}" for field in fields(synth)]
        for name, value in asdict(synth).items():
            setting = f"{name}={value!r}"
            assert f"data.synth.{setting}" in kv
            assert setting in data_line.split()


def _dropped_spans(result, kv: str) -> int:
    """The dropped-span count report `kv` states, which must be `result`'s."""
    kv = dict(line.split("=", 1) for line in kv.splitlines())
    dropped = int(kv[f"{result.config.strategy.value}.predictions.dropped_spans"])
    assert dropped == result.dropped_spans
    return dropped


class TestTypeMapping:
    def test_map_prediction_types(self):
        tags = TagSequence(("S-PER", "O", "B-ORG", "E-ORG"), Scheme.IOBES)
        mapped, dropped = map_prediction_types(
            tags, {"PER": "PERSON"}
        )
        assert mapped.tags == ("S-PERSON", "O", "O", "O")
        assert dropped == 1

    def test_experiment_with_type_map(self, tmp_path):
        result, text, kv = run_reported(small_config(
            Strategy.BASELINE, type_map={"PER": "PER"}
        ), tmp_path)
        # only PER predictions survive, so LOC/ORG gold spans are all missed
        metrics = result.grid[CaseVariant.ORIGINAL]
        assert metrics.predicted_count > 0
        assert set(metrics.per_type) >= {"PER"}
        assert _dropped_spans(result, kv) > 0
        assert "dropped to O" in text

    def test_caseless_type_map_row_is_case_invariant(self, tmp_path):
        result, _, kv = run_reported(small_config(
            Strategy.CASELESS, type_map={"PER": "PER", "LOC": "LOC"}
        ), tmp_path)
        f1 = {result.grid[v].f1 for v in CaseVariant}
        assert len(f1) == 1 and f1 != {0.0}
        assert _dropped_spans(result, kv) > 0


class TestRunGrid:
    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            run_grid([])

    def test_heterogeneous_test_sets_rejected(self):
        a = small_config(Strategy.BASELINE)
        b = small_config(
            Strategy.CASELESS,
            synth=default_config(seed=8, train_sentences=150,
                                 test_sentences=40),
        )
        with pytest.raises(ValueError):
            run_grid([a, b])

    def test_different_train_files_rejected(self, tmp_path):
        train_c, test_c = generate(SMALL_SYNTH)
        paths = [str(tmp_path / name) for name in ("a", "b", "test")]
        for corpus, path in zip((train_c, train_c, test_c), paths):
            write_conll_file(corpus, path)
        configs = [
            ExperimentConfig(strategy=s, train_path=train, test_path=paths[2])
            for s, train in zip(Strategy, paths[:2])
        ]
        with pytest.raises(ValueError, match="same train and test data"):
            run_grid(configs)

    def test_synth_next_to_files_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_load_corpora", lambda cfg: pytest.fail(
            "mixed data sources must be rejected before data loads"))
        files = ExperimentConfig(
            strategy=Strategy.CASELESS,
            train_path=str(tmp_path / "train"),
            test_path=str(tmp_path / "test"),
        )
        for configs in ([small_config(), files], [files, small_config()]):
            with pytest.raises(ValueError, match="same train and test data"):
                run_grid(configs)

    @pytest.mark.parametrize("what, field", [
        ("report", None), ("report", "report_path"), ("model", "model_path"),
    ])
    def test_missing_output_directory_fails_before_data_loads(
            self, tmp_path, monkeypatch, what, field):
        def no_load(cfg):
            pytest.fail("a missing output directory must stop the grid first")

        monkeypatch.setattr(harness, "_load_corpora", no_load)
        path = str(tmp_path / "missing" / "out")
        cfg = small_config(**({field: path} if field else {}))
        with pytest.raises(FileNotFoundError) as info:
            run_grid([small_config(Strategy.CASELESS), cfg],
                     report_path=None if field else path)
        assert str(info.value) == (
            f"{what} path {path!r}: directory "
            f"{str(tmp_path / 'missing')!r} does not exist"
        )

    @pytest.mark.parametrize("what, field", [
        ("report", None), ("report", "report_path"), ("model", "model_path"),
    ])
    def test_empty_output_path_fails_before_data_loads(
            self, tmp_path, monkeypatch, what, field):
        monkeypatch.setattr(harness, "_load_corpora", lambda cfg: pytest.fail(
            "an empty output path must stop the grid first"))
        monkeypatch.chdir(tmp_path)
        cfg = small_config(**({field: ""} if field else {}))
        with pytest.raises(ValueError, match=f"^{what} path is empty$"):
            run_grid([cfg], report_path=None if field else "")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("field", [None, "report_path"])
    def test_report_path_naming_a_directory_fails_before_data_loads(
            self, tmp_path, monkeypatch, field):
        monkeypatch.setattr(harness, "_load_corpora", lambda cfg: pytest.fail(
            "a report path naming a directory must stop the grid first"))
        path = str(tmp_path)
        cfg = small_config(**({field: path} if field else {}))
        with pytest.raises(IsADirectoryError,
                           match=f"^report path {path!r} is a directory$"):
            run_grid([cfg], report_path=None if field else path)
        assert os.listdir(tmp_path) == []

    def test_failing_later_strategy_writes_no_file(self, tmp_path,
                                                   monkeypatch):
        def train(corpus, template_set, cfg):
            if template_set is TemplateSet.CASE_AGNOSTIC:
                raise FloatingPointError("caseless training failed")
            return real(corpus, template_set, cfg)

        real = harness.train
        monkeypatch.setattr(harness, "train", train)
        configs = [
            small_config(Strategy.BASELINE, report_path=str(tmp_path / "base"),
                         model_path=str(tmp_path / "base.crf")),
            small_config(Strategy.CASELESS),
        ]
        with pytest.raises(FloatingPointError):
            run_grid(configs, report_path=str(tmp_path / "grid"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("first, second", [
        (("report_path", "out"), ("report_path", "out")),
        (("model_path", "out.crf"), ("model_path", "out.crf")),
        (("model_path", "out.txt"), ("report_path", "out")),
    ], ids=["reports", "models", "model-and-report"])
    def test_shared_output_path_fails_before_training(
            self, tmp_path, monkeypatch, first, second):
        monkeypatch.setattr(harness, "_load_corpora", lambda cfg: pytest.fail(
            "a shared output path must stop the grid first"))
        configs = [
            small_config(Strategy.BASELINE, **{first[0]: str(tmp_path / first[1])}),
            small_config(Strategy.CASELESS, **{second[0]: str(tmp_path / second[1])}),
        ]
        with pytest.raises(harness.PathCollisionError, match=(
                rf"^configs\[0\]\.{first[0]} and configs\[1\]\.{second[0]} "
                "name the same file$")):
            run_grid(configs)
        assert os.listdir(tmp_path) == []

    def test_data_loaded_once_and_each_model_trained_once(self, monkeypatch):
        calls = {"train": 0, "generate": 0}

        def counted(name):
            real = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)

        counted("train")
        counted("generate")
        quick = TrainConfig(max_epochs=5)
        results, _ = run_grid(
            [small_config(s, train_config=quick) for s in Strategy]
        )
        assert calls == {"train": 3, "generate": 1}
        by_strategy = {r.config.strategy: r.model for r in results}
        assert by_strategy[Strategy.BASELINE] is by_strategy[Strategy.TRUECASING]
        assert by_strategy[Strategy.BASELINE] is not by_strategy[Strategy.AUGMENT]

        run_experiment(small_config(Strategy.TRUECASING, train_config=quick))
        assert calls == {"train": 4, "generate": 2}
        # a different training config is a different model
        run_grid([
            small_config(Strategy.BASELINE, train_config=quick),
            small_config(Strategy.TRUECASING,
                         train_config=TrainConfig(max_epochs=6)),
        ])
        assert calls == {"train": 6, "generate": 3}

    def test_grid_shape_and_consistency(self, tmp_path, monkeypatch):
        built = []  # the strategies of each report built

        def spy(data, results):
            built.append([r.config.strategy for r in results])
            return real(data, results)

        real = harness._report
        monkeypatch.setattr(harness, "_report", spy)
        configs = [small_config(s) for s in Strategy]
        results, combined = run_grid(
            configs, report_path=str(tmp_path / "grid")
        )
        assert built == [list(Strategy)]  # one report, of all four
        assert len(results) == 4
        lines = [l for l in combined.splitlines() if l]
        table_rows = [
            l for l in lines
            if l.split() and l.split()[0] in {s.value for s in Strategy}
        ]
        assert len(table_rows) == 4
        assert open(str(tmp_path / "grid.txt")).read() == combined
        # Each config's report file is the report of its one-config run.
        run_grid([replace(cfg, report_path=str(tmp_path / cfg.strategy.value))
                  for cfg in configs])
        for result in results:
            base = str(tmp_path / result.config.strategy.value)
            [single], text = run_grid([result.config],
                                      report_path=base + "-single")
            assert single.grid == result.grid
            for suffix in (".txt", ".kv"):
                assert (open(base + suffix).read()
                        == open(base + "-single" + suffix).read())
            assert open(base + ".txt").read() == text


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# comment\nstrategy = augment\n\nseed=3\nreport = out/rep\n"
        )
        assert read_config_file(str(path)) == {
            "strategy": "augment", "seed": "3", "report": "out/rep",
        }

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("\ufeffstrategy = augment\n", encoding="utf-8")
        assert read_config_file(str(path)) == {"strategy": "augment"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            read_config_file(str(path))
