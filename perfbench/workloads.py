"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

Every workload drives `casener` only through its Python API, in this
process, as a closed loop with one caller: the next call starts when the
previous one returned.  No layer queues work, so no layer has a waiting
time to report.

An untraced run sets its inputs up several times, half before its timed
rounds and half after its check phase (median = `setup_s`), and runs a
fixed number of timed rounds that fills the time budget on the reference
machine (median round time = `wall_s`).

Tagging metrics are taken per sentence, over several passes, and each
sentence keeps the fastest of its times.  On a shared machine other tenants
slow a process down in bursts of some 20-60 ms, and how much of the time
they do so drifts over minutes: the median of a 30 s window moved by 10-25 %
between windows there.  A sentence takes well under a millisecond, so the
fastest of a few passes over it is rarely hit by such a burst.

A traced run sets up once, then runs one untraced round and one traced
round, both without the tagging done only for the tagging metrics, then the
check phase.  Its per-layer numbers cover the program's work: the traced
round, the set-up where the set-up is the program's work, and of the check
phase only the models' save/load round trip.
Failed checks mark the operations they concern as failed and never abort
the run.
"""

from __future__ import annotations

import contextlib
import importlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from casener import crf, evaluation, harness, synth, transforms
from casener.corpus import AnnotatedSentence, Corpus, Scheme, Sentence, TagSequence
from casener.features import TemplateSet
from casener.harness import ExperimentConfig, Strategy
from casener.transforms import CaseVariant

from tracer import Tracer, tokens

# `casener.truecase` the attribute is the re-exported function; this is the module.
truecase = importlib.import_module("casener.truecase")

VARIANTS = tuple(CaseVariant)

#: Test-time preprocessing of each strategy, as the harness applies it.
PIPELINE = {
    Strategy.BASELINE: "none",
    Strategy.CASELESS: "lowercase",
    Strategy.TRUECASING: "truecase",
    Strategy.AUGMENT: "none",
}

#: The README's F1 table (percent; original, lower, upper) and the L-BFGS
#: iteration counts of the synth grid on seed 42.
README_F1 = {
    "baseline": (96.0, 77.8, 80.6),
    "caseless": (89.6, 89.6, 89.6),
    "truecasing": (85.1, 85.1, 85.1),
    "augment": (95.0, 91.2, 91.7),
}
README_ITERATIONS = {"baseline": 41, "caseless": 43, "truecasing": 41, "augment": 66}

#: tag_bulk F1 (percent) per (pipeline, variant) on seed 42, recorded when
#: the benchmark was defined.
TAG_BULK_F1_SEED42 = {
    ("none", "original"): 95.3504,
    ("none", "lower"): 78.5795,
    ("none", "upper"): 78.0881,
    ("lowercase", "original"): 89.6147,
    ("lowercase", "lower"): 89.6147,
    ("lowercase", "upper"): 89.6147,
    ("truecase", "original"): 85.5070,
    ("truecase", "lower"): 85.5070,
    ("truecase", "upper"): 85.5070,
}

F1_TOLERANCE = 0.1  # percentage points

def iobes_legal(tags: tuple[str, ...]) -> bool:
    """IOBES legality, written out here so the check does not trust casener."""
    open_type = None  # entity type of a span opened by B- and not yet closed
    for tag in tags:
        prefix, _, etype = tag.partition("-")
        if open_type is None:
            if tag == "O" or (prefix == "S" and etype):
                continue
            if prefix == "B" and etype:
                open_type = etype
                continue
            return False
        if prefix not in ("I", "E") or etype != open_type:
            return False
        if prefix == "E":
            open_type = None
    return open_type is None


def join_documents(corpus: Corpus, seed: int) -> Corpus:
    """Join runs of 2-12 consecutive sentences into annotated documents.

    Run lengths come from an RNG seeded with the workload seed; the last
    document takes whatever sentences are left.
    """
    rng = random.Random(f"train_long/{seed}")
    sentences = corpus.sentences
    docs = []
    i = 0
    while i < len(sentences):
        run = sentences[i : i + rng.randint(2, 12)]
        docs.append(
            AnnotatedSentence(
                Sentence(tuple(tok for ann in run for tok in ann.sentence.tokens)),
                TagSequence(
                    tuple(tag for ann in run for tag in ann.gold.tags), Scheme.IOBES
                ),
            )
        )
        i += len(run)
    return Corpus(tuple(docs), f"documents joined from: {corpus.provenance}")


class Ledger:
    """Operations attempted and failed, and every check made.

    A check given no operations concerns the whole run: if it fails, every
    operation counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.run_failed = False
        self.checks: dict[str, list[int]] = {}  # name -> [passed, failed]

    def add(self, n: int) -> range:
        ops = range(self.attempted, self.attempted + n)
        self.attempted += n
        return ops

    def check(self, name: str, ok: bool, ops: range | None = None) -> None:
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok:
            if ops is None:
                self.run_failed = True
            else:
                self.failed_ops.update(ops)

    @property
    def failed(self) -> int:
        return self.attempted if self.run_failed else len(self.failed_ops)


class TagStats:
    """Per-sentence tagging time (preprocessing plus decoding).

    A sentence tagged in several passes keeps the fastest of its times.
    """

    def __init__(self) -> None:
        self.best: dict[tuple, float] = {}
        self.tokens = 0

    def record(self, key: tuple, seconds: float, n_tokens: int) -> None:
        if key not in self.best:
            self.best[key] = seconds
            self.tokens += n_tokens
        elif seconds < self.best[key]:
            self.best[key] = seconds


def preprocessor(pipeline: str, truecaser):
    if pipeline == "lowercase":
        return transforms.to_lower
    if pipeline == "truecase":
        return lambda sentence: truecase.truecase(truecaser, sentence)
    return None


def tag_corpus(model, corpus: Corpus, prep, stats: TagStats, cell) -> list[TagSequence]:
    predictions = []
    for i, ann in enumerate(corpus):
        start = time.perf_counter()
        sentence = ann.sentence if prep is None else prep(ann.sentence)
        predicted = crf.decode(model, sentence)
        stats.record((cell, i), time.perf_counter() - start, len(sentence))
        predictions.append(predicted)
    return predictions


def well_formed(predicted: TagSequence, ann: AnnotatedSentence) -> bool:
    return len(predicted) == len(ann.sentence) and iobes_legal(predicted.tags)


def round_trip(model) -> tuple[bytes, crf.CrfModel, bool]:
    """Save, load and save again; the two saves must be byte-identical."""
    data = crf.save(model)
    loaded = crf.load(data)
    return data, loaded, crf.save(loaded) == data


@dataclass
class Round:
    wall_s: float
    ops: range
    payload: object = None


class Workload:
    """One benchmark run of one workload; subclasses define the work."""

    #: How many times a run times the set-up.
    setups: int
    #: Whether the traced run traces the set-up: false where the set-up only
    #: prepares the benchmark's own inputs.
    traced_setup = True
    #: A round's length on a 2-core Xeon at 2.1 GHz; a run of `seconds`
    #: makes seconds // nominal_round_s rounds (at least one), a number
    #: fixed per workload so that every run takes as many samples.
    nominal_round_s: float

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ledger = Ledger()
        self.tags = TagStats()
        self.rounds: list[Round] = []
        self.iterations: dict[str, int] = {}
        self.model_bytes = 0
        self.distinct_models = 0
        self.lines: list[str] = []

    def check(self, name: str, ok: bool, ops: range | None = None) -> None:
        self.ledger.check(name, ok, ops)

    def record_iterations(
        self, strategy: str, model, ops: range | None, readme: bool = True
    ) -> None:
        n = int(model.metadata["iterations"])
        if strategy in self.iterations:
            self.check(f"{strategy} iterations repeat", n == self.iterations[strategy], ops)
        self.iterations[strategy] = n
        if readme and self.seed == 42:
            self.check(
                f"{strategy} iterations = README on seed 42",
                n == README_ITERATIONS[strategy], ops,
            )

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, measure_tags: bool = True) -> Round:
        """One timed round; `measure_tags=False` may skip tagging done only
        for the tagging metrics."""
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def train_tokens_per_s(self) -> float:
        raise NotImplementedError


class GridSynth(Workload):
    """The paper's grid: all four strategies on `default_config(seed)`.

    A round calls `harness.run_grid` once per strategy (`wall_s` is the sum)
    and, after each, tags that strategy's three test variants again with its
    model, one sentence at a time, in several passes: this gives the tagging
    metrics, sampled at four points spread over the round.  Operations: the
    4 trainings and the 12 scored cells of each round.
    """

    setups = 20
    nominal_round_s = 50.0
    tag_passes = 6
    # run_grid generates its own data; the set-up only feeds the re-tagging.
    traced_setup = False

    def setup(self) -> None:
        cfg = synth.default_config(self.seed)
        self.train, test = synth.generate(cfg)
        self.configs = [ExperimentConfig(strategy=s, synth=cfg) for s in Strategy]
        self.train_tokens = sum(
            tokens(harness.training_view(self.train, s)[0]) for s in Strategy
        )
        self.truecaser = truecase.train_truecaser(self.train)
        self.corpora = {v: transforms.make_variant(test, v) for v in VARIANTS}

    @staticmethod
    def cells(ops: range, i: int) -> range:
        return ops[4 + 3 * i : 7 + 3 * i]

    def round(self, measure_tags: bool = True) -> Round:
        ops = self.ledger.add(4 + 4 * len(VARIANTS))
        wall = 0.0
        results = []
        for i, cfg in enumerate(self.configs):
            start = time.perf_counter()
            [result], _ = harness.run_grid([cfg])
            wall += time.perf_counter() - start
            results.append(result)
            if measure_tags:
                self.retag(i, result, self.cells(ops, i), self.tag_passes)
        first = self.rounds[0].payload if self.rounds else None
        for i, result in enumerate(results):
            name = result.config.strategy.value
            row = self.cells(ops, i)
            self.record_iterations(name, result.model, ops[i : i + 1])
            for j, v in enumerate(VARIANTS):
                f1 = 100 * result.grid[v].f1
                if self.seed == 42:
                    self.check(
                        f"{name}/{v.value} F1 = README on seed 42",
                        abs(f1 - README_F1[name][j]) <= F1_TOLERANCE, row[j : j + 1],
                    )
                if first is not None:
                    self.check(
                        f"{name}/{v.value} F1 repeats",
                        result.grid[v] == first[i].grid[v], row[j : j + 1],
                    )
            if PIPELINE[result.config.strategy] != "none":
                self.check(
                    f"{name} row constant across variants",
                    result.grid[VARIANTS[0]] == result.grid[VARIANTS[1]] == result.grid[VARIANTS[2]],
                    row,
                )
        return Round(wall, ops, results)

    def retag(self, i: int, result, row: range, passes: int) -> None:
        name = result.config.strategy.value
        prep = preprocessor(PIPELINE[result.config.strategy], self.truecaser)
        first = {}
        for _ in range(passes):
            for j, v in enumerate(VARIANTS):
                corpus = self.corpora[v]
                predictions = tag_corpus(result.model, corpus, prep, self.tags, (i, j))
                if v in first:
                    self.check(f"{name}/{v.value} tags repeat", predictions == first[v], row[j : j + 1])
                    continue
                first[v] = predictions
                self.check(
                    f"{name}/{v.value} tags IOBES-legal, one per token",
                    all(map(well_formed, predictions, corpus)), row[j : j + 1],
                )
                rescored = evaluation.evaluate(predictions, [ann.gold for ann in corpus])
                self.check(
                    f"{name}/{v.value} re-tagged F1 = grid F1", rescored == result.grid[v], row[j : j + 1]
                )

    def finish(self) -> None:
        last = self.rounds[-1]
        if not self.tags.best:  # the rounds did not re-tag: check the tags once
            for i, result in enumerate(last.payload):
                self.retag(i, result, self.cells(last.ops, i), 1)
        saved = {}
        for i, result in enumerate(last.payload):
            data, _, same = round_trip(result.model)
            saved[result.config.strategy] = data
            self.check(
                f"{result.config.strategy.value} save/load round trip", same, last.ops[i : i + 1]
            )
        self.check(
            "baseline and truecasing models byte-identical",
            saved[Strategy.BASELINE] == saved[Strategy.TRUECASING], last.ops[2:3],
        )
        self.model_bytes = sum(len(data) for data in saved.values())
        self.distinct_models = len(set(saved.values()))
        for result in last.payload:
            self.lines.append(
                f"F1 (%) {result.config.strategy.value:<10} "
                + " ".join(f"{100 * result.grid[v].f1:8.4f}" for v in VARIANTS)
            )

    def train_tokens_per_s(self) -> float:
        # Without tracing, run_grid does not split training from scoring, so
        # the grid's effective training tokens are divided by its wall time.
        return statistics.median(self.train_tokens / r.wall_s for r in self.rounds)


class TrainLong(Workload):
    """One `baseline` training on the synth train split joined into documents.

    Operations: trainings.  The check phase tags the training documents with
    the trained model (after a save/load round trip), which gives the tagging
    metrics on long sequences.
    """

    setups = 10
    nominal_round_s = 10.0
    #: A fixed budget of L-BFGS iterations: trained to convergence, the
    #: iteration count varies with the seed (35-40), and the time with it.
    config = crf.TrainConfig(max_epochs=40, tolerance=1e-12)
    tag_passes = 4
    tag_cells = (
        ("none", CaseVariant.ORIGINAL),
        ("none", CaseVariant.LOWER),
        ("truecase", CaseVariant.LOWER),
        ("truecase", CaseVariant.UPPER),
    )

    def setup(self) -> None:
        train, _ = synth.generate(synth.default_config(self.seed))
        self.docs = join_documents(train, self.seed)
        self.doc_tokens = tokens(self.docs)

    def round(self, measure_tags: bool = True) -> Round:
        start = time.perf_counter()
        model = crf.train(self.docs, TemplateSet.CASE_AWARE, self.config)
        wall = time.perf_counter() - start
        ops = self.ledger.add(1)
        self.record_iterations("baseline", model, ops, readme=False)
        if self.rounds:
            first = self.rounds[0].payload
            self.check(
                "weights repeat",
                np.array_equal(model.emission, first.emission)
                and np.array_equal(model.transition, first.transition),
                ops,
            )
        return Round(wall, ops, model)

    def finish(self) -> None:
        data, model, same = round_trip(self.rounds[-1].payload)
        self.check("save/load round trip", same)
        self.model_bytes = len(data)
        self.distinct_models = 1
        truecaser = truecase.train_truecaser(self.docs)
        corpora = {v: transforms.make_variant(self.docs, v) for v in VARIANTS}
        predicted = {}
        for _ in range(self.tag_passes):
            for cell in self.tag_cells:
                pipeline, variant = cell
                corpus = corpora[variant]
                predictions = tag_corpus(
                    model, corpus, preprocessor(pipeline, truecaser), self.tags, cell
                )
                name = f"{pipeline}/{variant.value}"
                if cell in predicted:
                    self.check(f"{name} tags repeat", predictions == predicted[cell])
                    continue
                predicted[cell] = predictions
                self.check(
                    f"{name} tags IOBES-legal, one per token",
                    all(map(well_formed, predictions, corpus)),
                )
                f1 = evaluation.evaluate(predictions, [ann.gold for ann in corpus]).f1
                self.lines.append(f"training-document F1 (%) {name}: {100 * f1:.4f}")
                if cell == ("none", CaseVariant.ORIGINAL):
                    self.check("training-document F1 >= 90 %", f1 >= 0.9)
        self.check(
            "truecase pipeline: same tags on lower and upper documents",
            predicted["truecase", CaseVariant.LOWER] == predicted["truecase", CaseVariant.UPPER],
        )
        lengths = {len(ann.sentence) for ann in self.docs}
        self.lines.append(
            f"documents: {len(self.docs)}, tokens {self.doc_tokens}, "
            f"lengths {min(lengths)}-{max(lengths)} ({len(lengths)} distinct)"
        )

    def train_tokens_per_s(self) -> float:
        return statistics.median(self.doc_tokens / r.wall_s for r in self.rounds)


class TagBulk(Workload):
    """Tag a 5000-sentence test split under 3 pipelines x 3 case variants.

    Set-up trains the baseline model (which the truecase pipeline shares),
    the caseless model and the truecaser, and round-trips both models through
    `crf.save`/`crf.load`.  Operations: sentences tagged.
    """

    setups = 2
    nominal_round_s = 12.0
    test_sentences = 5000
    pipelines = ("none", "lowercase", "truecase")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.train_rates: list[float] = []
        self.saved: dict[str, bytes] = {}

    def corpora(self) -> tuple[Corpus, Corpus]:
        return synth.generate(
            synth.default_config(self.seed, test_sentences=self.test_sentences)
        )

    def setup(self) -> None:
        train, self.test = self.corpora()
        lower_view, agnostic = harness.training_view(train, Strategy.CASELESS)
        start = time.perf_counter()
        baseline = crf.train(train, TemplateSet.CASE_AWARE, crf.TrainConfig())
        caseless = crf.train(lower_view, agnostic, crf.TrainConfig())
        self.train_rates.append(
            (tokens(train) + tokens(lower_view)) / (time.perf_counter() - start)
        )
        self.truecaser = truecase.train_truecaser(train)
        loaded = {}
        for name, model in (("baseline", baseline), ("caseless", caseless)):
            self.record_iterations(name, model, None)
            data, loaded[name], same = round_trip(model)
            self.check(f"{name} save/load round trip", same)
            if name in self.saved:
                self.check(f"{name} model bytes repeat across set-ups", data == self.saved[name])
            self.saved[name] = data
        self.models = {
            "none": loaded["baseline"],
            "lowercase": loaded["caseless"],
            "truecase": loaded["baseline"],
        }
        self.model_bytes = sum(len(data) for data in self.saved.values())
        self.distinct_models = len(set(self.saved.values()))

    def round(self, measure_tags: bool = True) -> Round:
        cells = {}
        start = time.perf_counter()
        for pipeline in self.pipelines:
            prep = preprocessor(pipeline, self.truecaser)
            for v in VARIANTS:
                corpus = transforms.make_variant(self.test, v)
                predictions = tag_corpus(
                    self.models[pipeline], corpus, prep, self.tags, (pipeline, v)
                )
                metrics = evaluation.evaluate(predictions, [ann.gold for ann in corpus])
                cells[pipeline, v] = (corpus, predictions, metrics)
        wall = time.perf_counter() - start
        n = len(self.test)
        ops = self.ledger.add(n * len(cells))
        first = self.rounds[0].payload if self.rounds else None
        for k, ((pipeline, v), (corpus, predictions, metrics)) in enumerate(cells.items()):
            cell = ops[k * n : (k + 1) * n]
            name = f"{pipeline}/{v.value}"
            bad = [i for i, ok in enumerate(map(well_formed, predictions, corpus)) if not ok]
            self.check(f"{name} tags IOBES-legal, one per token", not bad, [cell[i] for i in bad])
            if self.seed == 42:
                self.check(
                    f"{name} F1 = recorded on seed 42",
                    abs(100 * metrics.f1 - TAG_BULK_F1_SEED42[pipeline, v.value]) <= F1_TOLERANCE,
                    cell,
                )
            if pipeline != "none":
                self.check(
                    f"{name} tags = {pipeline}/original tags",
                    predictions == cells[pipeline, VARIANTS[0]][1], cell,
                )
            if first is not None:
                self.check(f"{name} F1 repeats", metrics == first[pipeline, v], cell)
        self.lines = [
            f"F1 (%) {pipeline}/{v.value}: {100 * metrics.f1:.4f}"
            for (pipeline, v), (_, _, metrics) in cells.items()
        ]
        return Round(wall, ops, {key: value[2] for key, value in cells.items()})

    def finish(self) -> None:
        pass

    def train_tokens_per_s(self) -> float:
        # The timed rounds do not train; this is the set-up's training rate.
        return statistics.median(self.train_rates)


WORKLOADS = {"grid_synth": GridSynth, "train_long": TrainLong, "tag_bulk": TagBulk}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def iteration_counts(wl: Workload) -> dict[str, tuple[int, str]]:
    return {f"crf.lbfgs_iterations.{s}": (n, "count") for s, n in wl.iterations.items()}


@dataclass
class Outcome:
    workload: Workload
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    wl = WORKLOADS[name](seed)
    if traced:
        return _run_traced(wl)

    def timed_setup() -> float:
        start = time.perf_counter()
        wl.setup()
        return time.perf_counter() - start

    # Half the set-ups run before the rounds and half after the check phase:
    # a set-up takes a fraction of a second on grid_synth, and the machine's
    # speed drifts over a run, so setup_s samples both ends of it.
    setup_s = [timed_setup() for _ in range(wl.setups - wl.setups // 2)]
    for _ in range(max(1, int(seconds // wl.nominal_round_s))):
        wl.rounds.append(wl.round())
    wl.finish()
    setup_s += [timed_setup() for _ in range(wl.setups // 2)]
    times = list(wl.tags.best.values())
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(r.wall_s for r in wl.rounds), "s"),
        "train_tokens_per_s": (wl.train_tokens_per_s(), "tok/s"),
        "tag_tokens_per_s": (wl.tags.tokens / sum(times), "tok/s"),
        "tag_sentence_ms_p50": (1e3 * float(np.percentile(times, 50)), "ms"),
        "tag_sentence_ms_p99": (1e3 * float(np.percentile(times, 99)), "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        **iteration_counts(wl),
    }
    notes = [
        f"setup_s: median of {len(setup_s)} set-ups; wall_s: median of "
        f"{len(wl.rounds)} round(s)",
        f"tag_*: preprocess + decode of {len(times)} sentences, {wl.tags.tokens} "
        f"tokens, fastest of the passes over each",
    ]
    return Outcome(wl, metrics, notes)


#: Of the check phase, only the models' save/load round trip is traced: no
#: timed round persists a model, so this is where `crf.save_s` and
#: `crf.load_s` come from on grid_synth and train_long.
CHECK_SPANS = frozenset({"crf.save", "crf.load"})


def _run_traced(wl: Workload) -> Outcome:
    tracer = Tracer()
    with tracer.installed() if wl.traced_setup else contextlib.nullcontext():
        wl.setup()
    wl.rounds.append(wl.round(measure_tags=False))  # untraced reference
    with tracer.installed():
        wl.rounds.append(wl.round(measure_tags=False))
    with tracer.installed(only=CHECK_SPANS):
        wl.finish()
    overhead = wl.rounds[1].wall_s - wl.rounds[0].wall_s

    def seconds(name):
        return tracer.stat(name).seconds

    def rate(name):
        stat = tracer.stat(name)
        return stat.work / stat.seconds if stat.seconds else 0.0

    objective = tracer.stat("crf.objective").durations or [0.0]
    train_tokens = tracer.stat("features.fit").work
    train_extracts = tracer.calls_under("features.extract", "features.fit") + tracer.calls_under(
        "features.extract", "crf.encode"
    )
    models_trained = tracer.stat("crf.train").calls
    metrics = {
        "crf.objective_calls": (tracer.stat("crf.objective").calls, "count"),
        "crf.objective_ms_p50": (1e3 * float(np.percentile(objective, 50)), "ms"),
        "crf.objective_ms_p90": (1e3 * float(np.percentile(objective, 90)), "ms"),
        "crf.objective_s": (seconds("crf.objective"), "s"),
        **iteration_counts(wl),
        "features.fit_s": (seconds("features.fit"), "s"),
        "features.fit_tokens_per_s": (rate("features.fit"), "tok/s"),
        "crf.encode_s": (seconds("crf.encode"), "s"),
        "features.extract_calls_per_train_token": (
            train_extracts / train_tokens if train_tokens else 0.0, "calls/tok"
        ),
        "features.extract_decode_s": (
            tracer.seconds_under("features.extract", "crf.decode"), "s"
        ),
        "crf.decode_s": (seconds("crf.decode"), "s"),
        "crf.decode_tokens_per_s": (rate("crf.decode"), "tok/s"),
        "crf.save_s": (seconds("crf.save"), "s"),
        "crf.load_s": (seconds("crf.load"), "s"),
        "crf.model_bytes": (wl.model_bytes, "bytes"),
        "crf.models_trained": (models_trained, "count"),
        "crf.distinct_models_ratio": (
            wl.distinct_models / models_trained if models_trained else 0.0, "ratio"
        ),
        "truecase.fit_s": (seconds("truecase.fit"), "s"),
        "truecase.apply_tokens_per_s": (rate("truecase.apply"), "tok/s"),
        "synth.generate_s": (seconds("synth.generate"), "s"),
        "transforms.variant_s": (seconds("transforms.variant"), "s"),
        "evaluation.evaluate_s": (seconds("evaluation.evaluate"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    for key, stat in tracer.stats.items():
        if key.startswith("harness.run_experiment."):
            metrics[key.replace(".run_experiment.", ".run_experiment_s.")] = (stat.seconds, "s")
    notes = [
        f"traced: {'the set-up, ' if wl.traced_setup else ''}one round and the "
        "check phase's crf.save/crf.load; per-layer times are inclusive, "
        "outermost call of a name only",
        f"trace overhead: traced round {wl.rounds[1].wall_s:.4f} s - untraced "
        f"round {wl.rounds[0].wall_s:.4f} s = {overhead:+.4f} s",
    ]
    return Outcome(wl, metrics, notes)
