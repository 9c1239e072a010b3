"""The benchmark tracer's targets still exist in the package.

`perfbench/tracer.py` wraps module attributes by name; a renamed import in
`casener` would otherwise only show up when the benchmark runs traced.
"""

import importlib.util
import sys
from pathlib import Path

from casener import crf, evaluation
from casener.features import TemplateSet
from casener.truecase import train_truecaser
from conftest import random_corpus, random_model

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_tagging_goes_through_it(rng):
    tracer = _load_tracer()
    corpus = random_corpus(rng, sentences=5)
    model = random_model(rng, corpus)
    caser = train_truecaser(corpus)
    with tracer.Tracer().installed() as trace:
        assert hasattr(evaluation.decode, "__wrapped__")
        evaluation.tag_corpus(model, corpus, truecaser=caser)
    assert not hasattr(evaluation.decode, "__wrapped__")
    assert trace.stat("crf.decode").calls == len(corpus)
    assert trace.stat("truecase.apply").calls == len(corpus)


def test_training_goes_through_the_encode_and_objective_spans(rng):
    # The traced benchmark reads crf.encode and crf.objective; training that
    # bypassed crf's globals would report zeros for both without an error.
    tracer = _load_tracer()
    corpus = random_corpus(rng, sentences=5)
    with tracer.Tracer().installed() as trace:
        model = crf.train(corpus, TemplateSet.CASE_AWARE,
                          crf.TrainConfig(max_epochs=5))
    assert trace.stat("crf.train").calls == 1
    assert trace.stat("crf.encode").calls == 1
    assert (trace.stat("crf.objective").calls
            == model.metadata["function_evaluations"] > 0)
