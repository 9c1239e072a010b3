"""Time `crf.save` and `crf.load` per call on three models and print one
JSON object: each model's file bytes and their sha256, decompressed bytes,
the per-call save and load times of the calls it makes, and the
tracemalloc peak of one save and one load call.

    PYTHONPATH=src python3 scripts/bench_model_file.py [--calls N]

The models are the seed-42 synth baseline and caseless models and a
long-tail baseline model: synth seed 11 with 3,000 training sentences, in
which a seeded 30% of the alphabetic token occurrences get a random
3-letter lowercase suffix.  That corpus is built here, from `synth`'s
output, so the package keeps no setting for it.  Run it with the `src` of
each checkout to compare two versions; it imports only names both keep.
"""

import argparse
import gzip
import hashlib
import json
import os
import random
import statistics
import string
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from casener import crf  # noqa: E402  (after the BLAS thread count)
from casener.corpus import AnnotatedSentence, Corpus, Sentence  # noqa: E402
from casener.harness import Strategy, training_view  # noqa: E402
from casener.synth import default_config, generate  # noqa: E402


def long_tail(seed: int = 11, sentences: int = 3000, rate: float = 0.3,
              suffix_seed: int = 0) -> Corpus:
    """Synth seed `seed`'s training split with a random suffix on a
    seeded `rate` of its alphabetic token occurrences."""
    train, _ = generate(default_config(seed, train_sentences=sentences))
    draw = random.Random(suffix_seed)
    rare = []
    for ann in train:
        tokens = tuple(
            token + "".join(draw.choices(string.ascii_lowercase, k=3))
            if token.isalpha() and draw.random() < rate else token
            for token in ann.sentence.tokens
        )
        rare.append(AnnotatedSentence(Sentence(tokens), ann.gold))
    return Corpus(tuple(rare))


def per_call(fn, calls: int) -> list[float]:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def traced_peak(fn) -> int:
    """The most bytes Python's allocators held at once during `fn()`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(1e3 * median, 3), "q1_ms": round(1e3 * q1, 3),
            "q3_ms": round(1e3 * q3, 3), "calls": len(times)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args()
    train, _ = generate(default_config(42))
    corpora = {
        "seed42_baseline": training_view(train, Strategy.BASELINE),
        "seed42_caseless": training_view(train, Strategy.CASELESS),
        "long_tail_baseline": (long_tail(), training_view(
            train, Strategy.BASELINE)[1]),
    }
    result = {}
    for name, (corpus, template_set) in corpora.items():
        model = crf.train(corpus, template_set)
        data = crf.save(model)
        assert crf.save(crf.load(data)) == data
        calls = args.calls if len(data) < 1 << 20 else max(5, args.calls // 8)
        result[name] = {
            "features": model.feature_map.num_features,
            "iterations": model.metadata["iterations"],
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "decompressed_bytes": len(gzip.decompress(data)),
            "save": summary(per_call(lambda: crf.save(model), calls)),
            "load": summary(per_call(lambda: crf.load(data), calls)),
            "save_peak_bytes": traced_peak(lambda: crf.save(model)),
            "load_peak_bytes": traced_peak(lambda: crf.load(data)),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
