"""Per-layer timing for the traced benchmark run, taken at layer boundaries.

The tracer replaces module attributes of the `casener` package with timing
wrappers, so every call that goes through the wrapped name records a span.
It wraps the name the *calling* module uses: `crf.train` calls
`fit_feature_map` through `casener.crf.fit_feature_map`, while `crf.train`
itself reaches the harness as `casener.harness.train`.  Nothing is wrapped
until `installed()` is entered, and every original is restored on exit.
`installed(only=...)` wraps just the targets of the given span names, and
the spans of every installation add up in the same tracer.

Spans are aggregated in memory as they close: per span name, the call
count, the time of the outermost call (a span nested in one of the same
name adds no time), optional units of work, and each call's duration; per
(name, innermost enclosing span) pair, the call count and time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


class TraceTargetError(RuntimeError):
    """A name the tracer must wrap no longer exists in the package."""


def tokens(corpus) -> int:
    return sum(len(ann.sentence) for ann in corpus)


def _sentence_tokens(args, result) -> int:
    return len(args[1])


#: (module, attribute, span name, work units of one call or None,
#:  span-name suffix of one call or None)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("casener.synth", "generate", "synth.generate", None, None),
    ("casener.harness", "generate", "synth.generate", None, None),
    ("casener.transforms", "make_variant", "transforms.variant", None, None),
    ("casener.evaluation", "make_variant", "transforms.variant", None, None),
    ("casener.harness", "make_variant", "transforms.variant", None, None),
    ("casener.harness", "augment", "transforms.variant", None, None),
    ("casener.harness", "run_experiment", "harness.run_experiment", None,
     lambda args: args[0].strategy.value),
    ("casener.crf", "train", "crf.train", None, None),
    ("casener.harness", "train", "crf.train", None, None),
    ("casener.crf", "fit_feature_map", "features.fit",
     lambda args, result: tokens(args[0]), None),
    ("casener.features", "extract", "features.extract", None, None),
    ("casener.crf", "extract", "features.extract", None, None),
    ("casener.crf", "_encode", "crf.encode", None, None),
    ("casener.crf", "_neg_ll_and_grad", "crf.objective", None, None),
    ("casener.crf", "decode", "crf.decode", _sentence_tokens, None),
    ("casener.evaluation", "decode", "crf.decode", _sentence_tokens, None),
    ("casener.crf", "save", "crf.save", lambda args, result: len(result), None),
    ("casener.crf", "load", "crf.load", None, None),
    ("casener.truecase", "train_truecaser", "truecase.fit", None, None),
    ("casener.harness", "train_truecaser", "truecase.fit", None, None),
    ("casener.truecase", "truecase", "truecase.apply", _sentence_tokens, None),
    ("casener.evaluation", "truecase", "truecase.apply", _sentence_tokens, None),
    ("casener.evaluation", "evaluate", "evaluation.evaluate", None, None),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    work: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.by_parent: dict[tuple[str, str | None], list] = {}
        self._stack: list[str] = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def calls_under(self, name: str, parent: str) -> int:
        return self.by_parent.get((name, parent), [0, 0.0])[0]

    def seconds_under(self, name: str, parent: str) -> float:
        return self.by_parent.get((name, parent), [0, 0.0])[1]

    def _wrap(self, fn, name, work, suffix):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = name in self._stack
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
            key = name if suffix is None else f"{name}.{suffix(args)}"
            stat = self.stats.setdefault(key, SpanStats())
            stat.calls += 1
            stat.durations.append(elapsed)
            if not nested:
                stat.seconds += elapsed
            if work is not None:
                stat.work += work(args, result)
            pair = self.by_parent.setdefault((name, parent), [0, 0.0])
            pair[0] += 1
            pair[1] += elapsed
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, only: frozenset[str] | None = None) -> Iterator["Tracer"]:
        """Wrap every target (or those whose span name is in `only`); raise
        TraceTargetError if one is missing."""
        originals = []
        try:
            for module_name, attr, name, work, suffix in self.targets:
                if only is not None and name not in only:
                    continue
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise TraceTargetError(
                        f"{module_name}.{attr} is gone; update the tracer's "
                        f"targets instead of reporting zero for {name}"
                    )
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, work, suffix))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
