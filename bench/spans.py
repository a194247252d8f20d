"""In-memory span tracer that wraps layer functions under the names callers use.

Modules import layer functions by name (``from .corpus import save_manifest``),
so patching ``nst.corpus.save_manifest`` would miss every caller. The tracer
instead replaces the name in each consumer module's namespace, plus the
``ToyRecognizer`` methods and a few same-module calls that carry the layer's
inner work. ``Tracer.restore`` puts every original back, so untraced runs in
the same process execute the program unchanged.

A span is ``[name, start, end, parent]``; ``name`` is ``<layer>.<function>``
and ``parent`` indexes the span that was open when the call began. Calls are
single-threaded and synchronous, so spans nest and a span's self time is its
duration minus its children's durations.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = (
    "corpus",
    "scoring",
    "filtering",
    "balancing",
    "augment",
    "mixing",
    "recognizer",
    "pipeline",
    "cli",
)

# Modules whose imported layer functions are wrapped where they are looked up.
CONSUMERS = ("pipeline", "cli", "scoring", "filtering", "recognizer")

# Same-module calls that hold a layer's inner work (module -> function names).
INTERNAL = {
    "pipeline": ("run_generation",),
    "scoring": ("edit_alignment_counts", "best_hypothesis", "corpus_wer"),
    "corpus": ("write_features",),
}

METHODS = (("recognizer", "ToyRecognizer", ("transcribe", "train")),)


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_load(counts, fn, args, kwargs, result):
    counts["corpus.utts_read"] += len(result)


def _count_bytes_written(counts, fn, args, kwargs, result):
    counts["corpus.bytes_written"] += os.path.getsize(_arguments(fn, args, kwargs)["path"])


def _count_transcribe(counts, fn, args, kwargs, result):
    bound = _arguments(fn, args, kwargs)
    fpt = bound["self"].frames_per_token
    utterances = bound["utterances"]
    counts["recognizer.utts_decoded"] += len(utterances)
    counts["recognizer.blocks_decoded"] += sum(u.features.shape[0] // fpt for u in utterances)


def _count_filter(counts, fn, args, kwargs, result):
    counts["filtering.attempted"] += len(_arguments(fn, args, kwargs)["dataset"])
    counts["filtering.kept"] += len(result)


def _count_balance(counts, fn, args, kwargs, result):
    counts["balancing.pool_utts"] += len(_arguments(fn, args, kwargs)["pool"])
    counts["balancing.selected_utts"] += len(result.samples)


COUNTERS = {
    "corpus.load_manifest": _count_load,
    "corpus.save_manifest": _count_bytes_written,
    "corpus.write_features": _count_bytes_written,
    "recognizer.transcribe": _count_transcribe,
    "filtering.apply_filter": _count_filter,
    "balancing.submodular_sample": _count_balance,
}


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("nst."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Records spans and counts for the calls it wraps while installed."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        spans, stack, clock = self.spans, self._stack, self.clock
        index = len(spans)
        record = [name, clock(), 0.0, stack[-1] if stack else None]
        spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except Exception:
            self.counts[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            stack.pop()
            record[2] = clock()

    def wrap(self, name: str, fn):
        """A stand-in for ``fn`` that records a span per call (per item for generators)."""
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_stream(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(name, next, inner)
                    except StopIteration:
                        return
                    tracer.counts[name.split(".", 1)[0] + ".examples_drawn"] += (
                        len(item) if isinstance(item, list) else 1
                    )
                    yield item

            traced_stream.__wrapped__ = fn
            return traced_stream

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer.counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def targets(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every call site the tracer wraps."""
        found = []
        for short in CONSUMERS:
            module = importlib.import_module(f"nst.{short}")
            for attr, value in vars(module).items():
                layer = _layer_of(value) if inspect.isfunction(value) else None
                if layer is not None and layer != short:
                    found.append((module, attr, f"{layer}.{value.__name__}"))
        for short, names in INTERNAL.items():
            module = importlib.import_module(f"nst.{short}")
            for attr in names:
                found.append((module, attr, f"{short}.{attr}"))
        for short, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"nst.{short}"), cls_name)
            for attr in methods:
                found.append((cls, attr, f"{short}.{attr}"))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in self.targets():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per-name inclusive seconds, per-name call counts, per-layer self seconds."""
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter({layer: 0.0 for layer in LAYERS})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
    return inclusive, calls, layer_self
