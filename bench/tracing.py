"""Span tracer for the benchmark's traced run.

Run as ``python3 bench/tracing.py SPANS_JSON CLI_ARGS...``: the process
imports ``uner_pipeline``, replaces each public function named in ``TRACED``
with a timing wrapper in every module that holds a binding to it, runs the
CLI with ``CLI_ARGS`` and writes the recorded spans and counts to
``SPANS_JSON`` at exit. Nothing under ``src/`` changes. Per-token helpers are
never wrapped, so the wrappers add a cost per document or per call, not per
token.

``summarize`` turns a spans file into the per-layer metrics listed in
``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# layer (package module) -> its public functions timed in the traced run
TRACED = {
    "ingest": ("parse_dump_stream", "build_document", "collect_unique_targets"),
    "linker": ("load_catalog", "resolve_all", "save_catalog"),
    "mapping": ("load_mapping_tables",),
    "annotator": (
        "tokenize", "split_sentences", "project_annotations",
        "emit_conll", "read_conll_events", "parse_conll",
    ),
    "stats": ("compute_stats", "list_entities"),
    "enrich": (
        "build_global_dictionary", "filter_by_kg", "apply_dictionary",
        "apply_local_dictionaries", "save_dictionary",
    ),
    "evaluation": ("align", "per_tag_metrics", "coarse_report"),
    "cli": (
        "build_label_map", "cmd_extract", "cmd_link", "cmd_annotate",
        "cmd_stats", "cmd_enrich", "cmd_eval",
    ),
}
# generator functions: each step of the iteration is its own span
GENERATORS = {"ingest.parse_dump_stream", "annotator.read_conll_events"}


def _entities(corpus) -> int:
    return sum(tag.prefix == "B" for _, sentences in corpus.documents for s in sentences for _, tag in s.tokens)


def _sentences(corpus) -> int:
    return sum(len(sentences) for _, sentences in corpus.documents)


# counts taken from a call's bound arguments and its result, keyed by layer
COUNTS = {
    "ingest.build_document": lambda a, r: {"ingest.documents": 1, "ingest.links": len(r.links)},
    "linker.resolve_all": lambda a, r: {
        "linker.targets": len(a["targets"]),
        "linker.cache_hits": sum(t in a["cache"].entries for t in a["targets"]),
    },
    "cli.build_label_map": lambda a, r: {"mapping.labelled": len(r), "mapping.looked_up": len(a["catalog"].entries)},
    "annotator.tokenize": lambda a, r: {"annotator.tokens": len(r)},
    "annotator.project_annotations": lambda a, r: {
        "annotator.sentences_kept": len(r),
        "annotator.sentences": len(a["sentences"]),
    },
    "enrich.apply_dictionary": lambda a, r: {
        "enrich.dictionary_surfaces": len(a["dictionary"].entries),
        "enrich.pairs_tried": _sentences(a["corpus"]) * len(a["dictionary"].entries),
        "enrich.entities_added": _entities(r) - _entities(a["corpus"]),
    },
    "evaluation.align": lambda a, r: {"evaluation.pairs": len(r)},
}

COUNTED = ("ingest.documents", "ingest.links", "annotator.tokens", "enrich.dictionary_surfaces", "evaluation.pairs")
RATIOS = {
    "linker.cache_hit_ratio": ("linker.cache_hits", "linker.targets"),
    "mapping.labelled_ratio": ("mapping.labelled", "mapping.looked_up"),
    "annotator.sentence_keep_ratio": ("annotator.sentences_kept", "annotator.sentences"),
    "enrich.retag_yield": ("enrich.entities_added", "enrich.pairs_tried"),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.{name}.s", "s", "lower") for layer, names in TRACED.items() for name in names]
    + [(f"cli.{name}.self_s", "s", "lower") for name in TRACED["cli"] if name.startswith("cmd_")]
    + [(f"{layer}.self_s", "s", "lower") for layer in TRACED]
    + [(name, "count", "higher") for name in COUNTED]
    + [(name, "ratio", "higher") for name in RATIOS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    """Records a span (name, start, end, parent, thread) per wrapped call.

    Each thread keeps its own stack of open spans. A span opened on a worker
    thread with an empty stack is charged to the innermost span open on the
    main thread, the call that handed the work out.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = [name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        hook = COUNTS.get(name)
        signature = inspect.signature(fn) if hook else None

        if name in GENERATORS:

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                counts = hook(signature.bind(*args, **kwargs).arguments, result)
                with self._lock:
                    self.counts.update(counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED, in every module bound to it."""
        importlib.import_module("uner_pipeline.cli")  # imports every layer
        modules = [m for n, m in sys.modules.items() if n == "uner_pipeline" or n.startswith("uner_pipeline.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"uner_pipeline.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end) covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``<layer>.<function>.s`` sums the durations of the function's spans (on
    all threads); a self time is a span's duration minus the part of it that
    its child spans cover.
    """
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - _covered(start, end, children[index])
        metrics[f"{name}.s"] += end - start
        metrics[f"{name.split('.')[0]}.self_s"] += own
        if name.startswith("cli.cmd_"):
            metrics[f"{name}.self_s"] += own

    for name in COUNTED:
        metrics[name] = counts.get(name, 0)
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = counts.get(numerator, 0) / counts[denominator] if counts.get(denominator) else 0.0
    metrics.pop("trace.overhead_ratio")  # run.py fills it in from the untraced runs
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from uner_pipeline import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
