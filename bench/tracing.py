"""Per-layer tracing for the benchmark's traced runs.

The wrappers replace names *as they are bound in ``bovw.harness``*: the
harness imports its collaborators with ``from .x import y``, so patching
``bovw.features.extract_dense_sift`` would not reach the calls the
experiments make. Each wrapper records one span (name, start, end, parent)
in memory; the spans are written out when the traced process ends and the
per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

# name bound in bovw.harness -> layer (the src/bovw module that owns it)
HARNESS_NAMES = {
    "load_image": "corpus",
    "select_classes": "corpus",
    "extract_dense_sift": "features",
    "save_descriptor_cache": "features",
    "load_descriptor_cache": "features",
    "build_random_codebook": "codebook",
    "encode_image": "encoding",
    "train_ovr": "classifier",
    "accuracy": "classifier",
    "split_balanced": "harness",
    "run_trial": "harness",
    "write_summary_csv": "harness",
}

PER_LAYER_UNITS = {
    "corpus.load_image_calls": "count",
    "corpus.load_image_s": "s",
    "features.extract_points": "count",
    "features.extract_s": "s",
    "features.extract_us_per_point": "us",
    "features.cache_save_files": "count",
    "features.cache_save_bytes": "B",
    "features.cache_save_s": "s",
    "features.cache_load_files": "count",
    "features.cache_load_s": "s",
    "features.cache_load_us_per_point": "us",
    "harness.store_gets": "count",
    "harness.store_disk_hits": "count",
    "harness.store_extractions": "count",
    "harness.store_memory_hits": "count",
    "codebook.build_calls": "count",
    "codebook.build_s": "s",
    "codebook.build_ms_per_call": "ms",
    "encoding.encode_calls": "count",
    "encoding.encode_points": "count",
    "encoding.encode_s": "s",
    "encoding.encode_ns_per_point_word": "ns",
    "encoding.encode_useful_ratio": "ratio",
    "classifier.train_calls": "count",
    "classifier.train_updates": "count",
    "classifier.train_s": "s",
    "classifier.train_us_per_update": "us",
    "classifier.accuracy_rows": "count",
    "classifier.accuracy_s": "s",
    "harness.trials": "count",
    "harness.split_s": "s",
    "harness.csv_s": "s",
    "harness.self_s": "s",
}


class Tracer:
    """In-memory span recorder with per-call work counts.

    A span is ``[name, layer, start, end, parent_index]`` with times from
    ``time.perf_counter``; ``counts`` accumulates the work each wrapped call
    did (points extracted, bytes saved, SVM updates, ...).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.encoded_pairs: set[tuple[str, str]] = set()
        self._codebook_ids: dict[int, tuple[object, str]] = {}
        self._local = threading.local()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, layer: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` adds work counts once the span has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            record = [name, layer, time.perf_counter(), None, stack[-1] if stack else None]
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, harness) -> None:
        """Patch the names bound in the ``bovw.harness`` module object."""
        after = {
            "extract_dense_sift": lambda a, kw, ds: self._add("extract_points", len(ds)),
            "save_descriptor_cache": self._after_save,
            "load_descriptor_cache": lambda a, kw, ds: self._add("cache_load_points", len(ds)),
            "encode_image": self._after_encode,
            "train_ovr": self._after_train,
            "accuracy": lambda a, kw, acc: self._add("accuracy_rows", len(_arg(a, kw, 2, "labels"))),
        }
        for name, layer in HARNESS_NAMES.items():
            setattr(harness, name, self.span(name, layer, getattr(harness, name), after.get(name)))
        store = harness.DescriptorStore
        store.get = self.span("DescriptorStore.get", "harness", store.get)

    def _after_save(self, args, kwargs, result) -> None:
        self._add("cache_save_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    def _after_encode(self, args, kwargs, bow) -> None:
        ds, cb = _arg(args, kwargs, 0, "ds"), _arg(args, kwargs, 1, "cb")
        # one reference per codebook object keeps its id() from being reused
        held = self._codebook_ids.get(id(cb))
        if held is None:
            held = self._codebook_ids[id(cb)] = (cb, cb.codebook_id)
        self.encoded_pairs.add((held[1], ds.source_image))
        self._add("encode_points", len(ds))
        self._add("encode_point_words", len(ds) * cb.k)

    def _after_train(self, args, kwargs, model) -> None:
        labels = _arg(args, kwargs, 1, "labels")
        cfg = _arg(args, kwargs, 2, "cfg")
        self._add("train_updates", len(labels) * cfg.epochs)

    def write_spans(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far; ``harness.self_s``
        is span ``root`` minus the time spans of other layers cover inside it."""
        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        for name, _, start, end, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + (end - start)
        c = lambda n: calls.get(n, 0)
        s = lambda n: secs.get(n, 0.0)
        k = lambda n: self.counts.get(n, 0)
        per = lambda num, den, scale: num / den * scale if den else 0.0

        gets, disk, extracted = c("DescriptorStore.get"), c("load_descriptor_cache"), c("extract_dense_sift")
        encode_calls = c("encode_image")
        return {
            "corpus.load_image_calls": c("load_image"),
            "corpus.load_image_s": s("load_image"),
            "features.extract_points": k("extract_points"),
            "features.extract_s": s("extract_dense_sift"),
            "features.extract_us_per_point": per(s("extract_dense_sift"), k("extract_points"), 1e6),
            "features.cache_save_files": c("save_descriptor_cache"),
            "features.cache_save_bytes": k("cache_save_bytes"),
            "features.cache_save_s": s("save_descriptor_cache"),
            "features.cache_load_files": disk,
            "features.cache_load_s": s("load_descriptor_cache"),
            "features.cache_load_us_per_point": per(s("load_descriptor_cache"), k("cache_load_points"), 1e6),
            "harness.store_gets": gets,
            "harness.store_disk_hits": disk,
            "harness.store_extractions": extracted,
            "harness.store_memory_hits": gets - disk - extracted,
            "codebook.build_calls": c("build_random_codebook"),
            "codebook.build_s": s("build_random_codebook"),
            "codebook.build_ms_per_call": per(s("build_random_codebook"), c("build_random_codebook"), 1e3),
            "encoding.encode_calls": encode_calls,
            "encoding.encode_points": k("encode_points"),
            "encoding.encode_s": s("encode_image"),
            "encoding.encode_ns_per_point_word": per(s("encode_image"), k("encode_point_words"), 1e9),
            "encoding.encode_useful_ratio": per(len(self.encoded_pairs), encode_calls, 1.0),
            "classifier.train_calls": c("train_ovr"),
            "classifier.train_updates": k("train_updates"),
            "classifier.train_s": s("train_ovr"),
            "classifier.train_us_per_update": per(s("train_ovr"), k("train_updates"), 1e6),
            "classifier.accuracy_rows": k("accuracy_rows"),
            "classifier.accuracy_s": s("accuracy"),
            "harness.trials": c("run_trial"),
            "harness.split_s": s("split_balanced"),
            "harness.csv_s": s("write_summary_csv"),
            "harness.self_s": self.self_time(root),
        }

    def self_time(self, root: int) -> float:
        """Duration of span ``root`` not covered by spans of the layers below
        harness (overlapping spans are merged, so nothing counts twice)."""
        _, _, r_start, r_end, _ = self.spans[root]
        covered = sorted(
            (max(start, r_start), min(end, r_end))
            for _, layer, start, end, _ in self.spans
            if layer not in ("harness", "bench") and start < r_end and end > r_start
        )
        total, cur_start, cur_end = 0.0, None, None
        for start, end in covered:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return (r_end - r_start) - total


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]
