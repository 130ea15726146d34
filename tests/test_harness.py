import ast
import functools
import hashlib
import inspect
import logging
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bovw.codebook import Codebook, build_random_codebook, load_codebook, save_codebook
from bovw.corpus import (
    DatasetManifest,
    Image,
    ManifestEntry,
    load_image,
    load_manifest,
    save_image,
    select_classes,
)
from bovw.encoding import EncodingParams, encode_image, save_bows
from bovw.features import (
    GridParams,
    cache_path,
    dense_grid,
    extract_dense_sift,
    gradient_tables,
    load_descriptor_cache,
    patch_tables,
)
import bovw.classifier
import bovw.harness
from bovw.harness import (
    CLASS_SEED_OFFSET,
    CSV_COLUMNS,
    SPLIT_SEED_OFFSET,
    DescriptorStore,
    PipelineParams,
    SplitSpec,
    confidence_interval,
    cross_base_experiment,
    diversity_sweep,
    encode_rows,
    run_trial,
    split_balanced,
    write_summary_csv,
)
from bovw.synth import CORPUS_PRESETS, TextureSpec, generate_corpus, generate_preset, render_texture

from blas_probe import blas_threads
from conftest import MICRO_SPECS, child_env, random_descriptor_set, run_cli, run_python


@pytest.fixture
def reads(monkeypatch) -> dict[str, Counter]:
    """Calls per path of the store's three readers, by reader name."""
    counts = {}
    for name in ("image_size", "load_image", "load_descriptor_cache"):
        real, counts[name] = getattr(bovw.harness, name), Counter()

        def counted(path, *args, _real=real, _calls=counts[name], **kwargs):
            _calls[Path(path)] += 1
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(bovw.harness, name, counted)
    return counts


def toy_manifest(sizes: dict[str, int]) -> DatasetManifest:
    entries = [
        ManifestEntry(f"{label}/{i}.pgm", label)
        for label in sorted(sizes)
        for i in range(sizes[label])
    ]
    return DatasetManifest(name="toy", entries=tuple(entries))


def labels_at(m: DatasetManifest, idx) -> list[str]:
    return [m.entries[i].label for i in idx]


class TestSplitBalanced:
    def test_remainder_rule(self):
        m = toy_manifest({"a": 4, "b": 6})
        train, test = split_balanced(m, 3, seed=0)
        assert labels_at(m, train).count("a") == 3
        assert labels_at(m, test).count("a") == 1
        assert labels_at(m, test).count("b") == 3

    def test_deterministic(self):
        m = toy_manifest({"a": 5, "b": 5, "c": 7})
        a, b = split_balanced(m, 2, seed=9), split_balanced(m, 2, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_class_too_small_names_class(self):
        m = toy_manifest({"a": 3, "tiny": 2})
        with pytest.raises(ValueError, match="'tiny' has 2"):
            split_balanced(m, 2, seed=0)

    @settings(max_examples=40)
    @given(
        n_a=st.integers(min_value=3, max_value=10),
        n_b=st.integers(min_value=3, max_value=10),
        n_train=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition(self, n_a, n_b, n_train, seed):
        m = toy_manifest({"a": n_a, "b": n_b})
        train, test = split_balanced(m, n_train, seed=seed)
        assert set(train).isdisjoint(test)
        assert sorted([*train, *test]) == list(range(len(m)))
        assert all(labels_at(m, train).count(c) == n_train for c in ("a", "b"))
        assert list(train) == sorted(train) and list(test) == sorted(test)


class TestConfidenceInterval:
    def test_zero_variance(self):
        assert confidence_interval([0.4, 0.4, 0.4]) == (0.4, 0.4, 0.4)

    def test_hand_computed_case(self):
        mean, low, high = confidence_interval([0.0, 0.0, 0.0, 0.0, 1.0], alpha=0.05)
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert low == pytest.approx(-0.3553, abs=1e-3)
        assert high == pytest.approx(0.7553, abs=1e-3)

    def test_one_value_is_its_own_interval(self):
        assert confidence_interval([0.5]) == (0.5, 0.5, 0.5)

    def test_needs_a_value(self):
        with pytest.raises(ValueError, match="at least 1 value"):
            confidence_interval([])

    def test_unsupported_alpha(self):
        # every interval is 95%: the 90% and 99% levels went with their t-table rows
        for alpha in (0.07, 0.10, 0.01, 0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match=r"alpha must be 0\.05 \(95% intervals\)"):
                confidence_interval([0.1, 0.2], alpha)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.uniform(0, 1, rng.integers(2, 40))
            mean, low, high = confidence_interval(vals.tolist())
            assert low <= mean <= high

    def test_table_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8, 20, 31, 32, 40, 100, 1000):
            vals = rng.uniform(0, 1, n).tolist()
            mean, low, high = confidence_interval(vals)
            t = scipy_stats.t.ppf(0.975, n - 1)
            s = np.std(vals, ddof=1)
            assert high - mean == pytest.approx(t * s / np.sqrt(n), rel=2e-4)

    def test_pipeline_params_reject_unsupported_alpha(self):
        # the level is a class constant, not a field: no alpha can be passed
        assert "alpha" not in {f.name for f in fields(PipelineParams)}
        assert PipelineParams.alpha == PipelineParams().alpha == 0.05
        for alpha in (0.05, 0.07):
            with pytest.raises(TypeError, match="alpha"):
                PipelineParams(alpha=alpha)

    @pytest.mark.parametrize("c_reg", [float("nan"), float("inf")])
    def test_pipeline_params_reject_non_finite_c_reg(self, c_reg):
        with pytest.raises(ValueError, match="c_reg must be positive and finite"):
            PipelineParams(c_reg=c_reg)

    def test_normal_quantiles_are_the_standard_library_values(self):
        assert bovw.harness._Z == NormalDist().inv_cdf(0.975)

    @pytest.mark.parametrize("alpha, t", [(0.05, 2.0227)])
    def test_large_n_uses_student_t_beyond_the_table(self, alpha, t):
        # n = 40, df = 39: printed t tables, not the normal limit
        vals = [0.0, 1.0] * 20
        mean, low, high = confidence_interval(vals, alpha=alpha)
        s = np.std(vals, ddof=1)
        assert high - mean == pytest.approx(t * s / np.sqrt(40), rel=1e-4)


@pytest.fixture(scope="module")
def micro_params():
    return PipelineParams(grid=GridParams(), encoding=EncodingParams(), k=24, epochs=30)


class TestRunTrial:
    def test_own_dictionary_beats_chance(self, micro_corpus, micro_store, micro_params):
        train, _ = split_balanced(micro_corpus, 4, seed=100)
        pool = [micro_store.get(micro_corpus, micro_corpus.entries[i]) for i in train]
        cb = build_random_codebook(pool, micro_params.k, seed=0, source_name="micro")
        bows = encode_rows(np.empty((len(micro_corpus), cb.k)), micro_store.pool(micro_corpus),
                           cb, micro_params.encoding)
        result = run_trial(cb, micro_corpus, 4, 0, micro_params, bows)
        assert result.accuracy > 0.5
        # brute-force sanity: classes separate in bow space by nearest centroid
        labels = [e.label for e in micro_corpus.entries]
        classes = sorted(set(labels))
        centroids = {c: bows[[l == c for l in labels]].mean(axis=0) for c in classes}
        hits = 0
        for v, l in zip(bows, labels):
            nearest = min(classes, key=lambda c: float(np.linalg.norm(v - centroids[c])))
            hits += nearest == l
        assert hits / len(labels) > 0.5

    def test_k1_collapses_to_majority_rate(self, micro_corpus, micro_store, micro_params):
        params = PipelineParams(grid=micro_params.grid, encoding=micro_params.encoding,
                                k=1, epochs=micro_params.epochs)
        cb = build_random_codebook(micro_store.pool(micro_corpus), 1, seed=1,
                                   source_name="micro")
        bows = [encode_image(micro_store.get(micro_corpus, e), cb, params.encoding).h
                for e in micro_corpus.entries]
        assert all(np.array_equal(b, bows[0]) for b in bows)
        result = run_trial(cb, micro_corpus, 4, 0, params, np.array(bows))
        _, test = split_balanced(micro_corpus, 4, seed=0 + SPLIT_SEED_OFFSET)
        test_labels = labels_at(micro_corpus, test)
        counts = [test_labels.count(c) for c in set(test_labels)]
        assert result.accuracy == max(counts) / len(test)

    def test_deterministic(self, micro_corpus, micro_store, micro_params):
        cb = build_random_codebook(micro_store.pool(micro_corpus), micro_params.k, seed=2,
                                   source_name="micro")
        bows = encode_rows(np.empty((len(micro_corpus), cb.k)), micro_store.pool(micro_corpus),
                           cb, micro_params.encoding)
        a = run_trial(cb, micro_corpus, 4, 3, micro_params, bows)
        b = run_trial(cb, micro_corpus, 4, 3, micro_params, bows)
        assert a == b


def assert_on_image_threads(calls: list[tuple[int, int | None]]) -> None:
    """``calls`` holds (thread, BLAS thread count) per job of one image-threads
    call. Where BLAS threads can be pinned, every job saw a count of 1, the
    calling thread ran at least one job, and no more threads than cores did;
    elsewhere the calling thread ran them all."""
    threads, main = {thread for thread, _ in calls}, threading.get_ident()
    if not bovw.classifier._pin_blas():
        assert threads == {main}
    else:
        assert {blas for _, blas in calls} == {1}
        assert main in threads and len(threads) <= bovw.harness._cores()


class TestEncodeRows:
    """encode_rows against one encode_image call per image. Images of 81 and
    of 600 points go to image threads wherever BLAS threads can be pinned.
    ``_cores`` is pinned to 2, so the pool runs on any machine."""

    MODES = [("soft", "max"), ("soft", "average"), ("hard", "max"), ("hard", "average")]

    @pytest.fixture(scope="class")
    def cb(self):
        words = np.random.default_rng(30).integers(0, 256, (200, 128)).astype(np.uint8)
        return Codebook(words, "words", (), 0)

    @pytest.fixture
    def calls(self, monkeypatch):
        """(thread, BLAS thread count or None) per encode_image call."""
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 2)
        real, count, seen = bovw.harness.encode_image, blas_threads(), []

        def traced(*args):
            seen.append((threading.get_ident(), count and count()))
            return real(*args)

        monkeypatch.setattr(bovw.harness, "encode_image", traced)
        return seen

    @pytest.mark.parametrize("points", [81, 600])
    @pytest.mark.parametrize("assignment,pooling", MODES)
    def test_rows_equal_one_call_per_image(self, cb, calls, points, assignment, pooling):
        params = EncodingParams(assignment=assignment, pooling=pooling)
        sets = [random_descriptor_set(points + i, seed=i) for i in range(5)]
        want = np.array([encode_image(ds, cb, params).h for ds in sets])
        assert np.array_equal(encode_rows(np.full(want.shape, np.nan), sets, cb, params), want)
        assert_on_image_threads(calls)

    @pytest.mark.parametrize("points", [81, 600])
    def test_one_word_plan_per_call_shared_by_every_image(self, cb, calls, monkeypatch,
                                                          points):
        # bench/tracing.py wraps the encode_image bound in bovw.harness and reads
        # the DescriptorSet and the Codebook as its positional arguments 0 and 1
        real_plan, real_encode, plans, args_seen = (bovw.harness.word_plan,
                                                    bovw.harness.encode_image, [], [])

        def counted_plan(c):
            plans.append(real_plan(c))
            return plans[-1]

        def recorded(*args, **kwargs):
            args_seen.append((args, kwargs))
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(bovw.harness, "word_plan", counted_plan)
        monkeypatch.setattr(bovw.harness, "encode_image", recorded)
        sets = [random_descriptor_set(points + i, seed=i) for i in range(5)]
        encode_rows(np.empty((len(sets), cb.k)), sets, cb, EncodingParams())
        assert len(plans) == 1 and len(calls) == len(sets)
        assert sorted(id(args[0]) for args, _ in args_seen) == sorted(map(id, sets))
        assert all(args[1] is cb and args[3] is plans[0] and not kwargs
                   for args, kwargs in args_seen)

    def test_blas_stays_at_one_thread_after_success_and_error(self, cb, calls, monkeypatch):
        # the pin is the process's: no call restores the count it found
        count = blas_threads()
        if count is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be pinned")
        sets = [random_descriptor_set(300, seed=i) for i in range(4)]
        bows = np.empty((len(sets), cb.k))
        encode_rows(bows, sets, cb, EncodingParams())
        assert count() == 1 and [b for _, b in calls] == [1] * len(sets)

        err = ValueError("descriptor dims do not match codebook dims")
        traced = bovw.harness.encode_image

        def failing(ds, *args):
            if ds is sets[2]:
                raise err
            return traced(ds, *args)

        monkeypatch.setattr(bovw.harness, "encode_image", failing)
        with pytest.raises(ValueError) as info:
            encode_rows(bows, sets, cb, EncodingParams())
        assert info.value is err  # the worker's exception, unchanged
        assert count() == 1

    def test_serial_when_blas_symbols_are_missing(self, cb, calls, monkeypatch):
        # a library without the thread-count symbols, looked up afresh
        monkeypatch.setattr(bovw.classifier.ctypes, "CDLL", lambda path: object())
        monkeypatch.setattr(bovw.classifier, "_pin_blas",
                            functools.cache(bovw.classifier._pin_blas.__wrapped__))
        assert bovw.classifier._pin_blas() is False
        sets = [random_descriptor_set(600, seed=i) for i in range(4)]
        params = EncodingParams()
        want = np.array([encode_image(ds, cb, params).h for ds in sets])
        assert np.array_equal(encode_rows(np.empty(want.shape), sets, cb, params), want)
        assert {thread for thread, _ in calls} == {threading.get_ident()}


class TestExperiments:
    def test_crossbase_same_source_matches_native(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=4, run_seeds=(0, 1))
        rows = cross_base_experiment(micro_corpus, micro_corpus, [4], spec, micro_params,
                                     store=micro_store)
        assert len(rows) == 2
        native, cross = rows
        assert native.mean_acc == cross.mean_acc
        assert native.ci_low == cross.ci_low

    def test_shuffled_training_labels_land_near_chance(self, micro_corpus, micro_store,
                                                       micro_params):
        # a negative control: the unpermuted labels classify, permuted ones
        # (by 5 seeds) leave accuracy near the chance rate of 3 classes
        spec = SplitSpec(n_train_per_class=4, run_seeds=tuple(range(10)))
        labels = [e.label for e in micro_corpus.entries]

        def mean_acc(name, labels):
            entries = tuple(ManifestEntry(e.path, label)
                            for e, label in zip(micro_corpus.entries, labels, strict=True))
            corpus = DatasetManifest(name, entries, micro_corpus.base_dir)
            (row,) = cross_base_experiment(corpus, corpus, [4], spec, micro_params,
                                           store=micro_store, include_native=False)
            return row.mean_acc

        assert mean_acc("micro", labels) >= 0.9
        for seed in range(5):
            shuffled = np.random.default_rng(seed).permutation(labels).tolist()
            assert mean_acc(f"shuffled-{seed}", shuffled) <= 0.5

    def test_crossbase_row_echo_swaps_with_arguments(self, micro_corpus, micro_store,
                                                     micro_params, tmp_path):
        half_a = DatasetManifest("half_a", micro_corpus.entries[0::2], micro_corpus.base_dir)
        half_b = DatasetManifest("half_b", micro_corpus.entries[1::2], micro_corpus.base_dir)
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        fwd = cross_base_experiment(half_a, half_b, [2], spec, micro_params, store=micro_store)
        rev = cross_base_experiment(half_b, half_a, [2], spec, micro_params, store=micro_store)
        assert [(r.dict_source, r.target) for r in fwd] == [("half_b", "half_b"),
                                                            ("half_a", "half_b")]
        assert [(r.dict_source, r.target) for r in rev] == [("half_a", "half_a"),
                                                            ("half_b", "half_a")]

    def test_n_runs_recorded(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0, 1, 2, 3, 4))
        rows = cross_base_experiment(micro_corpus, micro_corpus, [3], spec, micro_params,
                                     store=micro_store, include_native=False)
        assert rows[0].n_runs == 5

    def test_each_run_seed_samples_its_own_dictionary(self, micro_corpus, micro_store,
                                                      micro_params, caplog):
        # the protocol's runs are independent: one dictionary per run seed and curve
        half_a = DatasetManifest("half_a", micro_corpus.entries[0::2], micro_corpus.base_dir)
        half_b = DatasetManifest("half_b", micro_corpus.entries[1::2], micro_corpus.base_dir)
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1, 2))
        caplog.set_level(logging.INFO, logger="bovw.harness")
        cross_base_experiment(half_a, half_b, [2], spec, micro_params, store=micro_store)
        ids = {"half_a": [], "half_b": []}
        for r in caplog.records:
            if m := re.fullmatch(r"dictionary (\S+) from (\S+) \(.*\)", r.getMessage()):
                ids[m[2]].append(m[1])
        assert [len(set(v)) for v in ids.values()] == [len(spec.run_seeds)] * 2, ids

    @pytest.mark.parametrize("experiment", ["crossbase", "sweep"])
    def test_target_encoded_once_per_dictionary(self, micro_corpus, micro_store, micro_params,
                                                monkeypatch, experiment):
        # every n_train of a run seed shares that seed's dictionary
        calls = []
        real = bovw.harness.encode_image

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bovw.harness, "encode_image", counted)
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        if experiment == "crossbase":
            cross_base_experiment(micro_corpus, micro_corpus, [2, 3], spec, micro_params,
                                  store=micro_store, include_native=False)
            dictionaries = 2
        else:
            diversity_sweep(micro_corpus, [1, 3], micro_corpus, 2, spec, micro_params,
                            store=micro_store)
            dictionaries = 4
        assert len(calls) == dictionaries * len(micro_corpus)

    def test_trials_run_one_at_a_time(self):
        with pytest.raises(ValueError, match="workers must be 1"):
            PipelineParams(workers=2)

    def test_negative_run_seed_rejected(self):
        with pytest.raises(ValueError, match="run seeds must be >= 0"):
            SplitSpec(n_train_per_class=2, run_seeds=(0, -1))

    def test_repeated_run_seed_rejected(self):
        # a repeated seed repeats a whole run, so n_runs would overstate the evidence
        with pytest.raises(ValueError, match=r"run seeds must be distinct, got \(3, 3\)"):
            SplitSpec(2, (3, 3))
        with pytest.raises(ValueError, match="distinct"):
            SplitSpec(n_train_per_class=2, run_seeds=(0, 1, 0))

    def test_repeated_n_train_fails_before_any_extraction(self, micro_corpus, micro_params,
                                                           tmp_path):
        # a repeated n_train would run its trials twice and write its rows twice
        store = DescriptorStore(micro_params.grid, cache_dir=tmp_path / "cache")
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        with pytest.raises(ValueError, match=r"n_train values must be distinct, got \[2, 2\]"):
            cross_base_experiment(micro_corpus, micro_corpus, [2, 2], spec, micro_params,
                                  store=store)
        assert not (tmp_path / "cache").exists()

    def test_empty_n_train_values_fail_before_any_extraction(self, micro_corpus, micro_params,
                                                             tmp_path):
        store = DescriptorStore(micro_params.grid, cache_dir=tmp_path / "cache")
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        with pytest.raises(ValueError, match="^n_train_values must not be empty$"):
            cross_base_experiment(micro_corpus, micro_corpus, [], spec, micro_params, store=store)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("experiment", ["crossbase", "sweep"])
    def test_store_grid_must_match_params(self, micro_corpus, micro_params, tmp_path,
                                          experiment):
        cache = tmp_path / "cache"
        store = DescriptorStore(GridParams(stride=6), cache_dir=cache)
        params = replace(micro_params, grid=GridParams(stride=12))
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        with pytest.raises(ValueError, match="store grid .* differs from params grid"):
            if experiment == "crossbase":
                cross_base_experiment(micro_corpus, micro_corpus, [2], spec, params, store=store)
            else:
                diversity_sweep(micro_corpus, [1, 3], micro_corpus, 2, spec, params, store=store)
        assert not cache.exists()  # nothing extracted

    def test_store_that_holds_every_set_reads_no_header(self, micro_corpus, micro_store,
                                                        micro_params, monkeypatch):
        def no_header(path):
            raise AssertionError(f"read the PGM header of {path}")

        monkeypatch.setattr(bovw.harness, "image_size", no_header)
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        cross_base_experiment(micro_corpus, micro_corpus, [2, 3], spec, micro_params,
                              store=micro_store)
        diversity_sweep(micro_corpus, [1, 3], micro_corpus, 2, spec, micro_params,
                        store=micro_store)

    def test_warm_cache_counts_points_without_reading_images(self, micro_corpus, micro_params,
                                                             tmp_path, monkeypatch, caplog):
        grid, cache, n = micro_params.grid, tmp_path / "cache", len(micro_corpus)
        DescriptorStore(grid, cache_dir=cache).pool(micro_corpus)
        sized, real = [], bovw.harness.image_size
        monkeypatch.setattr(bovw.harness, "image_size", lambda path: sized.append(path) or real(path))
        caplog.set_level(logging.INFO, logger="bovw.harness")
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))

        def pool_counts():
            lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pool ")]
            caplog.clear()
            return [tuple(map(int, re.findall(r"\d+", line.split(":")[1])[:4])) for line in lines]

        rows = cross_base_experiment(micro_corpus, micro_corpus, [2], spec, micro_params,
                                     store=DescriptorStore(grid, cache_dir=cache))
        assert sized == []
        assert pool_counts() == [(0, n, 0, 0), (n, 0, 0, 0), (n, 0, 0, 0)]

        # an unreadable cache file is counted from its image and warned of once, by the pool
        bad = micro_corpus.resolve(micro_corpus.entries[4])
        cache_path(cache, bad, grid).write_bytes(b"BVWD")
        again = cross_base_experiment(micro_corpus, micro_corpus, [2], spec, micro_params,
                                      store=DescriptorStore(grid, cache_dir=cache))
        assert set(sized) == {bad} and again == rows
        assert [r.levelname for r in caplog.records].count("WARNING") == 1
        assert pool_counts() == [(0, n - 1, 1, 36), (n, 0, 0, 0), (n, 0, 0, 0)]

    @staticmethod
    def run_experiment(experiment, corpus, params, store):
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        if experiment == "crossbase":
            return cross_base_experiment(corpus, corpus, [2, 3], spec, params, store=store)
        return diversity_sweep(corpus, [1, 2, 3], corpus, 2, spec, params, store=store)

    @pytest.mark.parametrize("experiment", ["crossbase", "sweep"])
    def test_cold_run_reads_each_image_twice_and_a_warm_run_none(self, micro_corpus,
                                                                 micro_params, tmp_path,
                                                                 reads, experiment):
        grid, cache = micro_params.grid, tmp_path / "cache"
        images = [micro_corpus.resolve(e) for e in micro_corpus.entries]
        rows = self.run_experiment(experiment, micro_corpus, micro_params,
                                   DescriptorStore(grid, cache_dir=cache))
        # one check of each PGM file before any extraction, one load to extract it
        assert reads["image_size"] == reads["load_image"] == Counter(images)
        assert reads["load_descriptor_cache"] == Counter()
        for calls in reads.values():
            calls.clear()
        again = self.run_experiment(experiment, micro_corpus, micro_params,
                                    DescriptorStore(grid, cache_dir=cache))
        assert again == rows
        assert reads["image_size"] == reads["load_image"] == Counter()
        assert reads["load_descriptor_cache"] == Counter(cache_path(cache, p, grid) for p in images)

    @pytest.mark.parametrize("experiment", ["crossbase", "sweep"])
    def test_unreadable_cache_file_is_loaded_once(self, micro_corpus, micro_params, tmp_path,
                                                  reads, experiment):
        grid, cache = micro_params.grid, tmp_path / "cache"
        DescriptorStore(grid, cache_dir=cache).pool(micro_corpus)
        # an image of the one class every sweep dictionary uses
        image = micro_corpus.resolve(select_classes(micro_corpus, 1, CLASS_SEED_OFFSET).entries[0])
        bad = cache_path(cache, image, grid)
        bad.write_bytes(b"BVWD")
        for calls in reads.values():
            calls.clear()
        self.run_experiment(experiment, micro_corpus, micro_params,
                            DescriptorStore(grid, cache_dir=cache))
        assert reads["load_descriptor_cache"][bad] == 1
        assert reads["image_size"] == reads["load_image"] == Counter([image])

    def test_sweep_full_count_equals_full_source_dictionary(self, micro_corpus, micro_store,
                                                            micro_params):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0, 1))
        rows = diversity_sweep(micro_corpus, [3], micro_corpus, 3, spec, micro_params,
                               store=micro_store)
        native = cross_base_experiment(micro_corpus, micro_corpus, [3], spec, micro_params,
                                       store=micro_store, include_native=False)
        assert rows[0].mean_acc == native[0].mean_acc

    def test_sweep_unsorted_counts_rejected(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0,))
        with pytest.raises(ValueError, match="sorted"):
            diversity_sweep(micro_corpus, [3, 1], micro_corpus, 3, spec, micro_params,
                            store=micro_store)

    @pytest.mark.parametrize("counts", [[], [2, 2], [0, 2]])
    def test_sweep_empty_or_repeated_counts_rejected(self, micro_corpus, micro_store,
                                                     micro_params, counts):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0,))
        with pytest.raises(ValueError, match="strictly ascending"):
            diversity_sweep(micro_corpus, counts, micro_corpus, 3, spec, micro_params,
                            store=micro_store)

    def test_rows_independent_of_seed_order(self, micro_corpus, micro_store, micro_params,
                                            monkeypatch):
        # per-seed accuracies whose interval bytes depend on the order they are summed in
        acc = {0: 0.1, 1: 0.2, 2: 0.7}
        real = bovw.harness.run_trial
        trials = []

        def trial(*args):
            trials.append(replace(real(*args), accuracy=acc[args[3]]))
            return trials[-1]

        monkeypatch.setattr(bovw.harness, "run_trial", trial)

        def rows(run_seeds):
            # the rows, and which dictionary each seed's trials used
            trials.clear()
            spec = SplitSpec(n_train_per_class=2, run_seeds=run_seeds)
            return (
                cross_base_experiment(micro_corpus, micro_corpus, [2, 3], spec, micro_params,
                                      store=micro_store),
                diversity_sweep(micro_corpus, [1, 3], micro_corpus, 2, spec, micro_params,
                                store=micro_store),
                set(trials),
            )

        assert rows((2, 0, 1)) == rows((0, 1, 2))

    def test_sweep_extracts_only_chosen_classes_and_target(self, micro_corpus, micro_params,
                                                           tmp_path):
        target = load_manifest(generate_corpus(tmp_path / "target", MICRO_SPECS[:2],
                                               images_per_class=4, size=32, seed=6,
                                               name="target"))
        cache = tmp_path / "cache"
        spec = SplitSpec(n_train_per_class=2, run_seeds=(0, 1))
        diversity_sweep(micro_corpus, [1, 2], target, 2, spec, micro_params,
                        store=DescriptorStore(micro_params.grid, cache_dir=cache))
        chosen = select_classes(micro_corpus, 2, CLASS_SEED_OFFSET)
        used = [(m, e) for m in (chosen, target) for e in m.entries]
        assert len(used) == 16 + 8 < len(micro_corpus) + len(target)
        assert sorted(cache.iterdir()) == sorted(
            cache_path(cache, m.resolve(e), micro_params.grid) for m, e in used)

    def test_sweep_count_beyond_classes_rejected(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0,))
        with pytest.raises(ValueError, match="exceeds"):
            diversity_sweep(micro_corpus, [9], micro_corpus, 3, spec, micro_params,
                            store=micro_store)


def test_traced_names_are_bound_in_harness():
    # the benchmark's tracer patches these names on the bovw.harness module,
    # so each must stay imported (or defined) there
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text("utf-8")
    names = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HARNESS_NAMES"])
    assert "encode_image" in names and "run_trial" in names
    assert [n for n in names if not hasattr(bovw.harness, n)] == []


class TestDescriptorStore:
    @staticmethod
    def damaged(data: bytes, damage: str) -> bytes:
        """A version-2 cache file of a 48x48 image (6 x 6 points), damaged."""
        if damage == "cut":
            return data[: len(data) // 2]
        if damage == "garbage":
            return bytes(range(256)) * 3
        if damage == "size":  # 48x54 holds 6 x 7 points
            return data[:24] + struct.pack("<2I", 48, 54) + data[32:]
        # version 1: n, dims, stride, patch, then (x, y, descriptor) per point
        n, dims, stride, patch = struct.unpack_from("<4I", data, 8)
        keypoints = dense_grid(48, 48, GridParams())
        return data[:4] + struct.pack("<5I", 1, n, dims, stride, patch) + b"".join(
            struct.pack("<2I", x, y) + data[32 + i * 128 : 32 + (i + 1) * 128]
            for i, (x, y) in enumerate(keypoints.tolist()))

    @pytest.mark.parametrize("damage", ["cut", "garbage", "size", "version1"])
    def test_unreadable_cache_file_is_re_extracted(self, micro_corpus, tmp_path, caplog, damage):
        grid, entry = GridParams(), micro_corpus.entries[0]
        image_path = micro_corpus.resolve(entry)
        DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        cpath = cache_path(tmp_path, image_path, grid)
        data = cpath.read_bytes()
        cpath.write_bytes(self.damaged(data, damage))
        got = DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        fresh = extract_dense_sift(load_image(image_path), grid)
        assert np.array_equal(got.keypoints, fresh.keypoints)
        assert np.array_equal(got.descriptors, fresh.descriptors)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "re-extracting" in warnings[0].getMessage()
        assert cpath.read_bytes() == data
        assert np.array_equal(load_descriptor_cache(cpath, grid).descriptors, fresh.descriptors)

    def test_one_warning_per_pool(self, micro_corpus, tmp_path, caplog):
        grid, entries = GridParams(), micro_corpus.entries
        caplog.set_level(logging.INFO, logger="bovw.harness")
        DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        damaged = [cache_path(tmp_path, micro_corpus.resolve(e), grid) for e in entries[3:6]]
        for cpath, damage in zip(damaged, ["cut", "size", "version1"]):
            cpath.write_bytes(self.damaged(cpath.read_bytes(), damage))
        caplog.clear()
        DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            f"re-extracting 3 images with an unreadable cache file, first "
            f"{micro_corpus.resolve(entries[3])} ({damaged[0]}: ")
        # the INFO line counts them among the extracted; 48x48 images hold 6x6 points
        info = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("pool "))
        assert info.startswith(f"pool micro: 0 from memory, {len(micro_corpus) - 3} from cache, "
                               "3 extracted (108 points)")

    def test_get_of_an_image_smaller_than_a_patch_names_it(self, tmp_path):
        save_image(Image(np.zeros((10, 10), dtype=np.uint8)), tmp_path / "tiny.pgm")
        manifest = DatasetManifest("tiny", (ManifestEntry("tiny.pgm", "tiny"),),
                                   base_dir=tmp_path)
        store = DescriptorStore(GridParams(), cache_dir=tmp_path / "cache")
        with pytest.raises(ValueError) as info:
            store.get(manifest, manifest.entries[0])
        assert str(info.value) == (
            f"{tmp_path / 'tiny.pgm'}: image 10x10 smaller than one 16-pixel patch")
        assert store._memory == {}
        assert not (tmp_path / "cache").exists()

    def test_get_of_a_cut_cache_file_logs_the_pools_warning(self, micro_corpus, tmp_path,
                                                           caplog):
        grid, entry = GridParams(), micro_corpus.entries[0]
        image_path = micro_corpus.resolve(entry)
        DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        cpath = cache_path(tmp_path, image_path, grid)
        cpath.write_bytes(b"BVWD")
        DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            f"re-extracting 1 images with an unreadable cache file, first {image_path} ({cpath}: ")
        fresh = extract_dense_sift(load_image(image_path), grid)
        assert np.array_equal(load_descriptor_cache(cpath, grid).descriptors, fresh.descriptors)

    def test_get_checks_a_cold_image_once_and_reads_no_held_set(self, micro_corpus, reads,
                                                                caplog):
        caplog.set_level(logging.INFO, logger="bovw.harness")
        store, entry = DescriptorStore(GridParams()), micro_corpus.entries[4]
        image_path = micro_corpus.resolve(entry)
        got = store.get(micro_corpus, entry)
        assert reads["image_size"] == reads["load_image"] == Counter([image_path])
        for calls in reads.values():
            calls.clear()
        caplog.clear()
        assert store.get(micro_corpus, entry) is got
        assert reads == {name: Counter() for name in reads}
        assert caplog.records == []

    def test_pools_counts_held_sets_or_pgm_headers_against_need(self, micro_corpus,
                                                                micro_store):
        # 48x48 images hold 6x6 grid points
        total, fresh = 36 * len(micro_corpus), DescriptorStore(GridParams())
        for store in (micro_store, fresh):
            with pytest.raises(ValueError,
                               match=f"^pool has {total} descriptors, need at least {total + 1}$"):
                store.pools([micro_corpus], [total + 1])
        assert fresh._memory == {}
        for store in (micro_store, fresh):
            (pool,) = store.pools([micro_corpus], [total])
            assert sum(map(len, pool)) == total


class TestPool:
    """DescriptorStore.pool extracts its misses on image threads; ``_cores``
    is pinned to 2, so the threads run on any machine that can pin BLAS."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        """(thread, BLAS thread count or None) per extract_dense_sift call."""
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 2)
        real, count, seen = bovw.harness.extract_dense_sift, blas_threads(), []

        def traced(*args, **kwargs):
            seen.append((threading.get_ident(), count and count()))
            return real(*args, **kwargs)

        monkeypatch.setattr(bovw.harness, "extract_dense_sift", traced)
        return seen

    def test_threaded_pool_equals_serial_gets(self, micro_corpus, tmp_path, extractions):
        grid = GridParams()
        serial = DescriptorStore(grid, cache_dir=tmp_path / "serial")
        want = [serial.get(micro_corpus, e) for e in micro_corpus.entries]
        del extractions[:]
        got = DescriptorStore(grid, cache_dir=tmp_path / "pool").pool(micro_corpus)
        assert [ds.source_image for ds in got] == [e.path for e in micro_corpus.entries]
        for a, b in zip(got, want):
            assert np.array_equal(a.keypoints, b.keypoints)
            assert np.array_equal(a.descriptors, b.descriptors)
        for e in micro_corpus.entries:
            name = cache_path(".", micro_corpus.resolve(e), grid).name
            want_bytes = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "pool" / name).read_bytes() == want_bytes
        assert len(extractions) == len(micro_corpus)
        assert_on_image_threads(extractions)

    def test_more_threads_than_cores_with_a_short_switch_interval(self, micro_corpus,
                                                                   monkeypatch):
        # every thread writes the store's one memory dict
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 8)
        want = [extract_dense_sift(load_image(micro_corpus.resolve(e)), GridParams()).descriptors
                for e in micro_corpus.entries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            store = DescriptorStore(GridParams())
            got = store.pool(micro_corpus)
        finally:
            sys.setswitchinterval(interval)
        assert len(store._memory) == len(micro_corpus)
        assert all(np.array_equal(a.descriptors, b) for a, b in zip(got, want, strict=True))

    def test_blas_stays_at_one_thread_after_success_and_unreadable_image(
            self, micro_corpus, tmp_path, extractions, monkeypatch):
        # the pin is the process's: no call restores the count it found
        count = blas_threads()
        if count is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be pinned")
        DescriptorStore(GridParams()).pool(micro_corpus)
        assert count() == 1 and {b for _, b in extractions} == {1}

        # the fourth image passes the store's check, then fails to load on its thread
        unreadable = micro_corpus.resolve(micro_corpus.entries[3])
        real_load = bovw.harness.load_image

        def load(path):
            if path == unreadable:
                raise ValueError(f"{path}: changed after its check")
            return real_load(path)

        monkeypatch.setattr(bovw.harness, "load_image", load)
        with pytest.raises(ValueError, match="changed after its check"):
            DescriptorStore(GridParams(), cache_dir=tmp_path / "cache").pool(micro_corpus)
        assert count() == 1

    def test_truncated_image_fails_before_any_extraction(self, micro_corpus, tmp_path,
                                                         extractions):
        entries = micro_corpus.entries[:6]
        for e in entries:
            (tmp_path / e.path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / e.path).write_bytes(micro_corpus.resolve(e).read_bytes())
        (tmp_path / entries[3].path).write_bytes(b"P5 48 48 255\n" + bytes(100))
        broken = DatasetManifest("broken", entries, base_dir=tmp_path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / entries[3].path))}: "
                                             r"truncated payload \(100 bytes, expected 2304\)$"):
            DescriptorStore(GridParams(), cache_dir=tmp_path / "cache").pool(broken)
        assert extractions == []
        assert not (tmp_path / "cache").exists()

    def test_warm_pool_starts_no_thread(self, micro_corpus, tmp_path, extractions, monkeypatch):
        grid = GridParams()
        store = DescriptorStore(grid, cache_dir=tmp_path)
        want = store.pool(micro_corpus)

        def no_thread(*args, **kwargs):
            raise AssertionError("a warm pool started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        del extractions[:]
        assert all(a is b for a, b in zip(store.pool(micro_corpus), want))  # memory-warm
        on_disk = DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)  # disk-warm
        for a, b in zip(on_disk, want, strict=True):
            assert np.array_equal(a.descriptors, b.descriptors)
        assert extractions == []

        # one miss is extracted on the calling thread
        cache_path(tmp_path, micro_corpus.resolve(micro_corpus.entries[5]), grid).unlink()
        DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        assert [thread for thread, _ in extractions] == [threading.get_ident()]

    def test_round_trip_into_a_cache_dir_made_at_the_first_save(self, micro_corpus, tmp_path,
                                                                monkeypatch):
        grid, cache = GridParams(), tmp_path / "new" / "cache"
        store = DescriptorStore(grid, cache_dir=cache)
        assert not cache.exists()
        want = store.pool(micro_corpus)
        assert len(list(cache.glob("*.desc"))) == len(micro_corpus)

        def no_extraction(*args, **kwargs):
            raise AssertionError("a cached image was extracted again")

        monkeypatch.setattr(bovw.harness, "extract_dense_sift", no_extraction)
        got = DescriptorStore(grid, cache_dir=cache).pool(micro_corpus)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.keypoints, b.keypoints)
            assert np.array_equal(a.descriptors, b.descriptors)

    def test_cold_image_threads_build_each_table_once(self, micro_corpus, fake_pin,
                                                      monkeypatch):
        # the pin is faked, so the images are extracted on two threads on any
        # machine, and a short switch interval lets both enter the first
        # table build unless the kernel's lock keeps one out
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 2)
        gradient_tables.cache_clear()
        patch_tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            DescriptorStore(GridParams()).pool(micro_corpus)
        finally:
            sys.setswitchinterval(interval)
        assert gradient_tables.cache_info().misses == 1
        assert patch_tables.cache_info().misses == 1

    def test_warm_pool_and_encoding_build_no_tables(self, micro_corpus, tmp_path):
        grid = GridParams()
        DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        gradient_tables.cache_clear()
        patch_tables.cache_clear()
        sets = DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        cb = build_random_codebook(sets, 12, seed=0)
        encode_rows(np.empty((len(sets), cb.k)), sets, cb, EncodingParams())
        assert gradient_tables.cache_info().currsize == 0
        assert patch_tables.cache_info().currsize == 0

    def test_file_in_the_way_of_the_cache_dir_fails_before_any_extraction(
            self, micro_corpus, tmp_path, extractions):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        for cache in (afile, afile / "sub"):
            with pytest.raises(ValueError) as info:
                DescriptorStore(GridParams(), cache_dir=cache).pool(micro_corpus)
            assert str(info.value) == f"cache directory {cache}: {afile} is not a directory"
        assert extractions == []
        assert afile.read_text() == "not a directory\n"

    def test_image_smaller_than_a_patch_fails_before_any_extraction(self, micro_corpus,
                                                                    tmp_path, extractions):
        entries = micro_corpus.entries[:3]
        for e in entries:
            (tmp_path / e.path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(micro_corpus.resolve(e), tmp_path / e.path)
        save_image(Image(np.zeros((8, 8), dtype=np.uint8)), tmp_path / "tiny.pgm")
        manifest = DatasetManifest("small", (*entries, ManifestEntry("tiny.pgm", "tiny")),
                                   base_dir=tmp_path)
        cache = tmp_path / "cache"
        with pytest.raises(ValueError) as info:
            DescriptorStore(GridParams(), cache_dir=cache).pool(manifest)
        assert str(info.value) == (
            f"{tmp_path / 'tiny.pgm'}: image 8x8 smaller than one 16-pixel patch")
        assert extractions == []
        assert not cache.exists()

    def test_no_queued_job_starts_after_a_failure(self, fake_pin, monkeypatch):
        # the pin is faked, so the jobs run on threads on any machine
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 2)
        errors, started = [OSError("first in job order"), OSError("first in time")], []

        def job(i):
            started.append(i)
            if i < 2:  # job 0 fails after job 1, while job 1's thread takes more jobs
                time.sleep(0.05 * (1 - i))
                raise errors[i]
            time.sleep(0.005)

        with pytest.raises(OSError) as info:
            bovw.harness._on_image_threads(job, range(50))
        assert info.value is errors[0]
        assert len(started) < 25
        assert len(fake_pin) == 1

    @pytest.mark.parametrize("cores", [2, 4])
    def test_calling_thread_and_a_helper_per_further_core_run_each_job_once(
            self, cores, fake_pin, monkeypatch):
        started, ran = [], []
        monkeypatch.setattr(bovw.harness, "_cores", lambda: cores)

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def job(i):
            time.sleep(0.0005)  # frees the GIL, so that the threads interleave
            ran.append((i, threading.get_ident()))

        monkeypatch.setattr(threading, "Thread", Counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bovw.harness._on_image_threads(job, range(50))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == cores - 1 and not any(t.is_alive() for t in started)
        assert sorted(i for i, _ in ran) == list(range(50))
        assert threading.get_ident() in {thread for _, thread in ran}
        assert len(fake_pin) == 1

    def test_a_failure_in_the_calling_threads_own_job_stops_the_queue(self, fake_pin,
                                                                      monkeypatch):
        monkeypatch.setattr(bovw.harness, "_cores", lambda: 2)
        main, err, started, at_failure = threading.get_ident(), OSError("calling thread"), [], []

        def job(i):
            started.append(i)
            if threading.get_ident() == main:
                at_failure.append(len(started))
                raise err
            time.sleep(0.005)

        with pytest.raises(OSError) as info:
            bovw.harness._on_image_threads(job, range(50))
        assert info.value is err
        # the helper ends the job it runs, and at most one taken in the same instant
        assert len(at_failure) == 1 and len(started) <= at_failure[0] + 1
        assert len(fake_pin) == 1

    def test_image_threads_import_no_executor(self, tmp_path):
        # concurrent.futures and its imports would add memory to every process
        proc = run_python("-c", f"""
import sys, threading
import numpy as np
from bovw import classifier, harness
from bovw.codebook import build_random_codebook
from bovw.encoding import EncodingParams
from bovw.harness import DescriptorStore, GridParams, encode_rows
from bovw.synth import generate_preset

seen = set()
harness._cores = lambda: 2
classifier._pin_blas = lambda: True
real = harness.encode_image
def traced(*args):
    seen.add(threading.get_ident())
    return real(*args)
harness.encode_image = traced
manifest = generate_preset({str(tmp_path)!r}, "textures3", images_per_class=4, size=48, seed=1)
sets = DescriptorStore(GridParams()).pool(manifest)
cb = build_random_codebook(sets, 20, seed=0)
encode_rows(np.empty((len(sets), cb.k)), sets, cb, EncodingParams())
assert "concurrent.futures" not in sys.modules
assert len(seen) == 2, seen
""")
        assert proc.returncode == 0, proc.stderr

    def test_logs_where_each_pool_came_from(self, micro_corpus, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="bovw.harness")
        grid, entries = GridParams(), micro_corpus.entries
        DescriptorStore(grid, cache_dir=tmp_path).pool(micro_corpus)
        cache_path(tmp_path, micro_corpus.resolve(entries[5]), grid).unlink()
        store = DescriptorStore(grid, cache_dir=tmp_path)
        store.get(micro_corpus, entries[2])
        store.get(micro_corpus, entries[7])
        store.pool(micro_corpus)
        store.pool(micro_corpus)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pool ")]
        counts = [re.fullmatch(r"pool micro: (\d+) from memory, (\d+) from cache, "
                               r"(\d+) extracted \((\d+) points\) in \d+\.\d{3} s",
                               line).groups()
                  for line in lines]
        # 48x48 images hold 6x6 grid points
        n = len(micro_corpus)
        assert counts == [("0", "0", str(n), str(n * 36)), ("0", "1", "0", "0"),
                          ("0", "1", "0", "0"), ("2", str(n - 3), "1", "36"),
                          (str(n), "0", "0", "0")]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="lists threads in Linux's /proc")
@pytest.mark.skipif(blas_threads() is None or bovw.harness._cores() < 2,
                    reason="numpy bundles no OpenBLAS, or one that runs on one core")
class TestOpenblasShutdown:
    """The first call that starts image threads, or trains a classifier, pins
    numpy's OpenBLAS to one thread and shuts its idle server thread down, for
    the rest of the process; importing bovw pins nothing. Each test runs in a
    child process whose OpenBLAS starts on two threads: a pin in the tests'
    own process would hold for every later test."""

    PRELUDE = f"""
import ctypes, hashlib, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import numpy as np
from blas_probe import blas_threads, foreign_threads, wait_for
from bovw import classifier, harness

count = blas_threads()
real_cdll, looked = ctypes.CDLL, []  # the libraries opened after this prelude

def cdll(path, *args, **kwargs):
    looked.append(path)
    return real_cdll(path, *args, **kwargs)

ctypes.CDLL = cdll
harness._cores = lambda: 2

def gemm():
    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) % 251 / 7
    return hashlib.sha256((a @ a.T).tobytes()).hexdigest()
"""

    def run(self, body: str, threads: int = 2) -> str:
        """The output of ``body``, run after the prelude in a child process
        whose OpenBLAS starts on ``threads`` threads, which must exit cleanly."""
        proc = run_python("-c", self.PRELUDE + body, OPENBLAS_NUM_THREADS=str(threads))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_image_threads_pin_once_and_park_the_server(self):
        out = self.run("""
from bovw.codebook import Codebook
from bovw.encoding import EncodingParams
from bovw.features import DescriptorSet, GridParams

assert count() == 2 and foreign_threads(), "numpy's OpenBLAS runs no server thread"
rng = np.random.default_rng(0)
grid = GridParams(stride=1, patch_size=4)  # an 84 x 4 image holds 81 points
sets = [DescriptorSet(rng.integers(0, 256, (81, 128), dtype=np.uint8), 84, 4, grid, "")
        for _ in range(4)]
cb = Codebook(rng.integers(0, 256, (50, 128), dtype=np.uint8), "words", (), 0)
bows = np.empty((len(sets), cb.k))
harness.encode_rows(bows, sets, cb, EncodingParams())
assert count() == 1 and wait_for(lambda: not foreign_threads()), (count(), foreign_threads())
print(gemm())
assert not foreign_threads(), "a one-thread GEMM started a server thread"
opened = len(looked)
harness.encode_rows(bows, sets, cb, EncodingParams())
assert len(looked) == opened >= 1, looked  # the library is not looked up again
assert count() == 1 and wait_for(lambda: not foreign_threads())
""")
        one_thread = self.run("""
assert count() == 1 and not foreign_threads()
print(gemm())
""", threads=1)
        assert out == one_thread

    @pytest.mark.parametrize("cores, jobs", [(1, 4), (2, 1), (2, 0)])  # a warm pool has no job
    def test_a_serial_call_leaves_the_server(self, cores, jobs):
        self.run(f"""
harness._cores = lambda: {cores}
servers, ran = foreign_threads(), []
harness._on_image_threads(ran.append, range({jobs}))
assert ran == list(range({jobs})) and count() == 2 and not looked
assert servers and servers <= foreign_threads()
""")

    def test_importing_bovw_pins_nothing(self):
        self.run("""
import bovw.cli  # with the prelude's harness, every module of the package
assert count() == 2 and foreign_threads()
""")

    def test_training_pins_and_parks_the_server(self):
        self.run("""
from bovw.classifier import TrainConfig, train_ovr

assert count() == 2 and foreign_threads(), "numpy's OpenBLAS runs no server thread"
x = np.random.default_rng(0).random((136, 1000))  # the sweep's 8 classes x 17 rows, k = 1000
train_ovr(x, [f"c{i % 8}" for i in range(136)], TrainConfig(epochs=1))
assert count() == 1 and wait_for(lambda: not foreign_threads()), (count(), foreign_threads())
""")

    def test_a_library_without_shutdown_still_pins(self):
        self.run("""
from types import SimpleNamespace

ctypes.CDLL = lambda path: SimpleNamespace(
    scipy_openblas_set_num_threads64_=real_cdll(path).scipy_openblas_set_num_threads64_)
servers = foreign_threads()
harness._on_image_threads(lambda job: None, range(4))
assert classifier._pin_blas() and count() == 1
assert servers and servers <= foreign_threads()  # pinned, not shut down
""")


class TestSummaryCsv:
    def _row(self):
        from bovw.harness import SummaryRow

        return SummaryRow("crossbase", "src", "all", "tgt", 5, 100, 60.0, "soft", "max",
                          5, 0.5, 0.4, 0.6)

    def test_header_then_append(self, tmp_path):
        path = tmp_path / "out.csv"
        write_summary_csv([self._row()], path)
        write_summary_csv([self._row()], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1] == lines[2]

    @pytest.mark.parametrize("first_line", ["a,b,c", ",".join(CSV_COLUMNS[:-1])])
    def test_append_to_other_header_rejected(self, tmp_path, first_line):
        path = tmp_path / "out.csv"
        path.write_text(first_line + "\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            write_summary_csv([self._row()], path)
        assert path.read_text() == first_line + "\n1,2,3\n"

    def test_torn_last_row_rejected(self, tmp_path):
        # a run killed mid-append: appending would merge the next row into the torn one
        path = tmp_path / "out.csv"
        write_summary_csv([self._row()], path)
        torn = path.read_bytes()[:-20]
        path.write_bytes(torn)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: last row is incomplete"):
            write_summary_csv([self._row()], path)
        assert path.read_bytes() == torn

    def test_every_encoder_setting_is_recorded(self):
        # an encoder option that no row records would make rows indistinguishable
        names = [f.name for f in fields(EncodingParams)]
        assert names == ["sigma", "assignment", "pooling"]
        assert set(names) <= set(CSV_COLUMNS)

    def test_row_contents(self, tmp_path):
        # float-typed fields are written as repr(float(v)), whatever type they hold
        from bovw.harness import SummaryRow

        row = SummaryRow("sweep", "src", "2", "tgt", 5, 100, 60, "hard", "average", 1,
                         np.float64(0.1) + 0.2, np.float32(0.25), 1)
        path = tmp_path / "out.csv"
        write_summary_csv([row], path)
        assert path.read_bytes() == (
            b"experiment,dict_source,dict_classes,target,n_train,k,sigma,assignment,"
            b"pooling,n_runs,mean_acc,ci_low,ci_high\r\n"
            b"sweep,src,2,tgt,5,100,60.0,hard,average,1,0.30000000000000004,0.25,1.0\r\n"
        )


class TestSynth:
    def test_deterministic_generation(self, tmp_path):
        spec = (TextureSpec("g", "grating", 0.1, 30.0),)
        m1 = generate_corpus(tmp_path / "a", spec, 2, size=32, seed=9, name="s")
        m2 = generate_corpus(tmp_path / "b", spec, 2, size=32, seed=9, name="s")
        a = load_image(load_manifest(m1).resolve(load_manifest(m1).entries[0]))
        b = load_image(load_manifest(m2).resolve(load_manifest(m2).entries[0]))
        assert np.array_equal(a.pixels, b.pixels)

    @pytest.mark.parametrize("images_per_class, size", [(0, 32), (-1, 32), (2, 0)])
    def test_bad_counts_create_nothing(self, tmp_path, images_per_class, size):
        with pytest.raises(ValueError, match="images_per_class and size must be >= 1"):
            generate_corpus(tmp_path, CORPUS_PRESETS["textures3"](), images_per_class,
                            size=size, name="s")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset, digest", [
        ("textures8", "995915a9e3abedc34df4b2d0e8afa12e22f7e95cf2feec476a126d0eca05c37b"),
        ("textures3", "66070adb2e3eda467dd7e10ef9dda75d328e002ff78854f67d9c0cee8c942506"),
    ])
    def test_preset_pixels_pinned(self, tmp_path, preset, digest):
        m = generate_preset(tmp_path, preset, images_per_class=2, size=32, seed=0)
        pixels = b"".join(load_image(m.resolve(e)).pixels.tobytes() for e in m.entries)
        assert hashlib.sha256(pixels).hexdigest() == digest

    def test_presets_have_expected_classes(self):
        assert len(CORPUS_PRESETS["textures8"]()) == 8
        assert len(CORPUS_PRESETS["textures3"]()) == 3
        names8 = {s.name for s in CORPUS_PRESETS["textures8"]()}
        names3 = {s.name for s in CORPUS_PRESETS["textures3"]()}
        assert not names8 & names3

    def test_render_respects_bounds(self):
        img = render_texture(TextureSpec("c", "checker", 0.07, 10.0), 48,
                             np.random.default_rng(0))
        assert img.pixels.shape == (48, 48)
        assert img.pixels.dtype == np.uint8

    def test_manifest_loads_and_images_open(self, micro_corpus):
        assert len(micro_corpus.class_labels) == 3
        img = load_image(micro_corpus.resolve(micro_corpus.entries[0]))
        assert img.width == 48


SEED_ERROR = "argument --seed: expected a non-negative integer"
TINY_ERROR = "{t}/tiny.pgm: image 8x8 smaller than one 16-pixel patch"


@pytest.fixture
def micro_bows(tmp_path, micro_corpus) -> Path:
    """A bow batch file with one row per micro-corpus entry."""
    path = tmp_path / "bows.bin"
    save_bows(np.ones((len(micro_corpus), 3)), "cb", path)
    return path


class TestCli:
    def test_pipeline_commands(self, tmp_path, micro_corpus):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        cache = str(tmp_path / "cache")
        out = run_cli("extract", "--manifest", manifest, "--cache-dir", cache)
        assert out.returncode == 0, out.stderr
        out = run_cli("codebook", "--manifest", manifest, "--k", "16", "--seed", "1",
                      "--cache-dir", cache, "--out", str(tmp_path / "cb.bin"))
        assert out.returncode == 0, out.stderr
        out = run_cli("encode", "--manifest", manifest, "--codebook", str(tmp_path / "cb.bin"),
                      "--cache-dir", cache, "--out", str(tmp_path / "bows.bin"))
        assert out.returncode == 0, out.stderr
        out = run_cli("train", "--bows", str(tmp_path / "bows.bin"), "--manifest", manifest,
                      "--out", str(tmp_path / "model.bin"))
        assert out.returncode == 0, out.stderr
        out = run_cli("eval", "--bows", str(tmp_path / "bows.bin"), "--manifest", manifest,
                      "--model", str(tmp_path / "model.bin"))
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("accuracy\t")

    def test_eval_refuses_bows_of_another_codebook(self, tmp_path, micro_corpus, micro_store):
        # a model file names the codebook of the bows it was trained on
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        sets, ids = micro_store.pool(micro_corpus), []
        for seed in (0, 1):
            cb = build_random_codebook(sets, 16, seed, "micro")
            bows = encode_rows(np.empty((len(sets), cb.k)), sets, cb, EncodingParams())
            save_bows(bows, cb.codebook_id, tmp_path / f"bows{seed}.bin")
            ids.append(cb.codebook_id)
        model = tmp_path / "model.bin"
        out = run_cli("train", "--bows", str(tmp_path / "bows0.bin"), "--manifest", manifest,
                      "--out", str(model))
        assert out.returncode == 0, out.stderr
        out = run_cli("eval", "--bows", str(tmp_path / "bows1.bin"), "--manifest", manifest,
                      "--model", str(model))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (f"bovw eval: error: {tmp_path / 'bows1.bin'} is encoded with "
                              f"codebook {ids[1]}, but {model} was trained on codebook {ids[0]}\n")
        out = run_cli("eval", "--bows", str(tmp_path / "bows0.bin"), "--manifest", manifest,
                      "--model", str(model))
        assert out.returncode == 0 and out.stdout.startswith("accuracy\t"), out.stderr

    @pytest.mark.parametrize("classes, seed", [(1, 0), (2, 3), (2, 4)])
    def test_codebook_classes_prints_the_chosen_classes(self, tmp_path, micro_corpus, classes,
                                                        seed):
        out = run_cli("codebook", "--manifest", str(micro_corpus.base_dir / "micro.manifest"),
                      "--classes", str(classes), "--seed", str(seed), "--k", "12",
                      "--out", str(tmp_path / "cb.bin"))
        assert out.returncode == 0, out.stderr
        chosen = select_classes(micro_corpus, classes, seed + CLASS_SEED_OFFSET).class_labels
        assert out.stdout.splitlines()[0] == f"classes: {','.join(chosen)}"
        assert load_codebook(tmp_path / "cb.bin").source_classes == tuple(chosen)

    @pytest.mark.parametrize("argv", [
        pytest.param("--manifest {m} --k 12 --out {t}/nodir/cb.bin", id="out"),
        pytest.param("--manifest {m} --k 100000 --out {t}/cb.bin", id="k"),
        pytest.param("--manifest {t}/tiny.manifest --k 12 --out {t}/cb.bin", id="image"),
    ])
    def test_failing_codebook_classes_run_prints_nothing(self, tmp_path, micro_corpus, argv):
        save_image(Image(pixels=np.zeros((8, 8), np.uint8)), tmp_path / "tiny.pgm")
        (tmp_path / "tiny.manifest").write_text(f"{tmp_path / 'tiny.pgm'}\tblocks\n")
        fill = functools.partial(str.format, m=micro_corpus.base_dir / "micro.manifest",
                                 t=tmp_path)
        out = run_cli("codebook", *map(fill, argv.split()), "--classes", "1",
                      "--cache-dir", str(tmp_path / "cache"))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("bovw codebook: error: ") and out.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.manifest", "tiny.pgm"]

    def test_experiment_defaults_match_protocol(self):
        # the documented defaults: stride 6, patch 16, k 1000, sigma 60,
        # soft assignment, max pooling, 5 runs, 95% intervals
        from bovw.cli import build_parser

        args = build_parser().parse_args(
            ["crossbase", "--source", "s", "--target", "t", "--ntrain", "30", "--out", "o"]
        )
        assert (args.stride, args.patch, args.k) == (6, 16, 1000)
        assert (args.sigma, args.assignment, args.pooling) == (60.0, "soft", "max")
        assert (args.runs, PipelineParams.alpha) == (5, 0.05)
        sweep = build_parser().parse_args(
            ["sweep", "--source", "s", "--target", "t", "--out", "o"]
        )
        assert sweep.class_counts == [1, 6, 12, 25, 50, 101]
        assert sweep.ntrain == 30

    def test_parsed_defaults_are_the_librarys(self):
        # each default is the one the library's dataclasses hold
        from bovw.cli import _grid, _pipeline, build_parser

        parse, TrainConfig = build_parser().parse_args, bovw.classifier.TrainConfig
        train = parse(["train", "--bows", "b", "--manifest", "m", "--out", "o"])
        assert TrainConfig(train.c_reg, train.epochs, train.seed) == TrainConfig()
        codebook = parse(["codebook", "--manifest", "m", "--out", "o"])
        assert (_grid(codebook), codebook.k) == (GridParams(), PipelineParams().k)
        for argv in (["crossbase", "--source", "s", "--target", "t", "--ntrain", "3", "--out", "o"],
                     ["sweep", "--source", "s", "--target", "t", "--out", "o"]):
            args = parse(argv)
            assert _pipeline(args) == PipelineParams()
            assert tuple(range(args.seed, args.seed + args.runs)) == SplitSpec.run_seeds
        synth = vars(parse(["synth", "--out-dir", "d"]))
        library = inspect.signature(bovw.synth.generate_preset).parameters
        for name in ("images_per_class", "size", "seed"):
            assert synth[name] == library[name].default

    def test_crossbase_command_writes_csv(self, tmp_path, micro_corpus):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        csv_path = tmp_path / "res.csv"
        out = run_cli("crossbase", "--source", manifest, "--target", manifest,
                      "--ntrain", "3", "--k", "12", "--runs", "2", "--seed", "0",
                      "--out", str(csv_path))
        assert out.returncode == 0, out.stderr
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_sweep_command_writes_api_csv(self, tmp_path, micro_corpus, micro_store):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        csv_path = tmp_path / "res.csv"
        out = run_cli("sweep", "--source", manifest, "--target", manifest,
                      "--class-counts", "1,3", "--ntrain", "3", "--k", "12", "--runs", "2",
                      "--seed", "4", "--out", str(csv_path))
        assert out.returncode == 0, out.stderr
        rows = diversity_sweep(micro_corpus, [1, 3], micro_corpus, 3,
                               SplitSpec(n_train_per_class=3, run_seeds=(4, 5)),
                               PipelineParams(k=12), store=micro_store)
        write_summary_csv(rows, tmp_path / "api.csv")
        assert csv_path.read_bytes() == (tmp_path / "api.csv").read_bytes()
        assert out.stdout.splitlines() == [
            f"sweep dict=micro classes={r.dict_classes} target=micro n_train=3 "
            f"acc={r.mean_acc:.4f} ci=[{r.ci_low:.4f}, {r.ci_high:.4f}]"
            for r in rows
        ]

    def test_unsupported_alpha_fails_before_any_trial(self, tmp_path, micro_corpus):
        # every interval is 95%: --alpha is no option, whatever its value
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        for command in ("crossbase", "sweep"):
            out = run_cli("-v", command, "--source", manifest, "--target", manifest,
                          "--ntrain", "3", "--k", "12", "--runs", "2", "--alpha", "0.05",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--out", str(tmp_path / "res.csv"))
            assert out.returncode == 2 and out.stdout == ""
            assert out.stderr.startswith("usage: bovw ")
            assert out.stderr.endswith("bovw: error: unrecognized arguments: --alpha 0.05\n")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["crossbase", "--ntrain", "3", "--epochs", "0"], "epochs must be >= 1"),
        (["crossbase", "--ntrain", "3", "--c-reg", "0"], "c_reg must be positive"),
        (["sweep", "--ntrain", "3", "--class-counts", "0,2"], "class_counts must be"),
        (["crossbase", "--ntrain", "3", "--c-reg", "nan"], "c_reg must be positive and finite"),
        (["crossbase", "--ntrain", "3", "--sigma", "nan"], "sigma must be positive and finite"),
        (["crossbase", "--ntrain", "3,8"], "need more than n_train=8"),
        (["sweep", "--ntrain", "8", "--class-counts", "1,3"], "need more than n_train=8"),
        (["crossbase", "--ntrain", "3", "--sigma", "1e-200"], "sigma must be positive and finite"),
        (["crossbase", "--ntrain", "3", "--c-reg", "1e308"],
         "lambda = 1/(c_reg*n) must be positive and finite, got 0.0 for c_reg=1e+308 and n=9"),
        (["sweep", "--ntrain", "2", "--class-counts", "1,3", "--c-reg", "1e-320"],
         "lambda = 1/(c_reg*n) must be positive and finite, got inf for c_reg=1e-320 and n=6"),
    ])
    def test_bad_input_fails_before_any_extraction(self, tmp_path, micro_corpus, argv, message):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        cache = tmp_path / "cache"
        out = run_cli(*argv, "--source", manifest, "--target", manifest, "--k", "12",
                      "--runs", "2", "--cache-dir", str(cache), "--out", str(tmp_path / "res.csv"))
        assert out.returncode != 0
        assert out.stderr.startswith(f"bovw {argv[0]}: error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr
        assert not cache.exists()
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("argv, points", [
        ("crossbase --source {m} --target {m} --ntrain 3 --runs 2 --out {t}/res.csv", 24 * 36),
        ("crossbase --source {m} --target {m} --ntrain 3 --runs 2 --out {t}/res.csv "
         "--stride 12", 24 * 9),
        ("sweep --source {m} --target {m} --class-counts 1,3 --ntrain 3 --runs 2 "
         "--out {t}/res.csv", 8 * 36),
        ("codebook --manifest {m} --out {t}/cb.bin", 24 * 36),
    ], ids=["crossbase", "crossbase-stride", "sweep", "codebook"])
    def test_too_large_k_fails_before_any_extraction(self, tmp_path, micro_corpus, argv,
                                                     points):
        # 48x48 images hold 6x6 patches of 16 pixels at stride 6, 3x3 at stride 12;
        # the sweep's smallest dictionary source is one class of 8 images
        manifest = micro_corpus.base_dir / "micro.manifest"
        cache = tmp_path / "cache"
        argv = [a.format(m=manifest, t=tmp_path) for a in argv.split()]
        assert run_cli(*argv, "--k", str(points), "--cache-dir", str(cache)).returncode == 0
        shutil.rmtree(cache)
        out = run_cli(*argv, "--k", str(points + 1), "--cache-dir", str(cache))
        assert out.returncode == 2
        assert out.stderr == (f"bovw {argv[0]}: error: pool has {points} descriptors, "
                              f"need at least {points + 1}\n")
        assert not cache.exists()

    @pytest.mark.parametrize("command", ["crossbase --ntrain 1 --no-native",
                                         "sweep --class-counts 1,3 --ntrain 1"],
                             ids=["crossbase", "sweep"])
    def test_small_target_image_fails_before_any_extraction(self, tmp_path, micro_corpus,
                                                            command):
        tiny = tmp_path / "tiny.pgm"
        save_image(Image(pixels=np.zeros((8, 8), np.uint8)), tiny)
        target = tmp_path / "target.manifest"
        target.write_text("".join(f"{micro_corpus.resolve(e)}\t{e.label}\n"
                                  for e in micro_corpus.entries) + f"{tiny}\tblocks\n")
        cache, source = tmp_path / "cache", micro_corpus.base_dir / "micro.manifest"
        out = run_cli(*command.split(), "--source", str(source), "--target", str(target),
                      "--k", "20", "--runs", "2",
                      "--cache-dir", str(cache), "--out", str(tmp_path / "res.csv"))
        assert out.returncode == 2
        assert out.stderr == (f"bovw {command.split()[0]}: error: {tiny}: "
                              "image 8x8 smaller than one 16-pixel patch\n")
        assert list(cache.glob("*")) == []
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param("extract --manifest {t}/tiny.manifest", TINY_ERROR, id="extract-image"),
        pytest.param("encode --manifest {t}/tiny.manifest --codebook {t}/cb.bin --out {t}/b.bin",
                     TINY_ERROR, id="encode-image"),
        pytest.param("encode --manifest {m} --codebook {t}/cb.bin --out {t}/b.bin --sigma 0",
                     "sigma must be positive and finite, with 1/(2 sigma^2) finite and nonzero; "
                     "got 0.0", id="encode-sigma"),
        pytest.param("codebook --manifest {m} --k 12 --out {t}/nodir/b.bin",
                     "{t}/nodir/b.bin: directory {t}/nodir does not exist", id="codebook-out"),
        pytest.param("encode --manifest {m} --codebook {t}/cb.bin --out {t}/nodir/b.bin",
                     "{t}/nodir/b.bin: directory {t}/nodir does not exist", id="encode-out"),
        pytest.param("encode --manifest {m} --codebook {t}/cb.bin --out {t}/b.bin "
                     "--csv {t}/nodir/b.csv",
                     "{t}/nodir/b.csv: directory {t}/nodir does not exist", id="encode-csv"),
    ])
    def test_pipeline_input_fails_before_any_extraction(self, tmp_path, micro_corpus, argv,
                                                        message):
        # the manifest lists a 48x48 image before the 8x8 one
        save_image(Image(pixels=np.zeros((8, 8), np.uint8)), tmp_path / "tiny.pgm")
        (tmp_path / "tiny.manifest").write_text(
            f"{micro_corpus.resolve(micro_corpus.entries[0])}\tblocks\n"
            f"{tmp_path / 'tiny.pgm'}\tblocks\n")
        words = np.random.default_rng(3).integers(0, 256, (12, 128)).astype(np.uint8)
        save_codebook(Codebook(words, "micro", (), 0), tmp_path / "cb.bin")
        cache = tmp_path / "cache"
        fill = functools.partial(str.format, m=micro_corpus.base_dir / "micro.manifest",
                                 t=tmp_path)
        out = run_cli(*map(fill, argv.split()), "--cache-dir", str(cache))
        assert out.returncode == 2
        assert out.stderr == f"bovw {argv.split()[0]}: error: {fill(message)}\n"
        assert not cache.exists()
        assert not (tmp_path / "b.bin").exists()

    def test_extract_checks_the_payload_before_counting_the_grid(self, tmp_path):
        # a 10^16-pixel header over 1,000 payload bytes: no grid of that size is counted
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n100000000 100000000\n255\n" + bytes(1000))
        (tmp_path / "huge.manifest").write_text(f"{path}\tblocks\n")
        cache = tmp_path / "cache"
        out = run_cli("extract", "--manifest", str(tmp_path / "huge.manifest"),
                      "--cache-dir", str(cache))
        assert out.returncode == 2
        assert out.stderr == (f"bovw extract: error: {path}: truncated payload "
                              "(1000 bytes, expected 10000000000000000)\n")
        assert not cache.exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param("codebook --manifest {m} --k 12 --cache-dir {t}/cache --out {t}/cb.bin "
                     "--seed -3", SEED_ERROR, id="codebook-seed"),
        pytest.param("codebook --manifest {m} --k 0 --cache-dir {t}/cache --out {t}/cb.bin",
                     "argument --k: expected a positive integer", id="codebook-k"),
        pytest.param("train --bows {t}/bows.bin --manifest {m} --out {t}/model.bin --seed -3",
                     SEED_ERROR, id="train-seed"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv --seed -20000",
                     SEED_ERROR, id="crossbase-seed"),
        pytest.param("sweep --source {m} --target {m} --class-counts 1,3 --ntrain 3 --k 12 "
                     "--runs 2 --cache-dir {t}/cache --out {t}/res.csv --seed -20000",
                     SEED_ERROR, id="sweep-seed"),
        pytest.param("synth --out-dir {t}/corpus --corpus textures3 --images-per-class 2 "
                     "--size 32 --seed -1", SEED_ERROR, id="synth-seed"),
        pytest.param("train --bows {t}/bows.bin --manifest {m} --out {t}/model.bin --seed abc",
                     f"{SEED_ERROR}, got 'abc'", id="train-seed-text"),
        pytest.param("codebook --manifest {m} --k 1.5 --cache-dir {t}/cache --out {t}/cb.bin",
                     "argument --k: expected a positive integer, got '1.5'", id="codebook-k-float"),
        pytest.param("codebook --manifest {m} --k 12 --classes 0 --cache-dir {t}/cache "
                     "--out {t}/cb.bin",
                     "argument --classes: expected a positive integer, got '0'",
                     id="codebook-classes-zero"),
        pytest.param("codebook --manifest {m} --k 12 --classes -1 --cache-dir {t}/cache "
                     "--out {t}/cb.bin",
                     "argument --classes: expected a positive integer, got '-1'",
                     id="codebook-classes-negative"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 2,x --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "argument --ntrain: expected a comma-separated integer list, got '2,x'",
                     id="crossbase-ntrain-text"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv --workers 2",
                     "unrecognized arguments: --workers 2", id="crossbase-workers"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 0,2 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "argument --ntrain: expected positive integers, got '0,2'",
                     id="crossbase-ntrain-zero"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 3,-1 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "argument --ntrain: expected positive integers, got '3,-1'",
                     id="crossbase-ntrain-negative"),
        pytest.param("sweep --source {m} --target {m} --class-counts 1,3 --ntrain 0 --k 12 "
                     "--runs 2 --cache-dir {t}/cache --out {t}/res.csv",
                     "argument --ntrain: expected a positive integer, got '0'",
                     id="sweep-ntrain-zero"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs 0 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "argument --runs: expected a positive integer, got '0'",
                     id="crossbase-runs-zero"),
        pytest.param("sweep --source {m} --target {m} --class-counts 1,3 --ntrain 3 --k 12 "
                     "--runs -2 --cache-dir {t}/cache --out {t}/res.csv",
                     "argument --runs: expected a positive integer, got '-2'",
                     id="sweep-runs-negative"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs -2 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "argument --runs: expected a positive integer, got '-2'",
                     id="crossbase-runs-negative"),
        pytest.param("sweep --source {m} --target {m} --class-counts 1,3 --ntrain 3 --k 12 "
                     "--runs 0 --cache-dir {t}/cache --out {t}/res.csv",
                     "argument --runs: expected a positive integer, got '0'",
                     id="sweep-runs-zero"),
        pytest.param("train --bows {t}/bows.bin --manifest {m} --out {t}/nodir/m.bin",
                     "bovw train: error: {t}/nodir/m.bin: directory {t}/nodir does not exist",
                     id="train-out-nodir"),
        pytest.param("codebook --manifest {m} --k 12 --cache-dir {t}/cache --out {t}/cb.bin "
                     "--seed 9223372036854775808",
                     "bovw codebook: error: seed 9223372036854775808 does not fit the codebook "
                     "file's 64-bit seed field", id="codebook-seed-beyond-i64"),
        pytest.param("crossbase --source {m} --target {m} --ntrain 2,2 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv",
                     "bovw crossbase: error: n_train values must be distinct, got [2, 2]",
                     id="crossbase-ntrain-repeated"),
        pytest.param("extract --manifest {m} --cache-dir {t}/cache --stride 4294967296",
                     "bovw extract: error: stride must be in [1, 2^32), got 4294967296",
                     id="extract-stride-beyond-u32"),
    ])
    def test_usage_error_writes_nothing(self, tmp_path, micro_corpus, micro_bows, argv, message):
        fill = functools.partial(str.format, m=micro_corpus.base_dir / "micro.manifest",
                                 t=tmp_path)
        out = run_cli(*map(fill, argv.split()))
        assert out.returncode == 2
        if message.startswith("bovw "):  # the command's own check: its one error line
            assert out.stderr == fill(message) + "\n"
        else:  # argparse's: the usage, then the error
            assert out.stderr.startswith("usage: bovw") and message in out.stderr
        assert list(tmp_path.iterdir()) == [micro_bows]  # no cache file, CSV, image or model

    @pytest.mark.parametrize("command", ["crossbase --ntrain 3",
                                         "sweep --class-counts 1,3 --ntrain 3"],
                             ids=["crossbase", "sweep"])
    @pytest.mark.parametrize("out_name, message", [("foreign.csv", "header ['a', 'b', 'c']"),
                                                   ("missing/res.csv", "does not exist")],
                             ids=["foreign-csv", "missing-dir"])
    def test_bad_out_fails_before_any_extraction(self, tmp_path, micro_corpus, command,
                                                 out_name, message):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("a,b,c\n1,2,3\n")
        cache = tmp_path / "cache"
        out = run_cli(*command.split(), "--source", manifest, "--target", manifest, "--k", "12",
                      "--runs", "2", "--cache-dir", str(cache), "--out", str(tmp_path / out_name))
        assert out.returncode == 2
        assert out.stderr.startswith(f"bovw {command.split()[0]}: error: ")
        assert out.stderr.count("\n") == 1 and message in out.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.csv"]
        assert foreign.read_text() == "a,b,c\n1,2,3\n"

    @pytest.mark.parametrize("command", ["crossbase --ntrain 3",
                                         "sweep --class-counts 1,3 --ntrain 3"],
                             ids=["crossbase", "sweep"])
    def test_torn_csv_fails_before_any_extraction(self, tmp_path, micro_corpus, command):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        torn = tmp_path / "torn.csv"
        write_summary_csv([TestSummaryCsv()._row()], torn)
        before = torn.read_bytes()[:-20]
        torn.write_bytes(before)
        out = run_cli(*command.split(), "--source", manifest, "--target", manifest, "--k", "12",
                      "--runs", "2", "--cache-dir", str(tmp_path / "cache"), "--out", str(torn))
        assert out.returncode == 2
        assert out.stderr == (f"bovw {command.split()[0]}: error: {torn}: last row is "
                              f"incomplete (no newline at the end of the file)\n")
        assert list(tmp_path.iterdir()) == [torn]
        assert torn.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        "extract --manifest {m}",
        "crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs 2 --out {t}/res.csv",
    ], ids=["extract", "crossbase"])
    def test_cache_dir_that_is_a_file_fails_before_any_extraction(self, tmp_path, micro_corpus,
                                                                  argv):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        manifest = micro_corpus.base_dir / "micro.manifest"
        argv = [a.format(m=manifest, t=tmp_path) for a in argv.split()]
        out = run_cli(*argv, "--cache-dir", str(afile))
        assert out.returncode == 2
        assert out.stderr == (f"bovw {argv[0]}: error: cache directory {afile}: "
                              f"{afile} is not a directory\n")
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "not a directory\n"

    @pytest.mark.parametrize("argv", [
        "crossbase --source {t}/nope.manifest --target {m} --ntrain 3 --out {t}/res.csv",
        "encode --manifest {m} --codebook {t}/nope.bin --out {t}/out.bin",
        "train --bows {t}/nope.bin --manifest {m} --out {t}/out.bin",
        "eval --bows {t}/bows.bin --manifest {m} --model {t}/nope.bin",
    ], ids=["manifest", "codebook", "bows", "model"])
    def test_missing_input_file_is_one_line(self, tmp_path, micro_corpus, micro_bows, argv):
        manifest = micro_corpus.base_dir / "micro.manifest"
        out = run_cli(*[a.format(m=manifest, t=tmp_path) for a in argv.split()])
        assert out.returncode == 2
        assert out.stderr.startswith(f"bovw {argv.split()[0]}: error: ")
        assert out.stderr.count("\n") == 1 and str(tmp_path / "nope.") in out.stderr

    def test_library_error_is_one_line(self, tmp_path, micro_corpus):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        out = run_cli("crossbase", "--source", manifest, "--target", manifest, "--ntrain", "3",
                      "--epochs", "0", "--out", str(tmp_path / "res.csv"))
        assert out.returncode == 2
        assert out.stderr == "bovw crossbase: error: epochs must be >= 1\n"
        save_bows(np.ones((1, 3)), "cb", tmp_path / "one.bin")
        out = run_cli("train", "--bows", str(tmp_path / "one.bin"), "--manifest", manifest,
                      "--out", str(tmp_path / "model.bin"))
        assert out.returncode == 2
        assert out.stderr == (f"bovw train: error: bow file has 1 rows but manifest has "
                              f"{len(micro_corpus)} entries\n")

    def test_a_run_killed_at_its_first_pool_reruns_to_a_fresh_runs_csv(self, tmp_path):
        # SIGKILL once the target's pool is cached, as the source's extraction
        # starts: the rerun loads or rewrites what the kill left and writes the same rows
        manifests = [generate_preset(tmp_path / corpus, corpus, images_per_class=4, size=size,
                                     seed=seed).base_dir / f"{corpus}.manifest"
                     for corpus, size, seed in (("textures3", 48, 1), ("textures8", 160, 2))]

        def argv(run: str) -> list[str]:
            (tmp_path / run).mkdir(exist_ok=True)
            return ["crossbase", "--target", str(manifests[0]), "--source", str(manifests[1]),
                    "--ntrain", "1,2", "--k", "50", "--runs", "2",
                    "--cache-dir", str(tmp_path / run / "cache"),
                    "--out", str(tmp_path / run / "res.csv")]

        with subprocess.Popen([sys.executable, "-m", "bovw", "-v", *argv("killed")],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              env=child_env()) as child:
            logged = []
            for line in child.stderr:
                logged.append(line)
                if line.startswith("INFO bovw.harness: pool "):
                    child.kill()
                    break
        assert child.returncode == -signal.SIGKILL, "".join(logged)
        assert not (tmp_path / "killed" / "res.csv").exists()
        rerun, fresh = run_cli(*argv("killed")), run_cli(*argv("fresh"))
        assert rerun.returncode == fresh.returncode == 0, rerun.stderr + fresh.stderr
        assert rerun.stdout == fresh.stdout
        assert (tmp_path / "killed" / "res.csv").read_bytes() == (
            tmp_path / "fresh" / "res.csv").read_bytes()
        cache, fresh_cache = tmp_path / "killed" / "cache", tmp_path / "fresh" / "cache"
        left = [p.name for p in cache.iterdir() if p.suffix != ".desc"]
        assert all(re.fullmatch(r"[0-9a-f]{40}\.desc\.[0-9a-f]{32}\.tmp", n) for n in left), left
        descs = sorted(p.name for p in cache.glob("*.desc"))
        assert descs == sorted(p.name for p in fresh_cache.iterdir()) and len(descs) == 44
        for name in descs:
            load_descriptor_cache(cache / name, GridParams())
            assert (cache / name).read_bytes() == (fresh_cache / name).read_bytes()

    def test_readme_desk_csvs_pinned(self, tmp_path, monkeypatch):
        # the README's desk recipe, through cli.main; the digests hold at the
        # AVX-512 and the AVX2 SIMD dispatch levels
        from bovw.cli import main

        monkeypatch.chdir(tmp_path)
        corpora = ["--source", "textures/diverse8/textures8.manifest", "--k", "200",
                   "--cache-dir", "textures/cache"]
        for argv in (["synth", "--out-dir", "textures/diverse8", "--corpus", "textures8",
                      "--seed", "7"],
                     ["synth", "--out-dir", "textures/narrow3", "--corpus", "textures3",
                      "--seed", "11"],
                     ["crossbase", *corpora, "--target", "textures/narrow3/textures3.manifest",
                      "--ntrain", "10,20,30", "--out", "crossbase.csv"],
                     ["sweep", *corpora, "--target", "textures/diverse8/textures8.manifest",
                      "--class-counts", "1,2,4,8", "--ntrain", "30", "--out", "diversity.csv"]):
            assert main(argv) == 0, argv
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("crossbase.csv", "diversity.csv")}
        assert digests == {
            "crossbase.csv": "936a5ac67bb51f542fe3cf47a344619f46b6d0bb5495911c4f27b15078c8d1e5",
            "diversity.csv": "853566f95bca8cfdcffd517280d969e77566f36732cdf71bfe2d87862835d927",
        }

    def test_readme_states_no_measured_figure(self):
        # timings and memory figures go stale from one machine to the next: they
        # live in BENCH_*.json and CHANGES.md, and README names the file
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        assert re.findall(r"\d\s?(?:ms|µs|ns|KiB|MiB)\b|alternated\s+pairs", readme) == []
        named = set(re.findall(r"BENCH_PR\d+\.json", readme))
        assert named and all((root / name).is_file() for name in named), sorted(named)

    def test_readme_commands_parse(self):
        from bovw.cli import build_parser

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        commands = [shlex.split(line, comments=True)
                    for block in blocks for line in block.replace("\\\n", " ").splitlines()
                    if line.lstrip().startswith("bovw ")]
        assert {"synth", "crossbase", "sweep"} <= {argv[1] for argv in commands}
        for argv in commands:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")
