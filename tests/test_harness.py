import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bovw.codebook import build_random_codebook
from bovw.corpus import DatasetManifest, ManifestEntry, load_image, load_manifest
from bovw.encoding import BowVector, EncodingParams, encode_image, save_bows
from bovw.features import GridParams, cache_path, extract_dense_sift, load_descriptor_cache
import bovw.harness
from bovw.harness import (
    CSV_COLUMNS,
    SPLIT_SEED_OFFSET,
    DescriptorStore,
    PipelineParams,
    SplitSpec,
    confidence_interval,
    cross_base_experiment,
    diversity_sweep,
    run_trial,
    split_balanced,
    write_summary_csv,
)
from bovw.synth import CORPUS_PRESETS, TextureSpec, generate_corpus, render_texture

from conftest import encode_target, run_cli


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

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            confidence_interval([0.5])

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            confidence_interval([0.1, 0.2], alpha=0.07)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.uniform(0, 1, rng.integers(2, 40))
            mean, low, high = confidence_interval(vals.tolist())
            assert low <= mean <= high

    def test_table_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        for alpha in (0.10, 0.05, 0.01):
            for n in (2, 3, 5, 8, 20, 31):
                vals = rng.uniform(0, 1, n).tolist()
                mean, low, high = confidence_interval(vals, alpha=alpha)
                t = scipy_stats.t.ppf(1 - alpha / 2, n - 1)
                s = np.std(vals, ddof=1)
                assert high - mean == pytest.approx(t * s / np.sqrt(n), rel=2e-4)

    def test_pipeline_params_reject_unsupported_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            PipelineParams(alpha=0.07)

    @pytest.mark.parametrize("c_reg", [float("nan"), float("inf")])
    def test_pipeline_params_reject_non_finite_c_reg(self, c_reg):
        with pytest.raises(ValueError, match="c_reg must be positive and finite"):
            PipelineParams(c_reg=c_reg)

    def test_large_n_uses_normal_limit(self):
        vals = [0.0, 1.0] * 20  # n = 40, beyond the table
        mean, low, high = confidence_interval(vals, alpha=0.05)
        s = np.std(vals, ddof=1)
        assert high - mean == pytest.approx(1.96 * s / np.sqrt(40), rel=1e-4)


@pytest.fixture(scope="module")
def micro_params():
    return PipelineParams(grid=GridParams(), encoding=EncodingParams(), k=24, epochs=30)


class TestRunTrial:
    def test_own_dictionary_beats_chance(self, micro_corpus, micro_store, micro_params):
        train, _ = split_balanced(micro_corpus, 4, seed=100)
        pool = [micro_store.get(micro_corpus, micro_corpus.entries[i]) for i in train]
        cb = build_random_codebook(pool, micro_params.k, seed=0, source_name="micro")
        bows = encode_target(micro_store, micro_corpus, cb, micro_params.encoding)
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
        bows = encode_target(micro_store, micro_corpus, cb, micro_params.encoding)
        a = run_trial(cb, micro_corpus, 4, 3, micro_params, bows)
        b = run_trial(cb, micro_corpus, 4, 3, micro_params, bows)
        assert a == b


class TestExperiments:
    def test_crossbase_same_source_matches_native(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=4, run_seeds=(0, 1))
        rows = cross_base_experiment(micro_corpus, micro_corpus, [4], spec, micro_params,
                                     store=micro_store)
        assert len(rows) == 2
        native, cross = rows
        assert native.mean_acc == cross.mean_acc
        assert native.ci_low == cross.ci_low

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

    def test_sweep_count_beyond_classes_rejected(self, micro_corpus, micro_store, micro_params):
        spec = SplitSpec(n_train_per_class=3, run_seeds=(0,))
        with pytest.raises(ValueError, match="exceeds"):
            diversity_sweep(micro_corpus, [9], micro_corpus, 3, spec, micro_params,
                            store=micro_store)


class TestDescriptorStore:
    @pytest.mark.parametrize("damage", ["cut", "garbage"])
    def test_unreadable_cache_file_is_re_extracted(self, micro_corpus, tmp_path, caplog, damage):
        grid, entry = GridParams(), micro_corpus.entries[0]
        image_path = micro_corpus.resolve(entry)
        DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        cpath = cache_path(tmp_path, image_path, grid)
        data = cpath.read_bytes()
        cpath.write_bytes(data[: len(data) // 2] if damage == "cut" else bytes(range(256)) * 3)
        got = DescriptorStore(grid, cache_dir=tmp_path).get(micro_corpus, entry)
        fresh = extract_dense_sift(load_image(image_path), grid)
        assert np.array_equal(got.keypoints, fresh.keypoints)
        assert np.array_equal(got.descriptors, fresh.descriptors)
        assert "re-extracting" in caplog.text
        assert cpath.read_bytes() == data
        assert np.array_equal(load_descriptor_cache(cpath, grid).descriptors, fresh.descriptors)


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


@pytest.fixture
def micro_bows(tmp_path, micro_corpus) -> Path:
    """A bow batch file with one row per micro-corpus entry."""
    path = tmp_path / "bows.bin"
    save_bows([BowVector(np.ones(3), e.path, "cb") for e in micro_corpus.entries], path)
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

    def test_experiment_defaults_match_protocol(self):
        # the documented defaults: stride 6, patch 16, k 1000, sigma 60,
        # soft assignment, max pooling, 5 runs, alpha 0.05
        from bovw.cli import build_parser

        args = build_parser().parse_args(
            ["crossbase", "--source", "s", "--target", "t", "--ntrain", "30", "--out", "o"]
        )
        assert (args.stride, args.patch, args.k) == (6, 16, 1000)
        assert (args.sigma, args.assignment, args.pooling) == (60.0, "soft", "max")
        assert (args.runs, args.alpha) == (5, 0.05)
        sweep = build_parser().parse_args(
            ["sweep", "--source", "s", "--target", "t", "--out", "o"]
        )
        assert sweep.class_counts == [1, 6, 12, 25, 50, 101]
        assert sweep.ntrain == 30

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
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        out = run_cli("-v", "crossbase", "--source", manifest, "--target", manifest,
                      "--ntrain", "3", "--k", "12", "--runs", "2", "--alpha", "0.07",
                      "--out", str(tmp_path / "res.csv"))
        assert out.returncode != 0
        assert "alpha must be one of" in out.stderr
        assert "trial seed=" not in out.stderr
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["crossbase", "--ntrain", "3", "--epochs", "0"], "epochs must be >= 1"),
        (["crossbase", "--ntrain", "3", "--c-reg", "0"], "c_reg must be positive"),
        (["sweep", "--ntrain", "3", "--class-counts", "0,2"], "class_counts must be"),
        (["crossbase", "--ntrain", "3", "--c-reg", "nan"], "c_reg must be positive and finite"),
        (["crossbase", "--ntrain", "3", "--sigma", "nan"], "sigma must be positive and finite"),
        (["crossbase", "--ntrain", "3,8"], "need more than n_train=8"),
        (["sweep", "--ntrain", "8", "--class-counts", "1,3"], "need more than n_train=8"),
    ])
    def test_bad_input_fails_before_any_extraction(self, tmp_path, micro_corpus, argv, message):
        manifest = str(micro_corpus.base_dir / "micro.manifest")
        cache = tmp_path / "cache"
        out = run_cli(*argv, "--source", manifest, "--target", manifest, "--k", "12",
                      "--runs", "2", "--cache-dir", str(cache), "--out", str(tmp_path / "res.csv"))
        assert out.returncode != 0
        assert out.stderr.startswith(f"bovw {argv[0]}: error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr
        assert list(cache.glob("*")) == []
        assert not (tmp_path / "res.csv").exists()

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
        pytest.param("crossbase --source {m} --target {m} --ntrain 3 --k 12 --runs 2 "
                     "--cache-dir {t}/cache --out {t}/res.csv --workers 2",
                     "unrecognized arguments: --workers 2", id="crossbase-workers"),
    ])
    def test_usage_error_writes_nothing(self, tmp_path, micro_corpus, micro_bows, argv, message):
        manifest = micro_corpus.base_dir / "micro.manifest"
        out = run_cli(*[a.format(m=manifest, t=tmp_path) for a in argv.split()])
        assert out.returncode == 2
        assert out.stderr.startswith("usage: bovw") and message in out.stderr
        assert list(tmp_path.iterdir()) == [micro_bows]  # no cache file, CSV or image

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
        save_bows([BowVector(np.ones(3), "im", "cb")], tmp_path / "one.bin")
        out = run_cli("train", "--bows", str(tmp_path / "one.bin"), "--manifest", manifest,
                      "--out", str(tmp_path / "model.bin"))
        assert out.returncode == 2
        assert out.stderr == (f"bovw train: error: bow file has 1 rows but manifest has "
                              f"{len(micro_corpus)} entries\n")

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
