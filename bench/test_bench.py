"""Tests of the benchmark itself: every workload at a tiny size, and every
output check fed a perturbed output it must reject.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from bovw.codebook import build_random_codebook  # noqa: E402
from bovw.encoding import EncodingParams, encode_image  # noqa: E402
from bovw.features import GridParams, extract_dense_sift  # noqa: E402
from bovw.harness import SummaryRow, confidence_interval, write_summary_csv  # noqa: E402
from bovw.synth import render_texture, textures8_specs  # noqa: E402

GRID = GridParams()


@pytest.fixture(scope="module")
def image():
    return render_texture(textures8_specs()[2], 48, np.random.default_rng(4))


@pytest.fixture(scope="module")
def descriptors(image):
    return extract_dense_sift(image, GRID, source="img")


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    value = {k: m["value"] for k, m in result["metrics"].items()}
    if workload == "extract-cold":
        assert value["features.extract_points"] > 0 and value["encoding.encode_calls"] == 0
    else:
        assert value["harness.store_extractions"] == 0
        n_train_values = len(run.SCALES["tiny"][workload]["ntrain"])
        assert value["encoding.encode_useful_ratio"] == pytest.approx(1.0 / n_train_values)


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_descriptor_byte_off_by_two_is_rejected(image, descriptors):
    sample = [0, len(descriptors) // 2, len(descriptors) - 1]
    args = (image.pixels, descriptors.keypoints)
    assert checks.sift_problems(*args, descriptors.descriptors, sample, GRID.patch_size) == []
    bad = descriptors.descriptors.copy()
    i = sample[1]
    j = int(np.argmax(bad[i]))
    bad[i, j] -= 2
    assert checks.sift_problems(*args, bad, sample, GRID.patch_size)


def test_grid_and_cache_mismatches_are_rejected(image, descriptors):
    kps, desc = descriptors.keypoints, descriptors.descriptors
    w, h = image.width, image.height
    assert checks.grid_problems(w, h, kps, GRID.stride, GRID.patch_size) == []
    assert checks.grid_problems(w, h, kps[:-1], GRID.stride, GRID.patch_size)
    assert checks.cache_problems(kps, desc, kps, desc) == []
    bad = desc.copy()
    bad[0, 0] ^= 1
    assert checks.cache_problems(kps, bad, kps, desc)


def test_ci_bound_off_by_a_hundredth_is_rejected():
    accs = [0.9, 1.0, 0.95, 1.0, 0.85]
    mean, low, high = confidence_interval(accs, 0.05)
    assert checks.row_problems(mean, low, high, accs, 0.05) == []
    assert checks.row_problems(mean, low - 0.01, high, accs, 0.05)
    assert checks.row_problems(mean, low, high + 0.01, accs, 0.05)
    # an interval clipped to [0, 1] is rejected too
    assert high > 1.0
    assert checks.row_problems(mean, low, 1.0, accs, 0.05)


def test_accuracy_off_the_test_grid_is_rejected():
    assert checks.accuracy_problems(7 / 9, 9) == []
    assert checks.accuracy_problems(0.78, 9)
    assert checks.accuracy_problems(10 / 9, 9)


def test_scaled_hard_average_vector_is_rejected(descriptors):
    cb = build_random_codebook([descriptors], 16, 1)
    h = encode_image(descriptors, cb, EncodingParams(assignment="hard", pooling="average")).h
    assert checks.hard_average_problems(h, len(descriptors)) == []
    assert checks.hard_average_problems(h * 1.01, len(descriptors))


def test_perturbed_soft_max_encoding_is_rejected(descriptors):
    cb = build_random_codebook([descriptors], 16, 1)
    h = encode_image(descriptors, cb, EncodingParams()).h
    args = (descriptors.descriptors, cb.words, 60.0)
    assert checks.encoding_problems(h, *args) == []
    bad = h.copy()
    bad[3] += 1e-9
    assert checks.encoding_problems(bad, *args)


def test_non_nested_class_subsets_are_rejected():
    nested = [frozenset("a"), frozenset("ab"), frozenset("abcd")]
    assert checks.nested_problems(nested, [1, 2, 4]) == []
    assert checks.nested_problems([frozenset("a"), frozenset("bc"), frozenset("abcd")], [1, 2, 4])
    assert checks.nested_problems(nested, [1, 2, 3])


def test_csv_with_one_changed_digit_is_rejected(tmp_path):
    row = SummaryRow("sweep", "textures8", "8", "textures8", 32, 1000, 60.0, "hard",
                     "average", 5, 0.975, 0.95, 1.0)
    path = tmp_path / "summary.csv"
    write_summary_csv([row], path)
    data = path.read_bytes()
    reference = checks.sha256(data)
    assert checks.csv_problems(data, reference) == []
    assert checks.csv_problems(data.replace(b"0.975", b"0.976"), reference)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
