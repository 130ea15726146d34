"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass line (run with ``pytest -s`` to see them inline).

The experiment-level criteria use the bundled synthetic texture corpora at
desk scale; a session-scoped descriptor cache keeps the whole module fast.
"""

import math
import time

import numpy as np
import pytest

from bovw.codebook import Codebook, build_random_codebook
from bovw.encoding import EncodingParams, encode_image, soft_assign
from bovw.features import GridParams
from bovw.harness import (
    SPLIT_SEED_OFFSET,
    DescriptorStore,
    PipelineParams,
    SplitSpec,
    confidence_interval,
    cross_base_experiment,
    diversity_sweep,
    run_trial,
    split_balanced,
)
from bovw.synth import generate_preset

from conftest import describe_patch, grid_set, run_cli
from oracles import bow_reference, sift_reference, soft_row

K_DESK = 200
N_TRAIN = 30
RUNS = (0, 1, 2, 3, 4)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    a = generate_preset(root / "a", "textures8", images_per_class=60, size=64, seed=7)
    b = generate_preset(root / "b", "textures3", images_per_class=60, size=64, seed=11)
    return a, b, root


@pytest.fixture(scope="module")
def warm_store(corpora, tmp_path_factory):
    a, b, root = corpora
    store = DescriptorStore(GridParams(), cache_dir=root / "cache")
    store.pool(a)
    store.pool(b)
    return store


def desk_params(k: int = K_DESK) -> PipelineParams:
    return PipelineParams(grid=GridParams(), encoding=EncodingParams(), k=k)


def test_criterion_1_soft_assignment_correctness():
    """10,000 random profiles: rows sum to 1 within 1e-9 and the bare
    exponential agrees with the full-kernel formulation within 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    worst_pref = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 1001))
        sigma = float(rng.integers(1, 201))
        profile = rng.uniform(0.0, 3000.0, k)
        row = soft_assign(profile**2, sigma)
        worst_sum = max(worst_sum, abs(float(row.sum()) - 1.0))
        full = np.array(soft_row(profile.tolist(), sigma, with_prefactor=True))
        worst_pref = max(worst_pref, float(np.abs(row - full).max()))
    elapsed = time.perf_counter() - start
    assert worst_sum <= 1e-9
    assert worst_pref <= 1e-12
    assert elapsed < 10.0
    report(1, f"sum dev {worst_sum:.2e}, prefactor dev {worst_pref:.2e}, {elapsed:.1f}s")


def test_criterion_2_pooling_oracle_equivalence():
    """1,000 random small instances match the straight-line evaluation of
    soft/max and hard/average encoding within 1e-12. The clock sums the
    encode_image calls only, not the scalar oracle."""
    rng = np.random.default_rng(77)
    worst = 0.0
    elapsed = 0.0
    for _ in range(1_000):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 17))
        words = rng.integers(0, 256, (k, 128)).astype(np.uint8)
        # mix far-field points with near-word points so alphas span regimes
        pts = rng.integers(0, 256, (n, 128)).astype(np.uint8)
        near = rng.integers(0, n + 1)
        for i in range(near):
            base = words[int(rng.integers(0, k))].astype(np.int64)
            noise = rng.integers(-10, 11, 128)
            pts[i] = np.clip(base + noise, 0, 255).astype(np.uint8)
        ds = grid_set(pts, "inst")
        cb = Codebook(words=words, source_name="t", source_classes=(), seed=0)
        for assignment, pooling in (("soft", "max"), ("hard", "average")):
            params = EncodingParams(sigma=60.0, assignment=assignment, pooling=pooling)
            start = time.perf_counter()
            got = encode_image(ds, cb, params).h
            elapsed += time.perf_counter() - start
            want = np.array(bow_reference(pts, words, 60.0, assignment, pooling))
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(2, f"max deviation {worst:.2e} over 1000 instances, {elapsed:.1f}s")


def test_criterion_3_sift_oracle_equivalence():
    """200 random patches plus the flat and step-edge cases match the
    scalar reference within one quantization step per bin; adding a constant
    intensity never changes a descriptor."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0
    for _ in range(200):
        patch = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        got = describe_patch(patch).astype(int)
        want = np.array(sift_reference(patch), dtype=int)
        worst = max(worst, int(np.abs(got - want).max()))
    assert worst <= 1

    flat = np.full((16, 16), 190, np.uint8)
    assert not describe_patch(flat).any()
    assert not any(sift_reference(flat))

    step = np.zeros((16, 16), np.uint8)
    step[:, 8:] = 255
    got = describe_patch(step).astype(int)
    want = np.array(sift_reference(step), dtype=int)
    assert np.abs(got - want).max() <= 1

    for _ in range(20):
        patch = rng.integers(0, 200, (16, 16)).astype(np.uint8)
        a = describe_patch(patch)
        b = describe_patch(patch + 55)
        assert np.array_equal(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"max per-bin deviation {worst}, shift invariance exact, {elapsed:.1f}s")


def test_criterion_4_degenerate_dictionary(corpora, warm_store):
    """k = 1 forces identical bag-of-words vectors everywhere, so accuracy
    equals the majority-class rate of the test split exactly."""
    start = time.perf_counter()
    _, b, _ = corpora
    params = desk_params(k=1)
    cb = build_random_codebook(warm_store.pool(b), 1, seed=0, source_name=b.name)
    bows = [encode_image(warm_store.get(b, e), cb, params.encoding).h for e in b.entries]
    assert all(np.array_equal(v, bows[0]) for v in bows)

    result = run_trial(cb, b, N_TRAIN, 0, params, np.array(bows))
    _, test = split_balanced(b, N_TRAIN, seed=0 + SPLIT_SEED_OFFSET)
    test_labels = [b.entries[i].label for i in test]
    majority = max(test_labels.count(c) for c in set(test_labels))
    assert result.accuracy == majority / len(test)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"accuracy {result.accuracy:.4f} == majority rate, {elapsed:.1f}s")


def test_criterion_5_crossbase_synthetic(corpora, warm_store):
    """Dictionaries built on the diverse 8-class corpus represent the
    3-class corpus within 5 accuracy points of its own dictionaries."""
    start = time.perf_counter()
    a, b, _ = corpora
    spec = SplitSpec(n_train_per_class=N_TRAIN, run_seeds=RUNS)
    rows = cross_base_experiment(a, b, [N_TRAIN], spec, desk_params(), store=warm_store)
    native = next(r for r in rows if r.dict_source == b.name)
    cross = next(r for r in rows if r.dict_source == a.name)
    gap = abs(native.mean_acc - cross.mean_acc)
    assert native.n_runs == cross.n_runs == 5
    assert gap <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, f"native {native.mean_acc:.4f} vs cross {cross.mean_acc:.4f} "
              f"(gap {gap:.4f} <= 0.05), {elapsed:.0f}s")


def test_criterion_6_diversity_sweep_synthetic(corpora, warm_store):
    """Nested 1/2/4/8-class dictionaries on the 8-class corpus: accuracy is
    non-decreasing within CI overlap and the 1-class deficit exceeds the
    half-set deficit (asymptote shape)."""
    start = time.perf_counter()
    a, _, _ = corpora
    spec = SplitSpec(n_train_per_class=N_TRAIN, run_seeds=RUNS)
    rows = diversity_sweep(a, [1, 2, 4, 8], a, N_TRAIN, spec, desk_params(), store=warm_store)
    accs = {int(r.dict_classes): r.mean_acc for r in rows}
    for prev, cur in zip(rows, rows[1:]):
        overlap = cur.ci_high >= prev.ci_low and prev.ci_high >= cur.ci_low
        assert cur.mean_acc >= prev.mean_acc or overlap, (prev, cur)
    gap_single = accs[8] - accs[1]
    gap_half = accs[8] - accs[4]
    assert gap_single > gap_half
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report(6, f"accs {[round(accs[c], 4) for c in (1, 2, 4, 8)]}, "
              f"gap(1)={gap_single:.4f} > gap(4)={gap_half:.4f}, {elapsed:.0f}s")


def test_criterion_7_crossbase_determinism(corpora, warm_store, tmp_path):
    """The crossbase command run twice with identical flags and seeds writes
    byte-identical CSV files."""
    start = time.perf_counter()
    a, b, root = corpora
    outputs = []
    for run_dir in ("first", "second"):
        out_csv = tmp_path / run_dir / "results.csv"
        out_csv.parent.mkdir()
        proc = run_cli(
            "crossbase",
            "--source", str(a.base_dir / "textures8.manifest"),
            "--target", str(b.base_dir / "textures3.manifest"),
            "--ntrain", str(N_TRAIN), "--k", str(K_DESK),
            "--runs", "5", "--seed", "0",
            "--cache-dir", str(root / "cache"),
            "--out", str(out_csv),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    report(7, f"two runs, {len(outputs[0])} identical bytes, {elapsed:.0f}s")


def test_criterion_8_confidence_interval():
    """Hand-checkable interval, cross-checked against an independent
    Student-t quantile computation. Without scipy the hand check and the
    time bound still run; only the cross-check is skipped."""
    values = [0.0, 0.0, 0.0, 0.0, 1.0]
    # The clock covers only the program under test, not an import or fixture.
    start = time.perf_counter()
    mean, low, high = confidence_interval(values, alpha=0.05)
    elapsed = time.perf_counter() - start
    assert abs(mean - 0.2) <= 1e-3
    assert abs(low - (-0.3553)) <= 1e-3
    assert abs(high - 0.7553) <= 1e-3
    assert elapsed < 1.0

    scipy_stats = pytest.importorskip("scipy.stats")
    t_crit = float(scipy_stats.t.ppf(0.975, 4))
    s = math.sqrt(sum((v - 0.2) ** 2 for v in values) / 4)
    half = t_crit * s / math.sqrt(5)
    assert abs(low - (0.2 - half)) <= 1e-3
    assert abs(high - (0.2 + half)) <= 1e-3
    report(8, f"({mean:.4f}, {low:.4f}, {high:.4f}) within 1e-3, {elapsed:.2e}s")


@pytest.mark.skip(reason="full-scale reproduction needs user-supplied 15-Scenes and "
                         "Caltech-101 PGM manifests and hours of runtime; the recipe "
                         "is documented in README.md")
def test_criterion_9_full_scale_recipe():
    """Documented recipe, not a CI gate: see README 'Reproducing the
    full-scale experiments'."""
