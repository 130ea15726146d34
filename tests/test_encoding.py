import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bovw.encoding
from bovw.codebook import Codebook
from bovw.encoding import (
    EncodingParams,
    encode_image,
    export_bows_csv,
    load_bows,
    save_bows,
    soft_assign,
    word_plan,
)
from bovw.features import DESCRIPTOR_DIMS

from conftest import grid_set, peak_mib, random_descriptor_set
from oracles import bow_reference, hard_assign, soft_row

profiles = st.lists(
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False), min_size=1, max_size=64
)


def make_codebook(words: np.ndarray) -> Codebook:
    return Codebook(words=words.astype(np.uint8), source_name="t", source_classes=(), seed=0)


class TestSoftAssign:
    """Inputs are squared distances, so each case squares its profile."""

    def test_single_word(self):
        assert soft_assign(np.array([123.4]) ** 2, 60.0) == pytest.approx([1.0])

    def test_equal_distances_split_evenly(self):
        assert soft_assign(np.array([7.0, 7.0]) ** 2, 60.0) == pytest.approx([0.5, 0.5])

    def test_scalar_oracle_value(self):
        # distances (0, 60) at sigma 60: ratio of exp(0) and exp(-1/2)
        e = math.exp(-0.5)
        want = [1.0 / (1.0 + e), e / (1.0 + e)]
        got = soft_assign(np.array([0.0, 60.0]) ** 2, 60.0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_survives_huge_distances(self):
        # raw kernels underflow; the min-shift keeps the ratio well-defined
        row = soft_assign(np.array([2800.0, 2884.0, 2900.0]) ** 2, 60.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert row[0] > row[1] > row[2]

    def test_invalid_sigma(self):
        # 1e-160 and 1e-200: 2 sigma^2 is subnormal (NaN weights) or 0 (division by zero)
        for sigma in (0.0, -1.0, math.nan, math.inf, 1e-160, 1e-200):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                soft_assign(np.array([1.0]), sigma)
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                EncodingParams(sigma=sigma)

    @settings(max_examples=200)
    @given(profile=profiles, sigma=st.floats(min_value=0.5, max_value=200.0))
    def test_rows_normalize(self, profile, sigma):
        row = soft_assign(np.array(profile) ** 2, sigma)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert (row >= 0.0).all()

    @settings(max_examples=200)
    @given(profile=profiles, sigma=st.floats(min_value=0.5, max_value=200.0))
    def test_prefactor_cancels(self, profile, sigma):
        bare = soft_assign(np.array(profile) ** 2, sigma)
        full = soft_row(profile, sigma, with_prefactor=True)
        assert np.abs(bare - np.array(full)).max() <= 1e-12

    @settings(max_examples=100)
    @given(profile=profiles)
    def test_weakly_monotone_in_distance(self, profile):
        row = soft_assign(np.array(profile) ** 2, 60.0)
        for a in range(len(profile)):
            for b in range(len(profile)):
                if profile[a] < profile[b]:
                    assert row[a] >= row[b]

    @settings(max_examples=100)
    @given(profile=st.lists(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False).map(lambda x: round(x, 3)),
        min_size=2, max_size=64))
    def test_strictly_monotone_where_kernels_representable(self, profile):
        # beyond d^2/(2 sigma^2) ~ 745 the kernel underflows to exactly 0.0
        # in float64 and distinct far distances tie; restrict to distances
        # whose kernels stay normal floats and are separated by >= 1e-3
        row = soft_assign(np.array(profile) ** 2, 60.0)
        for a in range(len(profile)):
            for b in range(len(profile)):
                if profile[a] < profile[b]:
                    assert row[a] > row[b]

    def test_sigma_to_zero_approaches_hard(self):
        d = np.array([10.0, 10.5, 40.0])
        soft = soft_assign(d**2, 1e-3)
        assert np.abs(soft - hard_assign(d**2)).max() <= 1e-12

    def test_sigma_to_inf_approaches_uniform(self):
        d = np.array([0.0, 700.0, 2800.0])
        soft = soft_assign(d**2, 1e9)
        assert np.abs(soft - 1.0 / 3.0).max() <= 1e-6


class TestHardAssign:
    def test_argmin(self):
        assert hard_assign(np.array([3.0, 1.0, 2.0]) ** 2).tolist() == [0.0, 1.0, 0.0]

    def test_tie_lowest_index(self):
        assert hard_assign(np.array([1.0, 1.0]) ** 2).tolist() == [1.0, 0.0]

    def test_against_linear_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            profile = rng.uniform(0, 100, size=rng.integers(1, 30))
            row = hard_assign(profile**2)
            best = 0
            for j in range(1, len(profile)):
                if profile[j] < profile[best]:
                    best = j
            assert row[best] == 1.0 and row.sum() == 1.0


def encode_points(pts, words, assignment="soft", pooling="max") -> np.ndarray:
    ds = grid_set(np.asarray(pts, np.uint8))
    params = EncodingParams(sigma=60.0, assignment=assignment, pooling=pooling)
    return encode_image(ds, make_codebook(np.asarray(words)), params).h


def exact_d2(pts, words) -> np.ndarray:
    """Squared distances by direct integer differences, 16 points at a time."""
    pts, words = np.asarray(pts, np.int64), np.asarray(words, np.int64)
    d2 = np.empty((len(pts), len(words)))
    for start in range(0, len(pts), 16):
        diff = pts[start : start + 16, np.newaxis, :] - words[np.newaxis]
        d2[start : start + 16] = (diff * diff).sum(axis=2)
    return d2


def pooled_reference(d2, assignment, pooling, sigma) -> np.ndarray:
    """``soft_assign``/``hard_assign`` rows on ``d2``, pooled in the order
    encode_image pools: average sums rows in point order."""
    rows = soft_assign(d2, sigma) if assignment == "soft" else hard_assign(d2)
    if pooling == "max":
        h = rows.max(axis=0)
    else:
        h = np.zeros(rows.shape[1])
        for row in rows:
            h += row
        h /= len(rows)
    return h


class TestPooling:
    """Pooling as encode_image applies it to the assignment rows."""

    WORDS = np.random.default_rng(15).integers(0, 256, (3, 128)).astype(np.uint8)
    PTS = np.random.default_rng(16).integers(0, 256, (2, 128)).astype(np.uint8)

    def test_max_single_row_identity(self):
        row = soft_assign(exact_d2(self.PTS[:1], self.WORDS), 60.0)[0]
        assert encode_points(self.PTS[:1], self.WORDS).tolist() == row.tolist()

    def test_max_elementwise(self):
        rows = soft_assign(exact_d2(self.PTS, self.WORDS), 60.0)
        assert encode_points(self.PTS, self.WORDS).tolist() == np.maximum(*rows).tolist()

    def test_max_idempotent_on_equal_rows(self):
        once = encode_points(self.PTS[:1], self.WORDS)
        assert encode_points(self.PTS[[0, 0, 0]], self.WORDS).tolist() == once.tolist()

    def test_average_single_row_identity(self):
        row = soft_assign(exact_d2(self.PTS[:1], self.WORDS), 60.0)[0]
        assert encode_points(self.PTS[:1], self.WORDS, pooling="average").tolist() == row.tolist()

    def test_average_mean(self):
        # each point sits on its own word, so hard rows are (1, 0, 0) and (0, 1, 0)
        got = encode_points(self.WORDS[:2], self.WORDS, assignment="hard", pooling="average")
        assert got.tolist() == [0.5, 0.5, 0.0]

    def test_average_of_soft_rows_sums_to_one(self):
        pts = np.random.default_rng(1).integers(0, 256, (9, 128))
        assert encode_points(pts, self.WORDS, pooling="average").sum() == pytest.approx(
            1.0, abs=1e-9)

    def test_empty_rejected(self):
        # an image without points never reaches pooling
        with pytest.raises(ValueError):
            grid_set(np.zeros((0, 128), np.uint8))

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_max_dominates_average(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 256, (n, 128))
        words = rng.integers(0, 256, (k, 128))
        for assignment in ("soft", "hard"):
            hi = encode_points(pts, words, assignment, "max")
            lo = encode_points(pts, words, assignment, "average")
            assert (hi >= lo - 1e-15).all()


class TestEncodeImage:
    def test_forced_composition(self):
        ds = random_descriptor_set(1, 1)
        cb = make_codebook(np.zeros((1, 128)))
        bow = encode_image(ds, cb, EncodingParams())
        assert bow.h.tolist() == [1.0]

    def test_hard_average_is_word_histogram(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 256, (4, 128)).astype(np.uint8)
        cb = make_codebook(words)
        picks = [0, 0, 2, 3, 3, 3]
        ds = grid_set(words[picks])
        bow = encode_image(ds, cb, EncodingParams(assignment="hard", pooling="average"))
        assert bow.h == pytest.approx([2 / 6, 0.0, 1 / 6, 3 / 6])

    @pytest.mark.parametrize("assignment,pooling", [("soft", "max"), ("hard", "average"),
                                                    ("soft", "average"), ("hard", "max")])
    def test_matches_straight_line_oracle(self, assignment, pooling):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            pts = rng.integers(0, 256, (n, 128)).astype(np.uint8)
            words = rng.integers(0, 256, (k, 128)).astype(np.uint8)
            ds = grid_set(pts)
            got = encode_image(ds, make_codebook(words),
                               EncodingParams(sigma=60.0, assignment=assignment, pooling=pooling))
            want = bow_reference(pts, words, 60.0, assignment, pooling)
            assert np.abs(got.h - np.array(want)).max() <= 1e-12

    @pytest.mark.parametrize("assignment,pooling", [("soft", "max"), ("hard", "average"),
                                                    ("soft", "average"), ("hard", "max")])
    def test_bit_identical_to_direct_distances(self, assignment, pooling):
        # the in-place p^2 + w^2 - 2 p.w must equal the direct-difference
        # squared distances exactly, so the encodings agree with ==
        rng = np.random.default_rng(16)
        for _ in range(40):
            n, k = int(rng.integers(1, 300)), int(rng.integers(1, 50))
            sigma = float(rng.uniform(5.0, 200.0))
            pts = rng.integers(0, 256, (n, 128)).astype(np.uint8)
            words = rng.integers(0, 256, (k, 128)).astype(np.uint8)
            ds = grid_set(pts)
            got = encode_image(ds, make_codebook(words),
                               EncodingParams(sigma=sigma, assignment=assignment, pooling=pooling))
            want = pooled_reference(exact_d2(pts, words), assignment, pooling, sigma)
            assert np.array_equal(got.h, want)

    def test_soft_max_bounds(self):
        ds = random_descriptor_set(30, 4)
        words = np.random.default_rng(5).integers(0, 256, (16, 128))
        bow = encode_image(ds, make_codebook(words), EncodingParams())
        assert (bow.h >= 0.0).all() and (bow.h <= 1.0).all()
        assert bow.h.max() >= 1.0 / 16.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        words = rng.integers(0, 256, (9, 128)).astype(np.uint8)
        perm = rng.permutation(9)
        ds = random_descriptor_set(12, 7)
        params = EncodingParams()
        base = encode_image(ds, make_codebook(words), params).h
        permuted = encode_image(ds, make_codebook(words[perm]), params).h
        # the normalizing sum runs in permuted order, so equality is only
        # exact up to float summation order
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12, atol=1e-15)

    def test_point_order_irrelevant(self):
        rng = np.random.default_rng(8)
        ds = random_descriptor_set(25, 9)
        shuffled = dataclasses.replace(ds, descriptors=ds.descriptors[rng.permutation(25)])
        words = rng.integers(0, 256, (7, 128))
        for pooling in ("max", "average"):
            params = EncodingParams(pooling=pooling)
            a = encode_image(ds, make_codebook(words), params).h
            b = encode_image(shuffled, make_codebook(words), params).h
            assert np.abs(a - b).max() <= 1e-12

    def test_streams_beyond_one_chunk(self):
        # more points than the internal chunk size must give the same result
        rng = np.random.default_rng(10)
        pts = rng.integers(0, 256, (1100, 128)).astype(np.uint8)
        words = rng.integers(0, 256, (4, 128)).astype(np.uint8)
        ds = grid_set(pts, "big")
        got = encode_image(ds, make_codebook(words), EncodingParams())
        sub = [
            encode_image(grid_set(pts[i : i + 1], "p"),
                         make_codebook(words), EncodingParams()).h
            for i in range(1100)
        ]
        assert np.abs(got.h - np.max(sub, axis=0)).max() <= 1e-12

    def test_dims_mismatch_rejected_at_construction(self):
        # 128 dims are enforced on both sides of the encoder
        ds = random_descriptor_set(3, 13)
        with pytest.raises(ValueError, match="dims"):
            dataclasses.replace(ds, descriptors=ds.descriptors[:, :64].copy())
        with pytest.raises(ValueError):
            make_codebook(np.zeros((2, 64)))


def test_float32_distances_are_exact_for_byte_descriptors():
    # encode_image computes w^2 - 2 p.w by a float32 GEMM and takes argmin
    # over it; that is exact only while every term and partial sum of
    # p^2 + w^2 - 2 p.w is an integer below 2^24. Wider descriptors would
    # make the encoder silently inexact, so this fails first.
    assert 2 * DESCRIPTOR_DIMS * 255**2 < 2**24


def test_descriptors_must_be_bytes():
    with pytest.raises(ValueError, match="uint8"):
        grid_set(np.full((1, 128), 256, np.int64))


def extreme_bytes(n: int, seed: int) -> np.ndarray:
    """Random byte rows whose first rows are all-255 then all-0 (as many as
    fit), so p^2 + w^2 reaches 2 * 128 * 255^2 against an all-255 word."""
    rows = np.random.default_rng(seed).integers(0, 256, (n, DESCRIPTOR_DIMS)).astype(np.uint8)
    rows[0] = 255
    rows[1:2] = 0
    return rows


class TestExactKernel:
    """encode_image at k=1000 across the chunk boundary, == against the
    float64 formulas on direct-difference distances."""

    # words 2 and 3 repeat words 0 and 1, so nearest-word ties occur
    WORDS = extreme_bytes(1000, 20)
    WORDS[2:4] = WORDS[0:2]
    SIZES = (1, 511, 512, 513, 1025)

    @pytest.fixture(scope="class")
    def cases(self):
        return {n: (pts := extreme_bytes(n, n), exact_d2(pts, self.WORDS)) for n in self.SIZES}

    @pytest.mark.parametrize("assignment,pooling", [("soft", "max"), ("hard", "average"),
                                                    ("soft", "average"), ("hard", "max")])
    def test_bit_identical_at_k1000(self, cases, assignment, pooling):
        cb = make_codebook(self.WORDS)
        for n, (pts, d2) in cases.items():
            ds = grid_set(pts)
            for sigma in (60.0, 7.5):
                params = EncodingParams(sigma, assignment, pooling)
                want = pooled_reference(d2, assignment, pooling, sigma)
                assert np.array_equal(encode_image(ds, cb, params).h, want), (n, sigma)

    def test_no_state_between_calls(self, cases):
        # a call on another codebook and image size in between changes nothing
        a = make_codebook(self.WORDS)
        b = make_codebook(extreme_bytes(7, 21))
        big, small = cases[513][0], cases[1][0]
        calls = [(big, a), (small, b), (big, a), (small, a), (big, b)]
        for assignment, pooling in (("soft", "max"), ("hard", "average")):
            params = EncodingParams(assignment=assignment, pooling=pooling)
            for pts, cb in calls:
                ds = grid_set(pts)
                want = pooled_reference(exact_d2(pts, cb.words), assignment, pooling, 60.0)
                assert np.array_equal(encode_image(ds, cb, params).h, want)

    @pytest.mark.parametrize("assignment,pooling", [("soft", "max"), ("hard", "average"),
                                                    ("soft", "average"), ("hard", "max")])
    def test_one_plan_serves_every_image(self, cases, assignment, pooling):
        cb = make_codebook(self.WORDS)
        plan = word_plan(cb)
        params = EncodingParams(assignment=assignment, pooling=pooling)
        for n, (pts, _) in cases.items():
            ds = grid_set(pts)
            assert np.array_equal(encode_image(ds, cb, params, plan).h,
                                  encode_image(ds, cb, params).h), n
        # image threads share the plan, so nothing may write it
        assert not plan.neg2w.flags.writeable and not plan.w_sq.flags.writeable

    def test_plan_of_another_codebook_rejected(self, cases):
        plan = word_plan(make_codebook(self.WORDS))
        ds = grid_set(cases[1][0])
        # equal words in another Codebook object are another codebook too
        for cb in (make_codebook(extreme_bytes(7, 21)), make_codebook(self.WORDS)):
            with pytest.raises(ValueError, match="another codebook"):
                encode_image(ds, cb, EncodingParams(), plan)


class TestChunkSize:
    """Every mode gives the same bits at any chunk size: soft average pooling
    is a running sum in point order, and the other modes cross rows only by
    an exact maximum or an integer count."""

    @pytest.mark.parametrize("assignment,pooling", [("soft", "max"), ("soft", "average"),
                                                    ("hard", "max"), ("hard", "average")])
    def test_encodings_equal_across_chunk_sizes(self, monkeypatch, assignment, pooling):
        cases = [(n, extreme_bytes(n, n + 1)) for n in (1, 63, 513, 1681)]
        # small k is where numpy's reduction order could differ from point order;
        # from k = 3 the words repeat word 0, so nearest-word ties occur
        for k in (1, 2, 3, 1000):
            cb = make_codebook(TestExactKernel.WORDS[:k])
            for n, pts in cases:
                ds = grid_set(pts)
                for sigma in (60.0, 7.5):
                    params = EncodingParams(sigma, assignment, pooling)
                    got = []
                    for rows in (1, 7, 64, 192, 512):
                        monkeypatch.setattr(bovw.encoding, "CHUNK_ROWS", rows)
                        got.append(encode_image(ds, cb, params).h)
                    assert all(np.array_equal(h, got[0]) for h in got), (k, n, sigma)

    def test_soft_average_bytes_pinned(self):
        # == against the float64 formulas, which sum rows in point order; both
        # sides run in this process, so on the same numpy exp at any SIMD
        # dispatch level (a sha256 of these encodings differs between AVX2 and
        # AVX-512, whose exp rounds some results differently)
        for words in (TestExactKernel.WORDS, extreme_bytes(3, 22)):
            cb = make_codebook(words)
            for n in (1, 81, 512, 513):
                pts = extreme_bytes(n, n)
                d2 = exact_d2(pts, words)
                for sigma in (60.0, 7.5):
                    params = EncodingParams(sigma, "soft", "average")
                    want = pooled_reference(d2, "soft", "average", sigma)
                    assert np.array_equal(encode_image(grid_set(pts), cb, params).h, want), (
                        len(words), n, sigma)


class TestSliceSize:
    """Soft rows are weighed and pooled in float64 slices of SLICE_ROWS rows
    of each chunk: the weights of a row are computed within it, max pooling
    is an exact maximum, and soft average's running sum stays in point order
    at any slice size."""

    SIZES = (1, 47, 48, 49, 191, 192, 193, 1681)
    SLICES = (1, 7, 48, bovw.encoding.CHUNK_ROWS)

    def encodings(self, monkeypatch, pts, words, pooling):
        ds, cb = grid_set(pts), make_codebook(words)
        got = []
        for rows in self.SLICES:
            monkeypatch.setattr(bovw.encoding, "SLICE_ROWS", rows)
            got.append(encode_image(ds, cb, EncodingParams(60.0, "soft", pooling)).h)
        return got

    @pytest.mark.parametrize("pooling", ["max", "average"])
    def test_bytes_do_not_depend_on_the_slice_size(self, monkeypatch, pooling):
        rng = np.random.default_rng(24)
        words = rng.integers(0, 256, (5, DESCRIPTOR_DIMS)).astype(np.uint8)
        for n in self.SIZES:
            pts = rng.integers(0, 256, (n, DESCRIPTOR_DIMS)).astype(np.uint8)
            got = self.encodings(monkeypatch, pts, words, pooling)
            assert all(np.array_equal(h, got[0]) for h in got), n
            want = bow_reference(pts, words, 60.0, "soft", pooling)
            assert np.abs(got[0] - np.array(want)).max() <= 1e-12, n

    @pytest.mark.parametrize("pooling", ["max", "average"])
    def test_bytes_equal_the_float64_formulas_at_k1000(self, monkeypatch, pooling):
        for n in self.SIZES:
            pts = extreme_bytes(n, n + 2)
            want = pooled_reference(exact_d2(pts, TestExactKernel.WORDS), "soft", pooling, 60.0)
            for h in self.encodings(monkeypatch, pts, TestExactKernel.WORDS, pooling):
                assert np.array_equal(h, want), n


class TestWorkingSet:
    """numpy's peak allocation in one call at 1,681 points and k=1000, with
    the dictionary's word plan built beforehand, as image threads share it.
    Soft rows take a float64 slice of 48 x k, not a chunk of 192 x k."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(25)
        cb = make_codebook(rng.integers(0, 256, (1000, DESCRIPTOR_DIMS)))
        ds = grid_set(rng.integers(0, 256, (1681, DESCRIPTOR_DIMS)).astype(np.uint8))
        return ds, cb, word_plan(cb)

    @pytest.mark.parametrize("assignment,pooling,limit", [("soft", "max", 1.4),
                                                          ("soft", "average", 1.4),
                                                          ("hard", "average", 0.9)])
    def test_peak_allocation(self, case, assignment, pooling, limit):
        ds, cb, plan = case
        params = EncodingParams(assignment=assignment, pooling=pooling)
        assert peak_mib(lambda: encode_image(ds, cb, params, plan)) <= limit


class TestBowIO:
    def _batch(self):
        return np.random.default_rng(14).uniform(0, 1, (4, 6))

    def test_round_trip(self, tmp_path):
        bows = self._batch()
        path = tmp_path / "b.bin"
        save_bows(bows, "cb-1", path)
        mat, cb_id = load_bows(path)
        assert cb_id == "cb-1"
        assert mat.shape == (4, 6)
        assert np.array_equal(mat, bows)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 1), (0, 6), (4, 0)])
    def test_non_matrix_or_empty_rejected(self, tmp_path, shape):
        with pytest.raises(ValueError, match="non-empty"):
            save_bows(np.zeros(shape), "cb-1", tmp_path / "b.bin")
        assert list(tmp_path.iterdir()) == []

    def test_csv_export(self, tmp_path):
        bows = self._batch()
        path = tmp_path / "b.csv"
        export_bows_csv(bows, [f"im{i}" for i in range(4)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        first = lines[0].split(",")
        assert first[0] == "im0"
        assert len(first) == 7
        assert float(first[1]) == bows[0, 0]
