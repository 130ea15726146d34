import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bovw.codebook import (
    Codebook,
    build_random_codebook,
    load_codebook,
    save_codebook,
)

from conftest import random_descriptor_set
from oracles import random_codebook_words


def rows_as_set(mat: np.ndarray) -> set[bytes]:
    return {row.tobytes() for row in mat}


class TestBuildRandomCodebook:
    def test_forced_selection_takes_whole_pool(self):
        pool = [random_descriptor_set(4, 1), random_descriptor_set(3, 2)]
        cb = build_random_codebook(pool, 7, seed=0)
        everything = np.vstack([ds.descriptors for ds in pool])
        assert rows_as_set(cb.words) == rows_as_set(everything)

    def test_deterministic(self):
        pool = [random_descriptor_set(50, 3)]
        a = build_random_codebook(pool, 10, seed=42)
        b = build_random_codebook(pool, 10, seed=42)
        assert np.array_equal(a.words, b.words)

    def test_1000_distinct_origins(self):
        # descriptors crafted pairwise-distinct, so distinct rows == distinct origins
        rng = np.random.default_rng(7)
        descs = rng.permutation(2**16)[:1500]
        mat = np.zeros((1500, 128), np.uint8)
        mat[:, 0] = descs % 256
        mat[:, 1] = descs // 256
        pool = [
            random_descriptor_set(500, 1),
            random_descriptor_set(500, 2),
            random_descriptor_set(500, 3),
        ]
        for i, ds in enumerate(pool):
            ds.descriptors = mat[i * 500 : (i + 1) * 500]
        cb = build_random_codebook(pool, 1000, seed=9)
        assert cb.k == 1000
        assert len(rows_as_set(cb.words)) == 1000

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="need at least"):
            build_random_codebook([random_descriptor_set(5, 1)], 6, seed=0)

    def test_provenance_recorded(self):
        cb = build_random_codebook(
            [random_descriptor_set(10, 1)], 3, seed=5,
            source_name="corpus", source_classes=("a", "b"),
        )
        assert cb.source_name == "corpus"
        assert cb.source_classes == ("a", "b")
        assert cb.seed == 5

    def test_selection_uniform_for_k1(self):
        # frequency of each of 10 origins over 4000 seeds within 3-sigma binomial bounds
        pool = [random_descriptor_set(10, 0)]
        counts = {i: 0 for i in range(10)}
        lookup = {pool[0].descriptors[i].tobytes(): i for i in range(10)}
        n_seeds = 4000
        for seed in range(n_seeds):
            cb = build_random_codebook(pool, 1, seed=seed)
            counts[lookup[cb.words[0].tobytes()]] += 1
        expected = n_seeds / 10
        bound = 3 * math.sqrt(n_seeds * 0.1 * 0.9)
        for i, c in counts.items():
            assert abs(c - expected) <= bound, (i, c)

    # (pool as (points, seed) per image, k, seed) -> codebook_id, recorded with
    # the one-draw-per-step sampler that tests/oracles.py keeps
    PINNED = {
        "k-equals-total": ([(4, 1), (3, 2)], 7, 0, "src-k7-s0-68b58b6cd5"),
        "one-image": ([(50, 3)], 10, 42, "src-k10-s42-d263fe531e"),
        "k1000": ([(500, 1), (500, 2), (500, 3)], 1000, 9, "src-k1000-s9-a432ab2f13"),
        "one-point-images": ([(1, s) for s in range(5)], 1, 2**40,
                             "src-k1-s1099511627776-95a363582d"),
        "many-images": ([(20 + s, s) for s in range(40)], 100, 9973, "src-k100-s9973-c51d661c77"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_codebook_id_pinned(self, case):
        images, k, seed, expected = self.PINNED[case]
        pool = [random_descriptor_set(n, s) for n, s in images]
        assert build_random_codebook(pool, k, seed, source_name="src").codebook_id == expected

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
           k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**63 - 1))
    @example(sizes=[37], k_frac=0.5, seed=0)  # one image
    @example(sizes=[1, 1, 1, 1, 1], k_frac=1.0, seed=3)  # one-point images, k == total
    @example(sizes=[1], k_frac=1.0, seed=5)  # k == total == 1
    @example(sizes=[6, 1, 9], k_frac=0.0, seed=2**40)  # k == 1
    def test_same_words_as_scalar_walk(self, sizes, k_frac, seed):
        pool = [random_descriptor_set(n, s) for s, n in enumerate(sizes)]
        k = 1 + int(k_frac * (sum(sizes) - 1))
        words = build_random_codebook(pool, k, seed).words
        assert words.tobytes() == random_codebook_words(pool, k, seed).tobytes()

    @pytest.mark.parametrize("total", [1, 7, 2**32 - 1, 2**32, 2**32 + 1, 5 * 10**9, 2**53])
    def test_one_call_draws_the_scalar_stream(self, total):
        """What the sampler relies on: one integers(arange(k), total) call
        gives k scalar integers(i, total) draws and leaves the generator in
        the same state, a one-value last range (k == total) included."""
        k = min(total, 50)
        one, each = np.random.default_rng(11), np.random.default_rng(11)
        assert one.integers(np.arange(k), total).tolist() == [
            int(each.integers(i, total)) for i in range(k)]
        assert one.bit_generator.state == each.bit_generator.state


class TestCodebookIO:
    def test_round_trip_bit_identical(self, tmp_path):
        cb = build_random_codebook(
            [random_descriptor_set(40, 4)], 12, seed=3,
            source_name="corpus-x", source_classes=("cat", "dog", "eel"),
        )
        path = tmp_path / "cb.bin"
        save_codebook(cb, path)
        back = load_codebook(path)
        assert np.array_equal(back.words, cb.words)
        assert back.source_name == cb.source_name
        assert back.source_classes == cb.source_classes
        assert back.seed == cb.seed
        assert back.codebook_id == cb.codebook_id

    def test_seed_must_fit_the_i64_field(self, tmp_path):
        words = np.zeros((1, 128), np.uint8)
        path = tmp_path / "cb.bin"
        for seed in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"seed {seed} does not fit"):
                save_codebook(Codebook(words, "src", (), seed), path)
        assert not path.exists()
        for seed in (2**63 - 1, -(2**63)):
            save_codebook(Codebook(words, "src", (), seed), path)
            assert load_codebook(path).seed == seed

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a codebook at all")
        with pytest.raises(ValueError, match="not a codebook"):
            load_codebook(path)

    def test_id_hashed_once(self, monkeypatch):
        hashed = []
        real_sha1 = hashlib.sha1
        monkeypatch.setattr(hashlib, "sha1", lambda data: hashed.append(data) or real_sha1(data))
        cb = Codebook(np.arange(256, dtype=np.uint8).reshape(2, 128), "src", ("cat",), seed=3)
        assert [cb.codebook_id for _ in range(3)] == ["src-k2-s3-4916d6bdb7"] * 3
        assert len(hashed) == 1
