import hashlib
import math

import numpy as np
import pytest

from bovw.codebook import (
    Codebook,
    build_random_codebook,
    load_codebook,
    save_codebook,
)

from conftest import random_descriptor_set


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
