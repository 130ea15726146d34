"""Visual dictionaries built by seeded random sampling of pooled descriptors.

Random sampling replaces clustering: words are raw descriptors drawn without
replacement from the flattened pool (dataset order, then grid order), which
is known to give dictionaries of quality comparable to k-means at a fraction
of the cost.

The walk's k draws are one ``rng.integers(np.arange(k), total)`` call: numpy
fills it in order with the bounded sampler of a scalar ``integers(i, total)``
call, and a one-value last range (k == total) draws no bits in either, so it
gives the stream of k scalar draws and the words of ``tests/oracles.py``'s loop.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import binfile
from .features import DESCRIPTOR_DIMS, DescriptorSet

CODEBOOK_MAGIC = b"BVWC"
CODEBOOK_VERSION = 1


@dataclass(frozen=True, eq=False)
class Codebook:
    """k visual words (byte descriptors) plus sampling provenance."""

    words: np.ndarray  # (k, 128) uint8
    source_name: str
    source_classes: tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.words.ndim != 2 or self.words.shape[1] != DESCRIPTOR_DIMS:
            raise ValueError(f"words must be (k, {DESCRIPTOR_DIMS})")
        if self.words.shape[0] < 1:
            raise ValueError("codebook needs at least one word")
        if self.words.dtype != np.uint8:
            raise ValueError("words must be uint8")

    @property
    def k(self) -> int:
        return int(self.words.shape[0])

    @functools.cached_property
    def codebook_id(self) -> str:
        digest = hashlib.sha1(self.words.tobytes()).hexdigest()[:10]
        return f"{self.source_name}-k{self.k}-s{self.seed}-{digest}"


def check_pool_size(total: int, k: int) -> None:
    """Raise ValueError unless a pool of ``total`` descriptors holds k words."""
    if total < k:
        raise ValueError(f"pool has {total} descriptors, need at least {k}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless the codebook file's signed 64-bit field holds ``seed``."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed {seed} does not fit the codebook file's 64-bit seed field")


def build_random_codebook(
    pool: Sequence[DescriptorSet],
    k: int,
    seed: int,
    source_name: str = "",
    source_classes: Sequence[str] = (),
) -> Codebook:
    """Sample k words uniformly without replacement from the pooled corpus.

    Uses a seeded partial Fisher-Yates walk over the flattened index range,
    so no two words share the same (image, keypoint) origin and memory stays
    O(k) beyond the pool itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = [len(ds) for ds in pool]
    total = sum(sizes)
    check_pool_size(total, k)

    draws = np.random.default_rng(seed).integers(np.arange(k), total).tolist()
    swapped: dict[int, int] = {}
    for i, j in enumerate(draws):
        swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
    # step i settles position i: later steps swap only positions above it
    picked = np.array([swapped[i] for i in range(k)], dtype=np.int64)
    offsets = np.cumsum([0] + sizes)
    image = np.searchsorted(offsets, picked, side="right") - 1
    rows = zip(image.tolist(), (picked - offsets[image]).tolist())
    words = np.empty((k, DESCRIPTOR_DIMS), dtype=np.uint8)
    for row, (d, r) in enumerate(rows):
        words[row] = pool[d].descriptors[r]
    return Codebook(words, source_name, tuple(source_classes), seed)


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Binary codebook file: header (magic, version, k, dims, seed, source
    name, source classes) plus the k x 128 byte word matrix."""
    check_seed(cb.seed)
    binfile.write(path, CODEBOOK_MAGIC, CODEBOOK_VERSION,
                  struct.pack("<2Iq", cb.k, DESCRIPTOR_DIMS, cb.seed),
                  binfile.pack_str(cb.source_name),
                  struct.pack("<I", len(cb.source_classes)),
                  *map(binfile.pack_str, cb.source_classes),
                  np.ascontiguousarray(cb.words))


def load_codebook(path: str | Path) -> Codebook:
    reader = binfile.Reader(path, CODEBOOK_MAGIC, CODEBOOK_VERSION, "codebook")
    k, dims, seed = reader.fields("<2Iq")
    if dims != DESCRIPTOR_DIMS:
        raise ValueError(f"{path}: unexpected word dims {dims}")
    source_name = reader.string()
    (n_classes,) = reader.fields("<I")
    classes = tuple(reader.string() for _ in range(n_classes))
    words = reader.array(np.uint8, k * dims).reshape(k, dims)
    return reader.make(Codebook, words=words.copy(), source_name=source_name,
                       source_classes=classes, seed=seed)
