"""Visual dictionaries built by seeded random sampling of pooled descriptors.

Random sampling replaces clustering: words are raw descriptors drawn without
replacement from the flattened pool (dataset order, then grid order), which
is known to give dictionaries of quality comparable to k-means at a fraction
of the cost.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import DESCRIPTOR_DIMS, DescriptorSet

CODEBOOK_MAGIC = b"BVWC"
CODEBOOK_VERSION = 1


@dataclass(frozen=True)
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
    if total < k:
        raise ValueError(f"pool has {total} descriptors, need at least {k}")

    rng = np.random.default_rng(seed)
    swapped: dict[int, int] = {}
    picked = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = int(rng.integers(i, total))
        vi = swapped.get(i, i)
        vj = swapped.get(j, j)
        swapped[i], swapped[j] = vj, vi
        picked[i] = vj

    offsets = np.cumsum([0] + sizes)
    words = np.empty((k, DESCRIPTOR_DIMS), dtype=np.uint8)
    for row, flat in enumerate(picked):
        ds_idx = int(np.searchsorted(offsets, flat, side="right") - 1)
        words[row] = pool[ds_idx].descriptors[flat - offsets[ds_idx]]
    return Codebook(
        words=words,
        source_name=source_name,
        source_classes=tuple(source_classes),
        seed=seed,
    )


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Binary codebook file: header plus the k x 128 byte word matrix."""
    out = bytearray()
    out += CODEBOOK_MAGIC
    out += struct.pack("<3I", CODEBOOK_VERSION, cb.k, DESCRIPTOR_DIMS)
    out += struct.pack("<q", cb.seed)
    out += _pack_str(cb.source_name)
    out += struct.pack("<I", len(cb.source_classes))
    for label in cb.source_classes:
        out += _pack_str(label)
    out += cb.words.tobytes()
    Path(path).write_bytes(bytes(out))


def load_codebook(path: str | Path) -> Codebook:
    data = Path(path).read_bytes()
    if data[:4] != CODEBOOK_MAGIC:
        raise ValueError(f"{path}: not a codebook file")
    try:
        version, k, dims = struct.unpack_from("<3I", data, 4)
        if version != CODEBOOK_VERSION:
            raise ValueError(f"{path}: unsupported codebook version {version}")
        if dims != DESCRIPTOR_DIMS:
            raise ValueError(f"{path}: unexpected word dims {dims}")
        (seed,) = struct.unpack_from("<q", data, 16)
        pos = 24
        source_name, pos = _unpack_str(data, pos)
        (n_classes,) = struct.unpack_from("<I", data, pos)
        pos += 4
        classes = []
        for _ in range(n_classes):
            label, pos = _unpack_str(data, pos)
            classes.append(label)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated codebook header") from exc
    expected = pos + k * dims
    if len(data) != expected:
        raise ValueError(f"{path}: truncated codebook ({len(data)} bytes, expected {expected})")
    words = np.frombuffer(data, dtype=np.uint8, count=k * dims, offset=pos).reshape(k, dims)
    return Codebook(
        words=words.copy(),
        source_name=source_name,
        source_classes=tuple(classes),
        seed=int(seed),
    )


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _unpack_str(data: bytes, pos: int) -> tuple[str, int]:
    (n,) = struct.unpack_from("<I", data, pos)
    pos += 4
    return data[pos : pos + n].decode("utf-8"), pos + n
