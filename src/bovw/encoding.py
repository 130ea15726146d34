"""Descriptor-to-word assignment and pooling into bag-of-words vectors.

Soft assignment gives each point a Gaussian-kernel weight per word,
normalized to sum to 1; hard assignment is a one-hot row at the nearest
word. Pooling collapses the per-point rows to one k-vector, either by
elementwise maximum or by averaging (the classic normalized histogram).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import binfile
from .codebook import Codebook
from .features import DescriptorSet

BOW_MAGIC = b"BVWB"
BOW_VERSION = 1

# points per streamed chunk; bounds working memory at CHUNK x k independent
# of how many grid points an image has
_CHUNK = 512

ASSIGNMENTS = ("soft", "hard")
POOLINGS = ("max", "average")


@dataclass(frozen=True)
class EncodingParams:
    sigma: float = 60.0
    assignment: str = "soft"
    pooling: str = "max"
    l2_normalize: bool = False

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}")


@dataclass
class BowVector:
    """Pooled k-dimensional representation of one image."""

    h: np.ndarray  # (k,) float64
    image: str
    codebook_id: str

    def __len__(self) -> int:
        return len(self.h)


def soft_assign(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-kernel soft assignment, row-wise over squared distances.

    Each row of ``d2`` holds one point's squared distances to every word
    (last axis); its weights exp(-d^2 / (2 sigma^2)) are normalized to sum
    to 1. The Gaussian normalization constant cancels in the ratio and is
    omitted; the row minimum is subtracted before exponentiation so the
    largest term is exp(0) and the denominator can never underflow to zero.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d2 = np.asarray(d2, dtype=np.float64)
    rows = d2 - d2.min(axis=-1, keepdims=True)
    rows *= -1.0 / (2.0 * sigma * sigma)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def hard_assign(d2: np.ndarray) -> np.ndarray:
    """One-hot rows at the minimum squared distance along the last axis;
    ties break to the lowest index."""
    d2 = np.asarray(d2, dtype=np.float64)
    rows = np.zeros_like(d2)
    np.put_along_axis(rows, np.argmin(d2, axis=-1)[..., np.newaxis], 1.0, axis=-1)
    return rows


def encode_image(ds: DescriptorSet, cb: Codebook, params: EncodingParams) -> BowVector:
    """Assign every grid point to the codebook and pool into one k-vector.

    Streams points in bounded chunks so the full N x k assignment matrix is
    never materialized; max and mean accumulation are both order-independent.
    """
    if ds.descriptors.shape[1] != cb.words.shape[1]:
        raise ValueError("descriptor dims do not match codebook dims")
    words = cb.words.astype(np.float64)
    w_sq = np.einsum("kc,kc->k", words, words)
    n = len(ds)
    acc = np.zeros(cb.k, dtype=np.float64)

    for start in range(0, n, _CHUNK):
        pts = ds.descriptors[start : start + _CHUNK].astype(np.float64)
        p_sq = np.einsum("bc,bc->b", pts, pts)
        # p^2 + w^2 - 2 p.w, built in place: byte inputs keep every term an
        # integer below 2^24, so any summation order gives the exact squared
        # distance, bit for bit
        d2 = pts @ words.T
        d2 *= -2.0
        d2 += p_sq[:, np.newaxis]
        d2 += w_sq
        if params.assignment == "soft":
            rows = soft_assign(d2, params.sigma)
        else:
            rows = hard_assign(d2)
        if params.pooling == "max":
            np.maximum(acc, rows.max(axis=0), out=acc)
        else:
            acc += rows.sum(axis=0)

    if params.pooling == "average":
        acc /= n
    if params.l2_normalize:
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
    return BowVector(h=acc, image=ds.source_image, codebook_id=cb.codebook_id)


def save_bows(bows: Sequence[BowVector], path: str | Path) -> None:
    """Binary batch file: header (magic, version, count, k, codebook id)
    then count rows of k little-endian float64 values, in input order."""
    if not bows:
        raise ValueError("no vectors to save")
    k = len(bows[0])
    codebook_id = bows[0].codebook_id
    for b in bows:
        if len(b) != k or b.codebook_id != codebook_id:
            raise ValueError("all vectors in a batch must share k and codebook")
    binfile.write(path, BOW_MAGIC, BOW_VERSION,
                  struct.pack("<2I", len(bows), k), binfile.pack_str(codebook_id),
                  *(np.ascontiguousarray(b.h, dtype="<f8") for b in bows))


def load_bows(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a batch file back as ((count, k) array, codebook id)."""
    reader = binfile.Reader(path, BOW_MAGIC, BOW_VERSION, "bag-of-words batch")
    count, k = reader.fields("<2I")
    codebook_id = reader.string()
    mat = reader.array("<f8", count * k).reshape(count, k)
    return mat.copy(), codebook_id


def export_bows_csv(bows: Sequence[BowVector], path: str | Path) -> None:
    """Plain CSV (image id, k values) for eyeballing encodings."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for b in bows:
            writer.writerow([b.image] + [repr(float(v)) for v in b.h])
