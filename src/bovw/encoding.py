"""Descriptor-to-word assignment and pooling into bag-of-words vectors.

Soft assignment gives each point a Gaussian-kernel weight per word,
normalized to sum to 1; hard assignment is a one-hot row at the nearest
word. Pooling collapses the per-point rows to one k-vector, either by
elementwise maximum or by averaging (the classic normalized histogram).

``encode_image`` finds distances with a float32 GEMM, and they are exact.
Descriptors and words are bytes, so every term of p^2 + w^2 - 2 p.w, and
every partial sum a GEMM can form in any order, is an integer of magnitude
at most 2 * 128 * 255^2 = 16,646,400 < 2^24, which float32 represents
exactly. The float32 w^2 - 2 p.w thus ranks the words as the squared
distance does (p^2 is constant per point), ties included, and once its row
minimum is subtracted it equals soft_assign's float64 d2 - min(d2) bit for
bit; the weights are then computed in float64, as there. The encodings are
identical to the float64 formulas, and cheaper than float64 distances with
fresh arrays per chunk: per image at k=1000 on 2 vCPUs (dense SIFT of a
256 x 256 synthetic texture, 1,681 points), soft/max 23-27 -> 15-17 ms and
hard/average 16-18 -> 5.3 ms.

The float32 words times -2 and their squared norms are fixed per
dictionary, so ``word_plan`` builds them once and every ``encode_image``
call with that codebook reuses them (``bovw.harness.encode_rows`` builds one
per call, so once per dictionary, shared by its image threads). Rebuilding
them took a large share of a small image's call: per dictionary at k=1000,
hard/average on 160 images of 81 points, ``encode_rows`` took 65-70 ms
with a build per image and 42-47 ms with one plan (2 vCPUs; medians of two
runs over 35 dictionaries each).

Points stream through in chunks, so working memory is bounded by chunk x k
whatever an image's point count. Only soft average pooling depends on the
chunk size: it sums each chunk's rows, then the chunk sums, so the chunk
size sets the last bits of its encodings, and it streams _CHUNK = 512 rows.
Every other mode is exact at any chunk size: each row's distances, minimum,
weights and row sum are computed within that row, and what crosses rows is
an exact maximum or an integer count of nearest words. Those modes stream
_EXACT_CHUNK = 192 rows, so two images encoded on parallel threads
(``bovw.harness.encode_rows``) hold fewer buffer rows than one image held
at 512. On 2 vCPUs, crossbase-warm's peak RSS read 50.8 MiB with 256-row
chunks, 49.3 with 192 and 49.5 with the serial 512-row loop; 192 rows
encoded as fast as 256, and 128 rows ~8% slower.
"""

from __future__ import annotations

import csv
import math
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

# points per streamed chunk (see the module docstring): soft average pooling's
# chunk sums set its last bits, so it keeps _CHUNK; the other modes are exact
# at any chunk size and stream _EXACT_CHUNK
_CHUNK = 512
_EXACT_CHUNK = 192

ASSIGNMENTS = ("soft", "hard")
POOLINGS = ("max", "average")


@dataclass(frozen=True)
class EncodingParams:
    sigma: float = 60.0
    assignment: str = "soft"
    pooling: str = "max"
    l2_normalize: bool = False

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}")


@dataclass
class BowVector:
    """Pooled k-dimensional representation of one image."""

    h: np.ndarray  # (k,) float64


def _check_sigma(sigma: float) -> None:
    """Reject a sigma whose kernel factor 1/(2 sigma^2) is inf or 0: below
    about 1e-154 it divides by zero or gives NaN weights (2 sigma^2 is 0 or
    subnormal), and above about 1e154, 2 sigma^2 overflows."""
    if not (math.isfinite(sigma) and sigma > 0 and 0 < 2.0 * sigma * sigma < math.inf
            and 1.0 / (2.0 * sigma * sigma) < math.inf):
        raise ValueError(f"sigma must be positive and finite, with 1/(2 sigma^2) finite "
                         f"and nonzero; got {sigma!r}")


def soft_assign(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-kernel soft assignment, row-wise over squared distances.

    Each row of ``d2`` holds one point's squared distances to every word
    (last axis); its weights exp(-d^2 / (2 sigma^2)) are normalized to sum
    to 1. The Gaussian normalization constant cancels in the ratio and is
    omitted; the row minimum is subtracted before exponentiation so the
    largest term is exp(0) and the denominator can never underflow to zero.
    """
    _check_sigma(sigma)
    d2 = np.array(d2, dtype=np.float64)
    return _soft_rows(d2, sigma, out=d2)


def _soft_rows(d2: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """``soft_assign``'s arithmetic, in place: the row minimum is subtracted
    from ``d2`` in its own dtype, then the float64 weights go to ``out``.
    A per-row constant in ``d2`` cancels in the first step, exactly so for
    the integer-valued float32 rows ``encode_image`` passes."""
    d2 -= d2.min(axis=-1, keepdims=True)
    np.multiply(d2, -1.0 / (2.0 * sigma * sigma), out=out, dtype=np.float64)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def chunk_rows(params: EncodingParams) -> int:
    """Points per streamed chunk when encoding with ``params``."""
    if params.assignment == "soft" and params.pooling == "average":
        return _CHUNK
    return _EXACT_CHUNK


@dataclass(frozen=True, eq=False)
class WordPlan:
    """A codebook's float32 terms of ``w^2 - 2 p.w``: the words times -2 and
    their squared norms, read-only so that image threads can share them.
    ``word_plan`` builds one per dictionary."""

    codebook: Codebook
    neg2w: np.ndarray  # (k, dims) float32
    w_sq: np.ndarray  # (k,) float32


def word_plan(cb: Codebook) -> WordPlan:
    """The ``WordPlan`` of ``cb``, for every ``encode_image`` call with it."""
    neg2w = cb.words.astype(np.float32)
    w_sq = np.einsum("kc,kc->k", neg2w, neg2w)
    neg2w *= -2.0
    neg2w.flags.writeable = w_sq.flags.writeable = False
    return WordPlan(cb, neg2w, w_sq)


def encode_image(ds: DescriptorSet, cb: Codebook, params: EncodingParams,
                 plan: WordPlan | None = None) -> BowVector:
    """Assign every grid point to the codebook and pool into one k-vector.

    Streams points in bounded chunks through buffers allocated once per call,
    so the full N x k assignment matrix is never materialized. Each chunk's
    ``w^2 - 2 p.w`` (the squared distance less the per-point constant p^2)
    is one float32 GEMM, exact as explained in the module docstring. Soft
    rows are pooled per chunk; hard assignment keeps only each point's
    nearest word (the lowest index on a tie) and pools the word counts at
    the end.

    ``plan`` is ``word_plan(cb)``, built here when None; a plan built from
    another codebook raises ValueError.
    """
    if ds.descriptors.shape[1] != cb.words.shape[1]:
        raise ValueError("descriptor dims do not match codebook dims")
    if plan is None:
        plan = word_plan(cb)
    elif plan.codebook is not cb:
        raise ValueError("word plan was built from another codebook")
    n, k = len(ds), cb.k
    neg2w, w_sq = plan.neg2w, plan.w_sq
    chunk = chunk_rows(params)
    m = min(n, chunk)
    pts = np.empty((m, neg2w.shape[1]), dtype=np.float32)
    part = np.empty((m, k), dtype=np.float32)
    soft = params.assignment == "soft"
    if soft:
        rows = np.empty((m, k), dtype=np.float64)
        acc = np.zeros(k, dtype=np.float64)
    else:
        nearest = np.empty(n, dtype=np.intp)

    for start in range(0, n, chunk):
        block = ds.descriptors[start : start + chunk]
        b = len(block)
        pts[:b] = block
        d = np.matmul(pts[:b], neg2w.T, out=part[:b])
        d += w_sq
        if not soft:
            np.argmin(d, axis=-1, out=nearest[start : start + b])
            continue
        r = _soft_rows(d, params.sigma, out=rows[:b])
        if params.pooling == "max":
            np.maximum(acc, r.max(axis=0), out=acc)
        else:
            acc += r.sum(axis=0)

    if not soft:
        counts = np.bincount(nearest, minlength=k)
        acc = (counts > 0).astype(np.float64) if params.pooling == "max" else counts / n
    elif params.pooling == "average":
        acc /= n
    if params.l2_normalize:
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
    return BowVector(h=acc)


def save_bows(bows: np.ndarray, codebook_id: str, path: str | Path) -> None:
    """Binary batch file for the (count, k) matrix ``bows``, one row per
    image, all encoded with codebook ``codebook_id``: header (magic,
    version, count, k, codebook id) then the count rows of k little-endian
    float64 values, in row order."""
    if bows.ndim != 2 or bows.size == 0:
        raise ValueError(f"expected a non-empty (count, k) matrix, got shape {bows.shape}")
    binfile.write(path, BOW_MAGIC, BOW_VERSION,
                  struct.pack("<2I", *bows.shape), binfile.pack_str(codebook_id),
                  np.ascontiguousarray(bows, dtype="<f8"))


def load_bows(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a batch file back as ((count, k) array, codebook id); a file of
    no rows or k = 0 raises ValueError, as ``save_bows`` writes none."""
    reader = binfile.Reader(path, BOW_MAGIC, BOW_VERSION, "bag-of-words batch")
    count, k = reader.fields("<2I")
    if count == 0 or k == 0:
        raise ValueError(f"{path}: empty bag-of-words batch ({count} rows, k = {k})")
    codebook_id = reader.string()
    mat = reader.array("<f8", count * k).reshape(count, k)
    return mat.copy(), codebook_id


def export_bows_csv(bows: np.ndarray, images: Sequence[str], path: str | Path) -> None:
    """Plain CSV for eyeballing encodings: one line per row of the (count, k)
    matrix ``bows``, the image id from ``images`` then the k values."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for image, h in zip(images, bows, strict=True):
            writer.writerow([image] + [repr(float(v)) for v in h])
