"""Dense-grid sampling and upright SIFT descriptors.

Descriptors are 128-dimensional gradient-orientation histograms (4x4 spatial
cells x 8 orientation bins) computed on fixed-size patches centered on a
regular grid, then byte-quantized to 0..255. No orientation assignment and
no scale pyramid: one patch size, grid stride in pixels.

An image's patches are described in blocks of ``BLOCK_PATCHES``, each block
by table lookups of every pixel's gradient magnitude and orientation bins,
one orientation scatter and one matrix product, so extraction works in
bounded memory whatever the image size. The bytes are those of describing
all patches at once, one orientation bin at a time, from float gradients.

The scatter's orientation-mass array (1.5 MiB at S=16) is allocated once
per image and re-zeroed by every block: glibc mmaps an array that large and
unmaps it when freed, so one per block faulted its pages in every block, and
one kept per thread, never freed, keeps glibc's mmap threshold low, so every
other temporary faults in every block. The block temporaries are reused in
place, so an image's numpy peak stays bounded and, on Linux, an image takes
no minor faults after a process's first.

A descriptor set holds its image's size and grid, and derives its points
from them. A cache file (version 2) is the magic, the version and six u32
fields, n, dims, stride, patch, width and height, then the n x 128 descriptor
bytes in grid order: 32 + 128 n bytes (215,200 B at 1,681 points). A file
whose n is not that grid's size fails to load, as does a version-1 file (an
(x, y) u32 pair before each descriptor).
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import binfile
from .corpus import Image

DESCRIPTOR_DIMS = 128
N_SPATIAL_CELLS = 4  # per axis
N_ORIENT_BINS = 8
CLAMP_THRESHOLD = 0.2
BYTE_SCALE = 512.0
# patches per _describe_patches call; on 1,681-point images 96 was faster than
# 64, 128 or 256 and took less peak RSS than 128 or 256
BLOCK_PATCHES = 96
# largest |difference| of two 8-bit pixels
MAX_DIFF = 255

# held while _describe_patches fetches the tables
_TABLES_LOCK = threading.Lock()

CACHE_MAGIC = b"BVWD"
CACHE_VERSION = 2


@dataclass(frozen=True)
class GridParams:
    """Dense sampling grid: stride between patch centers and patch size."""

    stride: int = 6
    patch_size: int = 16

    def __post_init__(self) -> None:
        # both are u32 fields of a cache file's header
        if not 1 <= self.stride < 2**32:
            raise ValueError(f"stride must be in [1, 2^32), got {self.stride}")
        if not 4 <= self.patch_size < 2**32 or self.patch_size % 4 != 0:
            raise ValueError(f"patch_size must be a multiple of 4 in [4, 2^32), "
                             f"got {self.patch_size}")


@dataclass
class DescriptorSet:
    """A ``width`` x ``height`` image's byte descriptors, one per point of its
    dense ``grid`` in grid order; ``keypoints`` derives the points."""

    descriptors: np.ndarray  # (N, 128) uint8
    width: int
    height: int
    grid: GridParams
    source_image: str

    def __post_init__(self) -> None:
        if self.descriptors.shape[1] != DESCRIPTOR_DIMS:
            raise ValueError(f"descriptors must have {DESCRIPTOR_DIMS} dims")
        if self.descriptors.dtype != np.uint8:
            raise ValueError("descriptors must be uint8")
        # counted, not built, so that a damaged cache file's size cannot build a huge grid
        p, s = self.grid.patch_size, self.grid.stride
        cols, rows = ((size - p) // s + 1 for size in (self.width, self.height))
        if min(cols, rows) < 1 or cols * rows != len(self):
            raise ValueError(f"{len(self)} descriptors for a {self.width}x{self.height} image")

    def __len__(self) -> int:
        return len(self.descriptors)

    @property
    def keypoints(self) -> np.ndarray:
        return dense_grid(self.width, self.height, self.grid)


def _check_fits(width: int, height: int, params: GridParams) -> None:
    if min(width, height) < params.patch_size:
        raise ValueError(f"image {width}x{height} smaller than one {params.patch_size}-pixel patch")


def dense_grid(width: int, height: int, params: GridParams) -> np.ndarray:
    """Patch centers (x, y) on a regular grid, row-major, as (N, 2) int32.

    A patch centered at (x, y) covers pixels [x-h, x+h-1] x [y-h, y+h-1]
    with h = patch_size/2; centers start at (h, h) and advance by the stride
    while the patch still fits.
    """
    _check_fits(width, height, params)
    h = params.patch_size // 2
    xs = np.arange(h, width - h + 1, params.stride, dtype=np.int32)
    ys = np.arange(h, height - h + 1, params.stride, dtype=np.int32)
    return np.stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))], axis=1)


def extract_dense_sift(image: Image, params: GridParams, source: str = "") -> DescriptorSet:
    """One descriptor per dense-grid keypoint, in grid order, described by
    ``_describe_patches`` from a view of the image's patch windows."""
    _check_fits(image.width, image.height, params)
    s = params.patch_size
    # window (r, c) is the patch centered at (c + s/2, r + s/2)
    windows = sliding_window_view(image.pixels, (s, s))[:: params.stride, :: params.stride]
    return DescriptorSet(_describe_patches(windows), image.width, image.height, params, source)


@functools.cache
def gradient_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pixel's gradient magnitude, first orientation bin and bin fraction
    for every pair of pixel differences (dx, dy) in [-255, 255]^2.

    Returns read-only flat arrays ``(mag, o0, fo)``: ``mag`` (float64) at
    ``|dx|*256 + |dy|``, ``o0`` (uint8) and ``fo`` (float64) at
    ``(dy + 255)*511 + dx + 255``. Gradients are half differences, so
    ``gx = dx / 2`` exactly, and the values are those of the numpy calls the
    per-bin float form (``tests/oracles.py``) makes per pixel on
    ``(gx, gy)``. ``hypot`` depends on the magnitudes alone, which folds its
    table onto (|dx|, |dy|). Built once per process, by the first
    ``_describe_patches`` call, under its lock.
    """
    half = np.arange(MAX_DIFF + 1) / 2.0
    mag = np.hypot(half[:, np.newaxis], half[np.newaxis, :])
    g = np.arange(-MAX_DIFF, MAX_DIFF + 1) / 2.0
    theta = np.arctan2(g[:, np.newaxis], g[np.newaxis, :])
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
    ob = np.divide(theta, 2.0 * np.pi / N_ORIENT_BINS, out=theta)
    floor_ob = np.floor(ob)
    o0 = floor_ob.astype(np.intp)  # masked in place: one 2 MiB temporary fewer
    o0 = np.bitwise_and(o0, N_ORIENT_BINS - 1, out=o0).astype(np.uint8)
    fo = np.subtract(ob, floor_ob, out=ob)
    tables = (mag.reshape(-1), o0.reshape(-1), fo.reshape(-1))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def patch_tables(patch_size: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(gauss, spatial, base)`` for blocks of up to ``rows``
    S x S patches: the (S, S) Gaussian magnitude weights, the (S*S, 16)
    bilinear pixel-to-cell map (row y*S + x, column row_cell*4 + col_cell)
    and the scatter's (rows, S*S) base offsets, patch*8*S*S + pixel.
    ``_describe_patches`` asks for ``BLOCK_PATCHES`` rows under its lock, so
    a process builds one entry per patch size.
    """
    s, cs = patch_size, patch_size // N_SPATIAL_CELLS
    coords = np.arange(s, dtype=np.float64)
    g1d = np.exp(-((coords - (s - 1) / 2.0) ** 2) / (2.0 * (s / 2.0) ** 2))
    cell_coord = (coords - (cs - 1) / 2.0) / cs
    i0 = np.floor(cell_coord).astype(np.intp)[:, np.newaxis]
    fr = (cell_coord - np.floor(cell_coord))[:, np.newaxis]
    cells = np.arange(N_SPATIAL_CELLS)
    axis_w = np.where(cells == i0, 1.0 - fr, 0.0) + np.where(cells == i0 + 1, fr, 0.0)
    tables = (g1d[:, np.newaxis] * g1d[np.newaxis, :], np.kron(axis_w, axis_w),
              (np.arange(rows) * (N_ORIENT_BINS * s * s))[:, np.newaxis] + np.arange(s * s))
    for table in tables:
        table.flags.writeable = False
    return tables


def _describe_patches(patches: np.ndarray) -> np.ndarray:
    """Vectorized descriptor computation for an (..., S, S) array of patches
    of 8-bit pixel values (uint8, or any dtype holding such integers): an
    image's (rows, cols, S, S) window view or an (N, S, S) stack. Returns
    the (N, 128) descriptors, in the patches' row-major order.

    Pipeline per patch: central-difference gradients with replicated borders
    (the patch is self-contained; pixels outside it are never read), Gaussian
    magnitude weighting (sigma = S/2 about the patch center), trilinear
    soft-binning into 4x4 cells x 8 orientation bins, L2 normalization, 0.2
    clamp, renormalization and x512 byte quantization. A constant-intensity
    patch (zero histogram norm) yields the all-zero descriptor.

    Patches are gathered and described in blocks of ``BLOCK_PATCHES``, so
    the working set is bounded whatever the image size, and every block
    frees its temporaries before the next starts. The tables are fetched
    under one lock, so that threads which start together build each once.

    Every pixel difference is an integer in [-255, 255], so each pixel's
    magnitude, first bin and bin fraction are gathered from
    ``gradient_tables``, whose entries are the per-bin float form's
    per-pixel values: the half difference is exact, and a zero difference
    gives +0.0 in both (a float stack holding -0.0 can give that form -0.0
    gradients, whose angles differ only where the magnitude, hence the
    mass, is zero).

    Each pixel's two orientation masses are scattered into a block's
    (n, 8, S*S) array of zeros and pooled into cells by one
    (n*8, S*S) @ (S*S, 16) product. One such array is allocated per call and
    re-zeroed by every block. The bytes equal a per-bin evaluation (one
    masked copy and one product per bin, kept in ``tests/oracles.py``):
    arctan2 lies in [-pi, pi], where adding 2*pi to the negative angles is
    exactly ``np.mod(theta, 2*pi)`` (a -0.0 angle falls in bin 0 with zero
    fraction either way), a pixel's two bins always differ, and its masses
    are >= +0, so each scattered value is the masked sum's value.
    """
    lead, s = patches.shape[:-2], patches.shape[-1]
    npix, total = s * s, math.prod(lead)
    with _TABLES_LOCK:
        mag_table, o0_table, fo_table = gradient_tables()
        gauss, spatial, base = patch_tables(s, BLOCK_PATCHES)
    descriptors = np.zeros((total, DESCRIPTOR_DIMS), dtype=np.uint8)
    # per-pixel mass by orientation bin, at flat index (patch*8 + bin)*S*S + pixel
    by_bin = np.empty(min(total, BLOCK_PATCHES) * N_ORIENT_BINS * npix)
    for start in range(0, total, BLOCK_PATCHES):
        stop = min(start + BLOCK_PATCHES, total)
        n = stop - start
        # differences along the flat pixel order; the patch's edge columns and
        # rows are then redone one-sided, which is edge replication
        q = patches[np.unravel_index(np.arange(start, stop), lead)].astype(np.int16).reshape(-1)
        dx, dy = np.empty_like(q), np.empty_like(q)
        np.subtract(q[2:], q[:-2], out=dx[1:-1])
        np.subtract(q[2 * s :], q[: -2 * s], out=dy[s:-s])
        p, dx, dy = q.reshape(n, s, s), dx.reshape(n, s, s), dy.reshape(n, s, s)
        np.subtract(p[:, :, 1], p[:, :, 0], out=dx[:, :, 0])
        np.subtract(p[:, :, -1], p[:, :, -2], out=dx[:, :, -1])
        np.subtract(p[:, 1], p[:, 0], out=dy[:, 0])
        np.subtract(p[:, -1], p[:, -2], out=dy[:, -1])

        # one intp index array serves all three tables, and spent temporaries are freed
        at = np.multiply(np.abs(dx), MAX_DIFF + 1, dtype=np.intp)
        at += np.abs(dy)
        weighted = mag_table.take(at).reshape(n, npix)
        weighted *= gauss.reshape(npix)
        np.multiply(dy + MAX_DIFF, 2 * MAX_DIFF + 1, out=at, dtype=np.intp)
        at += dx + MAX_DIFF
        del q, p, dx, dy

        # orientation soft-binning: each pixel splits its mass between the two
        # adjacent bins on the 8-bin circle
        o0 = o0_table.take(at).reshape(n, npix)
        fo = fo_table.take(at).reshape(n, npix)
        del at
        m0 = 1.0 - fo
        m0 *= weighted
        fo *= weighted  # the second bin's mass
        del weighted

        flat = by_bin[: n * N_ORIENT_BINS * npix]
        flat.fill(0.0)
        at = np.empty((n, npix), dtype=np.intp)
        for mass in (m0, fo):
            np.multiply(o0, npix, out=at, dtype=np.intp)
            at += base[:n]
            flat[at] = mass
            np.bitwise_and(o0 + 1, N_ORIENT_BINS - 1, out=o0)
        del at, o0, m0, fo, mass

        hist = ((flat.reshape(n * N_ORIENT_BINS, npix) @ spatial)
                .reshape(n, N_ORIENT_BINS, -1).transpose(0, 2, 1).reshape(n, DESCRIPTOR_DIMS))
        norms = np.linalg.norm(hist, axis=1, keepdims=True)
        nonzero = norms[:, 0] > 0.0
        v = hist[nonzero] / norms[nonzero]
        del hist, norms
        np.minimum(v, CLAMP_THRESHOLD, out=v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        descriptors[start:stop][nonzero] = np.clip(np.round(v * BYTE_SCALE), 0.0, 255.0)
        del v
    return descriptors


def cache_path(cache_dir: str | Path, image_path: str | Path, params: GridParams) -> Path:
    """Cache file location keyed by (absolute image path, grid params)."""
    key = f"{Path(image_path).resolve()}|stride={params.stride}|patch={params.patch_size}"
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
    return Path(cache_dir) / f"{digest}.desc"


def save_descriptor_cache(path: str | Path, ds: DescriptorSet) -> None:
    """Write ``ds`` as a cache file (version 2, module docstring), replaced atomically."""
    binfile.write(path, CACHE_MAGIC, CACHE_VERSION,
                  struct.pack("<6I", len(ds), DESCRIPTOR_DIMS, ds.grid.stride,
                              ds.grid.patch_size, ds.width, ds.height),
                  np.ascontiguousarray(ds.descriptors))


def load_descriptor_cache(
    path: str | Path, params: GridParams, source_image: str = ""
) -> DescriptorSet:
    reader = binfile.Reader(path, CACHE_MAGIC, CACHE_VERSION, "descriptor cache")
    n, dims, stride, patch, width, height = reader.fields("<6I")
    if (stride, patch) != (params.stride, params.patch_size):
        raise ValueError(f"{path}: cache built with stride={stride}, patch={patch}, not {params}")
    descriptors = reader.array(np.uint8, n * dims).reshape(n, dims)
    return reader.make(DescriptorSet, descriptors.copy(), width, height, params, source_image)
