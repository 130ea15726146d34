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

The scatter's orientation-mass array (4 MiB at the default patch size) is
allocated once per image and re-zeroed by every block. glibc mmaps an array
that large and unmaps it when it is freed, so one array per block had every
block fault all its pages in again (on Linux, 10,950 minor faults per
1,681-point image against 1,825). The array is freed with the call: one
kept per thread is never freed, so glibc's dynamic mmap threshold never
rises and every other block temporary is mmapped and faulted in again in
every block (about 7,900 faults per image).

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
import struct
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
# patches per _describe_patches call: about 12 MiB of work arrays at S=16
BLOCK_PATCHES = 256
# largest |difference| of two 8-bit pixels
MAX_DIFF = 255

CACHE_MAGIC = b"BVWD"
CACHE_VERSION = 2


@dataclass(frozen=True)
class GridParams:
    """Dense sampling grid: stride between patch centers and patch size."""

    stride: int = 6
    patch_size: int = 16

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.patch_size < 4 or self.patch_size % 4 != 0:
            raise ValueError("patch_size must be a positive multiple of 4")


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
    """One descriptor per dense-grid keypoint, in grid order.

    Patches go through ``_describe_patches`` in blocks of ``BLOCK_PATCHES``,
    so the working set is bounded whatever the image size; every block
    refills one orientation-mass array, which lives for this call only.
    """
    _check_fits(image.width, image.height, params)
    s = params.patch_size
    # window (r, c) is the patch centered at (c + s/2, r + s/2)
    windows = sliding_window_view(image.pixels, (s, s))[:: params.stride, :: params.stride]
    n = windows.shape[0] * windows.shape[1]
    descriptors = np.empty((n, DESCRIPTOR_DIMS), dtype=np.uint8)
    by_bin = np.empty((min(n, BLOCK_PATCHES), N_ORIENT_BINS, s * s))
    for start in range(0, n, BLOCK_PATCHES):
        r, c = np.unravel_index(np.arange(start, min(start + BLOCK_PATCHES, n)), windows.shape[:2])
        descriptors[start : start + len(r)] = _describe_patches(windows[r, c], by_bin)
    return DescriptorSet(descriptors, image.width, image.height, params, source)


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
    table onto (|dx|, |dy|). Built once per process on first use (about
    5 ms, 3 MiB); build it before starting threads that extract, so that no
    two threads build it.
    """
    half = np.arange(MAX_DIFF + 1) / 2.0
    mag = np.hypot(half[:, np.newaxis], half[np.newaxis, :])
    g = np.arange(-MAX_DIFF, MAX_DIFF + 1) / 2.0
    theta = np.arctan2(g[:, np.newaxis], g[np.newaxis, :])
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
    ob = np.divide(theta, 2.0 * np.pi / N_ORIENT_BINS, out=theta)
    floor_ob = np.floor(ob)
    o0 = (floor_ob.astype(np.intp) & (N_ORIENT_BINS - 1)).astype(np.uint8)
    fo = np.subtract(ob, floor_ob, out=ob)
    tables = (mag.reshape(-1), o0.reshape(-1), fo.reshape(-1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _describe_patches(patches: np.ndarray, by_bin: np.ndarray | None = None) -> np.ndarray:
    """Vectorized descriptor computation for a (N, S, S) stack of patches of
    8-bit pixel values (uint8, or any dtype holding such integers).

    Pipeline per patch: central-difference gradients with replicated borders
    (the patch is self-contained; pixels outside it are never read), Gaussian
    magnitude weighting (sigma = S/2 about the patch center), trilinear
    soft-binning into 4x4 cells x 8 orientation bins, L2 normalization, 0.2
    clamp, renormalization and x512 byte quantization. A constant-intensity
    patch (zero histogram norm) yields the all-zero descriptor.

    Every pixel difference is an integer in [-255, 255], so each pixel's
    magnitude, first bin and bin fraction are gathered from
    ``gradient_tables``, whose entries are the per-bin float form's
    per-pixel values: the half difference is exact, and a zero difference
    gives +0.0 in both (a float stack holding -0.0 can give that form -0.0
    gradients, whose angles differ only where the magnitude, hence the
    mass, is zero).

    Each pixel's two orientation masses are scattered into an (N, 8, S*S)
    array of zeros and pooled into cells by one (N*8, S*S) @ (S*S, 16)
    product. That array is the first N rows of ``by_bin``, a float64
    (M >= N, 8, S*S) array that is zeroed here, whatever it held, so one
    array can serve every block of an image; it is built here when None.
    The bytes equal a per-bin evaluation (one masked copy and one
    product per bin, kept in ``tests/oracles.py``): arctan2 lies in
    [-pi, pi], where adding 2*pi to the negative angles is exactly
    ``np.mod(theta, 2*pi)`` (a -0.0 angle falls in bin 0 with zero fraction
    either way), a pixel's two bins always differ, and its masses are >= +0,
    so each scattered value is the masked sum's value.
    """
    n, s = patches.shape[0], patches.shape[1]
    cs = s // N_SPATIAL_CELLS
    npix = s * s

    # differences along the flat pixel order; the patch's edge columns and
    # rows are then redone one-sided, which is edge replication
    q = patches.astype(np.int32).reshape(-1)
    dx, dy = np.empty_like(q), np.empty_like(q)
    np.subtract(q[2:], q[:-2], out=dx[1:-1])
    np.subtract(q[2 * s :], q[: -2 * s], out=dy[s:-s])
    p, dx, dy = q.reshape(n, s, s), dx.reshape(n, s, s), dy.reshape(n, s, s)
    np.subtract(p[:, :, 1], p[:, :, 0], out=dx[:, :, 0])
    np.subtract(p[:, :, -1], p[:, :, -2], out=dx[:, :, -1])
    np.subtract(p[:, 1], p[:, 0], out=dy[:, 0])
    np.subtract(p[:, -1], p[:, -2], out=dy[:, -1])

    mag_table, o0_table, fo_table = gradient_tables()
    mag = mag_table.take(np.abs(dx) * (MAX_DIFF + 1) + np.abs(dy))
    pair = (dy + MAX_DIFF) * (2 * MAX_DIFF + 1) + (dx + MAX_DIFF)

    center = (s - 1) / 2.0
    sigma_w = s / 2.0
    coords = np.arange(s, dtype=np.float64)
    g1d = np.exp(-((coords - center) ** 2) / (2.0 * sigma_w**2))
    weighted = (mag * (g1d[:, np.newaxis] * g1d[np.newaxis, :])).reshape(n, npix)

    # orientation soft-binning: each pixel splits its mass between the two
    # adjacent bins on the 8-bin circle
    o0 = o0_table.take(pair).reshape(n, npix).astype(np.intp)
    o1 = (o0 + 1) & (N_ORIENT_BINS - 1)
    fo = fo_table.take(pair).reshape(n, npix)

    # per-pixel mass by orientation bin, at flat index (patch*8 + bin)*S*S + pixel
    if by_bin is None:
        by_bin = np.empty((n, N_ORIENT_BINS, npix))
    flat = by_bin[:n].reshape(-1)
    flat.fill(0.0)
    base = (np.arange(n) * (N_ORIENT_BINS * npix))[:, np.newaxis] + np.arange(npix)
    flat[base + o0 * npix] = weighted * (1.0 - fo)
    flat[base + o1 * npix] = weighted * fo

    # spatial bilinear weights are data-independent: (S, 4) per axis, each
    # pixel split between its two nearest cell centers (none past the edge)
    cell_coord = (coords - (cs - 1) / 2.0) / cs
    i0 = np.floor(cell_coord).astype(np.intp)[:, np.newaxis]
    fr = (cell_coord - np.floor(cell_coord))[:, np.newaxis]
    cells = np.arange(N_SPATIAL_CELLS)
    axis_w = np.where(cells == i0, 1.0 - fr, 0.0) + np.where(cells == i0 + 1, fr, 0.0)
    # combined pixel -> cell map, (S*S, 16): row y*S + x, column row_cell*4 + col_cell
    spatial = np.kron(axis_w, axis_w)

    pooled = (flat.reshape(n * N_ORIENT_BINS, npix) @ spatial).reshape(n, N_ORIENT_BINS, -1)
    hist = pooled.transpose(0, 2, 1).reshape(n, DESCRIPTOR_DIMS)

    norms = np.linalg.norm(hist, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    out = np.zeros((n, DESCRIPTOR_DIMS), dtype=np.uint8)
    if np.any(nonzero):
        v = hist[nonzero] / norms[nonzero]
        np.minimum(v, CLAMP_THRESHOLD, out=v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        q = np.clip(np.round(v * BYTE_SCALE), 0.0, 255.0)
        out[nonzero] = q.astype(np.uint8)
    return out


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
    try:  # the set checks dims and n, and its errors get the path
        return DescriptorSet(descriptors.copy(), width, height, params, source_image)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
