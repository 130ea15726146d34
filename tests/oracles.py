"""Independent straight-line reference implementations used by the tests.

Everything here is deliberately written as plain scalar loops (stdlib math
only, no numpy broadcasting) so it cannot share a code path, or a bug, with
the library. These oracles define the reference semantics the vectorized
implementations are checked against. The exceptions are ``hard_assign``,
one-hot rows over a whole distance matrix, ``describe_patches_per_bin``, the
dense-SIFT kernel's earlier one-bin-at-a-time form, ``train_ovr_reference``:
the SVM training loop's textbook vectorized form, and
``random_codebook_words``: the dictionary sampler's one-draw-per-step walk.
The library's kernels are checked against ``describe_patches_per_bin`` and
``random_codebook_words`` bit for bit. The library's SVM training keeps its
weights as a scale times a matrix, so it is checked against
``train_ovr_reference`` for the same violation path (biases byte for byte,
the same predictions) and for weights equal up to rounding.
"""

from __future__ import annotations

import math

import numpy as np


def grid_centers(width: int, height: int, stride: int, patch_size: int) -> list[tuple[int, int]]:
    """Every lattice point whose patch fits, by exhaustive scan."""
    h = patch_size // 2
    out = []
    for y in range(height):
        for x in range(width):
            on_lattice = (x - h) % stride == 0 and (y - h) % stride == 0
            fits = x - h >= 0 and y - h >= 0 and x + h - 1 <= width - 1 and y + h - 1 <= height - 1
            if on_lattice and fits and x >= h and y >= h:
                out.append((x, y))
    return out


def sift_reference(patch) -> list[int]:
    """Pixel-by-pixel gradient-orientation histogram descriptor.

    Same algorithm contract as the library (central differences with
    replicated borders inside the patch, Gaussian weighting about the patch
    center with sigma = S/2, trilinear binning into 4x4 cells x 8
    orientation bins, L2 norm, 0.2 clamp, renorm, x512 byte quantization)
    but evaluated one scalar at a time.
    """
    s = len(patch)
    cs = s // 4
    ctr = (s - 1) / 2.0
    two_sw_sq = 2.0 * (s / 2.0) ** 2
    hist = [[[0.0] * 8 for _ in range(4)] for _ in range(4)]
    p = [[float(v) for v in row] for row in patch]
    for r in range(s):
        for c in range(s):
            gx = (p[r][min(c + 1, s - 1)] - p[r][max(c - 1, 0)]) / 2.0
            gy = (p[min(r + 1, s - 1)][c] - p[max(r - 1, 0)][c]) / 2.0
            mag = math.hypot(gx, gy)
            theta = math.atan2(gy, gx)
            weight = math.exp(-((r - ctr) ** 2 + (c - ctr) ** 2) / two_sw_sq)
            wm = mag * weight
            ob = (theta % (2.0 * math.pi)) / (2.0 * math.pi / 8.0)
            o0 = int(math.floor(ob)) % 8
            fo = ob - math.floor(ob)
            rb = (r - (cs - 1) / 2.0) / cs
            cb = (c - (cs - 1) / 2.0) / cs
            r0, c0 = math.floor(rb), math.floor(cb)
            fr, fc = rb - r0, cb - c0
            for ri, wr in ((int(r0), 1.0 - fr), (int(r0) + 1, fr)):
                if not 0 <= ri < 4:
                    continue
                for ci, wc in ((int(c0), 1.0 - fc), (int(c0) + 1, fc)):
                    if not 0 <= ci < 4:
                        continue
                    for oi, wo in ((o0, 1.0 - fo), ((o0 + 1) % 8, fo)):
                        hist[ri][ci][oi] += wm * wr * wc * wo
    v = [hist[i][j][o] for i in range(4) for j in range(4) for o in range(8)]
    norm = math.sqrt(sum(x * x for x in v))
    if norm == 0.0:
        return [0] * 128
    v = [min(x / norm, 0.2) for x in v]
    norm2 = math.sqrt(sum(x * x for x in v))
    v = [x / norm2 for x in v]
    return [int(min(max(_round_half_even(x * 512.0), 0.0), 255.0)) for x in v]


def describe_patches_per_bin(patches) -> np.ndarray:
    """Descriptors of a whole (N, S, S) float patch stack, pooled one
    orientation bin at a time: a masked copy of every pixel's mass in that
    bin, then one (N, S*S) @ (S*S, 16) product per bin."""
    patches = np.asarray(patches, dtype=np.float64)
    n, s = patches.shape[0], patches.shape[1]
    cs = s // 4

    padded = np.pad(patches, ((0, 0), (1, 1), (1, 1)), mode="edge")
    gx = (padded[:, 1:-1, 2:] - padded[:, 1:-1, :-2]) / 2.0
    gy = (padded[:, 2:, 1:-1] - padded[:, :-2, 1:-1]) / 2.0
    mag = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx)

    center = (s - 1) / 2.0
    sigma_w = s / 2.0
    coords = np.arange(s, dtype=np.float64)
    g1d = np.exp(-((coords - center) ** 2) / (2.0 * sigma_w**2))
    weighted = (mag * (g1d[:, np.newaxis] * g1d[np.newaxis, :])).reshape(n, s * s)

    bin_width = 2.0 * np.pi / 8
    ob = (np.mod(theta, 2.0 * np.pi) / bin_width).reshape(n, s * s)
    o0 = np.floor(ob).astype(np.intp) % 8
    o1 = (o0 + 1) % 8
    fo = ob - np.floor(ob)
    w0 = weighted * (1.0 - fo)
    w1 = weighted * fo

    cell_coord = (coords - (cs - 1) / 2.0) / cs
    i0 = np.floor(cell_coord).astype(np.intp)[:, np.newaxis]
    fr = (cell_coord - np.floor(cell_coord))[:, np.newaxis]
    cells = np.arange(4)
    axis_w = np.where(cells == i0, 1.0 - fr, 0.0) + np.where(cells == i0 + 1, fr, 0.0)
    spatial = np.kron(axis_w, axis_w)

    hist = np.empty((n, 16, 8), dtype=np.float64)
    for b in range(8):
        hist[:, :, b] = (np.where(o0 == b, w0, 0.0) + np.where(o1 == b, w1, 0.0)) @ spatial
    hist = hist.reshape(n, 128)

    norms = np.linalg.norm(hist, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    out = np.zeros((n, 128), dtype=np.uint8)
    if np.any(nonzero):
        v = hist[nonzero] / norms[nonzero]
        np.minimum(v, 0.2, out=v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        q = np.clip(np.round(v * 512.0), 0.0, 255.0)
        out[nonzero] = q.astype(np.uint8)
    return out


def _round_half_even(x: float) -> float:
    # same tie rule as numpy's round
    return float(round(x))


def euclidean(p, q) -> float:
    return math.dist([float(v) for v in p], [float(v) for v in q])


def soft_row(distances, sigma: float, with_prefactor: bool = False) -> list[float]:
    """Soft assignment evaluated term by term (min-shifted so the variant
    with the Gaussian prefactor stays computable at large distances too)."""
    d2 = [float(d) * float(d) for d in distances]
    m = min(d2)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * sigma) if with_prefactor else 1.0
    kernel = [pref * math.exp(-(x - m) / (2.0 * sigma * sigma)) for x in d2]
    total = sum(kernel)
    assert total > 0.0
    return [x / total for x in kernel]


def bow_reference(points, words, sigma: float, assignment: str, pooling: str) -> list[float]:
    """Straight-line evaluation of assignment + pooling over all points."""
    n, k = len(points), len(words)
    rows: list[list[float]] = []
    for i in range(n):
        dists = [euclidean(points[i], words[j]) for j in range(k)]
        if assignment == "soft":
            kernel = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in dists]
            total = sum(kernel)
            assert total > 0.0, "instance too extreme for the unshifted oracle"
            rows.append([x / total for x in kernel])
        else:
            best = 0
            for j in range(1, k):
                if dists[j] < dists[best]:
                    best = j
            rows.append([1.0 if j == best else 0.0 for j in range(k)])
    if pooling == "max":
        return [max(rows[i][j] for i in range(n)) for j in range(k)]
    return [sum(rows[i][j] for i in range(n)) / n for j in range(k)]


def hard_assign(d2) -> np.ndarray:
    """One-hot rows at the minimum squared distance along the last axis;
    ties break to the lowest index."""
    d2 = np.asarray(d2, dtype=np.float64)
    rows = np.zeros_like(d2)
    np.put_along_axis(rows, np.argmin(d2, axis=-1)[..., np.newaxis], 1.0, axis=-1)
    return rows


def train_ovr_reference(x, labels, c_reg: float = 1.0, epochs: int = 50, seed: int = 0):
    """One-vs-rest hinge SVM by seeded subgradient descent, one vectorized
    update per example: margins y * (W x + b), the shrink W *= 1 - eta*lam,
    then W_j += eta*y_j*x and b_j += eta*y_j on every violated class j.
    Returns (weights, biases, sorted labels)."""
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape
    classes = sorted(set(labels))
    class_idx = {c: i for i, c in enumerate(classes)}
    y = np.array([class_idx[l] for l in labels], dtype=np.intp)
    n_cls = len(classes)

    # +1 for the row's own class, -1 for everyone else, per binary problem
    signs = np.full((n, n_cls), -1.0)
    signs[np.arange(n), y] = 1.0

    lam = 1.0 / (c_reg * n)
    w = np.zeros((n_cls, k), dtype=np.float64)
    b = np.zeros(n_cls, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi = x[i]
            ysign = signs[i]
            margin = ysign * (w @ xi + b)
            w *= 1.0 - eta * lam
            violated = margin < 1.0
            if violated.any():
                step = eta * ysign[violated]
                w[violated] += step[:, np.newaxis] * xi
                b[violated] += step
    return w, b, classes


def random_codebook_words(pool, k: int, seed: int) -> np.ndarray:
    """The k words of a seeded partial Fisher-Yates walk over the flattened
    pool, one scalar draw and one image lookup per word."""
    sizes = [len(ds) for ds in pool]
    total = sum(sizes)
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
    words = np.empty((k, 128), dtype=np.uint8)
    for row, flat in enumerate(picked):
        ds_idx = int(np.searchsorted(offsets, flat, side="right") - 1)
        words[row] = pool[ds_idx].descriptors[flat - offsets[ds_idx]]
    return words
