"""Correctness checks on workload outputs.

Each check compares an output against a computation that shares no code
with ``src/bovw`` (the scalar oracles in ``tests/oracles.py``, a
direct-difference encoder written here, ``scipy.stats.t``) or against a
property the method must have. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import grid_centers, sift_reference  # noqa: E402

CI_TOLERANCE = 1e-3  # acceptance criterion 8
ENCODING_TOLERANCE = 1e-12  # acceptance criterion 2


@functools.lru_cache(maxsize=None)
def _centers(width: int, height: int, stride: int, patch: int) -> tuple[tuple[int, int], ...]:
    return tuple(grid_centers(width, height, stride, patch))


def grid_problems(width: int, height: int, keypoints: np.ndarray, stride: int, patch: int) -> list[str]:
    """The keypoints are exactly the lattice points whose patch fits."""
    expected = _centers(width, height, stride, patch)
    got = tuple(map(tuple, keypoints.tolist()))
    if len(got) != len(expected):
        return [f"{len(got)} grid points, oracle has {len(expected)}"]
    if got != expected:
        return ["grid points differ from the oracle's"]
    return []


def sift_problems(pixels: np.ndarray, keypoints: np.ndarray, descriptors: np.ndarray,
                  sample: list[int], patch: int) -> list[str]:
    """Sampled descriptors match the scalar oracle within one quantization step."""
    h = patch // 2
    out = []
    for i in sample:
        x, y = (int(v) for v in keypoints[i])
        ref = np.array(sift_reference(pixels[y - h:y + h, x - h:x + h].tolist()), dtype=np.int64)
        worst = int(np.abs(ref - descriptors[i].astype(np.int64)).max())
        if worst > 1:
            out.append(f"descriptor at ({x}, {y}) is {worst} steps from the oracle")
    return out


def cache_problems(loaded_keypoints: np.ndarray, loaded_descriptors: np.ndarray,
                   keypoints: np.ndarray, descriptors: np.ndarray) -> list[str]:
    """A cache file loads back equal to the in-memory descriptor set."""
    if not (np.array_equal(loaded_keypoints, keypoints)
            and np.array_equal(loaded_descriptors, descriptors)):
        return ["cache file does not load back to the extracted descriptors"]
    return []


def accuracy_problems(acc: float, n_test: int) -> list[str]:
    """An accuracy is a count of hits over n_test, inside [0, 1]."""
    hits = acc * n_test
    if not 0.0 <= acc <= 1.0 or abs(hits - round(hits)) > 1e-9:
        return [f"accuracy {acc!r} is not a multiple of 1/{n_test} in [0, 1]"]
    return []


def student_t_interval(values: list[float], alpha: float) -> tuple[float, float, float]:
    """Unclipped two-sided Student-t interval from scipy's t quantile."""
    from scipy.stats import t

    n = len(values)
    mean = math.fsum(values) / n
    s = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    half = float(t.ppf(1.0 - alpha / 2.0, n - 1)) * s / math.sqrt(n)
    return mean, mean - half, mean + half


def row_problems(mean_acc: float, ci_low: float, ci_high: float,
                 accuracies: list[float], alpha: float) -> list[str]:
    """A summary row's mean is the mean of its trials, and its interval is
    the unclipped Student-t interval (ROADMAP item 4e: no clipping to [0, 1])."""
    mean, low, high = student_t_interval(accuracies, alpha)
    out = []
    if abs(mean_acc - mean) > 1e-12:
        out.append(f"mean_acc {mean_acc!r} != trial mean {mean!r}")
    if abs(ci_low - low) > CI_TOLERANCE or abs(ci_high - high) > CI_TOLERANCE:
        out.append(f"interval ({ci_low!r}, {ci_high!r}) != Student-t ({low!r}, {high!r})")
    return out


def direct_soft_max(descriptors: np.ndarray, words: np.ndarray, sigma: float) -> np.ndarray:
    """Soft assignment + max pooling from explicit per-word differences."""
    w = words.astype(np.int32)
    acc = np.zeros(len(words))
    for start in range(0, len(descriptors), 32):
        diff = descriptors[start:start + 32, np.newaxis, :].astype(np.int32) - w[np.newaxis]
        d2 = np.einsum("nkc,nkc->nk", diff, diff).astype(np.float64)
        rows = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / (2.0 * sigma * sigma))
        rows /= rows.sum(axis=1, keepdims=True)
        acc = np.maximum(acc, rows.max(axis=0))
    return acc


def encoding_problems(h: np.ndarray, descriptors: np.ndarray, words: np.ndarray,
                      sigma: float) -> list[str]:
    """A soft/max encoding matches the direct-difference reference."""
    worst = float(np.abs(h - direct_soft_max(descriptors, words, sigma)).max())
    if worst > ENCODING_TOLERANCE:
        return [f"soft/max encoding is {worst:.3g} from the direct-difference reference"]
    return []


def hard_average_problems(h: np.ndarray, n_points: int) -> list[str]:
    """A hard/average vector is a histogram: counts over n_points, summing to 1."""
    out = []
    total = math.fsum(h.tolist())
    if abs(total - 1.0) > 1e-12:
        out.append(f"hard/average vector sums to {total!r}")
    counts = h * n_points
    if np.abs(counts - np.round(counts)).max() > 1e-9:
        out.append(f"hard/average entries are not multiples of 1/{n_points}")
    return out


def nested_problems(class_sets: list[frozenset[str]], counts: list[int]) -> list[str]:
    """Sweep dictionaries come from nested class subsets of the given sizes."""
    ordered = sorted(set(class_sets), key=len)
    if [len(s) for s in ordered] != sorted(counts):
        return [f"dictionary class-subset sizes {[len(s) for s in ordered]} != {sorted(counts)}"]
    if any(not small <= big for small, big in zip(ordered, ordered[1:])):
        return ["class subsets are not nested"]
    return []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_problems(csv_bytes: bytes, reference_digest: str) -> list[str]:
    """Summary CSVs from the same seed are byte-identical: the CSV hashes to
    the digest of the first one written."""
    if sha256(csv_bytes) != reference_digest:
        return ["summary CSV differs from an earlier one with the same seed"]
    return []
