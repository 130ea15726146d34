"""Experiment orchestration: balanced splits, repeated trials, confidence
intervals and CSV reporting for the two dictionary studies.

The cross-base experiment builds dictionaries over one corpus and evaluates
classification on another (and natively, on the target's own dictionaries);
the diversity sweep builds dictionaries from nested class subsets of growing
size. All randomness is derived from per-run integer seeds by fixed offsets,
so one integer reproduces a run end to end.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .classifier import TrainConfig, accuracy, train_ovr
from .codebook import Codebook, build_random_codebook
from .corpus import DatasetManifest, ManifestEntry, load_image, select_classes
from .encoding import EncodingParams, encode_image
from .features import (
    DescriptorSet,
    GridParams,
    cache_path,
    extract_dense_sift,
    load_descriptor_cache,
    save_descriptor_cache,
)

logger = logging.getLogger(__name__)

# seed derivations from the per-run seed; distinct primes keep the streams apart
DICT_SEED_OFFSET = 9973
SPLIT_SEED_OFFSET = 104729
TRAIN_SEED_OFFSET = 1299709
CLASS_SEED_OFFSET = 15485863

# two-sided Student-t critical values t_{1-alpha/2, df} for df = 1..30;
# the "inf" entry is the normal-limit value used beyond the table
_T_TABLE = {
    0.10: (
        6.3138, 2.9200, 2.3534, 2.1318, 2.0150, 1.9432, 1.8946, 1.8595,
        1.8331, 1.8125, 1.7959, 1.7823, 1.7709, 1.7613, 1.7531, 1.7459,
        1.7396, 1.7341, 1.7291, 1.7247, 1.7207, 1.7171, 1.7139, 1.7109,
        1.7081, 1.7056, 1.7033, 1.7011, 1.6991, 1.6973,
    ),
    0.05: (
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
        2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
        2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
        2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    ),
    0.01: (
        63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
        3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
        2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
        2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
    ),
}
_T_INF = {0.10: 1.6449, 0.05: 1.9600, 0.01: 2.5758}


@dataclass(frozen=True)
class SplitSpec:
    """Balanced-validation protocol: images per class in training, and the
    per-run seeds (one independent dictionary+split per seed)."""

    n_train_per_class: int
    run_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if self.n_train_per_class < 1:
            raise ValueError("n_train_per_class must be >= 1")
        if len(self.run_seeds) < 1:
            raise ValueError("need at least one run seed")
        if min(self.run_seeds) < 0:
            raise ValueError("run seeds must be >= 0")


@dataclass(frozen=True)
class TrialResult:
    accuracy: float
    seed: int
    n_train: int
    dictionary_id: str


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    dict_source: str
    dict_classes: str
    target: str
    n_train: int
    k: int
    sigma: float
    assignment: str
    pooling: str
    n_runs: int
    mean_acc: float
    ci_low: float
    ci_high: float


CSV_COLUMNS = [f.name for f in fields(SummaryRow)]
# float cells are written as repr(float(v)): round-trip exact, byte-stable
_FLOAT_CELLS = [t is float for t in get_type_hints(SummaryRow).values()]


@dataclass(frozen=True)
class PipelineParams:
    """Everything a trial needs besides the data: extraction, codebook size,
    encoding and training settings."""

    grid: GridParams = GridParams()
    encoding: EncodingParams = EncodingParams()
    k: int = 1000
    c_reg: float = 1.0
    epochs: int = 50
    alpha: float = 0.05
    workers: int = 1  # bench/worker.py still passes it; it goes with ROADMAP item 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.workers != 1:
            raise ValueError("workers must be 1: trials run one at a time")
        if self.alpha not in _T_TABLE:
            raise ValueError(f"alpha must be one of {sorted(_T_TABLE)}")
        TrainConfig(self.c_reg, self.epochs)  # its checks, before any extraction


class DescriptorStore:
    """Memoized dense-SIFT extraction per (manifest entry, grid params).

    Optionally persists per-image cache files so repeated CLI runs skip
    extraction; a cache file that fails to load is re-extracted and
    rewritten.
    """

    def __init__(self, grid: GridParams, cache_dir: str | Path | None = None):
        self.grid = grid
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: dict[Path, DescriptorSet] = {}

    def get(self, manifest: DatasetManifest, entry: ManifestEntry) -> DescriptorSet:
        path = manifest.resolve(entry)
        ds = self._memory.get(path)
        if ds is not None:
            return ds
        cpath = None if self.cache_dir is None else cache_path(self.cache_dir, path, self.grid)
        if cpath is not None and cpath.is_file():
            try:
                ds = load_descriptor_cache(cpath, self.grid, source_image=entry.path)
            except ValueError as err:
                logger.warning("re-extracting %s: unreadable cache file (%s)", path, err)
            else:
                self._memory[path] = ds
                return ds
        image = load_image(path)
        logger.debug("extracting %s (%dx%d)", path, image.width, image.height)
        ds = extract_dense_sift(image, self.grid, source=entry.path)
        if cpath is not None:
            save_descriptor_cache(cpath, ds, self.grid)
        self._memory[path] = ds
        return ds

    def pool(self, manifest: DatasetManifest) -> list[DescriptorSet]:
        """Descriptor sets for every entry, in manifest order."""
        return [self.get(manifest, e) for e in manifest.entries]


def split_balanced(
    manifest: DatasetManifest, n_train: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded balanced split: exactly n_train images per class in train,
    every remaining image in test. Returns ascending entry indices of the
    train and the test images."""
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(manifest), dtype=bool)
    by_class: dict[str, list[int]] = {}
    for i, e in enumerate(manifest.entries):
        by_class.setdefault(e.label, []).append(i)
    for label in sorted(by_class):
        idxs = by_class[label]
        if len(idxs) < n_train + 1:
            raise ValueError(
                f"class '{label}' has {len(idxs)} images; "
                f"need more than n_train={n_train}"
            )
        perm = rng.permutation(len(idxs))
        in_train[[idxs[p] for p in perm[:n_train]]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


def run_trial(
    dictionary: Codebook,
    target: DatasetManifest,
    n_train: int,
    run_seed: int,
    params: PipelineParams,
    bows: np.ndarray,
) -> TrialResult:
    """Train on a balanced split of the target and return test accuracy.
    ``bows`` holds the target encoded with ``dictionary`` (native or
    foreign), one k-vector row per entry in manifest order."""
    labels = [e.label for e in target.entries]
    train_idx, test_idx = split_balanced(target, n_train, run_seed + SPLIT_SEED_OFFSET)
    cfg = TrainConfig(c_reg=params.c_reg, epochs=params.epochs, seed=run_seed + TRAIN_SEED_OFFSET)
    model = train_ovr(bows[train_idx], [labels[i] for i in train_idx], cfg)
    acc = accuracy(model, bows[test_idx], [labels[i] for i in test_idx])
    logger.info(
        "trial seed=%d n_train=%d dict=%s acc=%.4f",
        run_seed, n_train, dictionary.codebook_id, acc,
    )
    return TrialResult(accuracy=acc, seed=run_seed, n_train=n_train,
                       dictionary_id=dictionary.codebook_id)


def confidence_interval(
    values: Sequence[float], alpha: float = 0.05
) -> tuple[float, float, float]:
    """Mean with a two-sided Student-t confidence interval.

    Returns (mean, low, high) = mean -/+ t_{1-alpha/2, n-1} * s / sqrt(n)
    with the sample standard deviation s. Critical values come from the
    embedded table (df 1..30; the normal limit beyond that).
    """
    if len(values) < 2:
        raise ValueError("need at least 2 values for a confidence interval")
    if alpha not in _T_TABLE:
        raise ValueError(f"alpha must be one of {sorted(_T_TABLE)}")
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    if np.all(arr == arr[0]):
        v = float(arr[0])
        return v, v, v
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    df = n - 1
    t = _T_TABLE[alpha][df - 1] if df <= 30 else _T_INF[alpha]
    half = t * s / np.sqrt(n)
    return mean, mean - half, mean + half


def _curve(
    experiment: str,
    source: DatasetManifest,
    dict_classes: str,
    target: DatasetManifest,
    n_train_values: Sequence[int],
    spec: SplitSpec,
    params: PipelineParams,
    store: DescriptorStore,
) -> list[SummaryRow]:
    """One row per n_train. Each run seed builds its own dictionary over
    ``source``, encodes ``target`` with it once and classifies that
    encoding at every n_train."""
    pool, targets = store.pool(source), store.pool(target)
    per_seed = []
    # ascending seeds fix the summation order of mean and std, hence the CSV bytes
    for seed in sorted(spec.run_seeds):
        cb = build_random_codebook(pool, params.k, seed + DICT_SEED_OFFSET,
                                   source_name=source.name, source_classes=source.class_labels)
        logger.info("dictionary %s from %s (%s classes)",
                    cb.codebook_id, source.name, dict_classes)
        bows = np.empty((len(target), cb.k), dtype=np.float64)
        for row, ds in zip(bows, targets):
            row[:] = encode_image(ds, cb, params.encoding).h
        per_seed.append([run_trial(cb, target, n, seed, params, bows).accuracy
                         for n in n_train_values])

    rows = []
    for n_train, accs in zip(n_train_values, zip(*per_seed)):
        if len(accs) >= 2:
            mean, low, high = confidence_interval(accs, params.alpha)
        else:
            mean = low = high = accs[0]
        rows.append(SummaryRow(
            experiment, source.name, dict_classes, target.name, n_train, params.k,
            params.encoding.sigma, params.encoding.assignment, params.encoding.pooling,
            len(accs), mean, low, high,
        ))
    return rows


def cross_base_experiment(
    dict_source: DatasetManifest,
    target: DatasetManifest,
    n_train_values: Sequence[int],
    spec: SplitSpec,
    params: PipelineParams,
    store: DescriptorStore | None = None,
    include_native: bool = True,
) -> list[SummaryRow]:
    """Paired dictionary-generalizability curves on one target corpus.

    The target is classified with dictionaries built over its own images
    ("native", unless ``include_native`` is false) and over ``dict_source``
    ("cross"), on balanced splits. Rows are ordered by (configuration,
    n_train): native first, then cross.
    """
    split_balanced(target, max(n_train_values), 0)  # a too-large n_train fails before extraction
    store = store if store is not None else DescriptorStore(params.grid)
    # extract up front: an unreadable image fails before any trial runs
    store.pool(dict_source)
    store.pool(target)
    sources = [target, dict_source] if include_native else [dict_source]

    rows: list[SummaryRow] = []
    for source in sources:
        rows += _curve("crossbase", source, "all", target, n_train_values, spec, params, store)
    return rows


def diversity_sweep(
    source: DatasetManifest,
    class_counts: Sequence[int],
    target: DatasetManifest,
    n_train: int,
    spec: SplitSpec,
    params: PipelineParams,
    store: DescriptorStore | None = None,
) -> list[SummaryRow]:
    """Dictionary quality as a function of source class diversity.

    Class subsets are nested: the classes used at each count contain those
    used at every smaller count (same seeded permutation throughout, from
    the smallest run seed, so the rows do not depend on the seeds' order).
    """
    if (not class_counts or class_counts[0] < 1
            or any(a >= b for a, b in zip(class_counts, class_counts[1:]))):
        raise ValueError("class_counts must be non-empty, positive and sorted strictly ascending")
    if class_counts[-1] > len(source.class_labels):
        raise ValueError(
            f"class_counts max {class_counts[-1]} exceeds "
            f"{len(source.class_labels)} classes in {source.name}"
        )
    split_balanced(target, n_train, 0)  # a too-large n_train fails before extraction
    store = store if store is not None else DescriptorStore(params.grid)
    # extract up front: an unreadable image fails before any trial runs
    store.pool(source)
    store.pool(target)

    rows: list[SummaryRow] = []
    for count in class_counts:
        sub = select_classes(source, count, min(spec.run_seeds) + CLASS_SEED_OFFSET)
        logger.info("sweep count=%d classes=%s", count, ",".join(sub.class_labels))
        rows += _curve("sweep", sub, str(count), target, [n_train], spec, params, store)
    return rows


def check_summary_csv(path: str | Path) -> bool:
    """Whether a results CSV still needs its header (it does not exist or
    is empty). Raises ValueError if its directory does not exist or a
    non-empty file does not start with the header."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ValueError(f"{path}: directory {path.parent} does not exist")
    if not path.exists() or path.stat().st_size == 0:
        return True
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header != CSV_COLUMNS:
        raise ValueError(f"{path}: header {header} is not {CSV_COLUMNS}")
    return False


def write_summary_csv(rows: Iterable[SummaryRow], path: str | Path) -> None:
    """Append rows to a results CSV, writing the header only when the file
    does not yet exist (or is empty). Every row carries its configuration.
    Raises ValueError as ``check_summary_csv`` does."""
    fresh = check_summary_csv(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(v)) if is_float else v
                             for v, is_float in zip(astuple(row), _FLOAT_CELLS)])
