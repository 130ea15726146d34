"""Experiment orchestration: balanced splits, repeated trials, confidence
intervals and CSV reporting for the two dictionary studies.

The cross-base experiment builds dictionaries over one corpus and evaluates
classification on another (and natively, on the target's own dictionaries);
the diversity sweep builds dictionaries from nested class subsets of growing
size. Both run through one driver, which extracts only the images their
dictionaries and target use. All randomness is derived from per-run integer
seeds by fixed offsets, so one integer reproduces a run end to end.
"""

from __future__ import annotations

import csv
import logging
import os
import threading
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import ClassVar, Iterable, Sequence, get_type_hints

import numpy as np

from . import classifier
from .classifier import TrainConfig, accuracy, svm_lambda, train_ovr
from .codebook import Codebook, build_random_codebook, check_pool_size
from .corpus import DatasetManifest, ManifestEntry, image_size, load_image, select_classes
from .encoding import EncodingParams, encode_image, word_plan
from .features import (
    DescriptorSet,
    GridParams,
    cache_path,
    dense_grid,
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

# two-sided Student-t critical values t_{0.975, df} for df = 1..30, the 95%
# intervals of the protocol; beyond the table, _t_beyond_table expands about
# the normal quantile _Z
_T_TABLE = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
    2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
    2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
    2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
)
# statistics.NormalDist().inv_cdf(0.975), as a constant: importing
# statistics adds about 0.5 MiB to every process
_Z = 1.9599639845400536


def _t_beyond_table(df: int) -> float:
    """t_{0.975, df}: the four-term Cornish-Fisher expansion about the normal
    quantile (Abramowitz & Stegun 26.7.5), within 1.2e-7 of scipy for df >= 31."""
    z = _Z
    terms = ((z**3 + z) / 4,
             (5 * z**5 + 16 * z**3 + 3 * z) / 96,
             (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
             (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160)
    return z + sum(term / df**power for power, term in enumerate(terms, start=1))


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
        if len(set(self.run_seeds)) != len(self.run_seeds):
            raise ValueError(f"run seeds must be distinct, got {self.run_seeds}")


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
    c_reg: float = TrainConfig.c_reg
    epochs: int = TrainConfig.epochs
    # every summary row's interval is 95%; bench/worker.py reads it
    alpha: ClassVar[float] = 0.05
    workers: int = 1  # bench/worker.py still passes it; it goes with ROADMAP item 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.workers != 1:
            raise ValueError("workers must be 1: trials run one at a time")
        TrainConfig(self.c_reg, self.epochs)  # its checks, before any extraction


class DescriptorStore:
    """Memoized dense-SIFT extraction per (manifest entry, grid params).

    Optionally persists per-image cache files so repeated CLI runs skip
    extraction; a cache file that fails to load is re-extracted and
    rewritten, with one WARNING per ``pools`` call. Every set enters the
    store through ``pools``: ``get`` of a set the store does not hold is a
    one-entry ``pools`` call, so it checks and names the image as ``pool`` does.
    """

    def __init__(self, grid: GridParams, cache_dir: str | Path | None = None):
        self.grid = grid
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:  # a file in its way fails before any extraction
            existing = next(p for p in (self.cache_dir, *self.cache_dir.parents) if p.exists())
            if not existing.is_dir():
                raise ValueError(f"cache directory {self.cache_dir}: {existing} is not a directory")
        self._memory: dict[Path, DescriptorSet] = {}

    def get(self, manifest: DatasetManifest, entry: ManifestEntry) -> DescriptorSet:
        """The set of ``entry``: the one held in memory, else a one-entry ``pool``."""
        ds = self._memory.get(manifest.resolve(entry))
        return ds if ds is not None else self.pool(replace(manifest, entries=(entry,)))[0]

    def pool(self, manifest: DatasetManifest) -> list[DescriptorSet]:
        """Descriptor sets for every entry, in manifest order (``pools``)."""
        return self.pools([manifest], [0])[0]

    def pools(self, manifests: Sequence[DatasetManifest],
              need: Sequence[int]) -> list[list[DescriptorSet]]:
        """Descriptor sets for every entry of each manifest, in manifest order.

        Before any extraction, each image (once by path) is taken from memory, else
        from a readable cache file, else its PGM file is checked and its grid counted:
        the first bad image in manifest order raises ValueError, then the first
        manifest i with fewer than ``need[i]`` points. Then each manifest's misses
        are extracted on image threads (``_on_image_threads``; two misses or more on
        two cores or more pin BLAS to one thread for the rest of the process), the
        bytes serial ``get`` calls give, and one INFO line counts its images from
        memory (or from an earlier manifest of the call), from the cache and
        extracted (unreadable cache files too), the grid points extracted and the
        seconds."""
        held = set(self._memory)  # and, later, the images an earlier manifest took
        unreadable: list[tuple[Path, ValueError]] = []
        misses: dict[Path, int] = {}  # image -> its grid points
        paths = [[m.resolve(e) for e in m.entries] for m in manifests]
        for m, m_paths in zip(manifests, paths):
            for e, path in zip(m.entries, m_paths):
                if path in misses or path in self._memory:
                    continue
                cpath = self.cache_dir and cache_path(self.cache_dir, path, self.grid)
                if cpath and cpath.is_file():
                    try:
                        self._memory[path] = load_descriptor_cache(cpath, self.grid,
                                                                   source_image=e.path)
                        continue
                    except ValueError as err:
                        unreadable.append((path, err))
                width, height = image_size(path)  # its errors name the image
                try:
                    misses[path] = len(dense_grid(width, height, self.grid))
                except ValueError as err:
                    raise ValueError(f"{path}: {err}") from None
        if unreadable:  # one line, not one per file
            logger.warning("re-extracting %d images with an unreadable cache file, first %s (%s)",
                           len(unreadable), *unreadable[0])
        for m_paths, at_least in zip(paths, need, strict=True):
            check_pool_size(sum(misses[p] if p in misses else len(self._memory[p])
                                for p in m_paths), at_least)
        for m, m_paths in zip(manifests, paths):
            in_memory = sum(p in held for p in m_paths)
            todo = {p: e for e, p in zip(m.entries, m_paths) if p in misses and p not in held}
            started = time.perf_counter()
            _on_image_threads(lambda e: self._extract(m, e), [*todo.values()])
            logger.info("pool %s: %d from memory, %d from cache, %d extracted (%d points) "
                        "in %.3f s", m.name, in_memory, len(m) - in_memory - len(todo),
                        len(todo), sum(map(misses.get, todo)), time.perf_counter() - started)
            held.update(m_paths)
        return [[self.get(m, e) for e in m.entries] for m in manifests]

    def _extract(self, manifest: DatasetManifest, entry: ManifestEntry) -> DescriptorSet:
        path = manifest.resolve(entry)
        image = load_image(path)
        logger.debug("extracting %s (%dx%d)", path, image.width, image.height)
        ds = extract_dense_sift(image, self.grid, source=entry.path)
        if self.cache_dir is not None:
            # made here, so that a run failing its input checks leaves none
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            save_descriptor_cache(cache_path(self.cache_dir, path, self.grid), ds)
        self._memory[path] = ds
        return ds


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
    """Mean with a two-sided 95% Student-t confidence interval.

    Returns (mean, low, high) = mean -/+ t_{0.975, n-1} * s / sqrt(n), s the
    sample standard deviation, or (v, v, v) if all n >= 1 values are v. t
    comes from an embedded table (df 1..30), Cornish-Fisher beyond. ``alpha``
    must be 0.05, the protocol's level; any other raises ValueError.
    """
    if len(values) < 1:
        raise ValueError("need at least 1 value for a confidence interval")
    if alpha != 0.05:
        raise ValueError(f"alpha must be 0.05 (95% intervals), got {alpha!r}")
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    if np.all(arr == arr[0]):
        v = float(arr[0])
        return v, v, v
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    df = n - 1
    t = _T_TABLE[df - 1] if df <= 30 else _t_beyond_table(df)
    half = t * s / np.sqrt(n)
    return mean, mean - half, mean + half


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_image_threads(fn, jobs: Sequence) -> None:
    """Call ``fn`` on every job on the calling thread and its helper threads,
    each taking the next job from one shared iterator, so that each job runs
    once. There is one helper per further core, up to one per further job, and
    the first call that starts one pins BLAS to one thread for the rest of the
    process (``classifier._pin_blas``). There is none, and nothing is pinned,
    on one core, for one job or none, or when BLAS cannot be pinned (unpinned
    image threads were slower than one thread). The first failed job's
    exception in job order is raised (an interrupt or exit before any other);
    after a failure, or an interrupt of the calling thread (also while it joins
    the helpers), no thread starts another job, and the running ones end
    before it raises."""
    helper_count = min(_cores(), len(jobs)) - 1
    if helper_count > 0 and not classifier._pin_blas():
        helper_count = 0

    lock = threading.Lock()
    pending = enumerate(jobs)
    failures: list[tuple[int, BaseException]] = []  # (job index, exception); one stops all

    def take() -> tuple[int, object] | None:
        with lock:
            return None if failures else next(pending, None)

    def run(index: int, job) -> None:
        try:
            fn(job)
        except BaseException as err:  # re-raised by the calling thread
            with lock:
                failures.append((index, err))

    def work() -> None:
        while (taken := take()) is not None:
            run(*taken)

    helpers: list[threading.Thread] = []
    try:
        first = take()  # taken before any helper starts, so the calling thread runs a job
        for _ in range(helper_count):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        if first:
            run(*first)
        work()
        for helper in helpers:
            helper.join()
    except BaseException as err:  # an interrupt, also in a join, or a thread that cannot start
        with lock:
            failures.append((len(jobs), err))
        for helper in helpers:  # their running jobs end before the call raises
            helper.join()
        raise
    if failures:  # an interrupt or exit before any error, then the first error in job order
        raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]


def encode_rows(bows: np.ndarray, sets: Sequence[DescriptorSet], cb: Codebook,
                params: EncodingParams) -> np.ndarray:
    """Fill row i of the (len(sets), k) matrix ``bows`` with ``sets[i]``
    encoded with ``cb``, and return it.

    The codebook's ``word_plan`` is built once here, so once per dictionary,
    and every image's ``encode_image`` call shares it. Each call still takes
    the set and the codebook as its first two positional arguments, which
    ``bench/tracing.py`` reads.

    Images are encoded on image threads (``_on_image_threads``), small images
    too: numpy releases the GIL in the GEMM and in the float64 steps after
    it, and every row is the bytes a serial call gives. The first call with
    two images or more on two cores or more pins BLAS to one thread for the
    rest of the process.
    """
    plan = word_plan(cb)

    def fill(job: tuple[np.ndarray, DescriptorSet]) -> None:
        row, ds = job
        row[:] = encode_image(ds, cb, params, plan).h

    _on_image_threads(fill, list(zip(bows, sets, strict=True)))
    return bows


def _experiment(
    experiment: str,
    curves: Sequence[tuple[DatasetManifest, str]],
    target: DatasetManifest,
    n_train_values: Sequence[int],
    spec: SplitSpec,
    params: PipelineParams,
    store: DescriptorStore | None,
) -> list[SummaryRow]:
    """One row per (curve, n_train); a curve is a (dictionary source,
    dict_classes) pair. Extracts only the sources and the target, all before
    the first trial, so an unreadable image fails first. Each run seed's
    dictionary refills one encoding of ``target``, classified at every n_train."""
    # a too-large n_train or k, an n_train whose SVM lambda is 0 or inf, or a source
    # or target image that is a bad PGM file or smaller than one patch fails before
    # extraction: one pools call checks every image (the target's first), then k.
    # A repeated n_train would run its trials twice and write its rows twice.
    if not n_train_values:
        raise ValueError("n_train_values must not be empty")
    if len(set(n_train_values)) != len(n_train_values):
        raise ValueError(f"n_train values must be distinct, got {list(n_train_values)}")
    split_balanced(target, max(n_train_values), 0)
    for n_train in n_train_values:
        svm_lambda(params.c_reg, n_train * len(target.class_labels))
    store = store if store is not None else DescriptorStore(params.grid)
    if store.grid != params.grid:
        raise ValueError(f"store grid {store.grid} differs from params grid {params.grid}")
    targets, *pools = store.pools([target, *(source for source, _ in curves)],
                                  [0] + [params.k] * len(curves))
    bows = np.empty((len(target), params.k), dtype=np.float64)

    rows = []
    for (source, dict_classes), pool in zip(curves, pools):
        per_seed = []
        # ascending seeds fix the summation order of mean and std, hence the CSV bytes
        for seed in sorted(spec.run_seeds):
            cb = build_random_codebook(pool, params.k, seed + DICT_SEED_OFFSET,
                                       source.name, source.class_labels)
            logger.info("dictionary %s from %s (%s classes)",
                        cb.codebook_id, source.name, dict_classes)
            encode_rows(bows, targets, cb, params.encoding)
            per_seed.append([run_trial(cb, target, n, seed, params, bows).accuracy
                             for n in n_train_values])
        for n_train, accs in zip(n_train_values, zip(*per_seed)):
            mean, low, high = confidence_interval(accs)
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
    curves = [(target, "all")] if include_native else []
    return _experiment("crossbase", curves + [(dict_source, "all")], target,
                       n_train_values, spec, params, store)


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
    Only the classes the largest count uses are extracted, plus the target.
    """
    if (not class_counts or class_counts[0] < 1
            or any(a >= b for a, b in zip(class_counts, class_counts[1:]))):
        raise ValueError("class_counts must be non-empty, positive and sorted strictly ascending")
    if class_counts[-1] > len(source.class_labels):
        raise ValueError(
            f"class_counts max {class_counts[-1]} exceeds "
            f"{len(source.class_labels)} classes in {source.name}"
        )
    curves = []
    for count in class_counts:
        sub = select_classes(source, count, min(spec.run_seeds) + CLASS_SEED_OFFSET)
        logger.info("sweep count=%d classes=%s", count, ",".join(sub.class_labels))
        curves.append((sub, str(count)))
    return _experiment("sweep", curves, target, [n_train], spec, params, store)


def check_output_dir(path: str | Path) -> Path:
    """``path`` as a Path; raises ValueError naming it if its directory does
    not exist, so that a bad output path fails before any extraction."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ValueError(f"{path}: directory {path.parent} does not exist")
    return path


def check_summary_csv(path: str | Path) -> bool:
    """Whether a results CSV still needs its header (it does not exist or
    is empty). Raises ValueError if its directory does not exist, or a
    non-empty file does not start with the header or does not end with a
    newline (a run killed mid-append left its last row incomplete)."""
    path = check_output_dir(path)
    if not path.exists() or path.stat().st_size == 0:
        return True
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header != CSV_COLUMNS:
        raise ValueError(f"{path}: header {header} is not {CSV_COLUMNS}")
    if not path.read_bytes().endswith(b"\n"):
        raise ValueError(f"{path}: last row is incomplete (no newline at the end of the file)")
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
