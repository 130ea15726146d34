#!/usr/bin/env python3
"""One measured process of a benchmark run.

Usage: python3 bench/worker.py SPEC.json OUT.json

The process imports bovw, reads the manifests and creates the descriptor
store (filling it from the on-disk cache on the warm workloads), records
the moment it is ready, and then either stops (``"mode": "setup"``) or does
one round of the workload's work through the public API. Outputs are
checked after the timed region and after the peak RSS is read. The result
goes to OUT.json; ``bench/run.py`` starts these processes and turns the
results into metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    Path(sys.argv[2]).write_text(json.dumps(run(spec)), encoding="utf-8")


def run(spec: dict) -> dict:
    import bovw  # noqa: F401  (set-up covers the package import)
    from bovw import harness
    from bovw.corpus import load_manifest
    from bovw.encoding import EncodingParams
    from bovw.features import GridParams

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(harness)
    trials = capture_trials(harness)

    grid = GridParams(*spec["grid"])
    manifests = [load_manifest(p) for p in spec["manifests"]]
    store = harness.DescriptorStore(grid, cache_dir=spec["cache_dir"])
    if spec["workload"] != "extract-cold":
        for m in manifests:
            store.pool(m)
    ready = time.monotonic()
    result = {"ready": ready, "attempted": spec["expected_ops"], "failed": 0, "problems": []}
    if spec["mode"] == "setup":
        return result

    params = harness.PipelineParams(
        grid=grid,
        encoding=EncodingParams(**spec.get("encoding", {})),
        k=spec.get("k", 1000),
        workers=spec.get("workers", 1),
    )
    work = {
        "extract-cold": lambda: [store.pool(m) for m in manifests],
        "crossbase-warm": lambda: crossbase(harness, manifests, spec, params, store),
        "sweep-hardavg": lambda: sweep(harness, manifests, spec, params, store),
    }[spec["workload"]]
    if tracer is not None:
        work = tracer.span("workload", "bench", work)
    start = time.perf_counter()
    try:
        output = work()
    except Exception:
        result.update(failed=spec["expected_ops"], problems=[traceback.format_exc(limit=3)])
        return result
    result["work_s"] = time.perf_counter() - start
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        root = next(i for i, s in enumerate(tracer.spans) if s[0] == "workload")
        result["layers"] = tracer.layer_metrics(root)
        tracer.write_spans(spec["spans_path"])

    failed, problems = check(spec, manifests, store, params, trials, output)
    result.update(failed=len(failed), problems=problems[:20])
    return result


def capture_trials(harness) -> list[dict]:
    """Record every run_trial call (dictionary, n_train, seed, accuracy)."""
    trials: list[dict] = []
    inner = harness.run_trial

    def run_trial(dictionary, target, n_train, run_seed, params, store):
        res = inner(dictionary, target, n_train, run_seed, params, store)
        trials.append({"dictionary": dictionary, "target": target, "n_train": n_train,
                       "seed": run_seed, "accuracy": res.accuracy})
        return res

    harness.run_trial = run_trial
    return trials


def crossbase(harness, manifests, spec, params, store):
    source, target = manifests
    split = harness.SplitSpec(min(spec["ntrain"]), tuple(spec["run_seeds"]))
    rows = harness.cross_base_experiment(source, target, spec["ntrain"], split, params, store=store)
    harness.write_summary_csv(rows, spec["csv"])
    return rows


def sweep(harness, manifests, spec, params, store):
    (source,) = manifests
    split = harness.SplitSpec(spec["ntrain"][0], tuple(spec["run_seeds"]))
    rows = harness.diversity_sweep(source, spec["class_counts"], source, spec["ntrain"][0],
                                   split, params, store=store)
    harness.write_summary_csv(rows, spec["csv"])
    return rows


def check(spec, manifests, store, params, trials, output) -> tuple[set, list[str]]:
    """Failed operation indices and the problems found."""
    if spec["workload"] == "extract-cold":
        return check_extraction(spec, manifests, store)
    return check_experiment(spec, manifests, store, params, trials, output)


def check_extraction(spec, manifests, store) -> tuple[set, list[str]]:
    import numpy as np

    import checks
    from bovw.corpus import load_image
    from bovw.features import cache_path, load_descriptor_cache

    grid = store.grid
    failed, problems = set(), []
    op = 0
    for m in manifests:
        for e in m.entries:
            try:
                ds = store.get(m, e)
                path = m.resolve(e)
                image = load_image(path)
                cached = load_descriptor_cache(cache_path(spec["cache_dir"], path, grid), grid)
                rng = np.random.default_rng([spec["check_seed"], op])
                sample = sorted(rng.choice(len(ds), size=min(spec["sift_samples"], len(ds)),
                                           replace=False).tolist())
                found = (checks.grid_problems(image.width, image.height, ds.keypoints,
                                              grid.stride, grid.patch_size)
                         + checks.sift_problems(image.pixels, ds.keypoints, ds.descriptors,
                                                sample, grid.patch_size)
                         + checks.cache_problems(cached.keypoints, cached.descriptors,
                                                 ds.keypoints, ds.descriptors))
            except Exception:
                found = [traceback.format_exc(limit=2)]
            if found:
                failed.add(op)
                problems += [f"{e.path}: {p}" for p in found]
            op += 1
    return failed, problems


def check_experiment(spec, manifests, store, params, trials, rows) -> tuple[set, list[str]]:
    import numpy as np

    import checks
    from bovw.encoding import encode_image

    failed, problems = set(), []

    def fail(indices, message):
        failed.update(indices)
        problems.append(message)

    everything = range(spec["expected_ops"])
    if len(trials) != spec["expected_ops"]:
        fail(everything, f"{len(trials)} trials ran, expected {spec['expected_ops']}")
        return failed, problems
    target = manifests[-1]
    n_classes = len(target.class_labels)
    for i, t in enumerate(trials):
        n_test = len(target.entries) - t["n_train"] * n_classes
        for p in checks.accuracy_problems(t["accuracy"], n_test):
            fail([i], p)

    sweep = spec["workload"] == "sweep-hardavg"

    def trial_key(t):
        cb = t["dictionary"]
        return (str(len(cb.source_classes)) if sweep else cb.source_name, t["n_train"])

    by_row: dict[tuple, list[int]] = {}
    for i, t in enumerate(trials):
        by_row.setdefault(trial_key(t), []).append(i)
    row_keys = [(r.dict_classes if sweep else r.dict_source, r.n_train) for r in rows]
    if sorted(row_keys) != sorted(by_row):
        fail(everything, f"summary rows {row_keys} do not match the trials run {sorted(by_row)}")
        return failed, problems
    for r, key in zip(rows, row_keys):
        idx = sorted(by_row[key], key=lambda i: trials[i]["seed"])
        for p in checks.row_problems(r.mean_acc, r.ci_low, r.ci_high,
                                     [trials[i]["accuracy"] for i in idx], params.alpha):
            fail(idx, f"row {key}: {p}")

    rng = np.random.default_rng(spec["check_seed"])
    dictionaries = list({id(t["dictionary"]): t["dictionary"] for t in trials}.values())
    for r, key in zip(rows, row_keys):
        if not r.mean_acc > 1.0 / n_classes:
            fail(by_row[key], f"row {key}: accuracy {r.mean_acc!r} is not above chance")
    if sweep:
        classes = [frozenset(cb.source_classes) for cb in dictionaries]
        for p in checks.nested_problems(classes, spec["class_counts"]):
            fail(everything, p)
        sampled = dictionaries
    else:
        # one native and one cross dictionary
        by_source = {}
        for cb in dictionaries:
            by_source.setdefault(cb.source_name, []).append(cb)
        sampled = [group[int(rng.integers(len(group)))] for _, group in sorted(by_source.items())]

    for cb in sampled:
        entry = target.entries[int(rng.integers(len(target.entries)))]
        ds = store.get(target, entry)
        h = encode_image(ds, cb, params.encoding).h
        if sweep:
            found = checks.hard_average_problems(h, len(ds))
        else:
            found = checks.encoding_problems(h, ds.descriptors, cb.words, params.encoding.sigma)
        for p in found:
            fail([i for i, t in enumerate(trials) if t["dictionary"] is cb], f"{entry.path}: {p}")
    return failed, problems


if __name__ == "__main__":
    main()
