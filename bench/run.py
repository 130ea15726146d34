#!/usr/bin/env python3
"""Benchmark for the bovw pipeline: three workloads, end-to-end or traced.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):
    extract-cold    fill a DescriptorStore over two corpora into an empty cache
    crossbase-warm  cross_base_experiment at the paper's defaults, warm cache
    sweep-hardavg   diversity_sweep, hard assignment + average pooling, warm cache

The inputs are synthetic texture corpora generated from --seed. Every
measured process is a fresh ``bench/worker.py``: set-up (import, manifests,
store, cache fill) is timed from its start, the work of one round after it.
Rounds repeat until --seconds have passed; the set-up is also repeated in
set-up-only processes. With --trace 0 the last stdout line reports the
end-to-end metrics (medians over the run), with --trace 1 the per-layer
metrics of a traced run (medians over its rounds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # every run ends within the 180 s a run may take

# corpora: preset -> (images per class, square image size in pixels)
SCALES = {
    "full": {
        "extract-cold": {"corpora": {"textures8": (1, 256), "textures3": (1, 256)},
                         "sift_samples": 3},
        "crossbase-warm": {"corpora": {"textures8": (1, 256), "textures3": (4, 256)},
                           "ntrain": [2, 3], "k": 1000, "runs": 5},
        "sweep-hardavg": {"corpora": {"textures8": (20, 64)},
                          "ntrain": [17], "class_counts": [1, 2, 4, 8], "k": 1000, "runs": 5},
        "setups": 5,
    },
    # seconds-long sizes for bench/test_bench.py
    "tiny": {
        "extract-cold": {"corpora": {"textures8": (1, 40), "textures3": (1, 40)},
                         "sift_samples": 2},
        "crossbase-warm": {"corpora": {"textures8": (1, 96), "textures3": (5, 64)},
                           "ntrain": [2, 3], "k": 100, "runs": 3},
        "sweep-hardavg": {"corpora": {"textures8": (4, 40)},
                          "ntrain": [2], "class_counts": [1, 2, 4, 8], "k": 20, "runs": 3},
        "setups": 1,
    },
}
WORKLOADS = ("extract-cold", "crossbase-warm", "sweep-hardavg")
ENCODINGS = {
    "crossbase-warm": {"sigma": 60.0, "assignment": "soft", "pooling": "max"},
    "sweep-hardavg": {"sigma": 60.0, "assignment": "hard", "pooling": "average"},
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def make_inputs(workload: str, seed: int, scale: str, work: Path) -> list:
    """Generate the workload's corpora; the same seed gives the same bytes."""
    from bovw.synth import generate_preset

    corpora = SCALES[scale][workload]["corpora"].items()
    return [generate_preset(work / "inputs" / preset, preset, images_per_class=per_class,
                            size=size, seed=2 * seed + index)
            for index, (preset, (per_class, size)) in enumerate(corpora)]


def base_spec(workload: str, seed: int, scale: str, work: Path, manifests: list,
              trace: bool, workers: int) -> dict:
    cfg = SCALES[scale][workload]
    paths = [str(m.base_dir / f"{m.name}.manifest") for m in manifests]
    spec = {"workload": workload, "manifests": paths, "grid": [6, 16],
            "trace": trace, "check_seed": seed, "cache_dir": str(work / "cache")}
    if workload == "extract-cold":
        spec["sift_samples"] = cfg["sift_samples"]
        spec["expected_ops"] = sum(len(m.entries) for m in manifests)
        return spec
    spec.update(encoding=ENCODINGS[workload], k=cfg["k"], ntrain=cfg["ntrain"],
                run_seeds=[10 * seed + i for i in range(cfg["runs"])], workers=workers)
    if workload == "crossbase-warm":
        spec["expected_ops"] = 2 * cfg["runs"] * len(cfg["ntrain"])
    else:
        spec["class_counts"] = cfg["class_counts"]
        spec["expected_ops"] = len(cfg["class_counts"]) * cfg["runs"]
    return spec


def spawn(spec: dict, work: Path, name: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process; returns (spawn time, its result)."""
    spec_path, out_path = work / f"{name}.spec.json", work / f"{name}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(out_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0 or not out_path.is_file():
        raise RuntimeError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, json.loads(out_path.read_text(encoding="utf-8"))


def source_digest() -> str:
    """Digest of the program under test, so stored CSV digests never outlive it."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bovw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def csv_reference(workload: str, seed: int, scale: str, digest: str) -> str:
    """The digest of the first summary CSV this program wrote for the
    workload and seed in this checkout; ``digest`` is stored if none is."""
    store = WORK / "csv-digests" / f"{workload}-{scale}-seed{seed}-{source_digest()}.sha256"
    if not store.is_file():
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_name(f"{store.name}.{time.monotonic_ns()}.tmp")
        tmp.write_text(digest, encoding="utf-8")
        tmp.replace(store)
    return store.read_text(encoding="utf-8")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", workers: int = 1) -> dict:
    """One benchmark run; returns the result object printed last."""
    import checks

    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    work = WORK / f"run-{workload}-{scale}-seed{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifests = make_inputs(workload, seed, scale, work)
        spec = base_spec(workload, seed, scale, work, manifests, trace, workers)
        if workload != "extract-cold":
            # the warm cache is written by the code under test, per run
            spawn(dict(spec, mode="setup", trace=False), work, "warm", deadline)

        setups: list[float] = []
        if not trace:
            for i in range(SCALES[scale]["setups"]):
                started, res = spawn(dict(spec, mode="setup"), work, f"setup{i}", deadline)
                setups.append(res["ready"] - started)

        rounds: list[dict] = []
        t_measure = time.monotonic()
        while not rounds or time.monotonic() - t_measure < seconds:
            i = len(rounds)
            round_spec = dict(spec, mode="round", csv=str(work / f"round{i}.csv"),
                              spans_path=str(work / f"round{i}.spans.jsonl"))
            if workload == "extract-cold":
                round_spec["cache_dir"] = str(work / f"cache-round{i}")
            started, res = spawn(round_spec, work, f"round{i}", deadline)
            res["setup_s"] = res["ready"] - started
            rounds.append(res)
            print(f"round {i}: setup_s {res['setup_s']:.4f} work_s {res.get('work_s', float('nan')):.4f}")
            if workload != "extract-cold" and "work_s" in res:
                csv_bytes = Path(round_spec["csv"]).read_bytes()
                reference = csv_reference(workload, seed, scale, checks.sha256(csv_bytes))
                found = checks.csv_problems(csv_bytes, reference)
                if found:
                    res["failed"] = res["attempted"]
                    res["problems"] += found

        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        problems = [p for r in rounds for p in r["problems"]]
        timed = [r for r in rounds if "work_s" in r]
        wall = statistics.median(r["work_s"] for r in timed) if timed else None
        for p in problems[:10]:
            print(f"problem: {p.strip()}")
        if trace:
            metrics = {}
            if timed:
                from tracing import PER_LAYER_UNITS

                metrics = {name: {"value": statistics.median(r["layers"][name] for r in timed),
                                  "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
                keep = WORK / "trace"
                keep.mkdir(parents=True, exist_ok=True)
                for i in range(len(rounds)):
                    spans = work / f"round{i}.spans.jsonl"
                    if spans.is_file():
                        shutil.copyfile(spans, keep / f"{workload}-seed{seed}-round{i}.spans.jsonl")
                (keep / f"{workload}-seed{seed}.json").write_text(json.dumps(
                    {"wall_s": wall, "rounds": len(rounds), "metrics": metrics}, indent=1))
                print(f"traced wall_s {wall:.4f} s over {len(rounds)} rounds")
        else:
            setups += [r["setup_s"] for r in rounds]
            metrics = {}
            if timed:
                metrics = {
                    "wall_s": wall,
                    "setup_s": statistics.median(setups),
                    "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in timed) / 1024.0,
                }
                metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
                for name, m in metrics.items():
                    print(f"{name} {m['value']:.4f} {m['unit']}")
        print(f"rounds {len(rounds)} attempted {attempted} failed {failed}")
        return {"correct": failed == 0 and bool(timed), "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=1,
                    help="PipelineParams.workers on the experiment workloads")
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bovw").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"no bovw checkout around {BENCH}: src/bovw and tests/oracles.py are needed",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, str(ROOT / "src"))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           scale=args.scale, workers=args.workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
