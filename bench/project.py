#!/usr/bin/env python3
"""Project traced per-layer rates onto the full-scale recipe in README.md.

Usage: python3 bench/project.py [TRACE_DIR]   (default .bench_work/trace)

Reads the per-layer metrics that ``bench/run.py --trace 1`` stores for each
workload and prints projected hours per layer for the three full-scale
commands in README.md: crossbase Caltech-101 -> 15-Scenes (--ntrain
10..50), crossbase 15-Scenes -> Caltech-101 (--ntrain 5..30) and the
Caltech-101 sweep (class counts 1, 6, 12, 25, 50, 101; --ntrain 30), at
k=1000, 5 runs, 50 epochs, ~1,750 points per image.

The rates: extraction µs per point (extract-cold), soft/max encoding ns
per point·word and cache-load µs per point (crossbase-warm), and SVM µs per
update (sweep-hardavg, 8 classes). An update touches all C class weight
vectors, so its cost is scaled linearly by C/8: an approximation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCENES, CALTECH = 4_500, 9_100  # images
POINTS = 1_750  # grid points per image (1.5-2k)
K, RUNS, EPOCHS = 1000, 5, 50
SCENES_CLASSES, CALTECH_CLASSES = 15, 101

# (target images, target classes, n_train list, dictionaries per n_train, pooled images)
COMMANDS = {
    "crossbase caltech101->scenes15": (SCENES, SCENES_CLASSES, [10, 20, 30, 40, 50], 2,
                                       SCENES + CALTECH),
    "crossbase scenes15->caltech101": (CALTECH, CALTECH_CLASSES, [5, 10, 15, 20, 25, 30], 2,
                                       SCENES + CALTECH),
    "sweep caltech101": (CALTECH, CALTECH_CLASSES, [30], 6, CALTECH),
}


def latest(trace_dir: Path, workload: str) -> dict:
    files = sorted(trace_dir.glob(f"{workload}-seed*.json"), key=lambda p: p.stat().st_mtime)
    if not files:
        sys.exit(f"no traced run of {workload} in {trace_dir}; run bench/run.py --trace 1 first")
    return {k: m["value"] for k, m in json.loads(files[-1].read_text())["metrics"].items()}


def project(extract: dict, crossbase: dict, sweep: dict) -> dict[str, dict[str, float]]:
    """Projected seconds per layer for each full-scale command."""
    us_point = extract["features.extract_us_per_point"]
    ns_point_word = crossbase["encoding.encode_ns_per_point_word"]
    load_us_point = crossbase["features.cache_load_us_per_point"]
    us_update_per_class = sweep["classifier.train_us_per_update"] / 8
    out = {"extraction, once": {"features": (SCENES + CALTECH) * POINTS * us_point * 1e-6}}
    for name, (images, classes, ntrains, dicts, pooled) in COMMANDS.items():
        trials = dicts * RUNS * len(ntrains)
        updates = dicts * RUNS * sum(n * classes for n in ntrains) * EPOCHS
        out[name] = {
            "features (cache load)": pooled * POINTS * load_us_point * 1e-6,
            "encoding": trials * images * POINTS * K * ns_point_word * 1e-9,
            "encoding, once per dictionary": dicts * RUNS * images * POINTS * K * ns_point_word * 1e-9,
            "classifier": updates * us_update_per_class * classes * 1e-6,
        }
    return out


def main() -> None:
    trace_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".bench_work/trace")
    rows = project(latest(trace_dir, "extract-cold"), latest(trace_dir, "crossbase-warm"),
                   latest(trace_dir, "sweep-hardavg"))
    total = 0.0
    for command, layers in rows.items():
        print(command)
        for layer, seconds in layers.items():
            print(f"  {layer:<32} {seconds / 3600:8.2f} h")
            if "once per" not in layer:
                total += seconds
    print(f"total (as the code runs today)   {total / 3600:8.2f} h")


if __name__ == "__main__":
    main()
