"""The benchmark's workloads run against this source tree and pass their own
output checks.

``bench/run.py`` drives the public ``bovw`` API in worker processes: it
passes ``PipelineParams(workers=...)`` and a positional ``SplitSpec``, reads
``encode_image(...).h`` and, with ``--trace 1``, wraps the names bound in
``bovw.harness`` and reads their arguments by position or keyword. A change
to any of these fails here, at the benchmark's tiny size (a few seconds per
workload and mode). The runs write only under the ignored ``.bench_work/``.
Every name ``bench/`` imports from ``bovw`` must also resolve, and the calls
that only ``bench/test_bench.py`` makes must still work, since it is not
collected here.
"""

import ast
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bovw.codebook import build_random_codebook
from bovw.encoding import EncodingParams, encode_image
from bovw.features import GridParams, extract_dense_sift
from bovw.harness import PipelineParams, SummaryRow, confidence_interval
from bovw.synth import render_texture, textures8_specs

ROOT = Path(__file__).resolve().parent.parent


WORKLOADS = ["extract-cold", "crossbase-warm", "sweep-hardavg"]


@pytest.mark.parametrize("workload, trace", [
    *(pytest.param(w, "0", id=w) for w in WORKLOADS),
    *(pytest.param(w, "1", id=f"{w}-trace") for w in WORKLOADS),
])
def test_workload_runs_correctly_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", trace, "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1


def test_every_name_bench_imports_from_bovw_resolves():
    imported = [(path.name, f"from {node.module} import {alias.name}")
                for path in sorted((ROOT / "bench").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "bovw"
                for alias in node.names]
    assert {name for name, _ in imported} == {"run.py", "test_bench.py", "worker.py"}

    def fails(statement: str) -> bool:
        try:
            exec(statement, {})
        except ImportError:
            return True
        return False

    assert [(name, statement) for name, statement in imported if fails(statement)] == []


def test_calls_only_bench_test_bench_makes_still_work():
    # as bench/test_bench.py makes them; bench/worker.py reads params.alpha
    accs = [0.9, 1.0, 0.95, 1.0, 0.85]
    mean, low, high = confidence_interval(accs, 0.05)
    assert (mean, low, high) == confidence_interval(accs) and low < mean < high
    row = SummaryRow("sweep", "textures8", "8", "textures8", 32, 1000, 60.0, "hard",
                     "average", 5, 0.975, 0.95, 1.0)
    assert len(fields(SummaryRow)) == 13 and (row.mean_acc, row.ci_high) == (0.975, 1.0)
    image = render_texture(textures8_specs()[2], 48, np.random.default_rng(4))
    descriptors = extract_dense_sift(image, GridParams(), source="img")
    assert descriptors.source_image == "img"
    cb = build_random_codebook([descriptors], 16, 1)
    for params in (EncodingParams(), EncodingParams(assignment="hard", pooling="average")):
        assert encode_image(descriptors, cb, params).h.shape == (16,)
    assert PipelineParams().alpha == 0.05
