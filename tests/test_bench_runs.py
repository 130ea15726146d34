"""The benchmark's workloads run against this source tree and pass their own
output checks.

``bench/run.py`` drives the public ``bovw`` API in worker processes: it
passes ``PipelineParams(workers=...)`` and a positional ``SplitSpec``, reads
``encode_image(...).h`` and, with ``--trace 1``, wraps the names bound in
``bovw.harness`` and reads their arguments by position or keyword. A change
to any of these fails here, at the benchmark's tiny size (a few seconds per
workload and mode). The runs write only under the ignored ``.bench_work/``.
Every name ``bench/`` imports from ``bovw`` must also resolve, since
``bench/test_bench.py``, which imports most of them, is not collected here.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
