"""The pinned-bytes tests once more, at numpy's AVX2 SIMD dispatch level.

numpy picks its SIMD kernels per process, from what the CPU offers, and its
AVX2 and AVX-512 ``exp`` round some results differently. A pin that holds
under AVX-512 alone would first fail on a machine without it; here it fails
on this one, in a child process whose AVX-512 dispatch is switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import bovw

# the features NPY_DISABLE_CPU_FEATURES names to leave AVX2 the highest level
AVX2_LEVEL = "AVX512_SPR AVX512_ICL X86_V4"

# checks the child's dispatch before it runs pytest on its argv
CHILD = """import sys, pytest
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["AVX512_SKX"], "AVX-512 is still dispatched"
sys.exit(pytest.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not __cpu_features__.get("AVX512_SKX"),
                    reason="the default dispatch is already at most AVX2")
def test_pins_hold_at_the_avx2_dispatch_level(tmp_path):
    tests = Path(__file__).resolve().parent
    src = str(Path(bovw.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX2_LEVEL,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", "-k", "pinned",
         "--basetemp", str(tmp_path / "basetemp"), str(tests)],
        cwd=tests.parent, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout and " failed" not in done.stdout
