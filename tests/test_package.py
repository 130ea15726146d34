"""What the package root holds, and how the array-holding records compare."""

from pathlib import Path

import numpy as np
import pytest

import bovw
from bovw.classifier import LinearModel
from bovw.codebook import Codebook
from bovw.corpus import Image
from bovw.encoding import BowVector

from conftest import grid_set, run_python


def test_importing_bovw_loads_no_submodule_and_no_numpy():
    # every name is imported from the module that owns it
    done = run_python("-c", "import sys, bovw; print(bovw.__version__); print("
                            "*sorted(m for m in sys.modules if m.startswith(('bovw.', 'numpy'))))")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{bovw.__version__}\n\n", "")


def test_version_is_kept_in_the_package_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "bovw.__version__"}


WORDS = np.arange(2 * 128, dtype=np.uint8).reshape(2, 128)


@pytest.mark.parametrize("make", [
    lambda: Codebook(WORDS.copy(), "src", ("a", "b"), 0),
    lambda: Image(pixels=WORDS.copy()),
    lambda: grid_set(WORDS.copy()),
    lambda: LinearModel(np.ones((2, 3)), np.zeros(2), ["a", "b"]),
    lambda: BowVector(h=np.ones(3)),
], ids=["Codebook", "Image", "DescriptorSet", "LinearModel", "BowVector"])
def test_array_holding_records_compare_by_identity(make):
    # equal arrays in two records: == and hash must not ask numpy for one truth value
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
