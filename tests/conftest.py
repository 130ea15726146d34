import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import bovw
import bovw.classifier
from bovw.corpus import DatasetManifest, Image, load_manifest
from bovw.features import DescriptorSet, extract_dense_sift
from bovw.harness import DescriptorStore, GridParams
from bovw.synth import TextureSpec, generate_corpus


def run_python(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python ARGV`` in a child process that imports the same package as
    the tests, installed or not, with ``env`` added to its environment."""
    src = str(Path(bovw.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path, **env})


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m bovw ARGV`` in a child process, as ``run_python``."""
    return run_python("-m", "bovw", *argv)


# a (n + 3) x 4 image holds n patches of 4 pixels at stride 1, in one row
ROW_GRID = GridParams(stride=1, patch_size=4)


def grid_set(descriptors: np.ndarray, source: str = "im") -> DescriptorSet:
    """The set of an image whose dense grid holds one point per row of
    ``descriptors``."""
    return DescriptorSet(descriptors, len(descriptors) + 3, 4, ROW_GRID, source)


def random_descriptor_set(n: int, seed: int, source: str = "") -> DescriptorSet:
    rng = np.random.default_rng(seed)
    rng.integers(8, 64, (n, 2))  # once drawn for keypoints; kept so the bytes stay pinned
    return grid_set(rng.integers(0, 256, (n, 128)).astype(np.uint8),
                    source or f"synthetic-{seed}")


def peak_mib(call) -> float:
    """The peak of the memory allocated during ``call()``, in MiB, as
    ``tracemalloc`` traces it; numpy reports its array buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def describe_patch(pixels: np.ndarray, params: GridParams = GridParams()) -> np.ndarray:
    """The one descriptor of an S x S image: its single patch, centered at
    (S/2, S/2)."""
    ds = extract_dense_sift(Image(pixels=pixels), params)
    assert ds.keypoints.tolist() == [[params.patch_size // 2] * 2]
    return ds.descriptors[0]


MICRO_SPECS = (
    TextureSpec("stripes_h", "grating", 0.11, 0.0),
    TextureSpec("stripes_d", "grating", 0.11, 60.0),
    TextureSpec("blocks", "checker", 0.08, 0.0),
)


@pytest.fixture
def fake_pin(monkeypatch) -> list[None]:
    """``bovw.classifier._pin_blas`` faked: it pins nothing and returns True, so
    that jobs run on image threads on any machine, and each call appends to
    the list returned."""
    calls: list[None] = []
    monkeypatch.setattr(bovw.classifier, "_pin_blas", lambda: calls.append(None) or True)
    return calls


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory) -> DatasetManifest:
    """Tiny 3-class texture corpus for harness-level tests."""
    root = tmp_path_factory.mktemp("micro_corpus")
    manifest_path = generate_corpus(root, MICRO_SPECS, images_per_class=8, size=48,
                                    seed=5, name="micro")
    return load_manifest(manifest_path)


@pytest.fixture(scope="session")
def micro_store(micro_corpus) -> DescriptorStore:
    store = DescriptorStore(GridParams())
    store.pool(micro_corpus)
    return store
