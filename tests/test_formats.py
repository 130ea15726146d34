"""The four binary formats: pinned bytes, atomic replacement, and the
documented ValueError on a cut or damaged file."""

import hashlib
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bovw import binfile
from bovw.classifier import MODEL_MAGIC, MODEL_VERSION, LinearModel, load_model, save_model
from bovw.codebook import (CODEBOOK_MAGIC, CODEBOOK_VERSION, Codebook, load_codebook,
                           save_codebook)
from bovw.encoding import BOW_MAGIC, BOW_VERSION, load_bows, save_bows
from bovw.features import (CACHE_MAGIC, CACHE_VERSION, DescriptorSet, GridParams,
                           load_descriptor_cache, save_descriptor_cache)

from conftest import random_descriptor_set


def save_cache(path):
    # a 22x16 image holds two 16-pixel patches at stride 6
    ds = random_descriptor_set(2, 0)
    save_descriptor_cache(path, DescriptorSet(ds.descriptors, 22, 16, GridParams(), ""))


def save_codebook_file(path):
    words = np.arange(256, dtype=np.uint8).reshape(2, 128)
    save_codebook(Codebook(words, "src", ("cat", "dög"), seed=-3), path)


def save_bows_file(path):
    save_bows(np.full((2, 3), 0.5), "cb-ü", path)


def save_model_file(path):
    save_model(LinearModel(np.ones((2, 3)), np.zeros(2), ["a", "bé"]), "cb-ü", path)


FORMATS = {
    "cache": (save_cache, lambda path: load_descriptor_cache(path, GridParams())),
    "codebook": (save_codebook_file, load_codebook),
    "bows": (save_bows_file, load_bows),
    "model": (save_model_file, load_model),
}
MAGICS = {"cache": CACHE_MAGIC, "codebook": CODEBOOK_MAGIC, "bows": BOW_MAGIC, "model": MODEL_MAGIC}
VERSIONS = {"cache": CACHE_VERSION, "codebook": CODEBOOK_VERSION, "bows": BOW_VERSION,
            "model": MODEL_VERSION}
# sha256 of each sample file; saved files are what later runs load, so their
# bytes change only with a new format version
SHA256 = {
    "cache": "846eac5bcced800a6992012dd21c30b5d503c6fc8a942166eff86aff94c76988",
    "codebook": "653ddd144efe15c7e2291b88de44b37a3d560bf5ea636e29023570b502b844f8",
    "bows": "664fb2a9893c08b2e48601ffbc172634c4e1f3928e61ac5302dd7c5b4a7ea588",
    "model": "96340c7265753615b36aa9113d6ca6a5876095f7f4c67baa6bf539bfc5bd03ee",
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_bytes_pinned(fmt, tmp_path):
    save, load = FORMATS[fmt]
    path = tmp_path / "x.bin"
    save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA256[fmt]
    load(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_save_replaces_file_and_leaves_no_temp(fmt, tmp_path):
    save, load = FORMATS[fmt]
    path = tmp_path / "x.bin"
    path.write_bytes(b"stale")
    save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA256[fmt]
    load(path)
    # same permissions as any file the process creates (the umask applies)
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_failed_save_keeps_old_file(fmt, tmp_path, monkeypatch):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old")

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="disk full"):
        FORMATS[fmt][0](path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_strict_prefix_raises_value_error(fmt, tmp_path):
    save, load = FORMATS[fmt]
    whole = tmp_path / "whole.bin"
    save(whole)
    load(whole)
    data = whole.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError):
            load(cut)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_length_error_names_the_fault(fmt, tmp_path):
    save, load = FORMATS[fmt]
    path = tmp_path / "x.bin"
    save(path)
    data = path.read_bytes()
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load(path)
    path.write_bytes(data[:-1])
    with pytest.raises(ValueError, match="truncated"):
        load(path)


# files whose container is whole but whose content fails its check
CONTENT_FAULTS = {
    "codebook-of-no-word": (
        lambda path: binfile.write(path, CODEBOOK_MAGIC, CODEBOOK_VERSION,
                                   struct.pack("<2Iq", 0, 128, 0), binfile.pack_str("src"),
                                   struct.pack("<I", 0)),
        load_codebook, "codebook needs at least one word"),
    "model-labels-descending": (
        lambda path: binfile.write(path, MODEL_MAGIC, MODEL_VERSION, struct.pack("<2I", 2, 1),
                                   *map(binfile.pack_str, ["cb", "b", "a"]),
                                   np.zeros(4, dtype="<f8")),
        load_model, "labels must be strictly ascending"),
    "string-not-utf8": (
        lambda path: binfile.write(path, CODEBOOK_MAGIC, CODEBOOK_VERSION,
                                   struct.pack("<2Iq", 1, 128, 0), struct.pack("<I", 1) + b"\xff",
                                   struct.pack("<I", 0), np.zeros(128, dtype=np.uint8)),
        load_codebook, "'utf-8' codec can't decode byte 0xff in position 0"),
}


@pytest.mark.parametrize("fault", sorted(CONTENT_FAULTS))
def test_content_error_names_the_file(fault, tmp_path):
    write, load, message = CONTENT_FAULTS[fault]
    path = tmp_path / "x.bin"
    write(path)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("count, k", [(5, 0), (0, 3), (0, 0)])
def test_empty_bows_file_rejected(count, k, tmp_path):
    # a header save_bows refuses to write, with no rows or no columns after it
    path = tmp_path / "empty.bin"
    binfile.write(path, BOW_MAGIC, BOW_VERSION, struct.pack("<2I", count, k),
                  binfile.pack_str("cb"))
    with pytest.raises(ValueError, match=f"empty bag-of-words batch \\({count} rows, k = {k}\\)"):
        load_bows(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(current_version=st.booleans(), tail=st.binary(max_size=600))
def test_any_bytes_after_magic_load_or_raise_value_error(fmt, fuzz_dir, current_version, tail):
    # half the inputs carry the current version, so the parse goes past it
    path = fuzz_dir / f"{fmt}.bin"
    version = struct.pack("<I", VERSIONS[fmt]) if current_version else b""
    path.write_bytes(MAGICS[fmt] + version + tail)
    try:
        FORMATS[fmt][1](path)
    except ValueError:
        pass
