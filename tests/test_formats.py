"""Every binary reader fails on a cut file with the documented ValueError."""

import numpy as np
import pytest

from bovw.classifier import LinearModel, load_model, save_model
from bovw.codebook import Codebook, load_codebook, save_codebook
from bovw.encoding import BowVector, load_bows, save_bows
from bovw.features import GridParams, load_descriptor_cache, save_descriptor_cache

from conftest import random_descriptor_set


def save_cache(path):
    save_descriptor_cache(path, random_descriptor_set(2, 0), GridParams())


def save_codebook_file(path):
    words = np.arange(256, dtype=np.uint8).reshape(2, 128)
    save_codebook(Codebook(words, "src", ("cat", "dög"), seed=-3), path)


def save_bows_file(path):
    save_bows([BowVector(np.full(3, 0.5), f"im{i}", "cb-ü") for i in range(2)], path)


def save_model_file(path):
    save_model(LinearModel(np.ones((2, 3)), np.zeros(2), ["a", "bé"]), path)


FORMATS = {
    "cache": (save_cache, lambda path: load_descriptor_cache(path, GridParams())),
    "codebook": (save_codebook_file, load_codebook),
    "bows": (save_bows_file, load_bows),
    "model": (save_model_file, load_model),
}


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
