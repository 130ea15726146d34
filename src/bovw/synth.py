"""Synthetic texture corpora for desk-scale experiments.

Classes are parameterized texture families (oriented sinusoidal gratings,
smooth plaids and hard-edged checkerboards) with per-image jitter in phase,
frequency and orientation plus additive seeded noise, written out as PGM
files with a manifest. Two presets are included: a visually diverse 8-class
corpus and a narrower 3-class corpus drawn from the same families at
different parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DatasetManifest, Image, ManifestEntry, load_manifest, save_image, save_manifest


TEXTURE_KINDS = ("grating", "plaid", "checker")

# every class shares these: the signal's amplitude in gray levels, and the
# per-image jitter of its frequency (relative) and orientation (degrees)
AMPLITUDE = 80.0
FREQ_JITTER = 0.08
ORIENT_JITTER_DEG = 3.0


@dataclass(frozen=True)
class TextureSpec:
    """One texture class: a family plus its generating parameters.

    Kinds: ``grating`` is a single oriented sinusoid; ``plaid`` multiplies
    two orthogonal sinusoids (smooth two-orientation structure); ``checker``
    is the hard-edged sign of a plaid.
    """

    name: str
    kind: str
    frequency: float  # cycles per pixel
    orientation_deg: float
    noise_sigma: float = 12.0

    def __post_init__(self) -> None:
        if self.kind not in TEXTURE_KINDS:
            raise ValueError(f"kind must be one of {TEXTURE_KINDS}")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")


def render_texture(spec: TextureSpec, size: int, rng: np.random.Generator) -> Image:
    """One noisy sample of the texture class at the given square size."""
    theta = np.deg2rad(spec.orientation_deg + ORIENT_JITTER_DEG * rng.uniform(-1.0, 1.0))
    freq = spec.frequency * (1.0 + FREQ_JITTER * rng.uniform(-1.0, 1.0))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    u = np.cos(theta) * xs + np.sin(theta) * ys
    if spec.kind == "grating":
        signal = np.sin(2.0 * np.pi * freq * u + phase)
    else:
        v = -np.sin(theta) * xs + np.cos(theta) * ys
        phase_v = rng.uniform(0.0, 2.0 * np.pi)
        signal = np.sin(2.0 * np.pi * freq * u + phase) * np.sin(
            2.0 * np.pi * freq * v + phase_v
        )
        if spec.kind == "checker":
            signal = np.sign(signal)
    gray = 127.5 + AMPLITUDE * signal
    gray += rng.normal(0.0, spec.noise_sigma, size=gray.shape)
    return Image(pixels=np.clip(np.round(gray), 0, 255).astype(np.uint8))


def textures8_specs() -> tuple[TextureSpec, ...]:
    """Eight-class diverse corpus. Includes two within-family pairs that
    differ only in frequency/scale, so fine codewords matter."""
    return (
        TextureSpec("grate000_coarse", "grating", 0.09, 0.0),
        TextureSpec("grate000_fine", "grating", 0.17, 0.0),
        TextureSpec("grate045", "grating", 0.09, 45.0),
        TextureSpec("grate090", "grating", 0.09, 90.0),
        TextureSpec("grate135_fine", "grating", 0.16, 135.0),
        TextureSpec("plaid000_coarse", "plaid", 0.06, 0.0),
        TextureSpec("plaid000_fine", "plaid", 0.11, 0.0),
        TextureSpec("plaid045", "plaid", 0.06, 45.0),
    )


def textures3_specs() -> tuple[TextureSpec, ...]:
    """Three-class corpus: grating families from the 8-class preset
    re-parameterized to orientations and frequencies it does not use,
    60 degrees apart so the classes stay well separated."""
    return (
        TextureSpec("grate000_mid", "grating", 0.13, 0.0),
        TextureSpec("grate060", "grating", 0.10, 60.0),
        TextureSpec("grate120", "grating", 0.08, 120.0),
    )


CORPUS_PRESETS = {
    "textures8": textures8_specs,
    "textures3": textures3_specs,
}


def generate_corpus(
    out_dir: str | Path,
    specs: tuple[TextureSpec, ...],
    images_per_class: int,
    size: int = 64,
    seed: int = 0,
    name: str = "synthetic",
) -> Path:
    """Write a full synthetic corpus (PGM files + manifest); returns the
    manifest path. Each image is seeded by (seed, class index, image index)
    so regeneration is byte-identical."""
    if images_per_class < 1 or size < 1:
        raise ValueError("images_per_class and size must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ci, spec in enumerate(specs):
        class_dir = out_dir / spec.name
        class_dir.mkdir(exist_ok=True)
        for ii in range(images_per_class):
            rng = np.random.default_rng([seed, ci, ii])
            img = render_texture(spec, size, rng)
            rel = f"{spec.name}/img_{ii:04d}.pgm"
            save_image(img, out_dir / rel)
            entries.append(ManifestEntry(rel, spec.name))
    manifest_path = out_dir / f"{name}.manifest"
    save_manifest(DatasetManifest(name, tuple(entries)), manifest_path)
    return manifest_path


def generate_preset(
    out_dir: str | Path,
    preset: str,
    images_per_class: int = 60,
    size: int = 64,
    seed: int = 0,
) -> DatasetManifest:
    if preset not in CORPUS_PRESETS:
        raise ValueError(f"unknown corpus preset {preset!r}; have {sorted(CORPUS_PRESETS)}")
    specs = CORPUS_PRESETS[preset]()
    path = generate_corpus(out_dir, specs, images_per_class, size=size, seed=seed, name=preset)
    return load_manifest(path)
