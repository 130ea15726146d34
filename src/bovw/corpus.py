"""Image loading and dataset manifests.

A corpus is described by a plain-text manifest (one ``path<TAB>label`` line
per image) pointing at 8-bit binary PGM files. Class labels are always
enumerated in sorted order so class indices are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

PGM_MAXVAL = 255


@dataclass(frozen=True)
class Image:
    """8-bit grayscale raster stored as a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = self.pixels
        if px.ndim != 2 or px.dtype != np.uint8:
            raise ValueError("image pixels must be a 2-D uint8 array")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must have at least one pixel")

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])


class ManifestEntry(NamedTuple):
    path: str
    label: str


@dataclass(frozen=True)
class DatasetManifest:
    """Labeled image collection with a stable class ordering.

    Entry order is preserved as listed; ``class_labels`` is always the
    sorted set of labels, so the index of a class never depends on entry
    order or on which subset of classes is present.
    """

    name: str
    entries: tuple[ManifestEntry, ...]
    base_dir: Path | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"manifest '{self.name}' has no entries")
        seen: set[str] = set()
        for entry in self.entries:
            if entry.path in seen:
                raise ValueError(f"duplicate image path in manifest: {entry.path}")
            seen.add(entry.path)

    @property
    def class_labels(self) -> list[str]:
        return sorted({e.label for e in self.entries})

    def resolve(self, entry: ManifestEntry) -> Path:
        """Resolve an entry's image path relative to the manifest location."""
        p = Path(entry.path)
        if p.is_absolute() or self.base_dir is None:
            return p
        return self.base_dir / p

    def __len__(self) -> int:
        return len(self.entries)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a ``path<TAB>label`` manifest file, named by its file stem.

    ``#`` comment lines and blank lines are ignored. Raises ValueError naming
    the file, with the offending line number on malformed input.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: manifest is not UTF-8 text ({err})") from None
    entries: list[ManifestEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: malformed manifest line: {raw!r}")
        entries.append(ManifestEntry(parts[0], parts[1]))
    if not entries:
        raise ValueError(f"manifest is empty: {path}")
    try:  # the manifest rejects a repeated path; its error names the file too
        return DatasetManifest(name=path.stem, entries=tuple(entries), base_dir=path.parent)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    lines = [f"{e.path}\t{e.label}" for e in manifest.entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_image(path: str | Path) -> Image:
    """Read a binary (P5) PGM file with maxval 255."""
    path = Path(path)
    data = path.read_bytes()
    width, height, offset = _pgm_header(data, path)
    pixels = np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(height, width)
    return Image(pixels=pixels.copy())


def image_size(path: str | Path) -> tuple[int, int]:
    """(width, height) of a binary PGM file, after the checks ``load_image``
    makes: the ValueError for a bad header or payload length is the same."""
    path = Path(path)
    width, height, _ = _pgm_header(path.read_bytes(), path)
    return width, height


def _pgm_header(data: bytes, path: Path) -> tuple[int, int, int]:
    """(width, height, payload offset) of a P5 file's bytes, whose payload
    must be exactly width x height bytes."""
    magic, pos = _next_token(data, 0, path)
    if magic != b"P5":
        raise ValueError(f"{path}: unsupported format (expected P5, got {magic!r})")
    width, pos = _int_token(data, pos, path)
    height, pos = _int_token(data, pos, path)
    maxval, pos = _int_token(data, pos, path)
    if maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: unsupported maxval {maxval} (must be {PGM_MAXVAL})")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    # exactly one whitespace byte separates the header from the payload
    offset, expected = pos + 1, width * height
    payload = max(len(data) - offset, 0)
    if payload < expected:
        raise ValueError(f"{path}: truncated payload ({payload} bytes, expected {expected})")
    if payload > expected:
        raise ValueError(f"{path}: trailing bytes after {expected}-byte payload")
    return width, height, offset


def save_image(image: Image, path: str | Path) -> None:
    header = f"P5\n{image.width} {image.height}\n{PGM_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def _next_token(data: bytes, pos: int, path: Path) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines (standard PGM headers allow them)
    n = len(data)
    while pos < n:
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
        else:
            break
    if pos >= n:
        raise ValueError(f"{path}: truncated header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, path: Path) -> tuple[int, int]:
    token, pos = _next_token(data, pos, path)
    if not token.isdigit():
        raise ValueError(f"{path}: malformed header token {token!r}")
    return int(token), pos


def select_classes(
    manifest: DatasetManifest, class_count: int, seed: int
) -> DatasetManifest:
    """Restrict a manifest to a seeded random subset of its classes.

    The subset is the first ``class_count`` labels of a seeded shuffle of the
    sorted label list, so for a fixed seed the selected sets are nested:
    the classes chosen for count a are contained in those for count b >= a.
    """
    labels = manifest.class_labels
    if not 1 <= class_count <= len(labels):
        raise ValueError(
            f"class_count {class_count} out of range [1, {len(labels)}]"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(labels))
    chosen = {labels[i] for i in perm[:class_count]}
    entries = tuple(e for e in manifest.entries if e.label in chosen)
    return replace(manifest, entries=entries)
