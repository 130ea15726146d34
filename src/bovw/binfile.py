"""The binary container behind every on-disk format.

A file is a 4-byte magic, a u32 format version, the format's little-endian
header fields and u32-length-prefixed UTF-8 strings, then one array that
runs exactly to the end of the file. ``write`` replaces a file atomically;
``Reader`` rejects a foreign, unsupported or damaged file with ValueError.
"""

from __future__ import annotations

import os
import struct
import uuid
from pathlib import Path

import numpy as np


def pack_str(s: str) -> bytes:
    """A u32 byte length followed by the UTF-8 bytes."""
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write(path: str | Path, magic: bytes, version: int, *parts) -> None:
    """Write magic, u32 version and ``parts`` (bytes or C-contiguous arrays)
    to a uniquely named file beside ``path``, then rename it over ``path``:
    readers see the old file or the whole new one (not mkstemp, whose 0600
    mode would ignore the umask)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines((magic, struct.pack("<I", version), *parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Reader:
    """Reads one container file front to back, after checking its magic and
    version. ``kind`` names the format in error messages."""

    def __init__(self, path: str | Path, magic: bytes, version: int, kind: str):
        self.path = path
        self.kind = kind
        self._data = Path(path).read_bytes()
        if self._data[: len(magic)] != magic:
            raise ValueError(f"{path}: not a {kind} file")
        self._pos = len(magic)
        (found,) = self.fields("<I")
        if found != version:
            raise ValueError(f"{path}: unsupported {kind} version {found}")

    def fields(self, fmt: str) -> tuple:
        """The next header fields, unpacked with the struct format ``fmt``."""
        try:
            values = struct.unpack_from(fmt, self._data, self._pos)
        except struct.error as exc:
            raise ValueError(f"{self.path}: truncated {self.kind} header") from exc
        self._pos += struct.calcsize(fmt)
        return values

    def string(self) -> str:
        """The next u32-length-prefixed UTF-8 string."""
        (n,) = self.fields("<I")
        (raw,) = self.fields(f"<{n}s")
        return self.make(raw.decode, "utf-8")

    def make(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)``, whose ValueError names the file: the
        checks of what the file holds (a string's UTF-8, a dataclass's fields)."""
        try:
            return factory(*args, **kwargs)
        except ValueError as err:
            raise ValueError(f"{self.path}: {err}") from None

    def array(self, dtype, count: int) -> np.ndarray:
        """The rest of the file as ``count`` items of ``dtype``: a read-only
        view, which must end at the file's last byte (a shorter file is
        truncated, a longer one has trailing bytes)."""
        dtype = np.dtype(dtype)
        expected = self._pos + count * dtype.itemsize
        if len(self._data) < expected:
            raise ValueError(
                f"{self.path}: truncated {self.kind} "
                f"({len(self._data)} bytes, expected {expected})"
            )
        if len(self._data) > expected:
            raise ValueError(f"{self.path}: {len(self._data) - expected} trailing bytes "
                             f"after the {expected}-byte {self.kind}")
        return np.frombuffer(self._data, dtype=dtype, count=count, offset=self._pos)
