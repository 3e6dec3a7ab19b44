"""Checked reads and copy-free writes of the binary files (magic, struct header, payload), and UTF-8 text reads."""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np


def _check_claim(fh, n: int, what: str) -> None:
    """On a regular file, check that n bytes are left, so a corrupt header cannot make the reader allocate its size."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and n > (left := st.st_size - fh.tell()):
        raise ValueError(f"truncated {what}: needs {n} bytes, {left} left")


def read_exact(fh, n: int, what: str) -> bytes:
    """Read exactly n bytes, or raise ValueError naming what was cut short."""
    _check_claim(fh, n, what)
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated {what}: needs {n} bytes, got {len(raw)}")
    return raw


def read_header(fh, magic: bytes, fmt: str, what: str) -> tuple:
    """The values of the struct header fmt after magic; raises ValueError on another magic or a short header."""
    got = fh.read(len(magic))
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))


def read_payload(fh, shape: tuple, dtype: str, what: str) -> np.ndarray:
    """The rest of the file as a new writable array of shape and little-endian dtype, read with one readinto.

    Raises ValueError when the file holds fewer bytes than the array, or more.
    """
    n = math.prod(shape) * np.dtype(dtype).itemsize
    _check_claim(fh, n, what)
    arr = np.empty(shape, dtype=dtype)
    got = fh.readinto(memoryview(arr).cast("B"))
    if got != n:
        raise ValueError(f"truncated {what}: needs {n} bytes, got {got}")
    if fh.read(1):
        raise ValueError(f"trailing bytes after {what}")
    return arr.astype(arr.dtype.newbyteorder("="), copy=False)


def write_payload(path, header: bytes, arr, dtype: str) -> None:
    """Write header, then arr as C-contiguous little-endian dtype, straight from its buffer when it already is one."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(np.ascontiguousarray(arr, dtype=dtype)).cast("B"))


def read_text(path) -> str:
    """The whole UTF-8 file; a decoding error becomes a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
