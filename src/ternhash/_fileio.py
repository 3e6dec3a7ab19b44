"""Checked reads for the binary file formats (.tnc, .tnh, .tfv) and the UTF-8 text ones."""

from __future__ import annotations

import os
import stat


def read_exact(fh, n: int, what: str) -> bytes:
    """Read exactly n bytes, or raise ValueError naming what was cut short.

    On a regular file the claim is checked against the bytes left before
    reading, so a corrupt header cannot make the reader allocate its size.
    """
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell()
    if stat.S_ISREG(st.st_mode) and n > left:
        raise ValueError(f"truncated {what}: needs {n} bytes, {left} left")
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated {what}: needs {n} bytes, got {len(raw)}")
    return raw


def read_text(path) -> str:
    """The whole UTF-8 file; a decoding error becomes a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
