"""Checked reads for the binary file formats (.tnc, .tnh, .tfv)."""

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
