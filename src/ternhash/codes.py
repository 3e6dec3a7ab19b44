"""Ternary codes, two-bitplane packing, and Hamming distance over the packed form.

A length-d code over {-1, 0, +1} is stored as two bitplanes: the positive
plane sets bit i when trit i is +1, the negative plane when it is -1. Under
the induced binary encoding (+1 -> "10", 0 -> "00", -1 -> "01") the Hamming
distance between two codes is popcount(pos XOR pos') + popcount(neg XOR neg'),
so disagreeing nonzero trits cost 2 and zero/nonzero disagreements cost 1.

A set of codes is one CodeMatrix: one [n, 2, words] uint64 array, the .tnc
file's records, each code's positive-plane words then its negative-plane words.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._fileio import read_header, read_payload, write_payload
from .activation import _int_in, hard_ternary

_TRIT_BITS = {1: "10", 0: "00", -1: "01"}

_CODES_MAGIC = b"TNC1"


def _is_trits(arr: np.ndarray) -> bool:
    return bool(((arr == 0) | (arr == 1) | (arr == -1)).all())


@dataclass(frozen=True, eq=False)
class TernaryCode:
    """A vector of trits in {-1, 0, +1}, stored as int8."""

    trits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.trits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trits must be a non-empty 1-d array")
        if not _is_trits(arr):
            raise ValueError("trits must take values in {-1, 0, +1}")
        object.__setattr__(self, "trits", arr.astype(np.int8))

    def __eq__(self, other):
        if not isinstance(other, TernaryCode):
            return NotImplemented
        return np.array_equal(self.trits, other.trits)


def _checked_planes(planes, d: int, lead: int) -> np.ndarray:
    """planes as a checked C-contiguous uint64 array: (2, words) for one code (lead 0), (n, 2, words) for n (lead 1)."""
    planes = np.ascontiguousarray(planes, dtype=np.uint64)
    shape = (*planes.shape[:lead], 2, _words(_int_in("d", d, 1)))
    if planes.shape != shape:
        raise ValueError(f"expected planes of shape {shape} for d={d}, got {planes.shape}")
    if (planes[..., 0, :] & planes[..., 1, :]).any():
        raise ValueError("a trit cannot be both +1 and -1")
    tail = d % 64
    if tail and (planes[..., -1] >= np.uint64(1 << tail)).any():  # a bool temporary, an eighth of the words
        raise ValueError(f"bits set beyond d={d}")
    return planes


def _words(d) -> int:
    return (operator.index(d) + 63) // 64


class _Planes:
    """The positive and negative planes as views of planes[..., 0, :] and planes[..., 1, :]."""

    @property
    def pos(self) -> np.ndarray:
        return self.planes[..., 0, :]

    @property
    def neg(self) -> np.ndarray:
        return self.planes[..., 1, :]


@dataclass(frozen=True, eq=False)
class PackedCode(_Planes):
    """One code as [2, words] little-endian uint64: the positive plane's ceil(d/64) words, then the negative's."""

    planes: np.ndarray
    d: int

    def __post_init__(self):
        object.__setattr__(self, "planes", _checked_planes(self.planes, self.d, 0))

    def __eq__(self, other):
        if not isinstance(other, PackedCode):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.planes, other.planes)


@dataclass(frozen=True, eq=False)
class CodeMatrix(_Planes, Sequence):
    """n codes of one length d as one [n, 2, words] uint64 array, in the .tnc payload's order.

    A read-only sequence of PackedCode: an int index gives one code, a slice
    gives a CodeMatrix, and it equals any sequence of PackedCode with the
    same rows.
    """

    planes: np.ndarray
    d: int

    def __post_init__(self):
        object.__setattr__(self, "planes", _checked_planes(self.planes, self.d, 1))

    @classmethod
    def of(cls, codes) -> CodeMatrix:
        """The codes as one matrix; a CodeMatrix is returned as is."""
        if isinstance(codes, CodeMatrix):
            return codes
        codes = list(codes)
        if not codes:
            raise ValueError("no codes given")
        d = codes[0].d
        if any(c.d != d for c in codes):
            raise ValueError("all codes must share one length")
        return cls(planes=np.stack([c.planes for c in codes]), d=d)

    def __len__(self):
        return self.planes.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CodeMatrix(planes=self.planes[i], d=self.d)
        return PackedCode(planes=self.planes[operator.index(i)], d=self.d)

    def __eq__(self, other):
        if not isinstance(other, CodeMatrix):
            if not isinstance(other, Sequence) or not all(isinstance(c, PackedCode) for c in other):
                return NotImplemented
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return self.d == other.d and np.array_equal(self.planes, other.planes)


def ternarize(features, alpha: float) -> TernaryCode:
    """Quantize a real feature vector to a ternary code at threshold alpha."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("features must be a non-empty 1-d array")
    return TernaryCode(hard_ternary(arr, alpha))


def _pack_planes(values: np.ndarray, bound) -> np.ndarray:
    """[n, d] values -> [n, 2, words] planes, positive plane first.

    Bit i of the positive plane is values[:, i] >= bound, of the negative plane
    values[:, i] <= -bound, compared straight into the zero-padded bit buffer.
    Trits pack at bound 1; encode packs hash values at the quantizer's bound.
    """
    n, d = values.shape
    bits = np.zeros((n, 2, 64 * _words(d)), dtype=bool)
    np.greater_equal(values, bound, out=bits[:, 0, :d])
    np.less_equal(values, -bound, out=bits[:, 1, :d])
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64, copy=False).reshape(n, 2, _words(d))


def pack(code: TernaryCode) -> PackedCode:
    """Split trits into the two bitplanes."""
    return PackedCode(planes=_pack_planes(code.trits[None, :], 1)[0], d=code.trits.size)


def pack_matrix(trits) -> CodeMatrix:
    """Pack an [n, d] trit matrix (one code per row) into a CodeMatrix."""
    arr = np.asarray(trits)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"trits must be an [n x d] matrix with d >= 1, got shape {arr.shape}")
    if not _is_trits(arr):
        raise ValueError("trits must take values in {-1, 0, +1}")
    return CodeMatrix(planes=_pack_planes(arr, 1), d=arr.shape[1])


def encode_binary(code: TernaryCode) -> str:
    """Two-character-per-trit binary string: +1 -> '10', 0 -> '00', -1 -> '01'."""
    return "".join(_TRIT_BITS[int(t)] for t in code.trits)


def hamming(a: PackedCode, b: PackedCode) -> int:
    """Hamming distance between the binary encodings of two packed codes."""
    if a.d != b.d:
        raise ValueError(f"code lengths differ: {a.d} vs {b.d}")
    return int(np.bitwise_count(a.planes ^ b.planes).sum())


def _scan_rows(codes) -> np.ndarray:
    """A CodeMatrix or PackedCode as uint64 scan rows: one XOR and popcount give the distance.

    For d <= 32 a code is one word, its negative plane in the high half;
    longer codes are their 2 * words plane words, positive first, as a view.
    """
    if codes.d <= 32:
        return codes.planes[..., 0, 0] | (codes.planes[..., 1, 0] << np.uint64(32))
    return codes.planes.reshape(*codes.planes.shape[:-2], -1)


def save_codes(path, codes) -> None:
    """Write packed codes: magic 'TNC1', u32 count, u32 d, then per code the
    positive plane's words followed by the negative plane's, all little-endian u64."""
    if not len(codes):
        raise ValueError("cannot save an empty code list")
    m = CodeMatrix.of(codes)
    write_payload(path, _CODES_MAGIC + struct.pack("<II", len(m), m.d), m.planes, "<u8")


def load_codes(path) -> CodeMatrix:
    """Inverse of save_codes."""
    with open(path, "rb") as fh:
        n, d = read_header(fh, _CODES_MAGIC, "<II", "code file header")
        if n < 1 or d < 1:
            raise ValueError(f"invalid header: n={n}, d={d}")
        return CodeMatrix(planes=read_payload(fh, (n, 2, _words(d)), "<u8", "code payload"), d=d)
