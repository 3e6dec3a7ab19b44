"""Ternary codes, two-bitplane packing, and Hamming distance over the packed form.

A length-d code over {-1, 0, +1} is stored as two bitplanes: the positive
plane sets bit i when trit i is +1, the negative plane when it is -1. Under
the induced binary encoding (+1 -> "10", 0 -> "00", -1 -> "01") the Hamming
distance between two codes is popcount(pos XOR pos') + popcount(neg XOR neg'),
so disagreeing nonzero trits cost 2 and zero/nonzero disagreements cost 1.

A set of codes is one CodeMatrix: both planes as [n, words] uint64 arrays.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._fileio import read_exact, read_payload, write_payload

_TRIT_BITS = {1: "10", 0: "00", -1: "01"}

_CODES_MAGIC = b"TNC1"


def _is_trits(arr: np.ndarray) -> bool:
    return bool(((arr == 0) | (arr == 1) | (arr == -1)).all())


@dataclass(frozen=True)
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

    def __len__(self):
        return self.trits.size


def _check_planes(pos: np.ndarray, neg: np.ndarray, d: int, shape: tuple) -> None:
    """The plane invariants, for one code (shape (words,)) or many (shape (n, words))."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d!r}")
    if pos.shape != shape or neg.shape != shape:
        raise ValueError(f"expected {shape[-1]} words per plane for d={d}")
    if (pos & neg).any():
        raise ValueError("a trit cannot be both +1 and -1")
    tail = d % 64
    if tail and ((pos[..., -1] | neg[..., -1]) >> tail).any():
        raise ValueError(f"bits set beyond d={d}")


def _words(d) -> int:
    return (operator.index(d) + 63) // 64


@dataclass(frozen=True)
class PackedCode:
    """Two little-endian uint64 bitplanes over ceil(d/64) words each."""

    pos: np.ndarray
    neg: np.ndarray
    d: int

    def __post_init__(self):
        pos = np.asarray(self.pos, dtype=np.uint64)
        neg = np.asarray(self.neg, dtype=np.uint64)
        _check_planes(pos, neg, self.d, (_words(self.d),))
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other):
        if not isinstance(other, PackedCode):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.pos, other.pos) and np.array_equal(self.neg, other.neg)


@dataclass(frozen=True, eq=False)
class CodeMatrix(Sequence):
    """n codes of one length d: [n, words] uint64 positive and negative planes.

    A read-only sequence of PackedCode: an int index gives one code, a slice
    gives a CodeMatrix, and it equals any sequence of PackedCode with the
    same rows.
    """

    pos: np.ndarray
    neg: np.ndarray
    d: int

    def __post_init__(self):
        pos = np.ascontiguousarray(self.pos, dtype=np.uint64)
        neg = np.ascontiguousarray(self.neg, dtype=np.uint64)
        if pos.ndim != 2:
            raise ValueError(f"planes must be [n x words] arrays, got shape {pos.shape}")
        _check_planes(pos, neg, self.d, (pos.shape[0], _words(self.d)))
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

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
        return cls(pos=np.stack([c.pos for c in codes]), neg=np.stack([c.neg for c in codes]), d=d)

    def __len__(self):
        return self.pos.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CodeMatrix(pos=self.pos[i], neg=self.neg[i], d=self.d)
        i = operator.index(i)
        return PackedCode(pos=self.pos[i], neg=self.neg[i], d=self.d)

    def __eq__(self, other):
        if not isinstance(other, CodeMatrix):
            if not isinstance(other, Sequence) or not all(isinstance(c, PackedCode) for c in other):
                return NotImplemented
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return self.d == other.d and np.array_equal(self.pos, other.pos) and np.array_equal(self.neg, other.neg)


def ternarize(features, alpha: float) -> TernaryCode:
    """Quantize a real feature vector to a ternary code at threshold alpha."""
    from .activation import hard_ternary

    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("features must be a non-empty 1-d array")
    return TernaryCode(hard_ternary(arr, alpha))


def _pack_planes(trits: np.ndarray) -> tuple:
    """[n, d] trits -> [n, words] positive and negative planes; bit i of a row is trit i."""
    n, d = trits.shape
    planes = np.zeros((2, n, 8 * _words(d)), dtype=np.uint8)
    planes[..., : (d + 7) // 8] = np.packbits(np.stack((trits == 1, trits == -1)), axis=-1, bitorder="little")
    planes = planes.view("<u8").astype(np.uint64, copy=False)
    return planes[0], planes[1]


def pack(code: TernaryCode) -> PackedCode:
    """Split trits into the two bitplanes."""
    pos, neg = _pack_planes(code.trits[None, :])
    return PackedCode(pos=pos[0], neg=neg[0], d=code.trits.size)


def pack_matrix(trits) -> CodeMatrix:
    """Pack an [n, d] trit matrix (one code per row) into a CodeMatrix."""
    arr = np.asarray(trits)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"trits must be an [n x d] matrix with d >= 1, got shape {arr.shape}")
    if not _is_trits(arr):
        raise ValueError("trits must take values in {-1, 0, +1}")
    pos, neg = _pack_planes(arr)
    return CodeMatrix(pos=pos, neg=neg, d=arr.shape[1])


def unpack(packed: PackedCode) -> TernaryCode:
    """Inverse of pack."""
    pos = np.unpackbits(packed.pos.astype("<u8").view(np.uint8), bitorder="little")[: packed.d]
    neg = np.unpackbits(packed.neg.astype("<u8").view(np.uint8), bitorder="little")[: packed.d]
    return TernaryCode(pos.astype(np.int8) - neg.astype(np.int8))


def encode_binary(code: TernaryCode) -> str:
    """Two-character-per-trit binary string: +1 -> '10', 0 -> '00', -1 -> '01'."""
    return "".join(_TRIT_BITS[int(t)] for t in code.trits)


def hamming(a: PackedCode, b: PackedCode) -> int:
    """Hamming distance between the binary encodings of two packed codes."""
    if a.d != b.d:
        raise ValueError(f"code lengths differ: {a.d} vs {b.d}")
    return int(np.bitwise_count(a.pos ^ b.pos).sum() + np.bitwise_count(a.neg ^ b.neg).sum())


def save_codes(path, codes) -> None:
    """Write packed codes: magic 'TNC1', u32 count, u32 d, then per code the
    positive plane's words followed by the negative plane's, all little-endian u64."""
    if not len(codes):
        raise ValueError("cannot save an empty code list")
    m = CodeMatrix.of(codes)
    write_payload(path, _CODES_MAGIC + struct.pack("<II", len(m), m.d), np.concatenate([m.pos, m.neg], axis=1), "<u8")


def load_codes(path) -> CodeMatrix:
    """Inverse of save_codes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CODES_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_CODES_MAGIC!r}")
        n, d = struct.unpack("<II", read_exact(fh, 8, "code file header"))
        if n < 1 or d < 1:
            raise ValueError(f"invalid header: n={n}, d={d}")
        planes = read_payload(fh, (n, 2, _words(d)), "<u8", "code payload")
    planes.flags.writeable = False  # a one-code matrix holds views of the buffer, read-only as before
    return CodeMatrix(pos=planes[:, 0], neg=planes[:, 1], d=d)
