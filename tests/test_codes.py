import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ternhash import (
    CodeMatrix,
    PackedCode,
    TernaryCode,
    encode_binary,
    hamming,
    hard_ternary,
    load_codes,
    pack,
    save_codes,
    ternarize,
)


def code(*trits) -> TernaryCode:
    return TernaryCode(np.array(trits, dtype=np.int8))


def test_ternary_code_validation():
    code(1, 0, -1)
    with pytest.raises(ValueError):
        TernaryCode(np.array([2, 0], dtype=np.int8))
    with pytest.raises(ValueError):
        TernaryCode(np.array([], dtype=np.int8))
    with pytest.raises(ValueError):
        TernaryCode(np.zeros((2, 2), dtype=np.int8))
    # values, not dtypes, decide: 1.0 is a trit, 0.5 and NaN are not
    assert TernaryCode(np.array([1.0, 0.0, -1.0])).trits.tolist() == [1, 0, -1]
    for bad in (0.5, np.nan, -2.0):
        with pytest.raises(ValueError):
            TernaryCode(np.array([1.0, bad]))


def planes(pos, neg) -> np.ndarray:
    """Positive and negative planes as one array, the positive plane first along the second-last axis."""
    return np.stack((np.asarray(pos, dtype=np.uint64), np.asarray(neg, dtype=np.uint64)), axis=-2)


def test_packed_code_invariants():
    with pytest.raises(ValueError):
        PackedCode(planes=planes([1], [1]), d=4)
    with pytest.raises(ValueError):
        PackedCode(planes=planes([1 << 10], [0]), d=4)
    for d in (0, True, 4.0):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer in [1, inf), got {d!r}")):
            PackedCode(planes=planes([1], [0]), d=d)
    with pytest.raises(ValueError):
        PackedCode(planes=np.array([1], dtype=np.uint64), d=4)  # one plane, not two
    assert PackedCode(planes=planes([1], [0]), d=4).pos.tolist() == [1]


def test_codes_are_not_equal_to_other_types():
    ternary = code(1, 0, -1)
    packed = pack(ternary)
    for other in (None, 1, "1 0 -1", [1, 0, -1]):
        assert (ternary == other) is False and (ternary != other) is True
        assert (packed == other) is False and (packed != other) is True
    assert ternary != packed and packed != ternary


def test_ternarize():
    assert ternarize(np.array([0.7, -0.2, -0.9]), 0.5).trits.tolist() == [1, 0, -1]
    assert ternarize(np.zeros(5), 0.5).trits.tolist() == [0, 0, 0, 0, 0]
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(-2, 2, size=20)
        got = ternarize(v, 0.5).trits
        want = [hard_ternary(float(x), 0.5) for x in v]
        assert got.tolist() == want
    for bad in (np.zeros((2, 3)), np.zeros(0), []):
        with pytest.raises(ValueError, match="^features must be a non-empty 1-d array$"):
            ternarize(bad, 0.5)


def test_pack_bit_layout():
    packed = pack(code(1, 0, -1))
    assert packed.pos.tolist() == [0b001]
    assert packed.neg.tolist() == [0b100]
    assert packed.planes.tolist() == [[0b001], [0b100]]
    assert np.shares_memory(packed.pos, packed.planes) and np.shares_memory(packed.neg, packed.planes)
    zero = pack(code(0, 0, 0))
    assert zero.pos.tolist() == [0] and zero.neg.tolist() == [0]


def test_encode_binary():
    assert encode_binary(code(1)) == "10"
    assert encode_binary(code(-1, 0, 1)) == "010010"
    assert encode_binary(code(0, 0, 0, 0)) == "00000000"


def brute_hamming(a: TernaryCode, b: TernaryCode) -> int:
    return sum(x != y for x, y in zip(encode_binary(a), encode_binary(b)))


def test_hamming_basics():
    a, b = code(1, 0, -1), code(1, -1, 1)
    assert hamming(pack(a), pack(a)) == 0
    assert hamming(pack(a), pack(b)) == 3
    with pytest.raises(ValueError):
        hamming(pack(a), pack(code(1, 0)))


def test_hamming_exhaustive_d4():
    all_codes = [code(*trits) for trits in itertools.product((-1, 0, 1), repeat=4)]
    packed = [pack(c) for c in all_codes]
    for i, ci in enumerate(all_codes):
        for j, cj in enumerate(all_codes):
            assert hamming(packed[i], packed[j]) == brute_hamming(ci, cj)


def test_hamming_metric_properties_sampled():
    rng = np.random.default_rng(2)
    codes = [TernaryCode(rng.integers(-1, 2, size=128).astype(np.int8)) for _ in range(30)]
    packed = [pack(c) for c in codes]
    for i in range(len(codes)):
        for j in range(len(codes)):
            dij = hamming(packed[i], packed[j])
            assert 0 <= dij <= 2 * 128
            assert dij == hamming(packed[j], packed[i])
            assert (dij == 0) == (codes[i] == codes[j])
            for l in range(len(codes)):
                assert dij <= hamming(packed[i], packed[l]) + hamming(packed[l], packed[j])


def test_per_element_distance_table():
    table = {(1, 1): 0, (0, 0): 0, (-1, -1): 0, (1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1, (1, -1): 2, (-1, 1): 2}
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = TernaryCode(rng.integers(-1, 2, size=16).astype(np.int8))
        b = TernaryCode(rng.integers(-1, 2, size=16).astype(np.int8))
        want = sum(table[(int(x), int(y))] for x, y in zip(a.trits, b.trits))
        assert hamming(pack(a), pack(b)) == want == brute_hamming(a, b)


def test_codes_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    codes = [pack(TernaryCode(rng.integers(-1, 2, size=70).astype(np.int8))) for _ in range(9)]
    path = tmp_path / "codes.tnc"
    save_codes(path, codes)
    loaded = load_codes(path)
    assert loaded == codes
    save_codes(tmp_path / "again.tnc", loaded)
    assert (tmp_path / "again.tnc").read_bytes() == path.read_bytes()


def test_codes_file_errors(tmp_path):
    with pytest.raises(ValueError):
        save_codes(tmp_path / "x.tnc", [])
    mixed = [pack(code(1, 0)), pack(code(1, 0, -1))]
    with pytest.raises(ValueError):
        save_codes(tmp_path / "x.tnc", mixed)
    bad = tmp_path / "bad.tnc"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_codes(bad)
    path = tmp_path / "trunc.tnc"
    save_codes(path, [pack(code(1, 0, -1))])
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_codes(path)
    # a cut header, and a header claiming 2**31 codes, fail before any allocation
    for blob in (b"TNC1\x01\x00", b"TNC1" + struct.pack("<II", 1 << 31, 64)):
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="truncated"):
            load_codes(path)


def random_trits(rng, n, d):
    return rng.integers(-1, 2, size=(n, d)).astype(np.int8)


def packed(trits) -> CodeMatrix:
    return CodeMatrix.of([pack(TernaryCode(t)) for t in trits])


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("d", [1, 32, 64, 70, 130])
def test_load_codes_returns_the_planes_it_returned_before(tmp_path, n, d):
    # the payload read into one writable [n, 2, words] array, with pos and neg views of it for every n
    path = tmp_path / "x.tnc"
    save_codes(path, packed(random_trits(np.random.default_rng(n * d), n, d)))
    raw = path.read_bytes()
    got = load_codes(path)
    assert (got.planes.dtype, got.planes.shape) == (np.uint64, (n, 2, (d + 63) // 64))
    assert got.planes.tobytes() == raw[12:]
    assert got.planes.flags.writeable and got.planes.flags.c_contiguous
    for plane, which in ((got.pos, 0), (got.neg, 1)):
        assert np.shares_memory(plane, got.planes) and plane.flags.writeable
        assert plane.tobytes() == got.planes[:, which].tobytes()
    assert np.shares_memory(got[0].planes, got.planes) and got[0].planes.flags.writeable
    for blob, message in ((raw[:-3], f"truncated code payload: needs {len(raw) - 12} bytes, {len(raw) - 15} left"),
                          (raw + b"\0", "trailing bytes after code payload")):
        path.write_bytes(blob)
        with pytest.raises(ValueError) as exc:
            load_codes(path)
        assert str(exc.value) == message


def test_plane_check_holds_half_the_planes_in_temporaries():
    # the both-planes test allocates [n, words] words; the tail test only a bool per plane
    planes = np.zeros((216_400, 2, 1), dtype=np.uint64)
    tracemalloc.start()
    try:
        CodeMatrix(planes=planes, d=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * planes.nbytes


def test_single_codes_are_unhashable():
    # a PackedCode compares by value, so like CodeMatrix it must not hash by identity or field
    with pytest.raises(TypeError, match="^unhashable type: 'PackedCode'$"):
        hash(pack(code(1, 0, -1)))


def test_code_matrix_is_a_sequence_of_packed_codes():
    rng = np.random.default_rng(11)
    trits = random_trits(rng, 6, 70)
    rows = [pack(TernaryCode(t)) for t in trits]
    m = CodeMatrix.of(rows)
    assert len(m) == 6
    assert list(m) == rows
    assert m[2] == rows[2] and m[-1] == rows[-1]
    assert isinstance(m[1:4], CodeMatrix) and m[1:4] == rows[1:4]
    assert m[::-1] == rows[::-1]
    assert len(m[6:]) == 0 and m[6:] == []
    assert m == rows and rows == m and m == tuple(rows)
    assert m != rows[:5] and m != rows[::-1] and m != "codes"
    assert CodeMatrix.of(m) is m
    with pytest.raises(IndexError):
        m[6]
    with pytest.raises(ValueError):
        CodeMatrix.of([])
    with pytest.raises(ValueError):
        CodeMatrix.of([pack(code(1, 0)), pack(code(1, 0, -1))])


def test_code_matrix_invariants():
    one = np.array([[1]], dtype=np.uint64)
    zero = np.array([[0]], dtype=np.uint64)
    with pytest.raises(ValueError):
        CodeMatrix(planes=planes(one, one), d=4)  # a trit both +1 and -1
    with pytest.raises(ValueError):
        CodeMatrix(planes=planes(one << np.uint64(10), zero), d=4)  # a bit past d
    with pytest.raises(ValueError):
        CodeMatrix(planes=planes(zero, one << np.uint64(10)), d=4)  # a negative-plane bit past d
    with pytest.raises(ValueError):
        CodeMatrix(planes=planes(zero, zero), d=65)  # one word where d needs two
    with pytest.raises(ValueError):
        CodeMatrix(planes=planes(zero[0], zero[0]), d=4)  # not [n x 2 x words]
    with pytest.raises(ValueError):
        CodeMatrix(planes=np.zeros((1, 3, 1), np.uint64), d=4)  # three planes
    for d in (0, np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer in [1, inf), got {d!r}")):
            CodeMatrix(planes=planes(zero, zero), d=d)
    assert len(CodeMatrix(planes=planes(zero, zero), d=64)) == 1


def valid_tnc(tmp_dir) -> bytes:
    rng = np.random.default_rng(12)
    path = tmp_dir / "valid.tnc"
    save_codes(path, packed(random_trits(rng, 3, 70)))
    return path.read_bytes()


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_codes_file_corruption_loads_exactly_or_raises_value_error(tmp_path, data):
    raw = valid_tnc(tmp_path)
    if data.draw(st.booleans(), label="truncate"):
        blob = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        blob = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path = tmp_path / "corrupt.tnc"
    path.write_bytes(blob)
    try:
        loaded = load_codes(path)
    except ValueError:
        return
    save_codes(tmp_path / "resaved.tnc", loaded)
    assert (tmp_path / "resaved.tnc").read_bytes() == blob
