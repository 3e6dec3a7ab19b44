"""The binary file formats: a FIFO fed one byte per write loads like the regular file, and
the writers write the bytes of the astype(...).tobytes() composition they replaced."""

import os
import re
import struct
import threading

import numpy as np
import pytest

from ternhash import ActivationConfig, ContinuationSchedule, Network, NetworkConfig, load_checkpoint, save_checkpoint
from ternhash.codes import CodeMatrix, TernaryCode, load_codes, pack, save_codes
from ternhash.harness import load_features, save_features
from ternhash.harness.cli import main


def write_features(path):
    save_features(path, np.arange(30, dtype=np.float32).reshape(5, 6) / 7)


def packed(trits) -> CodeMatrix:
    return CodeMatrix.of([pack(TernaryCode(t)) for t in trits])


def write_codes(path):
    save_codes(path, packed(np.array([[1, 0, -1] * 24, [0, 1, 1] * 24], dtype=np.int8)))


def write_checkpoint(path):
    net = Network.initialize(NetworkConfig(input_dim=6, hidden_dims=(16,), code_dim=6, num_classes=3, seed=4))
    save_checkpoint(path, net, ContinuationSchedule())


def read_features(path):
    arr = load_features(path)
    return arr.dtype, arr.shape, arr.tobytes()


def read_codes(path):
    m = load_codes(path)
    return m.d, m.pos.tobytes(), m.neg.tobytes()


def read_checkpoint(path):
    net, schedule = load_checkpoint(path)
    return net.config, schedule, net.flat.dtype, net.flat.tobytes()


# kind: (writer, reader, header name, payload name)
KINDS = {
    "tfv": (write_features, read_features, "feature file header", "feature payload"),
    "tnc": (write_codes, read_codes, "code file header", "code payload"),
    "tnh": (write_checkpoint, read_checkpoint, "checkpoint header", "parameter payload"),
}


def feed(path, data: bytes) -> threading.Thread:
    """A thread that opens the FIFO at path, writes data one byte per write, and closes it."""

    def write():
        try:
            with open(path, "wb", buffering=0) as fh:
                for i in range(len(data)):
                    fh.write(data[i : i + 1])
        except BrokenPipeError:  # the reader stopped early
            pass

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def through_fifo(tmp_path, data: bytes, read):
    """read(fifo) while a writer thread feeds data into the FIFO."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = feed(fifo, data)
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive(), "the writer is still blocked on the FIFO"


@pytest.mark.parametrize("kind", KINDS)
def test_binary_readers_take_a_pipe_fed_a_byte_at_a_time(tmp_path, kind):
    write, read, _, _ = KINDS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    assert through_fifo(tmp_path, path.read_bytes(), read) == read(path)


@pytest.mark.parametrize("kind", KINDS)
def test_a_pipe_cut_short_raises_the_truncated_message(tmp_path, kind):
    write, read, header, payload = KINDS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    data = path.read_bytes()
    with pytest.raises(ValueError) as exc:
        through_fifo(tmp_path, data[:-3], read)
    needs, got = map(int, re.fullmatch(rf"truncated {payload}: needs (\d+) bytes, got (\d+)", str(exc.value)).groups())
    assert needs - got == 3
    (tmp_path / "pipe").unlink()
    with pytest.raises(ValueError) as exc:
        through_fifo(tmp_path, data[:6], read)
    assert str(exc.value) == f"truncated {header}: needs 8 bytes, got 2"


# kind: the byte counts of the header's reads after the magic (a .tnh of one hidden layer: 4 * 1 + 44)
HEADER_READS = {"tfv": (8,), "tnc": (8,), "tnh": (8, 48)}


@pytest.mark.parametrize("kind", KINDS)
def test_every_binary_reader_checks_magic_and_header_alike(tmp_path, kind):
    write, read, header, _ = KINDS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    data = path.read_bytes()
    bad = tmp_path / "bad"
    cases = [(b"XXXX" + data[4:], f"bad magic b'XXXX', expected b'{kind.upper()}1'"),
             (data[:2], f"bad magic {data[:2]!r}, expected b'{kind.upper()}1'")]
    start = 4
    for size in HEADER_READS[kind]:
        cases += [(data[:cut], f"truncated {header}: needs {size} bytes, {cut - start} left")
                  for cut in range(start, start + size)]
        start += size
    for blob, message in cases:
        bad.write_bytes(blob)
        with pytest.raises(ValueError) as exc:
            read(bad)
        assert str(exc.value) == message


def test_encode_reads_features_from_a_pipe(tmp_path, capsys):
    ckpt, feats = tmp_path / "m.tnh", tmp_path / "x.tfv"
    write_checkpoint(ckpt)
    write_features(feats)
    assert main(["encode", "--checkpoint", str(ckpt), "--features", str(feats), "--out", str(tmp_path / "file.tnc")]) == 0
    argv = ["encode", "--checkpoint", str(ckpt), "--features", str(tmp_path / "pipe"), "--out", str(tmp_path / "pipe.tnc")]
    assert through_fifo(tmp_path, feats.read_bytes(), lambda _: main(argv)) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'file.tnc'}\n{tmp_path / 'pipe.tnc'}\n"
    assert (tmp_path / "pipe.tnc").read_bytes() == (tmp_path / "file.tnc").read_bytes()


def reference_features_bytes(features):
    arr = np.asarray(features, dtype=np.float32)
    return b"TFV1" + struct.pack("<II", arr.shape[0], arr.shape[1]) + arr.astype("<f4").tobytes()


def reference_codes_bytes(codes):
    m = CodeMatrix.of(codes)
    return b"TNC1" + struct.pack("<II", len(m), m.d) + np.concatenate([m.pos, m.neg], axis=1).astype("<u8").tobytes()


def reference_checkpoint_bytes(net, schedule):
    cfg = net.config
    return b"".join([
        b"TNH1",
        struct.pack("<II", cfg.input_dim, len(cfg.hidden_dims)),
        struct.pack(f"<{len(cfg.hidden_dims)}I", *cfg.hidden_dims),
        struct.pack("<IIQ", cfg.code_dim, cfg.num_classes, cfg.seed),
        struct.pack("<dIIIII", cfg.activation.alpha, cfg.activation.k,
                    schedule.k_start, schedule.k_end, schedule.stride_epochs, schedule.total_epochs),
        net.flat.astype("<f4").tobytes(),
    ])


MATRIX = np.random.default_rng(5).standard_normal((7, 9))
FEATURE_INPUTS = {
    "float32": MATRIX.astype(np.float32),
    "float64": MATRIX,
    "transposed": MATRIX.astype(np.float32).T,
    "strided": MATRIX.astype(np.float32)[::2, ::3],
    "big-endian": MATRIX.astype(">f4"),
    "one row": MATRIX[3:4].astype(np.float32),
    "int list": [[1, 2], [3, 4]],
}


@pytest.mark.parametrize("name", FEATURE_INPUTS)
def test_save_features_writes_the_bytes_of_the_astype_composition(tmp_path, name):
    save_features(tmp_path / "x.tfv", FEATURE_INPUTS[name])
    assert (tmp_path / "x.tfv").read_bytes() == reference_features_bytes(FEATURE_INPUTS[name])


TRITS = np.random.default_rng(6).integers(-1, 2, (9, 70)).astype(np.int8)
CODE_INPUTS = {
    "matrix": lambda: packed(TRITS),
    "one code": lambda: packed(TRITS[4:5]),
    "strided rows": lambda: packed(TRITS)[::3],
    "code list": lambda: list(packed(TRITS[:, :40])),
}


@pytest.mark.parametrize("name", CODE_INPUTS)
def test_save_codes_writes_the_bytes_of_the_astype_composition(tmp_path, name):
    codes = CODE_INPUTS[name]()
    save_codes(tmp_path / "x.tnc", codes)
    assert (tmp_path / "x.tnc").read_bytes() == reference_codes_bytes(codes)


def checkpoint_net(dtype, strided):
    cfg = NetworkConfig(input_dim=6, hidden_dims=(16, 5), code_dim=6, num_classes=3, seed=2**64 - 1,
                        activation=ActivationConfig(alpha=0.7, k=9))
    flat = Network.initialize(cfg).flat.astype(dtype)
    return Network(config=cfg, flat=np.repeat(flat, 2)[::2] if strided else flat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("strided", [False, True])
def test_save_checkpoint_writes_the_bytes_of_the_astype_composition(tmp_path, dtype, strided):
    net = checkpoint_net(dtype, strided)
    schedule = ContinuationSchedule(k_start=5, k_end=13, stride_epochs=4, total_epochs=50)
    save_checkpoint(tmp_path / "x.tnh", net, schedule)
    assert (tmp_path / "x.tnh").read_bytes() == reference_checkpoint_bytes(net, schedule)
