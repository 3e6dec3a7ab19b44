"""The binary readers on pipes: a FIFO fed one byte per write loads like the regular file."""

import os
import re
import threading

import numpy as np
import pytest

from ternhash import ContinuationSchedule, Network, NetworkConfig, load_checkpoint, save_checkpoint
from ternhash.codes import load_codes, pack_matrix, save_codes
from ternhash.harness import load_features, save_features
from ternhash.harness.cli import main


def write_features(path):
    save_features(path, np.arange(30, dtype=np.float32).reshape(5, 6) / 7)


def write_codes(path):
    save_codes(path, pack_matrix(np.array([[1, 0, -1] * 24, [0, 1, 1] * 24], dtype=np.int8)))


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


def test_encode_reads_features_from_a_pipe(tmp_path, capsys):
    ckpt, feats = tmp_path / "m.tnh", tmp_path / "x.tfv"
    write_checkpoint(ckpt)
    write_features(feats)
    assert main(["encode", "--checkpoint", str(ckpt), "--features", str(feats), "--out", str(tmp_path / "file.tnc")]) == 0
    argv = ["encode", "--checkpoint", str(ckpt), "--features", str(tmp_path / "pipe"), "--out", str(tmp_path / "pipe.tnc")]
    assert through_fifo(tmp_path, feats.read_bytes(), lambda _: main(argv)) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'file.tnc'}\n{tmp_path / 'pipe.tnc'}\n"
    assert (tmp_path / "pipe.tnc").read_bytes() == (tmp_path / "file.tnc").read_bytes()
