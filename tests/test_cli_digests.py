"""The CLI's file outputs and stdout, pinned by SHA-256 over one small chain.

gen (5 classes x 200 rows, 32-dim) -> train a 64,64 net for 6 epochs at d16
and d70 -> encode the retrieval and query splits with each -> eval at
k = 1, 100 and all, normalized by found and by capped, on the single-label
files and on a multi-label copy of them. 900 retrieval rows is not a multiple
of 256, and d70 takes two plane words with a 6-bit tail: the block split and
the packing tail are where bytes have moved before.

The chain runs in one child process with OPENBLAS_NUM_THREADS set before numpy
loads, once at 1 and once at 2, against the same digests: train and the
inference forward pin numpy's bundled OpenBLAS to one thread, so no output
depends on the thread count. A 560-wide encode, the shape whose hash features
differed between 1 and 2 threads before that pin, is compared across the two
counts as well.

A changed digest is a changed output. To rewrite the pinned digests after a
declared output change:

    PYTHONPATH=src python tests/test_cli_digests.py > tests/golden/cli_chain.sha256
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ternhash
from ternhash import ContinuationSchedule, Network, NetworkConfig, save_checkpoint
from ternhash.harness import save_features

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_chain.sha256"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHAIN = r'''
import contextlib, hashlib, io, pathlib, sys
from ternhash.harness import ExperimentConfig, save_config
from ternhash.harness.cli import main

def run(name, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code:
        sys.exit(f"{name} exited {code}")
    print(hashlib.sha256(out.getvalue().encode()).hexdigest(), f"{name}.stdout")

run("gen", "gen", "--classes", "5", "--per-class", "200", "--input-dim", "32", "--seed", "1", "--out", "data")
for split in ("retrieval", "query"):
    # labels out of order, repeated and padded, so this copy is read line by line
    lines = pathlib.Path(f"data.{split}.labels").read_text().split()
    multi = [f"{(int(c) + 1) % 5}, {c}" if i % 3 == 0 else f"{c},{c}" if i % 3 == 1 else c
             for i, c in enumerate(lines)]
    pathlib.Path(f"multi.{split}.labels").write_text("\n".join(multi) + "\n")
outputs = [f"data.{s}.{ext}" for s in ("train", "retrieval", "query") for ext in ("tfv", "labels")]
for d in (16, 70):
    save_config(f"d{d}.cfg", ExperimentConfig(data_prefix="data", hidden_dims=(64, 64), code_dim=d, k_end=7,
                                              stride_epochs=2, epochs=6, lr0=5e-3, seeds=(1,)))
    run(f"train.d{d}", "train", "--config", f"d{d}.cfg", "--out", f"d{d}.tnh")
    outputs.append(f"d{d}.tnh")
    for split in ("retrieval", "query"):
        run(f"encode.d{d}.{split}", "encode", "--checkpoint", f"d{d}.tnh", "--features", f"data.{split}.tfv",
            "--out", f"d{d}.{split}.tnc")
        outputs.append(f"d{d}.{split}.tnc")
    for labels in ("data", "multi"):
        for k in ("1", "100", "all"):
            for norm in ("found", "capped"):
                run(f"eval.d{d}.{labels}.k{k}.{norm}", "eval", "--codes", f"d{d}.retrieval.tnc",
                    "--labels", f"{labels}.retrieval.labels", "--query-codes", f"d{d}.query.tnc",
                    "--query-labels", f"{labels}.query.labels", "--k", k, "--normalization", norm)
for name in outputs:
    print(hashlib.sha256(pathlib.Path(name).read_bytes()).hexdigest(), name)
'''


WIDE_ENCODE = r'''
import hashlib, sys
from ternhash import hash_features, load_checkpoint
from ternhash.harness import load_features
from ternhash.harness.cli import main

if main(["encode", "--checkpoint", "net.tnh", "--features", "x.tfv", "--out", sys.argv[1]]):
    sys.exit("encode failed")
print(hashlib.sha256(hash_features(load_checkpoint("net.tnh")[0], load_features("x.tfv")).tobytes()).hexdigest())
'''


def run_child(code: str, workdir, threads: str, *args) -> str:
    """code's stdout, run in workdir on the ternhash this process imports, with the BLAS thread count set."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, threads),
           "PYTHONPATH": str(Path(ternhash.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=workdir, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def chain_digests(workdir, threads: str = "1") -> str:
    """The chain's '<sha256> <name>' lines, run in workdir with threads BLAS threads."""
    return run_child(CHAIN, workdir, threads)


def parse(text: str) -> dict:
    return {name: digest for digest, name in (line.split() for line in text.splitlines())}


def test_cli_chain_digests(tmp_path):
    want = parse(GOLDEN.read_text())
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        got = parse(chain_digests(tmp_path / threads, threads))
        assert got.keys() == want.keys()
        changed = sorted(name for name in want if got[name] != want[name])
        assert not changed, f"outputs at {threads} BLAS threads differ from {GOLDEN.name}: {changed}"


def test_wide_encode_is_the_same_at_one_and_two_blas_threads(tmp_path):
    cfg = NetworkConfig(input_dim=560, hidden_dims=(256, 256), code_dim=32, num_classes=10, seed=1)
    net = Network(config=cfg, flat=Network.initialize(cfg).flat.astype(np.float32))
    save_checkpoint(tmp_path / "net.tnh", net, ContinuationSchedule())
    # 900 rows: not a multiple of the 256-row block
    save_features(tmp_path / "x.tfv", np.random.default_rng(0).standard_normal((900, 560)).astype(np.float32))
    # the last line is the hash features' digest; encode prints its output path before it
    hashes = [run_child(WIDE_ENCODE, tmp_path, threads, f"{threads}.tnc").splitlines()[-1] for threads in ("1", "2")]
    assert hashes[0] == hashes[1]
    assert (tmp_path / "1.tnc").read_bytes() == (tmp_path / "2.tnc").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(chain_digests(tmp))
