"""Every function in src/ is either entered by the CLI or declared unreached.

Tiny CLI runs (gen, train, compare on synthetic data and on split files,
encode at d40, eval at k = 1, 5 and all under both normalizations) run
in-process under a function-entry profiler (sys.setprofile, stdlib only). A
function is keyed by its file and the first line of its code object, which
Python 3.10 has as well as later versions. The test fails when a src/
function is neither entered nor listed in UNREACHED, and when a listed one
is entered: a new function the pipeline does not call must name its
consumer, and a listed one the pipeline starts calling comes off the list.
"""

import ast
import os
import re
import sys
from pathlib import Path

import ternhash
from ternhash.harness import ExperimentConfig, save_config
from ternhash.harness.cli import main

SRC = Path(ternhash.__file__).resolve().parent
ROOT = SRC.parents[1]
ACCEPTANCE = "tests/test_acceptance.py"
LIBRARY = "README Library section"
BENCHMARK = "benchmarks/"

# file:qualified name -> the consumer it is kept for, for each src/ function the CLI runs never enter
UNREACHED = {
    "activation.py:smooth_ternary_grad": ACCEPTANCE,
    "codes.py:_is_trits": ACCEPTANCE,  # TernaryCode's and pack_matrix's trit check
    "codes.py:TernaryCode.__post_init__": ACCEPTANCE,
    "codes.py:TernaryCode.__eq__": ACCEPTANCE,
    "codes.py:TernaryCode.__len__": ACCEPTANCE,
    "codes.py:_Planes.pos": LIBRARY,
    "codes.py:_Planes.neg": LIBRARY,
    "codes.py:PackedCode.__post_init__": ACCEPTANCE,
    "codes.py:PackedCode.__eq__": ACCEPTANCE,
    "codes.py:CodeMatrix.__getitem__": ACCEPTANCE,  # criterion 8 compares a CodeMatrix with a PackedCode list
    "codes.py:CodeMatrix.__eq__": ACCEPTANCE,
    "codes.py:ternarize": LIBRARY,
    "codes.py:pack": ACCEPTANCE,
    "codes.py:pack_matrix": LIBRARY,
    "codes.py:encode_binary": ACCEPTANCE,
    "codes.py:hamming": ACCEPTANCE,
    "network.py:forward": ACCEPTANCE,
    "network.py:cross_entropy": ACCEPTANCE,
    "network.py:backward": ACCEPTANCE,
    "network.py:Network.params": ACCEPTANCE,
    "network.py:hash_features": LIBRARY,
    "retrieval.py:LabelSets.__iter__": LIBRARY,
    "retrieval.py:LabelSets.__eq__": LIBRARY,
    "retrieval.py:query_topk": BENCHMARK,
    "harness/data.py:Dataset.__eq__": LIBRARY,
    "harness/experiment.py:two_step_baseline": BENCHMARK,
}


def src_functions() -> dict:
    """(file, first line of the code object) -> 'file:qualified name' for every def in src/."""
    found = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(os.path.realpath(path), first)] = f"{rel}:{prefix}{child.name}"
                visit(child, rel, f"{prefix}{child.name}.")

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.relative_to(SRC).as_posix(), "")
    return found


def run_cli(tmp_path):
    def cli(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    tiny = dict(hidden_dims=(16,), k_end=5, stride_epochs=2, epochs=4, batch_size=16, lr0=5e-3, seeds=(1,))
    data = tmp_path / "data"
    cli("gen", "--classes", 3, "--per-class", 30, "--input-dim", 8, "--spread", 0.2, "--out", data)
    save_config(tmp_path / "synth.cfg", ExperimentConfig(classes=3, per_class=30, input_dim=8, spread=0.2,
                                                          code_dim=6, **tiny))
    save_config(tmp_path / "files.cfg", ExperimentConfig(data_prefix=str(data), code_dim=40, **tiny))
    cli("compare", "--config", tmp_path / "synth.cfg")
    cli("compare", "--config", tmp_path / "files.cfg")
    cli("train", "--config", tmp_path / "files.cfg", "--out", tmp_path / "net.tnh")
    for split in ("retrieval", "query"):
        cli("encode", "--checkpoint", tmp_path / "net.tnh", "--features", f"{data}.{split}.tfv",
            "--out", tmp_path / f"{split}.tnc")
    for k in ("1", "5", "all"):
        for norm in ("found", "capped"):
            cli("eval", "--codes", tmp_path / "retrieval.tnc", "--labels", f"{data}.retrieval.labels",
                "--query-codes", tmp_path / "query.tnc", "--query-labels", f"{data}.query.labels",
                "--k", k, "--normalization", norm)


def test_every_src_function_is_reached_or_declared(tmp_path, capsys):
    functions = src_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_cli(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    entered = {(os.path.realpath(file), line) for file, line in entered}
    reached = {name for key, name in functions.items() if key in entered}
    problems = {
        "listed in UNREACHED but not defined in src/": sorted(set(UNREACHED) - set(functions.values())),
        "entered by no CLI run and not listed in UNREACHED": sorted(set(functions.values()) - reached - set(UNREACHED)),
        "entered by the CLI runs but listed in UNREACHED": sorted(reached & set(UNREACHED)),
    }
    assert not any(problems.values()), problems


def test_each_declared_consumer_names_its_function():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):readme.index("## File formats")]
    texts = {ACCEPTANCE: (ROOT / ACCEPTANCE).read_text(encoding="utf-8"), LIBRARY: library,
             BENCHMARK: "".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "benchmarks").glob("*.py")))}
    for entry, consumer in UNREACHED.items():
        name = entry.rsplit(":", 1)[1].rsplit(".", 1)[-1]
        if not name.startswith("_"):  # dunders and private helpers are reached through operators and public names
            assert re.search(rf"\b{name}\b", texts[consumer]), f"{entry}: {consumer} does not name {name}"
