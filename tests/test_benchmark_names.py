"""The benchmark drives the program through module attributes; each one it names must exist, and its
oracle must read the program's codes."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ternhash import load_codes, pack_matrix, save_codes

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
WORKLOADS = BENCHMARKS / "workloads.py"


def imported_modules(tree) -> dict:
    """Local name -> module, for every ternhash module workloads.py imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update({a.asname or a.name: a.name for a in node.names if a.name.startswith("ternhash.")})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ternhash"):
            out.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    return {name: importlib.import_module(module) for name, module in out.items()}


def test_workloads_name_only_attributes_the_program_has():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = imported_modules(tree)
    assert modules["experiment"].__name__ == "ternhash.harness.experiment"
    assert modules["data"].__name__ == "ternhash.harness.data"
    # attribute reads on the module names only: metric names such as
    # "harness.experiment.encode_rows_per_s" are strings and are not read
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    # the untraced warm-up calls these two through experiment
    assert {("experiment", "single_labels"), ("experiment", "train")} <= used
    assert ("data", "gen_synthetic") in used
    assert [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)] == []


def load_oracle():
    spec = importlib.util.spec_from_file_location("benchmark_oracle", BENCHMARKS / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d", [1, 4, 32, 33, 63, 64, 65, 70, 128, 130])
def test_oracle_reads_packed_codes_and_tnc_files(tmp_path, d):
    oracle = load_oracle()
    trits = np.random.default_rng(d).integers(-1, 2, size=(7, d)).astype(np.int8)
    codes = pack_matrix(trits)
    assert np.array_equal(oracle.trits_from_packed(codes), trits)
    path = tmp_path / "codes.tnc"
    save_codes(path, codes)
    assert np.array_equal(oracle.read_tnc(path), trits)
    assert np.array_equal(oracle.trits_from_packed(load_codes(path)), trits)
