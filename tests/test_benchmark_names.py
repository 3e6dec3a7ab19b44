"""The benchmark drives the program through module attributes; each one it names must exist, and its
oracle must read the program's codes."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ternhash import CodeMatrix, TernaryCode, load_codes, pack, save_codes
from ternhash.harness import ExperimentConfig, run_seed, seed_setup, two_step_baseline

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


def result_reads(tree, functions) -> dict:
    """Function -> attributes workloads.py reads on a name it binds to experiment.<function>(...), per enclosing def."""
    reads = {fn: set() for fn in functions}
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(scope):
            call = getattr(node, "value", None) if isinstance(node, ast.Assign) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "experiment"
                    and call.func.attr in functions):
                bound.update({t.id: call.func.attr for t in node.targets if isinstance(t, ast.Name)})
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                reads[bound[node.value.id]].add(node.attr)
    return reads


def test_workloads_read_only_result_attributes_the_program_has():
    # no tier-1 test runs the workloads' operations, so a renamed result field would pass here and fail them
    reads = result_reads(ast.parse(WORKLOADS.read_text(encoding="utf-8")), ("run_seed", "two_step_baseline"))
    assert {"continuation_map", "two_step_quant_error"} <= reads["run_seed"]
    assert {"retrieval_codes", "network"} <= reads["two_step_baseline"]
    cfg = ExperimentConfig(classes=3, per_class=30, input_dim=8, hidden_dims=(16,), code_dim=6, k_start=3, k_end=5,
                           stride_epochs=2, epochs=4, batch_size=16, seeds=(1,))
    results = {"run_seed": run_seed(cfg, 1), "two_step_baseline": two_step_baseline(*seed_setup(cfg, 1))}
    missing = [f"{fn}().{attr}" for fn, attrs in reads.items() for attr in sorted(attrs)
               if not hasattr(results[fn], attr)]
    assert missing == []


def load_oracle():
    spec = importlib.util.spec_from_file_location("benchmark_oracle", BENCHMARKS / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d", [1, 4, 32, 33, 63, 64, 65, 70, 128, 130])
def test_oracle_reads_packed_codes_and_tnc_files(tmp_path, d):
    oracle = load_oracle()
    trits = np.random.default_rng(d).integers(-1, 2, size=(7, d)).astype(np.int8)
    codes = CodeMatrix.of([pack(TernaryCode(t)) for t in trits])
    assert np.array_equal(oracle.trits_from_packed(codes), trits)
    path = tmp_path / "codes.tnc"
    save_codes(path, codes)
    assert np.array_equal(oracle.read_tnc(path), trits)
    assert np.array_equal(oracle.trits_from_packed(load_codes(path)), trits)
