"""`import molq`, the database commands, an FCIDUMP-to-UCCSD gradient-
descent point, a `molq vqe` run with the default Nelder-Mead and a
Lanczos-sized exact energy load numpy, not scipy; the names the benchmark
tracer wraps and its workloads import still exist.

scipy is imported only inside boys_f0 (erf), the one function that calls
it. The checks run in a fresh interpreter because the test process has
scipy loaded already.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = """\
import sys
import molq
import molq.cli
molq.load_basis("sto-3g")
molq.EnergyDB(sys.argv[1])
assert molq.cli.main(["db", "list", "--db", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

# The lih-fcidump-gd path: FCIDUMP, frozen core, JW, the sector-exact
# energy and UCCSD gradient descent on the electron-number block.
FCIDUMP_GD_CHILD = """\
import sys
from pathlib import Path
import molq
mo = molq.freeze_core(molq.parse_fcidump(Path(sys.argv[1]).read_text()), 1)
h = molq.jordan_wigner(molq.build_fermionic_hamiltonian(mo))
molq.dense_ground_energy(h, mo.n_electrons)
config = molq.OptimizerConfig(method="gradient_descent", budget=120)
molq.vqe_solve(h, molq.uccsd_ansatz(h.n_qubits, mo.n_electrons), config)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

# `molq vqe` on an FCIDUMP with the default optimizer, Nelder-Mead.
CLI_VQE_CHILD = """\
import contextlib
import io
import sys
import molq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = molq.cli.main(["vqe", "--fcidump", sys.argv[1], "--freeze", "1"])
assert code == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


# dense_ground_energy on a block past the dense guard, which the child
# lowers to 10 qubits: random 8-fold symmetric integrals on 7 orbitals, 6
# electrons, a (3, 3) block of 1 225 states.
LANCZOS_CHILD = """\
import sys
import numpy as np
import molq
import molq.exact
from molq.exact import sector_basis
molq.exact.DENSE_MAX_QUBITS = 10
rng = np.random.default_rng(int(sys.argv[1]))
n = 7
h = rng.standard_normal((n, n))
g = rng.standard_normal((n, n, n, n))
perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
         (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
mo = molq.MOIntegrals(n, 6, h + h.T, sum(g.transpose(p) for p in perms) / 8, 0.0)
assert len(sector_basis(2 * n, 6)) > 2**molq.exact.DENSE_MAX_QUBITS
molq.dense_ground_energy(molq.jordan_wigner(molq.build_fermionic_hamiltonian(mo)), 6)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def scipy_modules_loaded(child, argument):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", child, str(argument)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return out.stdout.strip()


def test_import_and_db_commands_load_no_scipy(tmp_path):
    assert scipy_modules_loaded(CHILD, tmp_path / "db") == "[]"


def test_fcidump_uccsd_gradient_descent_loads_no_scipy():
    fcidump = ROOT / "data" / "fcidump" / "lih_d1.60.fcidump"
    assert scipy_modules_loaded(FCIDUMP_GD_CHILD, fcidump) == "[]"


def test_cli_vqe_nelder_mead_loads_no_scipy():
    fcidump = ROOT / "data" / "fcidump" / "lih_d1.60.fcidump"
    assert scipy_modules_loaded(CLI_VQE_CHILD, fcidump) == "[]"


def test_lanczos_exact_energy_loads_no_scipy():
    assert scipy_modules_loaded(LANCZOS_CHILD, 3) == "[]"


def molq_imports(path):
    """The molq modules a source file imports, by their relative names."""
    tree = ast.parse(path.read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_exact_imports_no_simulator():
    """The exact path reads integrals and Pauli sums and returns plain
    amplitude arrays; it needs nothing from the statevector simulator."""
    assert molq_imports(SRC / "molq" / "exact.py") == {"errors", "integrals_io", "pauli"}


def load_perfbench_module(monkeypatch, name):
    """perfbench/<name>.py, executed as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_bindings_resolve(monkeypatch):
    """perfbench/run.py --trace 1 wraps each (module, attribute) of
    perfbench/tracer.py's BINDINGS; a rename in molq would break it."""
    tracer = load_perfbench_module(monkeypatch, "tracer")
    assert tracer.BINDINGS
    for module_name, attribute, _ in tracer.BINDINGS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def test_benchmark_workloads_import(monkeypatch):
    """perfbench/workloads.py imports molq's public names and builds every
    workload's ScanSpec when loaded; removing a name or a ScanSpec field it
    uses would break the benchmark. Its workloads are BENCHMARK.json's."""
    workloads = load_perfbench_module(monkeypatch, "workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
