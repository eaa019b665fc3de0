"""`import molq`, the database commands, an FCIDUMP-to-UCCSD gradient-
descent point, a `molq vqe` run with the default Nelder-Mead, a
Lanczos-sized exact energy, and geometry scans through the AO integrals,
from the API and from `molq scan`, load numpy, not scipy and not
numpy.ma, and neither concurrent.futures nor logging: a scan runs its
points serially. None of them loads numpy.random or OpenSSL (neither
_hashlib nor ssl): record ids and Hamiltonian names hash with CPython's
built-in SHA-256, and the Lanczos start vector is a fixed numpy array. A
process that only imports molq, loads a basis and uses the database loads
no numpy at all: the package namespace is lazy. Nor do `molq db` and `molq
curve`: the CLI imports the numeric modules inside the commands that use
them. The names the benchmark tracer wraps and its workloads import still
exist.

No module of molq imports scipy: boys_f0's erf is a numpy port of
Cephes. scipy is an oracle of the tests only. numpy 2.4's np.unique
imports numpy.ma when it returns only the distinct values, so molq takes
those with set(). The load checks run in a fresh interpreter because the
test process has scipy loaded already.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import molq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = """\
import sys
import molq
import molq.cli
molq.load_basis("sto-3g")
molq.EnergyDB(sys.argv[1])
assert molq.cli.main(["db", "list", "--db", sys.argv[1]]) == 0
"""

# A process that only loads a basis and uses the database prints the molq
# modules it loaded, and numpy if it did.
BASIS_DB_CHILD = """\
import sys
import molq
molq.load_basis("sto-3g")
db = molq.EnergyDB(sys.argv[1])
ref = {"integrals": db.put_hamiltonian("&FCI NORB=1,NELEC=0,MS2=0,\\n&END\\n")}
record_id = db.put(molq.EnergyRecord(molecule="H2", basis="sto-3g", bond_length=0.7,
                                     e_hf=-1.1, hamiltonian_ref=ref))
assert db.get(record_id).e_hf == -1.1
assert [r.record_id for r in db.query(molecule="H2")] == [record_id]
assert db.audit() == []
print(sorted(name for name in sys.modules if name == "numpy" or name.startswith("molq.")))
"""

# `molq db` and `molq curve` on a one-record database print the molq
# modules they loaded, and numpy if they did.
CLI_DB_CHILD = """\
import contextlib
import io
import json
import sys
from pathlib import Path
import molq.cli
db = sys.argv[1]
record = Path(db).parent / "record.json"
record.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "bond_length": 0.7,
                              "e_hf": -1.1}))
with contextlib.redirect_stdout(io.StringIO()) as out:
    for argv in (["db", "put", str(record)], ["db", "list"], ["db", "audit"],
                 ["db", "query", "--method", "hf", "--ansatz", "hea"],
                 ["curve", "--molecule", "H2", "--method", "hf"]):
        assert molq.cli.main([*argv, "--db", db]) == 0, argv
assert out.getvalue().endswith("bond_length_angstrom,e_hf,e_vqe,e_exact\\n0.7,-1.1,,\\n")
print(sorted(name for name in sys.modules if name == "numpy" or name.startswith("molq.")))
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
"""


# dense_ground_energy on a block past the dense guard, which the child
# lowers to 10 qubits: random 8-fold symmetric integrals on 7 orbitals, 6
# electrons, a (3, 3) block of 1 225 states.
LANCZOS_CHILD = """\
import random
import sys
import numpy as np
import molq
import molq.exact
from molq.exact import sector_basis
molq.exact.DENSE_MAX_QUBITS = 10
rng = random.Random(int(sys.argv[1]))
n = 7
h = np.array([rng.gauss(0.0, 1.0) for _ in range(n**2)]).reshape(n, n)
g = np.array([rng.gauss(0.0, 1.0) for _ in range(n**4)]).reshape(n, n, n, n)
perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
         (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
mo = molq.MOIntegrals(n, 6, h + h.T, sum(g.transpose(p) for p in perms) / 8, 0.0)
assert len(sector_basis(2 * n, 6)) > 2**molq.exact.DENSE_MAX_QUBITS
molq.dense_ground_energy(molq.jordan_wigner(molq.build_fermionic_hamiltonian(mo)), 6)
"""


# A geometry scan: AO integrals (boys_f0), HF, exact and UCCSD VQE at two
# lengths of H2/STO-3G, into a database.
GEOMETRY_SCAN_CHILD = """\
import sys
import molq
spec = molq.ScanSpec(molecule="H2", bond_lengths=[0.7, 0.9], basis="sto-3g",
                     fragment_a=[("H", (0.0, 0.0, 0.0))], fragment_b=[("H", (0.0, 0.0, 0.0))],
                     methods=("hf", "exact", "vqe"))
records = molq.run_scan(spec, molq.EnergyDB(sys.argv[1]))
assert [r.error for r in records] == [None, None]
"""

# `molq scan` from a geometry, with its default methods.
CLI_SCAN_CHILD = """\
import contextlib
import io
import sys
import molq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = molq.cli.main(["scan", "--molecule", "H2", "--fragment-a", "H",
                          "--fragment-b", "H", "--basis", "sto-3g",
                          "--lengths", "0.7,0.9", "--db", sys.argv[1]])
assert code == 0
"""

# Run after each child: its scipy modules, its numpy.ma modules, which of
# concurrent.futures and logging it loaded, which of OpenSSL's _hashlib and
# ssl, and whether numpy.random.
REPORT = """\
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
print(sorted(name for name in sys.modules if name in ("concurrent.futures", "logging")))
print(sorted(name for name in sys.modules if name in ("_hashlib", "ssl")))
print(sorted(name for name in sys.modules if name == "numpy.random"))
"""
NONE = ["[]", "[]", "[]", "[]", "[]"]


def modules_loaded(child, argument):
    """The lines the child prints, then five run after it: the scipy, the
    numpy.ma, the concurrent.futures and logging, the _hashlib and ssl, and
    the numpy.random modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", child + REPORT, str(argument)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return out.stdout.splitlines()


def test_basis_and_database_load_no_numpy(tmp_path):
    """`import molq`, load_basis and the EnergyDB calls load neither numpy
    nor a numeric module of molq: the namespace imports a module on first
    use of one of its names."""
    loaded = "['molq.basis', 'molq.db', 'molq.errors']"
    assert modules_loaded(BASIS_DB_CHILD, tmp_path / "db") == [loaded, *NONE]


def test_cli_db_and_curve_load_no_numpy(tmp_path):
    """The parser's choices and defaults come from options, and the curve
    from db: `molq db` and `molq curve` load no numeric module."""
    loaded = "['molq.cli', 'molq.db', 'molq.errors', 'molq.options']"
    assert modules_loaded(CLI_DB_CHILD, tmp_path / "db") == [loaded, *NONE]


# The 71 public names of molq as they stood when its namespace was eager;
# dir(molq) and `from molq import *` list them and the 13 submodules the
# namespace imports on use: the 11 that the eager namespace imported, basis
# and options.
PUBLIC_NAMES = {
    "ANNIHILATION", "ANSATZ_VERSIONS", "AOIntegrals", "Ansatz", "Atom", "BOHR_PER_ANGSTROM",
    "BasisSet", "CREATION", "Circuit", "ComputationError", "EnergyDB", "EnergyRecord",
    "FermionOperator", "FermionTerm", "Gate", "Geometry", "GeometryError",
    "LinearDependenceError", "MOIntegrals", "MinimizeResult", "OptimizerConfig", "ParseError",
    "PauliSum", "PauliTerm", "ResourceError", "SCFResult", "ScanError", "ScanSpec",
    "SpectrumResult", "UCCSDBlock", "UsageError", "VQEResult", "ao_to_mo", "assign_basis",
    "boys_f0", "build_ao_integrals", "build_fermionic_hamiltonian", "canonicalize",
    "dense_ground_energy", "diis_extrapolate", "emit_curve", "expectation",
    "fci_determinant_oracle", "freeze_core", "group_measurement_basis",
    "hardware_efficient_ansatz", "hf_reference_circuit", "hf_reference_energy",
    "jordan_wigner", "load_basis", "minimize", "nuclear_repulsion", "parameter_shift_gradient",
    "parse_basis", "parse_fcidump", "parse_geometry", "pauli_matrix", "pauli_multiply",
    "qwc_group", "run_circuit", "run_scan", "sample_expectation", "scan_point", "scf_solve",
    "serialize_pauli", "serialize_terms", "uccsd_ansatz", "vqe_solve", "write_ao_file",
    "write_fcidump", "z2_symmetries",
}
NUMERIC_MODULES = {"integrals", "integrals_io", "scf", "fermion", "pauli", "statevector",
                   "vqe", "exact", "workbench", "cli"}
SUBMODULES = {"errors", "basis", "options", "integrals", "integrals_io", "scf", "fermion",
              "pauli", "statevector", "vqe", "exact", "db", "workbench"}

# A fresh `import molq`: what dir() lists, whether an unknown name raises
# AttributeError, and what `from molq import *` binds.
NAMESPACE_CHILD = """\
import sys
import molq
print(sorted(name for name in dir(molq) if not name.startswith("_")))
try:
    molq.no_such_name
    print("resolved")
except AttributeError:
    print("AttributeError")
namespace = {}
exec("from molq import *", namespace)
print(sorted(name for name in namespace if name != "__builtins__"))
"""


def test_the_lazy_namespace_keeps_every_public_name():
    listed, unknown, star, *report = modules_loaded(NAMESPACE_CHILD, "")
    assert ast.literal_eval(listed) == sorted(PUBLIC_NAMES | SUBMODULES)
    assert unknown == "AttributeError"
    assert ast.literal_eval(star) == sorted(PUBLIC_NAMES | SUBMODULES) == sorted(molq.__all__)
    assert report == NONE


def test_every_public_name_is_its_home_modules_object():
    """Each name's home is the module that defines it, not one that imports
    it: a name filed under a heavier module would load that module's imports
    on first use. A class or function names its module; a constant is
    assigned at the top level of its home's source."""
    for name, home_name in molq._HOME.items():
        home = importlib.import_module(f"molq.{home_name}")
        value = getattr(molq, name)
        assert value is getattr(home, name), name
        if callable(value):
            assert value.__module__ == home.__name__, name
        else:
            tree = ast.parse(Path(home.__file__).read_text())
            assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)}
            assert name in assigned, name
    for name in SUBMODULES:
        assert getattr(molq, name) is importlib.import_module(f"molq.{name}")


def test_the_package_errors_db_basis_and_options_import_no_numeric_module():
    """What `import molq`, load_basis, EnergyDB and the CLI's parser run
    needs the standard library only: these modules import neither numpy nor
    a numeric module of molq, at module level or inside a function."""
    for name in ("__init__", "errors", "db", "basis", "options"):
        path = SRC / "molq" / f"{name}.py"
        absolute = {found.split(".")[0] for found, _ in imported_modules(ast.parse(path.read_text()))}
        assert "numpy" not in absolute, name
        assert not molq_imports(path) & NUMERIC_MODULES, name


def test_import_and_db_commands_load_no_scipy(tmp_path):
    assert modules_loaded(CHILD, tmp_path / "db") == NONE


def test_fcidump_uccsd_gradient_descent_loads_no_scipy():
    fcidump = ROOT / "data" / "fcidump" / "lih_d1.60.fcidump"
    assert modules_loaded(FCIDUMP_GD_CHILD, fcidump) == NONE


def test_cli_vqe_nelder_mead_loads_no_scipy():
    fcidump = ROOT / "data" / "fcidump" / "lih_d1.60.fcidump"
    assert modules_loaded(CLI_VQE_CHILD, fcidump) == NONE


def test_lanczos_exact_energy_loads_no_scipy():
    """exact._lanczos starts from a fixed numpy vector and the child draws
    its integrals from the standard library's random: numpy.random imports
    secrets, which imports hashlib and with it OpenSSL's _hashlib."""
    assert modules_loaded(LANCZOS_CHILD, 3) == NONE


def test_geometry_scan_loads_no_scipy(tmp_path):
    assert modules_loaded(GEOMETRY_SCAN_CHILD, tmp_path / "db") == NONE


def test_cli_geometry_scan_loads_no_scipy(tmp_path):
    assert modules_loaded(CLI_SCAN_CHILD, tmp_path / "db") == NONE


def test_no_molq_module_imports_scipy():
    """scipy is a test dependency only: no import of it, at module level or
    inside a function, anywhere in src/molq."""
    for path in sorted((SRC / "molq").glob("*.py")):
        names = [name for name, _ in imported_modules(ast.parse(path.read_text()))]
        assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


def imported_modules(tree):
    """The absolute module names a parsed source file imports, each with
    whether the import sits in an `except ImportError` handler."""
    fallback = {id(node) for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
                and isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
                for node in ast.walk(handler)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, id(node) in fallback) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, id(node) in fallback))
    return found


def test_only_db_hashes_and_it_uses_the_built_in_sha256():
    """hashlib loads OpenSSL's libcrypto, about 3.5 MB of peak RSS: db.py
    takes SHA-256 from CPython's built-in _sha2 (3.12+) or _sha256 (3.10,
    3.11), and reaches hashlib only in the fallback for an interpreter built
    without them. No other module of molq imports any of the three."""
    builtin = {"_sha2", "_sha256"}
    for path in sorted((SRC / "molq").glob("*.py")):
        found = imported_modules(ast.parse(path.read_text()))
        hashing = [(name, fallback) for name, fallback in found
                   if name.split(".")[0] in builtin | {"hashlib"}]
        if path.name != "db.py":
            assert hashing == [], path.name
            continue
        assert {name for name, _ in hashing} == builtin | {"hashlib"}
        assert [name for name, fallback in hashing if name == "hashlib" and not fallback] == []


def test_only_the_closed_shell_rule_takes_the_electron_parity():
    """`n_electrons % 2` is the closed-shell test, and
    integrals_io.closed_shell_pairs is its one home: a module that takes the
    parity itself forks the rule."""
    def is_n_electrons(node):
        return (isinstance(node, ast.Name) and node.id == "n_electrons"
                or isinstance(node, ast.Attribute) and node.attr == "n_electrons")

    for path in sorted((SRC / "molq").glob("*.py")):
        if path.name == "integrals_io.py":
            continue
        found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                 and is_n_electrons(node.left)]
        assert not found, f"{path.name} lines {found}"


def molq_imports(path):
    """The molq modules a source file imports, by their relative names."""
    tree = ast.parse(path.read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_exact_imports_no_simulator():
    """The exact path reads integrals and Pauli sums and returns plain
    amplitude arrays; it needs nothing from the statevector simulator."""
    assert molq_imports(SRC / "molq" / "exact.py") == {
        "errors", "integrals", "integrals_io", "pauli"}


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


def test_benchmark_tracer_runs_a_scan(monkeypatch, tmp_path):
    """perfbench/tracer.py's Tracer around a 2-point H2 hf+exact+vqe
    geometry scan and one frozen-core LiH FCIDUMP gradient-descent point:
    the traced run completes and counts what it ran."""
    tracer_module = load_perfbench_module(monkeypatch, "tracer")
    h2 = molq.ScanSpec(molecule="H2", bond_lengths=[0.7, 0.9], basis="sto-3g",
                       fragment_a=[("H", (0.0, 0.0, 0.0))], fragment_b=[("H", (0.0, 0.0, 0.0))],
                       methods=("hf", "exact", "vqe"))
    lih = molq.ScanSpec(molecule="LiH", bond_lengths=[1.6], methods=("hf", "vqe", "exact"),
                        fcidump_pattern=str(ROOT / "data" / "fcidump" / "lih_d{length:.2f}.fcidump"),
                        n_frozen=1, ansatz="uccsd", optimizer="gradient_descent", budget=120)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        records = [r for spec in (h2, lih) for r in molq.run_scan(spec, molq.EnergyDB(tmp_path / "db"))]
    finally:
        tracer.uninstall()
    assert [r.error for r in records] == [None, None, None]
    metrics = tracer.layer_metrics()
    for name in ("exact.dense_dim", "vqe.n_gates", "vqe.evals", "scf.iterations"):
        assert metrics[name] > 0, name


def test_benchmark_workloads_import(monkeypatch):
    """perfbench/workloads.py imports molq's public names and builds every
    workload's ScanSpec when loaded; removing a name or a ScanSpec field it
    uses would break the benchmark. Its workloads are BENCHMARK.json's."""
    workloads = load_perfbench_module(monkeypatch, "workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
