"""molq — a ground-state energy workbench for small molecules.

Pipeline: s-type Gaussian integrals -> restricted Hartree-Fock -> MO
integrals -> second-quantized Hamiltonian -> Jordan-Wigner qubit
Hamiltonian -> VQE (UCCSD inside the molecule's determinant block,
hardware-efficient on a dense statevector simulator) and exact
diagonalization -> bond-length scans persisted in a file-backed database.

The namespace is lazy (PEP 562): `import molq` loads only `errors`, and
each other public name imports its home module on first use, as
`molq.<submodule>` does; `from molq import *` imports them all. So a
process that only loads a basis and reads or writes the database
(`load_basis`, `EnergyDB`, `EnergyRecord`, `emit_curve`) loads the standard
library alone, as `molq db` and `molq curve` do; the first numeric name it
touches brings numpy.
"""

from importlib import import_module as _import_module

from . import errors  # tiny, and callers catch its exceptions

# Each public name, by the module that defines it.
_PUBLIC = {
    "errors": (
        "ComputationError", "GeometryError", "LinearDependenceError", "ParseError",
        "ResourceError", "ScanError", "UsageError",
    ),
    "basis": ("BasisSet", "load_basis", "parse_basis"),
    "integrals": (
        "BOHR_PER_ANGSTROM", "Atom", "AOIntegrals", "Geometry", "assign_basis", "boys_f0",
        "build_ao_integrals", "nuclear_repulsion", "parse_geometry",
    ),
    "integrals_io": ("MOIntegrals", "parse_fcidump", "write_ao_file", "write_fcidump"),
    "scf": ("SCFResult", "ao_to_mo", "diis_extrapolate", "hf_reference_energy", "scf_solve"),
    "fermion": (
        "ANNIHILATION", "CREATION", "FermionOperator", "FermionTerm",
        "build_fermionic_hamiltonian", "freeze_core", "serialize_terms",
    ),
    "pauli": (
        "PauliSum", "PauliTerm", "canonicalize", "group_measurement_basis", "jordan_wigner",
        "pauli_multiply", "qwc_group", "serialize_pauli", "z2_symmetries",
    ),
    "statevector": ("Circuit", "Gate", "expectation", "run_circuit", "sample_expectation"),
    "options": ("ANSATZ_VERSIONS", "OptimizerConfig"),
    "vqe": (
        "Ansatz", "MinimizeResult", "UCCSDBlock", "VQEResult", "hardware_efficient_ansatz",
        "hf_reference_circuit", "minimize", "parameter_shift_gradient", "uccsd_ansatz",
        "vqe_solve",
    ),
    "exact": ("SpectrumResult", "dense_ground_energy", "fci_determinant_oracle", "pauli_matrix"),
    "db": ("EnergyDB", "EnergyRecord", "emit_curve"),
    "workbench": ("ScanSpec", "run_scan", "scan_point"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, *_PUBLIC]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_PUBLIC})
