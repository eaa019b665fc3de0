"""molq — a ground-state energy workbench for small molecules.

Pipeline: s-type Gaussian integrals -> restricted Hartree-Fock -> MO
integrals -> second-quantized Hamiltonian -> Jordan-Wigner qubit
Hamiltonian -> VQE (UCCSD inside the molecule's determinant block,
hardware-efficient on a dense statevector simulator) and exact
diagonalization -> bond-length scans persisted in a file-backed database.
"""

from .errors import (
    ComputationError,
    GeometryError,
    LinearDependenceError,
    ParseError,
    ResourceError,
    ScanError,
    UsageError,
)
from .integrals import (
    BOHR_PER_ANGSTROM,
    Atom,
    AOIntegrals,
    BasisSet,
    Geometry,
    assign_basis,
    boys_f0,
    build_ao_integrals,
    load_basis,
    nuclear_repulsion,
    parse_basis,
    parse_geometry,
)
from .integrals_io import (
    MOIntegrals,
    parse_fcidump,
    write_ao_file,
    write_fcidump,
)
from .scf import (
    SCFResult,
    ao_to_mo,
    diis_extrapolate,
    hf_reference_energy,
    scf_solve,
)
from .fermion import (
    ANNIHILATION,
    CREATION,
    FermionOperator,
    FermionTerm,
    build_fermionic_hamiltonian,
    freeze_core,
    serialize_terms,
)
from .pauli import (
    PauliSum,
    PauliTerm,
    canonicalize,
    group_measurement_basis,
    jordan_wigner,
    pauli_multiply,
    qwc_group,
    serialize_pauli,
    z2_symmetries,
)
from .statevector import (
    Circuit,
    Gate,
    expectation,
    run_circuit,
    sample_expectation,
)
from .vqe import (
    ANSATZ_VERSIONS,
    Ansatz,
    MinimizeResult,
    OptimizerConfig,
    UCCSDBlock,
    VQEResult,
    hardware_efficient_ansatz,
    hf_reference_circuit,
    minimize,
    parameter_shift_gradient,
    uccsd_ansatz,
    vqe_solve,
)
from .exact import (
    SpectrumResult,
    dense_ground_energy,
    fci_determinant_oracle,
    pauli_matrix,
)
from .db import EnergyDB, EnergyRecord
from .workbench import (
    ScanSpec,
    emit_curve,
    run_scan,
    scan_point,
)

__version__ = "0.1.0"
