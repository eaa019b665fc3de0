"""Bond-length scan driver and curve emission.

A scan places two fragments a varying distance apart along z (or
ingests pre-computed FCIDUMP files), runs the requested methods at every
length, and persists one EnergyRecord per point. Points are independent
jobs: a failing length is recorded with an error note and the scan moves
on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .db import EnergyDB, EnergyRecord
from .errors import ComputationError, ScanError, UsageError
from .exact import dense_ground_energy
from .fermion import build_fermionic_hamiltonian, freeze_core, serialize_terms
from .integrals import Geometry, assign_basis, build_ao_integrals, load_basis
from .integrals_io import parse_fcidump
from .pauli import jordan_wigner, serialize_pauli
from .scf import ao_to_mo, hf_reference_energy, scf_solve
from .vqe import (
    OPTIMIZER_METHODS,
    OptimizerConfig,
    hardware_efficient_ansatz,
    uccsd_ansatz,
    vqe_solve,
)

VALID_METHODS = ("hf", "vqe", "exact")


@dataclass
class ScanSpec:
    molecule: str                       # formula label, e.g. "H2"
    bond_lengths: list                  # Angstrom, strictly ascending
    fragment_a: list | None = None      # [(symbol, (dx, dy, dz) Angstrom)], placed at origin
    fragment_b: list | None = None      # placed `length` along z
    basis: str | None = None            # shipped basis name or file path
    fcidump_pattern: str | None = None  # e.g. "lih_{length:.2f}.fcidump"
    methods: tuple = ("hf", "exact")
    charge: int = 0
    n_frozen: int = 0                   # frozen-core spatial orbitals
    ansatz: str = "uccsd"               # "uccsd" | "hea"
    depth: int = 1                      # HEA layers
    optimizer: str = "nelder_mead"
    budget: int = 2000
    seed: int = 0
    workers: int = 1

    def validate(self):
        if not self.bond_lengths:
            raise UsageError("bond_lengths must be non-empty")
        lengths = list(self.bond_lengths)
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise UsageError("bond_lengths must be strictly ascending")
        if any(not 0.0 < length <= 10.0 for length in lengths):
            raise UsageError("bond lengths must lie in (0, 10] Angstrom")
        for method in self.methods:
            if method not in VALID_METHODS:
                raise UsageError(f"unknown method {method!r}")
        if not self.methods:
            raise UsageError("at least one method required")
        if self.fcidump_pattern is None:
            if self.basis is None or self.fragment_a is None or self.fragment_b is None:
                raise UsageError(
                    "need fragments and a basis, or an fcidump_pattern"
                )
        if self.ansatz not in ("uccsd", "hea"):
            raise UsageError(f"unknown ansatz {self.ansatz!r}")
        if self.optimizer not in OPTIMIZER_METHODS:
            raise UsageError(f"unknown optimizer {self.optimizer!r}")
        if self.budget < 1:
            raise UsageError("budget must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.n_frozen < 0:
            raise UsageError("n_frozen must be >= 0")
        if self.depth < 0:
            raise UsageError("depth must be >= 0")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")


def _point_geometry(spec: ScanSpec, length: float) -> list:
    atoms = []
    for symbol, offset in spec.fragment_a:
        atoms.append([symbol, *(float(x) for x in offset)])
    for symbol, offset in spec.fragment_b:
        pos = np.asarray(offset, dtype=float) + (0.0, 0.0, length)
        atoms.append([symbol, *(float(x) for x in pos)])
    return atoms


def _build_ansatz(spec: ScanSpec, n_qubits: int, n_electrons: int):
    if spec.ansatz == "uccsd":
        return uccsd_ansatz(n_qubits, n_electrons)
    return hardware_efficient_ansatz(n_qubits, spec.depth, n_electrons)


def _record_setup(spec: ScanSpec) -> dict:
    """The charge, frozen orbitals and HEA depth that every record of the
    scan carries, so each id names one computation."""
    hea = "vqe" in spec.methods and spec.ansatz == "hea"
    return dict(charge=spec.charge, n_frozen=spec.n_frozen,
                depth=spec.depth if hea else None)


def scan_point(spec: ScanSpec, length: float, db: EnergyDB | None = None) -> EnergyRecord:
    """Run one bond length end to end and return its record."""
    if spec.fcidump_pattern is not None:
        path = spec.fcidump_pattern.format(length=length)
        mo = parse_fcidump(Path(path).read_text())
        geometry = {"fcidump": path}
        e_hf = hf_reference_energy(mo) if "hf" in spec.methods else None
        basis_label = spec.basis or "fcidump"
    else:
        atoms = _point_geometry(spec, length)
        geometry = atoms
        geom = Geometry.from_angstrom(
            [(sym, (x, y, z)) for sym, x, y, z in atoms], charge=spec.charge
        )
        basis = load_basis(spec.basis)
        ao = build_ao_integrals(geom, assign_basis(geom, basis))
        scf = scf_solve(ao)
        if not scf.converged:
            raise ComputationError(f"SCF did not converge at {length} Angstrom")
        mo = ao_to_mo(ao, scf.mo_coefficients)
        e_hf = scf.e_hf if "hf" in spec.methods else None
        basis_label = spec.basis
    if spec.n_frozen:
        mo = freeze_core(mo, spec.n_frozen)

    fermion_op = build_fermionic_hamiltonian(mo)
    pauli = jordan_wigner(fermion_op)

    record = EnergyRecord(
        molecule=spec.molecule,
        basis=basis_label,
        geometry=geometry,
        bond_length=float(length),
        n_qubits=fermion_op.n_modes,
        e_hf=e_hf,
        ansatz=spec.ansatz if "vqe" in spec.methods else None,
        optimizer=spec.optimizer if "vqe" in spec.methods else None,
        seed=spec.seed if "vqe" in spec.methods else None,
        **_record_setup(spec),
    )
    if "exact" in spec.methods:
        record.e_exact = dense_ground_energy(pauli, mo.n_electrons).ground_energy
    if "vqe" in spec.methods:
        ansatz = _build_ansatz(spec, fermion_op.n_modes, mo.n_electrons)
        config = OptimizerConfig(
            method=spec.optimizer, budget=spec.budget, seed=spec.seed
        )
        result = vqe_solve(pauli, ansatz, config)
        record.e_vqe = result.energy
        record.evaluations = result.evaluations

    record.record_id = record.compute_id()
    if db is not None:
        record.hamiltonian_ref = {
            "fermion": db.put_hamiltonian(serialize_terms(fermion_op), ".fop"),
            "pauli": db.put_hamiltonian(serialize_pauli(pauli), ".pauli"),
        }
        db.put(record)
    return record


def run_scan(spec: ScanSpec, db: EnergyDB | None = None) -> list:
    """All scan points, sorted by bond length; failures become error records."""
    spec.validate()

    def one(length):
        try:
            return scan_point(spec, length, db)
        except Exception as exc:  # failure isolation per point
            record = EnergyRecord(
                molecule=spec.molecule,
                basis=spec.basis or "fcidump",
                bond_length=float(length),
                error=f"{type(exc).__name__}: {exc}",
                **_record_setup(spec),
            )
            record.record_id = record.compute_id()
            if db is not None:
                db.put(record)
            return record

    if spec.workers == 1:
        records = [one(length) for length in spec.bond_lengths]
    else:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(one, spec.bond_lengths))
    if all(record.error is not None for record in records):
        raise ScanError("every scan point failed")
    return sorted(records, key=lambda r: r.bond_length)


CURVE_HEADER = "bond_length_angstrom,e_hf,e_vqe,e_exact"


def emit_curve(records: list) -> str:
    """CSV rows ascending by bond length, 12 significant digits, absent
    energies left empty. A bond length may appear only once."""
    molecules = {record.molecule for record in records}
    if len(molecules) > 1:
        raise UsageError(f"records mix molecules: {sorted(molecules)}")

    def fmt(value):
        return "" if value is None else format(value, ".12g")

    rows = [CURVE_HEADER]
    ordered = sorted(
        records,
        key=lambda r: r.bond_length if r.bond_length is not None else float("inf"),
    )
    for previous, record in zip([None] + ordered, ordered):
        if record.bond_length is None:
            raise UsageError("record without bond length in curve emission")
        if previous is not None and previous.bond_length == record.bond_length:
            a, b = previous.to_dict(), record.to_dict()
            differ = [k for k in a if k not in ("record_id", "created_at") and a[k] != b[k]]
            raise UsageError(
                f"two records at bond length {record.bond_length:g}, differing in "
                f"{', '.join(differ) or 'nothing'}; filter the query to one configuration"
            )
        rows.append(
            f"{fmt(record.bond_length)},{fmt(record.e_hf)},"
            f"{fmt(record.e_vqe)},{fmt(record.e_exact)}"
        )
    return "\n".join(rows) + "\n"
