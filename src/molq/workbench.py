"""The point pipeline and bond-length scans.

One bond length goes through load_mo (an FCIDUMP, or a geometry through
a converged SCF), frozen core, the Jordan-Wigner Hamiltonian, the
sector-exact energy, and build_ansatz plus vqe_solve. scan_point chains
these stages, and the CLI's scf, ham, vqe and exact commands call the same
ones. A scan places two fragments a varying distance apart along z (or
ingests pre-computed FCIDUMP files) and persists one EnergyRecord per
point, built by point_record, with the FCIDUMP of the integrals the point
used (after frozen core) as its Hamiltonian. Points are independent jobs:
a failing length is recorded with an error note under the id of the
computation that failed, and the scan moves on. A scan runs its points
one after another, in bond-length order, in the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import load_basis
from .db import METHODS, EnergyDB, EnergyRecord
from .errors import ComputationError, ScanError, UsageError, check_integer
from .exact import dense_ground_energy
from .fermion import build_fermionic_hamiltonian, freeze_core
from .integrals import Geometry, assign_basis, build_ao_integrals
from .integrals_io import closed_shell_pairs, parse_fcidump, write_fcidump
from .options import (
    ANSATZ_VERSIONS,
    ANSATZE,
    DEFAULT_ANSATZ,
    DEFAULT_DEPTH,
    DEFAULT_METHODS,
    OPTIMIZER_METHODS,
    OptimizerConfig,
)
from .pauli import PauliSum, jordan_wigner, z2_symmetries
from .scf import ao_to_mo, hf_reference_energy, scf_solve
from .vqe import hardware_efficient_ansatz, uccsd_ansatz, vqe_solve


@dataclass
class ScanSpec:
    molecule: str                       # formula label, e.g. "H2"
    bond_lengths: list                  # Angstrom, strictly ascending
    fragment_a: list | None = None      # [(symbol, (dx, dy, dz) Angstrom)], placed at origin
    fragment_b: list | None = None      # placed `length` along z
    basis: str | None = None            # shipped basis name or file path
    fcidump_pattern: str | None = None  # e.g. "lih_{length:.2f}.fcidump"
    methods: tuple = DEFAULT_METHODS    # subset of METHODS
    charge: int = 0
    n_frozen: int = 0                   # frozen-core spatial orbitals
    ansatz: str = DEFAULT_ANSATZ        # one of ANSATZE
    depth: int = DEFAULT_DEPTH          # HEA layers
    optimizer: str = OptimizerConfig.method   # one of OPTIMIZER_METHODS
    budget: int = OptimizerConfig.budget
    seed: int = OptimizerConfig.seed
    workers: int = 1                    # scans run serially: 1 is the only value

    def validate(self):
        """Raise UsageError for a spec that no point could run, or whose
        records point_record could not build or EnergyDB.put would refuse."""
        if not self.bond_lengths:
            raise UsageError("bond_lengths must be non-empty")
        lengths = list(self.bond_lengths)
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise UsageError("bond_lengths must be strictly ascending")
        if any(not 0.0 < length <= 10.0 for length in lengths):
            raise UsageError("bond lengths must lie in (0, 10] Angstrom")
        for method in self.methods:
            if method not in METHODS:
                raise UsageError(f"unknown method {method!r}")
        if not self.methods:
            raise UsageError("at least one method required")
        if self.fcidump_pattern is None:
            if self.basis is None or self.fragment_a is None or self.fragment_b is None:
                raise UsageError(
                    "need fragments and a basis, or an fcidump_pattern"
                )
            for fragment in (self.fragment_a, self.fragment_b):
                if not isinstance(fragment, (list, tuple)) or not all(map(_is_atom, fragment)):
                    raise UsageError(f"fragment {fragment!r} is not a list of "
                                     "(symbol, (dx, dy, dz)) entries")
        else:
            for length in lengths:
                try:
                    self.fcidump_pattern.format(length=length)
                except (LookupError, AttributeError, TypeError, ValueError) as exc:
                    raise UsageError(f"fcidump_pattern {self.fcidump_pattern!r} does not "
                                     f"format length {length}: {exc!r}") from None
            if (self.basis, self.fragment_a, self.fragment_b) != (None, None, None):
                raise UsageError("an fcidump_pattern's files hold the integrals: "
                                 "give no basis or fragments with it")
        if self.ansatz not in ANSATZE:
            raise UsageError(f"unknown ansatz {self.ansatz!r}")
        if self.optimizer not in OPTIMIZER_METHODS:
            raise UsageError(f"unknown optimizer {self.optimizer!r}")
        for name, lowest in (("budget", 1), ("seed", 0), ("n_frozen", 0), ("depth", 0),
                             ("workers", 1)):
            check_integer(name, getattr(self, name), lowest)
        if self.workers != 1:
            raise UsageError(f"workers must be 1, got {self.workers}: scans run serially")
        record = point_record(self, lengths[0])
        record.validate()
        if self.fcidump_pattern is None:   # electrons and functions are the same at every length
            geometry = _geometry(self, record)
            pairs = closed_shell_pairs(geometry.n_electrons,
                                       len(assign_basis(geometry, load_basis(self.basis))[0]))
            if self.n_frozen > pairs:
                raise UsageError(f"cannot freeze {self.n_frozen} orbitals "
                                 f"with {geometry.n_electrons} electrons")


def _geometry(spec: ScanSpec, record: EnergyRecord) -> Geometry:
    """The Geometry of a fragment spec's point record."""
    return Geometry.from_angstrom(
        [(sym, (x, y, z)) for sym, x, y, z in record.geometry], charge=spec.charge
    )


def _is_atom(entry) -> bool:
    """A fragment entry: a symbol string and three finite offsets."""
    try:
        symbol, offset = entry
        return (isinstance(symbol, str) and len(offset) == 3
                and all(math.isfinite(x) for x in offset))
    except (TypeError, ValueError, OverflowError):
        return False


def load_mo(source, basis: str | None = None, log=None):
    """MO integrals and the SCF that made them (None for an FCIDUMP):
    source is an FCIDUMP path, or a Geometry taken through a converged SCF
    in the named basis; ComputationError if that SCF does not converge."""
    if not isinstance(source, Geometry):
        return parse_fcidump(Path(source).read_text()), None
    ao = build_ao_integrals(source, assign_basis(source, load_basis(basis)))
    scf = scf_solve(ao, log=log)
    if not scf.converged:
        raise ComputationError("SCF did not converge")
    return ao_to_mo(ao, scf.mo_coefficients), scf


def build_ansatz(kind: str, h: PauliSum, n_electrons: int, depth: int):
    """The ansatz of one of ANSATZE on h's register; depth counts HEA
    layers. UCCSD keeps only the slots that conserve z2_symmetries(h)."""
    if kind == "uccsd":
        return uccsd_ansatz(h.n_qubits, n_electrons, z2_symmetries(h))
    if kind == "hea":
        return hardware_efficient_ansatz(h.n_qubits, depth, n_electrons)
    raise UsageError(f"unknown ansatz {kind!r}")


def point_record(spec: ScanSpec, length: float, error: str | None = None) -> EnergyRecord:
    """The record of spec at one length, with its content id and no
    results yet: every field of the id comes from the spec and the length,
    so a failed point carries the id of the computation that failed."""
    if spec.fcidump_pattern is not None:
        geometry = {"fcidump": spec.fcidump_pattern.format(length=length)}
    else:
        geometry = [[symbol, *(float(x) for x in offset)] for symbol, offset in spec.fragment_a]
        for symbol, offset in spec.fragment_b:
            pos = np.asarray(offset, dtype=float) + (0.0, 0.0, length)
            geometry.append([symbol, *(float(x) for x in pos)])
    vqe = "vqe" in spec.methods
    record = EnergyRecord(
        molecule=spec.molecule,
        basis=spec.basis or "fcidump",
        geometry=geometry,
        bond_length=float(length),
        ansatz=spec.ansatz if vqe else None,
        optimizer=spec.optimizer if vqe else None,
        seed=spec.seed if vqe else None,
        charge=spec.charge,
        n_frozen=spec.n_frozen,
        depth=spec.depth if vqe and spec.ansatz == "hea" else None,
        ansatz_version=ANSATZ_VERSIONS[spec.ansatz] if vqe else None,
        budget=spec.budget if vqe else None,
        error=error,
    )
    record.record_id = record.compute_id()
    return record


def scan_point(spec: ScanSpec, length: float, db: EnergyDB | None = None) -> EnergyRecord:
    """Run one bond length end to end and return its record."""
    record = point_record(spec, length)
    if spec.fcidump_pattern is not None:
        source = record.geometry["fcidump"]
    else:
        source = _geometry(spec, record)
    mo, scf = load_mo(source, spec.basis)
    if "hf" in spec.methods:
        record.e_hf = scf.e_hf if scf else hf_reference_energy(mo)
    if spec.n_frozen:
        mo = freeze_core(mo, spec.n_frozen)

    record.n_qubits = 2 * mo.n_orbitals
    if "exact" in spec.methods or "vqe" in spec.methods:
        pauli = jordan_wigner(build_fermionic_hamiltonian(mo))
    if "exact" in spec.methods:
        record.e_exact = dense_ground_energy(pauli, mo.n_electrons).ground_energy
    if "vqe" in spec.methods:
        ansatz = build_ansatz(spec.ansatz, pauli, mo.n_electrons, spec.depth)
        config = OptimizerConfig(
            method=spec.optimizer, budget=spec.budget, seed=spec.seed
        )
        result = vqe_solve(pauli, ansatz, config)
        record.e_vqe = result.energy
        record.evaluations = result.evaluations

    if db is not None:
        record.hamiltonian_ref = {"integrals": db.put_hamiltonian(write_fcidump(mo))}
        db.put(record)
    return record


def run_scan(spec: ScanSpec, db: EnergyDB | None = None) -> list:
    """All scan points, in bond-length order; failures become error records.
    ScanError, naming the first failure, if every point fails."""
    spec.validate()
    records = []
    for length in spec.bond_lengths:
        try:
            records.append(scan_point(spec, length, db))
        except Exception as exc:  # failure isolation per point
            record = point_record(spec, length, error=f"{type(exc).__name__}: {exc}")
            if db is not None:
                db.put(record)
            records.append(record)
    if all(record.error is not None for record in records):
        first = records[0]
        raise ScanError(f"every scan point failed; the first, at {first.bond_length:g} "
                        f"Angstrom, with {first.error}")
    return records
