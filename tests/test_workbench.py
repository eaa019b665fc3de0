"""Bond-length scans, record persistence, and curve emission."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import molq.exact
import molq.integrals
import molq.scf
import molq.statevector
import molq.vqe
import molq.workbench
from molq import (
    ANSATZ_VERSIONS,
    Geometry,
    PauliSum,
    ScanSpec,
    dense_ground_energy,
    emit_curve,
    fci_determinant_oracle,
    jordan_wigner,
    run_scan,
    scan_point,
    uccsd_ansatz,
    vqe_solve,
)
from molq.basis import load_basis
from molq.cli import main
from molq.db import EnergyDB, EnergyRecord
from molq.workbench import build_ansatz, point_record
from molq.errors import ComputationError, ScanError, UsageError
from molq.fermion import (
    FermionOperator, build_fermionic_hamiltonian, freeze_core, serialize_terms,
)
from molq.integrals_io import parse_fcidump, write_fcidump
from molq.pauli import serialize_pauli

from conftest import pipeline

FCIDUMP_DIR = Path(__file__).resolve().parent.parent / "data" / "fcidump"


def h2_spec(**overrides):
    fields = dict(
        molecule="H2",
        bond_lengths=[0.7354],
        fragment_a=[("H", (0.0, 0.0, 0.0))],
        fragment_b=[("H", (0.0, 0.0, 0.0))],
        basis="sto-3g",
        methods=("hf", "exact"),
    )
    fields.update(overrides)
    return ScanSpec(**fields)


# ---------------------------------------------------------------------------
# ScanSpec validation
# ---------------------------------------------------------------------------


def test_valid_spec_passes():
    h2_spec().validate()


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(bond_lengths=[]), "non-empty"),
        (dict(bond_lengths=[0.9, 0.7]), "ascending"),
        (dict(bond_lengths=[0.7, 0.7]), "ascending"),
        (dict(bond_lengths=[-0.5, 0.7]), "must lie in"),
        (dict(bond_lengths=[0.7, 11.0]), "must lie in"),
        (dict(methods=("hf", "ci")), "unknown method"),
        (dict(methods=()), "at least one method"),
        (dict(basis=None), "fcidump_pattern"),
        (dict(fragment_a=None), "fcidump_pattern"),
        (dict(ansatz="qaoa"), "unknown ansatz"),
        (dict(workers=0), "workers"),
        (dict(budget=0), "budget"),
        (dict(n_frozen=-1), "n_frozen"),
        (dict(optimizer="bogus"), "unknown optimizer"),
        (dict(depth=-1), "depth"),
        (dict(seed=-1), "seed"),
        # what point_record reads to build each record, failed or not
        (dict(fragment_a=[("H", (0.0, 0.0))]), "fragment"),
        (dict(fragment_a=[(1, (0.0, 0.0, 0.0))]), "fragment"),
        (dict(fragment_b=[("H", (0.0, 0.0, float("nan")))]), "fragment"),
        (dict(fragment_b=[("H", (0.0, 0.0, "x"))]), "fragment"),
        (dict(fragment_b="H"), "fragment"),
        (dict(fcidump_pattern="x_{foo}"), "does not format length 0.7354"),
        (dict(fcidump_pattern="x_{length:d}"), "does not format"),
        (dict(fcidump_pattern="x_{0}"), "does not format"),
        (dict(fcidump_pattern="x_{length"), "does not format"),
        # the integrals of an fcidump_pattern come from its files
        (dict(fcidump_pattern="x_{length}"), "give no basis or fragments"),
        (dict(fcidump_pattern="x_{length}", fragment_a=None, fragment_b=None),
         "give no basis or fragments"),
        (dict(fcidump_pattern="x_{length}", basis=None, fragment_b=None),
         "give no basis or fragments"),
        (dict(fcidump_pattern="x_{length}", basis=None, fragment_a=None),
         "give no basis or fragments"),
        # the closed-shell rule on the first length's geometry and basis
        (dict(fragment_a=[("He", (0.0, 0.0, 0.0))]), "even electron count in 0..4 .* got 3"),
        (dict(charge=1), "even electron count in 0..4 .* got 1"),
        (dict(charge=3), "negative electron count"),
        # freeze_core's refusal, which every point would meet
        (dict(n_frozen=2), "cannot freeze 2 orbitals with 2 electrons"),
        (dict(workers=2.5), "workers must be an integer"),
        (dict(workers=True), "workers must be an integer"),
        (dict(workers="2"), "workers must be an integer"),
        (dict(workers=None), "workers must be an integer"),
        (dict(workers=2), "workers must be 1, got 2: scans run serially"),
    ],
)
def test_spec_validation_errors(overrides, fragment):
    with pytest.raises(UsageError, match=fragment):
        h2_spec(**overrides).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(budget=0),
        dict(n_frozen=-1),
        dict(optimizer="bogus"),
        dict(ansatz="hea", depth=-1),
        dict(optimizer="spsa", seed=-1),
        dict(workers=2),
    ],
)
def test_run_scan_rejects_bad_spec_before_any_point(tmp_path, overrides):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(bond_lengths=[0.7, 0.8], methods=("hf", "vqe"), **overrides)
    with pytest.raises(UsageError):
        run_scan(spec, db)
    assert db.list_ids() == []


@pytest.mark.parametrize("overrides,fragment", [
    (dict(methods=("hf", "vqe"), seed=1.5), "seed must be an integer"),
    (dict(seed="x"), "seed must be an integer"),
    (dict(charge="1"), "charge must be an integer"),
    (dict(molecule=""), "molecule must be a non-empty string"),
])
def test_run_scan_refuses_records_put_would_refuse(tmp_path, monkeypatch, overrides, fragment):
    # Checked before any point runs: otherwise the point's put fails, and
    # so does its error record's, out of run_scan's failure branch.
    calls = []
    monkeypatch.setattr(molq.workbench, "scan_point", lambda *args: calls.append(args))
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError, match=fragment):
        run_scan(h2_spec(**overrides), db)
    assert calls == []
    assert [path for path in db.root.rglob("*") if path.is_file()] == []


def test_fcidump_pattern_needs_no_fragments():
    ScanSpec(
        molecule="H2",
        bond_lengths=[0.7],
        fcidump_pattern="h2_{length:.2f}.fcidump",
    ).validate()


# ---------------------------------------------------------------------------
# scan_point, geometry route
# ---------------------------------------------------------------------------


def test_scan_point_matches_direct_pipeline(h2_equilibrium, h2_hamiltonian):
    _, scf, _ = h2_equilibrium
    record = scan_point(h2_spec(), 0.7354)
    assert record.molecule == "H2"
    assert record.basis == "sto-3g"
    assert record.bond_length == 0.7354
    assert record.n_qubits == 4
    assert record.e_hf == pytest.approx(scf.e_hf, abs=1e-12)
    assert record.e_exact == pytest.approx(
        dense_ground_energy(h2_hamiltonian).ground_energy, abs=1e-12
    )
    assert record.e_vqe is None
    assert record.ansatz is None and record.optimizer is None and record.seed is None
    assert record.geometry == [["H", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, 0.7354]]
    assert record.record_id == record.compute_id()


def test_scan_point_hf_only_gates_other_energies():
    record = scan_point(h2_spec(methods=("hf",)), 0.7354)
    assert record.e_hf is not None
    assert record.e_exact is None and record.e_vqe is None


def test_scan_point_vqe(tmp_path):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(methods=("hf", "vqe", "exact"), budget=600, seed=3)
    record = scan_point(spec, 0.7354, db)
    assert record.e_vqe is not None and record.e_exact is not None
    assert record.e_vqe >= record.e_exact - 1e-9
    assert record.e_vqe == pytest.approx(record.e_exact, abs=1.6e-3)
    assert record.ansatz == "uccsd"
    assert record.optimizer == "nelder_mead"
    assert record.seed == 3
    assert record.evaluations > 0
    assert db.get(record.record_id) == record


def test_scan_point_off_axis_fragments(sto3g):
    """Fragment offsets still give the right distance."""
    spec = h2_spec(
        fragment_a=[("H", (0.0, 1.0, 0.0))],
        fragment_b=[("H", (0.0, 1.0, 0.0))],
    )
    record = scan_point(spec, 0.7354)
    baseline = scan_point(h2_spec(), 0.7354)
    assert record.e_hf == pytest.approx(baseline.e_hf, abs=1e-12)
    assert record.geometry[1] == ["H", 0.0, 1.0, 0.7354]


def test_scan_point_writes_hamiltonians(tmp_path, h2_equilibrium):
    db = EnergyDB(tmp_path / "db")
    record = scan_point(h2_spec(), 0.7354, db)
    _, _, mo = h2_equilibrium
    text = write_fcidump(mo)
    name = f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.fcidump"
    assert record.hamiltonian_ref == {"integrals": f"hamiltonians/{name}"}
    assert [path.name for path in db.hamiltonians_dir.iterdir()] == [name]
    assert (db.hamiltonians_dir / name).read_text() == text
    assert db.audit() == []


def rerun(record, db):
    """The record's point re-run from its stored FCIDUMP, into db."""
    path = db.root / record.hamiltonian_ref["integrals"]
    spec = ScanSpec(molecule=record.molecule, bond_lengths=[record.bond_length],
                    fcidump_pattern=str(path))
    return scan_point(spec, record.bond_length, db)


@pytest.mark.parametrize("molecule,fragment_a,fragment_b,length,charge", [
    ("H2", [("H", (0, 0, 0))], [("H", (0, 0, 0))], 0.7354, 0),
    ("H2", [("H", (0, 0, 0))], [("H", (0, 0, 0))], 3.0, 0),
    ("HeH+", [("He", (0, 0, 0))], [("H", (0, 0, 0))], 0.9, 1),
    ("LiH...H2", [("Li", (0, 0, 0))], [("H", (0, 0, 0)), ("H", (0, 0, 1.0)), ("H", (0, 0, 1.74))],
     1.6, 0),
], ids=["H2 0.7354", "H2 3.0", "HeH+ 0.9", "LiH...H2"])
def test_geometry_point_reruns_from_its_stored_fcidump(
        tmp_path, molecule, fragment_a, fragment_b, length, charge):
    # The FCIDUMP keeps one member of each 8-fold ERI orbit, and ao_to_mo's
    # g is symmetric only to rounding, so the re-run agrees to rounding.
    db = EnergyDB(tmp_path / "db")
    spec = ScanSpec(molecule=molecule, bond_lengths=[length], fragment_a=fragment_a,
                    fragment_b=fragment_b, basis="sto-3g", charge=charge)
    record = scan_point(spec, length, db)
    again = rerun(record, db)
    assert abs(again.e_hf - record.e_hf) <= 1e-12
    assert abs(again.e_exact - record.e_exact) <= 1e-12
    assert again.n_qubits == record.n_qubits


def lih_spec():
    """The shipped LiH FCIDUMP at 1.6 Angstrom with one frozen core orbital."""
    return ScanSpec(molecule="LiH", bond_lengths=[1.6], n_frozen=1,
                    fcidump_pattern=str(FCIDUMP_DIR / "lih_d{length:.2f}.fcidump"))


def test_frozen_core_fcidump_point_stores_the_integrals_it_ran(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record = scan_point(lih_spec(), 1.6, db)
    shipped = parse_fcidump((FCIDUMP_DIR / "lih_d1.60.fcidump").read_text())
    text = write_fcidump(freeze_core(shipped, 1))
    assert (db.root / record.hamiltonian_ref["integrals"]).read_text() == text
    again = rerun(record, db)
    assert again.hamiltonian_ref == record.hamiltonian_ref
    assert abs(again.e_hf - record.e_hf) <= 1e-12
    assert abs(again.e_exact - record.e_exact) <= 1e-12
    assert again.n_qubits == record.n_qubits == 4


def test_hf_only_point_builds_no_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an hf-only point built a Hamiltonian")

    points = [(h2_spec(), 0.7354), (lih_spec(), 1.6)]
    full = [scan_point(spec, length) for spec, length in points]
    monkeypatch.setattr(molq.workbench, "build_fermionic_hamiltonian", refuse)
    monkeypatch.setattr(molq.workbench, "jordan_wigner", refuse)
    for (spec, length), expected in zip(points, full):
        record = scan_point(replace(spec, methods=("hf",)), length)
        assert (record.n_qubits, record.e_hf) == (expected.n_qubits, expected.e_hf)
    assert [record.n_qubits for record in full] == [4, 4]


# sha256(text)[:16] of each `molq ham` listing: (fermion terms, --pauli)
PINNED_NAMES = {
    "H2 0.7354": ("e274ac4b19171854", "f822f7abbffd803a"),
    "LiH...H2": ("5e348552457236bb", "23454df632b946b5"),
    "HeH+ 0.9": ("3cd4e39b78191214", "52190b406b4f0249"),
    "LiH 1.60 fcidump": ("6df3b5c5326dd9bc", "80561efd518b0951"),
    "LiH 1.60 fcidump, frozen core": ("c181f7f2ccd6e789", "7655b10931560651"),
}
# uccsd_ansatz(12, 6): every generator's texts, concatenated
PINNED_UCCSD_12_6 = ("03ebeea70d34bffa", "4ff3cd2e92c9d7c8")


def test_hamiltonian_file_names_are_pinned(sto3g, monkeypatch):
    def name(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    lih = parse_fcidump((FCIDUMP_DIR / "lih_d1.60.fcidump").read_text())
    molecules = {
        "H2 0.7354": ([("H", (0, 0, 0)), ("H", (0, 0, 0.7354))], 0),
        "LiH...H2": ([("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)),
                      ("H", (0, 0, 3.34))], 0),
        "HeH+ 0.9": ([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], 1),
    }
    mos = {
        label: pipeline(Geometry.from_angstrom(atoms, charge=charge), sto3g)[2]
        for label, (atoms, charge) in molecules.items()
    }
    mos["LiH 1.60 fcidump"] = lih
    mos["LiH 1.60 fcidump, frozen core"] = freeze_core(lih, 1)
    found = {}
    for label, mo in mos.items():
        op = build_fermionic_hamiltonian(mo)
        found[label] = (name(serialize_terms(op)), name(serialize_pauli(jordan_wigner(op))))
    assert found == PINNED_NAMES
    fermion_generators = []

    def recording(op):
        fermion_generators.append(op)
        return jordan_wigner(op)

    monkeypatch.setattr(molq.vqe, "jordan_wigner", recording)
    ansatz = uccsd_ansatz(12, 6)
    (table,) = fermion_generators
    # slot k is the row pair (2k, 2k + 1): T_k and T_k^dagger
    fermion_generators = [
        FermionOperator(12, coefficients=table.coefficients[k:k + 2], factors=table.factors[k:k + 2])
        for k in range(0, len(table.coefficients), 2)
    ]
    assert len(fermion_generators) == ansatz.parameter_count == 99
    assert (
        name("".join(serialize_terms(op) for op in fermion_generators)),
        name(serialize_pauli(ansatz.generators)),
    ) == PINNED_UCCSD_12_6


def test_rerun_keeps_each_versions_hamiltonian(tmp_path, h2_fcidump_pattern, h2_equilibrium,
                                               h2_stretched):
    # Same FCIDUMP path, new contents: the re-run is version 2 of the same
    # id, and version 1 must still point at the integrals it was run with.
    db = EnergyDB(tmp_path / "db")
    spec = ScanSpec(molecule="H2", bond_lengths=[0.7354],
                    fcidump_pattern=h2_fcidump_pattern, methods=("exact",))
    first = scan_point(spec, 0.7354, db)
    _, _, mo = h2_stretched
    Path(h2_fcidump_pattern.format(length=0.7354)).write_text(write_fcidump(mo))
    second = scan_point(spec, 0.7354, db)
    assert second.record_id == first.record_id
    assert second.e_exact != pytest.approx(first.e_exact, abs=1e-6)
    for version, record, (_, _, mo) in ((1, first, h2_equilibrium), (2, second, h2_stretched)):
        stored = db.get(first.record_id, version=version)
        text = (db.root / stored.hamiltonian_ref["integrals"]).read_text()
        assert text == write_fcidump(mo)
        pauli = jordan_wigner(build_fermionic_hamiltonian(parse_fcidump(text)))
        assert dense_ground_energy(pauli, 2).ground_energy == pytest.approx(
            record.e_exact, abs=1e-12
        )


# ---------------------------------------------------------------------------
# scan_point, FCIDUMP route
# ---------------------------------------------------------------------------


@pytest.fixture
def h2_fcidump_pattern(tmp_path, h2_equilibrium):
    _, _, mo = h2_equilibrium
    path = tmp_path / "h2_0.7354.fcidump"
    path.write_text(write_fcidump(mo))
    return str(tmp_path / "h2_{length}.fcidump")


def test_scan_point_fcidump_route(h2_fcidump_pattern, h2_equilibrium):
    _, scf, _ = h2_equilibrium
    spec = ScanSpec(
        molecule="H2",
        bond_lengths=[0.7354],
        fcidump_pattern=h2_fcidump_pattern,
        methods=("hf", "exact"),
    )
    record = scan_point(spec, 0.7354)
    assert record.basis == "fcidump"
    assert record.geometry == {"fcidump": h2_fcidump_pattern.format(length=0.7354)}
    assert record.e_hf == pytest.approx(scf.e_hf, abs=1e-12)
    assert record.e_exact == pytest.approx(-1.1373058080797822, abs=1e-9)


def test_scan_point_freeze_core(tmp_path, h2_equilibrium):
    _, _, mo = h2_equilibrium
    path = tmp_path / "h2_0.7354.fcidump"
    path.write_text(write_fcidump(mo))
    spec = ScanSpec(
        molecule="H2",
        bond_lengths=[0.7354],
        fcidump_pattern=str(tmp_path / "h2_{length}.fcidump"),
        methods=("exact",),
        n_frozen=1,
    )
    record = scan_point(spec, 0.7354)
    # Freezing one of H2's two spatial orbitals leaves one: 2 spin orbitals.
    assert record.n_qubits == 2


def test_records_name_frozen_orbitals_and_depth():
    lih = ScanSpec(molecule="LiH", bond_lengths=[1.6], methods=("exact",),
                   fcidump_pattern=str(FCIDUMP_DIR / "lih_d{length:.2f}.fcidump"))
    full = scan_point(lih, 1.6)
    frozen = scan_point(replace(lih, n_frozen=1), 1.6)
    assert (full.n_frozen, frozen.n_frozen) == (0, 1)
    assert full.record_id != frozen.record_id

    hea = h2_spec(methods=("vqe",), ansatz="hea", budget=3)
    depth_1 = scan_point(replace(hea, depth=1), 0.7354)
    depth_2 = scan_point(replace(hea, depth=2), 0.7354)
    assert (depth_1.depth, depth_2.depth) == (1, 2)
    assert depth_1.record_id != depth_2.record_id
    assert scan_point(h2_spec(methods=("vqe",), budget=3), 0.7354).depth is None


def test_error_records_name_the_setup(tmp_path):
    spec = ScanSpec(molecule="H2", bond_lengths=[0.7, 0.8], n_frozen=1, methods=("vqe",),
                    ansatz="hea", depth=2, fcidump_pattern=str(tmp_path / "absent_{length}"))
    with pytest.raises(ScanError):
        run_scan(spec, db := EnergyDB(tmp_path / "db"))
    assert {(r.n_frozen, r.depth, r.charge) for r in db.query()} == {(1, 2, 0)}


def test_failed_point_keeps_its_computations_id(tmp_path):
    # two configurations of LiH at 1.6 Angstrom whose FCIDUMP is missing
    def lih(directory, optimizer):
        return ScanSpec(molecule="LiH", bond_lengths=[1.6], methods=("hf", "vqe", "exact"),
                        n_frozen=1, optimizer=optimizer, budget=20,
                        fcidump_pattern=str(tmp_path / directory / "lih_d{length:.2f}.fcidump"))

    db = EnergyDB(tmp_path / "db")
    specs = [lih("a", "nelder_mead"), lih("b", "spsa")]
    for spec in specs:
        with pytest.raises(ScanError):
            run_scan(spec, db)
    failed = db.query(molecule="LiH")
    assert [len(db.versions(r.record_id)) for r in failed] == [1, 1]
    assert {r.record_id for r in failed} == {point_record(s, 1.6).record_id for s in specs}

    # the fixed point is version 2 of the failed one's id, and the curve has one row
    db = EnergyDB(tmp_path / "db2")
    with pytest.raises(ScanError, match="every scan point failed"):
        run_scan(specs[0], db)
    (failure,) = db.query()
    assert failure.error.startswith("FileNotFoundError")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "lih_d1.60.fcidump").write_text(
        (FCIDUMP_DIR / "lih_d1.60.fcidump").read_text())
    (fixed,) = run_scan(specs[0], db)
    assert fixed.error is None and fixed.record_id == failure.record_id
    assert len(db.versions(fixed.record_id)) == 2
    assert emit_curve(db.query(molecule="LiH")).count("\n") == 2
    assert db.audit() == []


def test_build_ansatz_refuses_an_unknown_kind():
    with pytest.raises(UsageError, match="unknown ansatz 'qaoa'"):
        build_ansatz("qaoa", PauliSum(4), 2, 1)


def test_parity_only_hamiltonians_keep_every_slot(sto3g):
    """Frozen-core LiH, LiH...H2 and HeH+ conserve no Z2 parity beyond the
    electron-number ones, so their UCCSD is the unpruned one, byte for byte."""
    lih = freeze_core(parse_fcidump((FCIDUMP_DIR / "lih_d1.60.fcidump").read_text()), 1)
    geometries = (
        Geometry.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)),
                                ("H", (0, 0, 3.34))]),
        Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], charge=1),
    )
    for mo in (lih, *(pipeline(geometry, sto3g)[2] for geometry in geometries)):
        h = jordan_wigner(build_fermionic_hamiltonian(mo))
        pruned = build_ansatz("uccsd", h, mo.n_electrons, 1)
        full = uccsd_ansatz(h.n_qubits, mo.n_electrons)
        assert pruned.descriptor == full.descriptor
        for column in ("x", "z", "coefficients"):
            assert (getattr(pruned.generators, column).tobytes()
                    == getattr(full.generators, column).tobytes())


def test_h2_scan_optimizes_the_double_alone(tmp_path, sto3g):
    """H2's two singles break its inversion parity: the scan's UCCSD keeps
    the one double, Nelder-Mead searches 1 dimension, not 3, and reaches
    the unpruned ansatz's energy in a fraction of its evaluations."""
    spec = h2_spec(methods=("hf", "vqe", "exact"), bond_lengths=[0.7354, 1.5])
    records = run_scan(spec, EnergyDB(tmp_path / "db"))
    for record in records:
        geometry = Geometry.from_angstrom([(sym, xyz) for sym, *xyz in record.geometry])
        h = jordan_wigner(build_fermionic_hamiltonian(pipeline(geometry, sto3g)[2]))
        assert build_ansatz("uccsd", h, 2, 1).descriptor == "uccsd(singles=0,doubles=1)"
        full = vqe_solve(h, uccsd_ansatz(4, 2))
        assert abs(record.e_vqe - record.e_exact) <= 1e-9
        assert abs(record.e_vqe - full.energy) <= 1e-9
        assert 3 * record.evaluations < full.evaluations
        assert (record.ansatz_version, record.budget) == (ANSATZ_VERSIONS["uccsd"], spec.budget)


# ---------------------------------------------------------------------------
# run_scan
# ---------------------------------------------------------------------------


def lih_h2_spec(lengths):
    """The LiH...H2 scan of the exact-scan benchmark workload: 10 qubits."""
    return ScanSpec(
        molecule="LiH-H2",
        bond_lengths=lengths,
        fragment_a=[("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.6))],
        fragment_b=[("H", (0.0, 0.0, 1.6)), ("H", (0.0, 0.0, 2.34))],
        basis="sto-3g",
        methods=("hf", "exact"),
    )


def counting(monkeypatch, module, name, count):
    """Wrap module.name so each call adds count(result) to the returned list."""
    seen, inner = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        seen.append(count(result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_scan_work_counts(monkeypatch):
    """The work of a 3-point LiH...H2 scan, counted: each distinct operator
    is planned once, each ERI build makes two boys_f0 calls (one for the
    nuclear attraction, one for every bra-ket pair at once), and each SCF
    iteration forms one Gram row, as many entries as the DIIS history holds."""
    builds = counting(monkeypatch, molq.workbench, "build_ao_integrals", lambda _: 1)
    boys = counting(monkeypatch, molq.integrals, "boys_f0", lambda _: 1)
    gram_rows = counting(monkeypatch, molq.scf, "_gram_row", len)
    iterations = counting(monkeypatch, molq.workbench, "scf_solve", lambda r: r.iterations)
    molq.exact._plan.cache_clear()
    records = run_scan(lih_h2_spec([1.0, 2.0, 3.0]))
    assert all(record.error is None for record in records)
    assert molq.exact._plan.cache_info()[:2] == (2, 1)   # (hits, misses)
    assert len(builds) == 3 and len(boys) == 2 * len(builds)
    capacity = molq.scf.DIIS_CAPACITY
    # the converging iteration extrapolates nothing
    assert gram_rows == [min(k, capacity) for n in iterations for k in range(1, n)]


def test_a_uccsd_scan_plans_its_operators_at_its_first_point_only():
    """A 2-point H4 UCCSD scan (8 qubits, 24 slots) compiles H twice and
    the generator sum once per point, so only its first point builds
    plans: one for H and one for the generators."""
    pair = [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.9))]
    spec = ScanSpec(molecule="H4", bond_lengths=[0.8, 0.9], fragment_a=pair,
                    fragment_b=[("H", (0.0, 0.0, 0.9)), ("H", (0.0, 0.0, 1.8))],
                    basis="sto-3g", methods=("hf", "exact", "vqe"), budget=50)
    molq.exact._plan.cache_clear()
    records = run_scan(spec)
    assert all(record.error is None for record in records)
    assert molq.exact._plan.cache_info()[:2] == (4, 2)   # (hits, misses)


def test_a_scan_reads_its_basis_once(monkeypatch):
    parses = counting(monkeypatch, molq.basis, "parse_basis", lambda _: 1)
    molq.basis._read_basis.cache_clear()
    run_scan(lih_h2_spec([1.0, 2.0, 3.0]))
    assert len(parses) == 1


def test_load_basis_keeps_shipped_parses_and_reads_files_again(tmp_path):
    shipped = load_basis("sto-3g")
    assert load_basis("STO-3G") is shipped
    with pytest.raises(TypeError):
        shipped.shells["He"] = ()   # one parse is shared, so it is read-only
    path = tmp_path / "mine.basis"
    path.write_text("ELEMENT H 1\n0.5 1.0\n")
    load_basis(path)
    path.write_text("ELEMENT H 1\n0.7 1.0\n")   # same size
    assert load_basis(path).shells["H"] == (((0.7,), (1.0,)),)


def test_run_scan_returns_sorted_records(tmp_path):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(bond_lengths=[0.6, 0.7, 0.8], methods=("hf",))
    records = run_scan(spec, db)
    assert [r.bond_length for r in records] == [0.6, 0.7, 0.8]
    assert all(r.error is None for r in records)
    assert sorted(db.list_ids()) == sorted(r.record_id for r in records)
    assert db.audit() == []



def test_run_scan_isolates_failures(tmp_path, h2_equilibrium):
    _, _, mo = h2_equilibrium
    (tmp_path / "pt_0.7.fcidump").write_text(write_fcidump(mo))
    spec = ScanSpec(
        molecule="H2",
        bond_lengths=[0.7, 0.8],  # no file for 0.8
        fcidump_pattern=str(tmp_path / "pt_{length}.fcidump"),
        methods=("exact",),
    )
    records = run_scan(spec)
    assert records[0].error is None
    assert records[0].e_exact is not None
    assert records[1].error is not None
    assert "FileNotFoundError" in records[1].error


def test_run_scan_raises_when_every_point_fails(tmp_path):
    spec = ScanSpec(
        molecule="H2",
        bond_lengths=[0.7, 0.8],
        fcidump_pattern=str(tmp_path / "absent_{length}.fcidump"),
        methods=("exact",),
    )
    with pytest.raises(ScanError):
        run_scan(spec)


def test_scan_error_names_the_first_failure(tmp_path):
    spec = ScanSpec(molecule="H2", bond_lengths=[0.7, 0.8], methods=("exact",),
                    fcidump_pattern=str(tmp_path / "absent_{length}.fcidump"))
    with pytest.raises(ScanError, match="every scan point failed") as err:
        run_scan(spec)
    message = str(err.value)
    assert "at 0.7 Angstrom, with FileNotFoundError" in message
    assert "absent_0.7.fcidump" in message and "absent_0.8" not in message


def test_failed_points_get_distinct_ids(tmp_path):
    db = EnergyDB(tmp_path / "db")
    spec = ScanSpec(
        molecule="H2",
        bond_lengths=[0.7, 0.8],
        fcidump_pattern=str(tmp_path / "absent_{length}.fcidump"),
        methods=("exact",),
    )
    with pytest.raises(ScanError):
        run_scan(spec, db)
    assert len(db.list_ids()) == 2
    assert [r.bond_length for r in db.query()] == [0.7, 0.8]


def test_run_scan_validates_spec():
    with pytest.raises(UsageError):
        run_scan(h2_spec(bond_lengths=[]))


@pytest.mark.parametrize(
    "spec",
    [
        ScanSpec(
            molecule="HeH+",
            bond_lengths=[0.774, 1.2],
            fragment_a=[("He", (0.0, 0.0, 0.0))],
            fragment_b=[("H", (0.0, 0.0, 0.0))],
            basis="sto-3g",
            charge=1,
        ),
        # Equilateral triangle of side 0.9 Angstrom: the third H sits at the
        # triangle's height from the midpoint of the first two, along z.
        ScanSpec(
            molecule="H3+",
            bond_lengths=[0.9 * 3**0.5 / 2],
            fragment_a=[("H", (0.0, -0.45, 0.0)), ("H", (0.0, 0.45, 0.0))],
            fragment_b=[("H", (0.0, 0.0, 0.0))],
            basis="sto-3g",
            charge=1,
        ),
    ],
    ids=["HeH+", "H3+"],
)
def test_run_scan_cation_exact_is_fci(spec, sto3g):
    """A cation's e_exact is the ground state of its own electron count,
    not the lowest state of the whole Fock space."""
    for record in run_scan(spec):
        assert record.error is None
        geometry = Geometry.from_angstrom(
            [(sym, (x, y, z)) for sym, x, y, z in record.geometry], charge=1
        )
        _, _, mo = pipeline(geometry, sto3g)
        assert record.e_exact == pytest.approx(fci_determinant_oracle(mo), abs=1e-10)


def test_hea_point_that_leaves_the_sector_fails_by_name(tmp_path):
    # HEA does not conserve N: on HeH+ its optimum drifts into the
    # three-electron sector, which must be named rather than stored (or
    # rejected later as a violated variational bound).
    spec = ScanSpec(
        molecule="HeH+", bond_lengths=[0.774],
        fragment_a=[("He", (0.0, 0.0, 0.0))], fragment_b=[("H", (0.0, 0.0, 0.0))],
        basis="sto-3g", charge=1, methods=("hf", "vqe", "exact"),
        ansatz="hea", depth=2,
    )
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(ComputationError, match=r"2-electron sector: <N> = ") as err:
        scan_point(spec, 0.774, db)
    # the optimizer's end point moves with the last bits of the integrals,
    # so <N> is checked as a number, not by its printed digits
    assert float(str(err.value).rsplit("= ", 1)[1]) == pytest.approx(3.0, abs=1e-5)
    assert db.list_ids() == []


def test_uccsd_point_builds_no_pauli_rotation(monkeypatch, capsys, tmp_path, h2_equilibrium):
    # a UCCSD solve runs its generator sum on the block: no layer builds the
    # ansatz's circuit, so no Pauli rotation is made
    def refuse(*args, **kwargs):
        raise AssertionError("a Pauli rotation was built")

    monkeypatch.setattr(molq.statevector.Circuit, "pauli_rot", refuse)
    record = scan_point(h2_spec(methods=("hf", "exact", "vqe"), ansatz="uccsd"), 0.7354)
    assert (record.e_hf, record.e_exact, record.e_vqe) == pytest.approx(
        (-1.1169814467789596, -1.1373058080797829, -1.1373058080797829), rel=0, abs=1e-12)
    assert record.evaluations == 53
    path = tmp_path / "h2.fcidump"
    path.write_text(write_fcidump(h2_equilibrium[2]))
    assert main(["vqe", "--fcidump", str(path), "--ansatz", "uccsd"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split()[2]) == pytest.approx(-1.1373058080797835, rel=0, abs=1e-12)
    assert "evaluations = 53" in lines


# ---------------------------------------------------------------------------
# emit_curve
# ---------------------------------------------------------------------------


def test_emit_curve_single_record():
    record = EnergyRecord(
        molecule="H2", basis="sto-3g", bond_length=0.7354,
        e_hf=-1.1169814467789592, e_exact=-1.1373058080797822,
    )
    text = emit_curve([record])
    lines = text.splitlines()
    assert lines[0] == "bond_length_angstrom,e_hf,e_vqe,e_exact"
    assert lines[1] == "0.7354,-1.11698144678,,-1.13730580808"
    assert text.endswith("\n")


def test_emit_curve_sorts_by_length():
    records = [
        EnergyRecord(molecule="H2", basis="b", bond_length=r, e_hf=-r)
        for r in (0.9, 0.5, 0.7)
    ]
    lines = emit_curve(records).splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["0.5", "0.7", "0.9"]


def test_emit_curve_rejects_mixed_molecules():
    records = [
        EnergyRecord(molecule="H2", basis="b", bond_length=0.7),
        EnergyRecord(molecule="LiH", basis="b", bond_length=1.6),
    ]
    with pytest.raises(UsageError, match="mix"):
        emit_curve(records)


def test_emit_curve_rejects_missing_length():
    with pytest.raises(UsageError, match="bond length"):
        emit_curve([EnergyRecord(molecule="H2", basis="b")])


def test_emit_curve_rejects_repeated_length():
    # two configurations at one length would give two rows for it
    records = [
        EnergyRecord(molecule="H2", basis="b", bond_length=0.7, e_hf=-1.1, e_exact=-1.13),
        EnergyRecord(molecule="H2", basis="b", bond_length=0.7, e_hf=-1.1,
                     e_vqe=-1.12, ansatz="uccsd"),
    ]
    with pytest.raises(UsageError, match="bond length 0.7, differing in e_vqe, e_exact, ansatz"):
        emit_curve(records)


def test_emit_curve_round_trips_through_db(tmp_path):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(bond_lengths=[0.6, 0.7, 0.8])
    run_scan(spec, db)
    text = emit_curve(db.query(molecule="H2"))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    lengths = [float(r[0]) for r in rows]
    exacts = [float(r[3]) for r in rows]
    assert lengths == [0.6, 0.7, 0.8]
    # Interior minimum at 0.7 of the three sampled lengths.
    assert exacts[1] < exacts[0] and exacts[1] < exacts[2]
