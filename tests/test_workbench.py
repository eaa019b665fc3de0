"""Bond-length scans, record persistence, and curve emission."""

from pathlib import Path

import numpy as np
import pytest

from molq import (
    Geometry,
    ScanSpec,
    dense_ground_energy,
    emit_curve,
    fci_determinant_oracle,
    jordan_wigner,
    run_scan,
    scan_point,
)
from molq.db import EnergyDB, EnergyRecord
from molq.errors import ComputationError, ScanError, UsageError
from molq.fermion import build_fermionic_hamiltonian, parse_terms
from molq.integrals_io import write_fcidump
from molq.pauli import parse_pauli

from conftest import pipeline


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
    ],
)
def test_run_scan_rejects_bad_spec_before_any_point(tmp_path, overrides):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(bond_lengths=[0.7, 0.8], methods=("hf", "vqe"), **overrides)
    with pytest.raises(UsageError):
        run_scan(spec, db)
    assert db.list_ids() == []


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
    """Fragment offsets plus a non-unit axis still give the right distance."""
    spec = h2_spec(
        fragment_a=[("H", (0.0, 1.0, 0.0))],
        fragment_b=[("H", (0.0, 1.0, 0.0))],
        axis=(0.0, 0.0, 2.0),
    )
    record = scan_point(spec, 0.7354)
    baseline = scan_point(h2_spec(), 0.7354)
    assert record.e_hf == pytest.approx(baseline.e_hf, abs=1e-12)
    assert record.geometry[1] == ["H", 0.0, 1.0, 0.7354]


def test_scan_point_writes_hamiltonians(tmp_path, h2_hamiltonian):
    db = EnergyDB(tmp_path / "db")
    record = scan_point(h2_spec(), 0.7354, db)
    assert set(record.hamiltonian_ref) == {"fermion", "pauli"}
    fop_path = db.root / record.hamiltonian_ref["fermion"]
    pauli_path = db.root / record.hamiltonian_ref["pauli"]
    assert fop_path.exists() and pauli_path.exists()
    pauli = parse_pauli(pauli_path.read_text())
    assert dense_ground_energy(pauli).ground_energy == pytest.approx(
        record.e_exact, abs=1e-9
    )
    op = parse_terms(fop_path.read_text(), n_modes=4)
    assert len(op.terms) > 0


def test_rerun_keeps_each_versions_hamiltonian(tmp_path, h2_fcidump_pattern, h2_stretched):
    # Same FCIDUMP path, new contents: the re-run is version 2 of the same
    # id, and version 1 must still point at the operator it was run with.
    db = EnergyDB(tmp_path / "db")
    spec = ScanSpec(molecule="H2", bond_lengths=[0.7354],
                    fcidump_pattern=h2_fcidump_pattern, methods=("exact",))
    first = scan_point(spec, 0.7354, db)
    _, _, mo = h2_stretched
    Path(h2_fcidump_pattern.format(length=0.7354)).write_text(write_fcidump(mo))
    second = scan_point(spec, 0.7354, db)
    assert second.record_id == first.record_id
    assert second.e_exact != pytest.approx(first.e_exact, abs=1e-6)
    for version, record in ((1, first), (2, second)):
        stored = db.get(first.record_id, version=version)
        pauli = parse_pauli((db.root / stored.hamiltonian_ref["pauli"]).read_text())
        assert dense_ground_energy(pauli, 2).ground_energy == pytest.approx(
            record.e_exact, abs=1e-9
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


# ---------------------------------------------------------------------------
# run_scan
# ---------------------------------------------------------------------------


def test_run_scan_returns_sorted_records(tmp_path):
    db = EnergyDB(tmp_path / "db")
    spec = h2_spec(bond_lengths=[0.6, 0.7, 0.8], methods=("hf",), workers=3)
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
        # triangle's height from the midpoint of the first two.
        ScanSpec(
            molecule="H3+",
            bond_lengths=[0.9 * 3**0.5 / 2],
            fragment_a=[("H", (0.0, -0.45, 0.0)), ("H", (0.0, 0.45, 0.0))],
            fragment_b=[("H", (0.0, 0.0, 0.0))],
            axis=(1.0, 0.0, 0.0),
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


def test_run_scan_workers_match_serial(tmp_path):
    spec_serial = h2_spec(bond_lengths=[0.65, 0.75], methods=("hf",))
    spec_pool = h2_spec(bond_lengths=[0.65, 0.75], methods=("hf",), workers=2)
    serial = run_scan(spec_serial)
    pooled = run_scan(spec_pool)
    assert [r.e_hf for r in serial] == [r.e_hf for r in pooled]


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
