"""File-backed energy database: identity, versioning, queries, audit."""

import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

import pytest

import molq
from molq.db import TMP_SUFFIX, VARIATIONAL_SLACK, EnergyDB, EnergyRecord
from molq.errors import UsageError


def make_record(**overrides):
    fields = dict(
        molecule="H2",
        basis="sto-3g",
        geometry=[["H", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, 0.7354]],
        bond_length=0.7354,
        n_qubits=4,
        e_hf=-1.1169814467789592,
        e_vqe=-1.1373058080,
        e_exact=-1.1373058080797822,
        ansatz="uccsd",
        optimizer="nelder_mead",
        seed=7,
        evaluations=211,
    )
    fields.update(overrides)
    return EnergyRecord(**fields)


# ---------------------------------------------------------------------------
# record identity and validation
# ---------------------------------------------------------------------------


def test_compute_id_deterministic():
    assert make_record().compute_id() == make_record().compute_id()


def test_compute_id_ignores_results():
    base = make_record().compute_id()
    assert make_record(e_vqe=None, e_exact=None, evaluations=1).compute_id() == base
    assert make_record(created_at="2026-01-01T00:00:00+00:00").compute_id() == base


@pytest.mark.parametrize(
    "field,value",
    [
        ("molecule", "HeH+"),
        ("basis", "other"),
        ("ansatz", "hea"),
        ("optimizer", "spsa"),
        ("seed", 8),
        ("geometry", [["H", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, 0.74]]),
        ("bond_length", 0.8),
        ("charge", 2),
        ("n_frozen", 1),
        ("depth", 2),
    ],
)
def test_compute_id_tracks_configuration(field, value):
    assert make_record(**{field: value}).compute_id() != make_record().compute_id()


def test_unset_setup_fields_keep_the_id():
    # charge 0, no frozen orbitals and no HEA depth hash as they did before
    # those fields existed, so such ids stay put
    assert make_record().compute_id() == "abe37473d7158bfa"
    assert make_record(ansatz="hea").compute_id() == "1cc26975beff1701"
    assert make_record(depth=1).compute_id() != make_record(depth=2).compute_id()


def test_validate_accepts_good_record():
    make_record().validate()


def test_validate_requires_molecule():
    with pytest.raises(UsageError, match="molecule"):
        make_record(molecule="").validate()


@pytest.mark.parametrize("field", ["e_hf", "e_vqe"])
def test_validate_rejects_energy_below_exact(field):
    record = make_record(**{field: -1.1373058080797822 - 1e-6})
    with pytest.raises(UsageError, match="variational bound"):
        record.validate()


@pytest.mark.parametrize("field", ["e_hf", "e_vqe"])
def test_validate_allows_slack(field):
    make_record(
        **{field: -1.1373058080797822 - 0.5 * VARIATIONAL_SLACK}
    ).validate()


@pytest.mark.parametrize("field", ["e_hf", "e_vqe", "e_exact"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), "-1.0"])
def test_validate_rejects_non_finite_energy(tmp_path, field, value):
    record = make_record(**{field: value})
    with pytest.raises(UsageError, match=f"{field} must be a finite number"):
        record.validate()
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError):
        db.put(record)
    assert db.list_ids() == []


@pytest.mark.parametrize("field, value", [
    ("bond_length", "abc"), ("bond_length", float("nan")), ("bond_length", True),
    pytest.param("bond_length", 10**400, id="bond_length-huge-int"), ("e_hf", True), ("e_exact", False),
])
def test_validate_rejects_a_non_real_number(field, value):
    with pytest.raises(UsageError, match=f"{field} must be a finite number"):
        make_record(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("n_qubits", 4.0), ("n_qubits", True), ("evaluations", "211"),
    ("seed", 7.5), ("seed", False),
    ("charge", 1.0), ("charge", None), ("n_frozen", "1"), ("n_frozen", None),
    ("depth", 2.0), ("depth", True),
])
def test_validate_rejects_a_non_integer_count(field, value):
    with pytest.raises(UsageError, match=f"{field} must be an integer"):
        make_record(**{field: value}).validate()


def test_validate_accepts_integer_lengths_and_missing_counts():
    make_record(bond_length=1, n_qubits=None, evaluations=None, seed=None).validate()


# hamiltonian_ref values that name no file under hamiltonians/
MALFORMED_REFS = [
    pytest.param("hamiltonians/0123456789abcdef.fcidump", id="bare-string"),
    pytest.param({"integrals": "../x"}, id="parent"),
    pytest.param({"integrals": "/etc/passwd"}, id="absolute"),
    pytest.param({"integrals": "hamiltonians/../x"}, id="escapes-through-hamiltonians"),
    pytest.param({"integrals": "hamiltonians/"}, id="empty-name"),
    pytest.param({"integrals": "hamiltonians/.."}, id="dotdot-name"),
    pytest.param({"integrals": "hamiltonians/a/b"}, id="two-components"),
    pytest.param({"integrals": 5}, id="non-string-path"),
    pytest.param(["hamiltonians/a.fcidump"], id="list"),
]


@pytest.mark.parametrize("ref", MALFORMED_REFS)
def test_put_refuses_a_malformed_hamiltonian_ref(tmp_path, ref):
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError, match="hamiltonian_ref must be"):
        db.put(make_record(hamiltonian_ref=ref))
    assert db.list_ids() == []


def test_validate_skips_missing_energies():
    make_record(e_exact=None).validate()
    make_record(e_vqe=None, e_hf=None).validate()


def test_round_trip_dict():
    record = make_record(record_id="abc", created_at="2026-01-01T00:00:00+00:00")
    assert EnergyRecord.from_dict(record.to_dict()) == record


@pytest.mark.parametrize("overrides", [
    {},
    {"geometry": {"fcidump": "data/fcidump/lih_d1.60.fcidump"}},
    {"hamiltonian_ref": {"fermion": "hamiltonians/0123456789abcdef.fop",
                         "pauli": "hamiltonians/fedcba9876543210.pauli"}},
    {"geometry": (("H", 0.0, 0.0, 0.0), ("H", 0.0, 0.0, 0.7354))},
])
def test_to_dict_is_asdict_in_fresh_containers(overrides):
    record = make_record(**overrides)
    data = record.to_dict()
    assert data == asdict(record)
    assert list(data) == list(asdict(record))
    assert type(data["geometry"]) is type(record.geometry)
    before = asdict(record)
    if isinstance(data["geometry"], dict):
        data["geometry"]["fcidump"] = "elsewhere"
    elif isinstance(data["geometry"], list):
        data["geometry"][1][3] = 9.0
        data["geometry"].append(["He", 0.0, 0.0, 0.0])
    if data["hamiltonian_ref"] is not None:
        data["hamiltonian_ref"]["pauli"] = "elsewhere"
    assert asdict(record) == before


# ---------------------------------------------------------------------------
# put / get / versions
# ---------------------------------------------------------------------------


def test_put_get_round_trip(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record = make_record()
    record_id = db.put(record)
    assert record_id == record.compute_id()
    loaded = db.get(record_id)
    assert loaded == record
    assert loaded.record_id == record_id
    assert loaded.created_at


def test_put_assigns_iso_timestamp(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    stamp = datetime.fromisoformat(db.get(record_id).created_at)
    assert stamp.tzinfo is not None


def test_same_configuration_stacks_versions(tmp_path):
    db = EnergyDB(tmp_path / "db")
    first = db.put(make_record(e_vqe=-1.13728))
    second = db.put(make_record(e_vqe=-1.13729))
    assert first == second
    entries = db.versions(first)
    assert [e["version"] for e in entries] == [1, 2]
    assert db.get(first).e_vqe == -1.13729          # latest wins by default
    assert db.get(first, version=1).e_vqe == -1.13728


def test_record_file_is_asdict_json(tmp_path):
    db = EnergyDB(tmp_path / "db")
    records = [
        make_record(),
        make_record(geometry={"fcidump": "data/fcidump/lih_d1.60.fcidump"}, e_vqe=None,
                    hamiltonian_ref={"fermion": "hamiltonians/a.fop",
                                     "pauli": "hamiltonians/b.pauli"}),
        make_record(geometry=(("H", 0.0, 0.0, 0.0), ("H", 0.0, 0.0, 0.7354)), seed=8),
        EnergyRecord(molecule="H2", basis="sto-3g", bond_length=0.9,
                     error="ComputationError: SCF did not converge at 0.9 Angstrom"),
    ]
    for record in records:
        record_id = db.put(record)
        (entry,) = db.versions(record_id)
        assert (db.root / entry["file"]).read_text() == json.dumps(
            asdict(record), indent=1, sort_keys=True)


def test_put_refuses_a_preset_id_of_another_computation(tmp_path):
    # Kept, the id "0"*16 would hold H2 as v1 and LiH as v2: query would
    # show only LiH and audit would find nothing wrong.
    db = EnergyDB(tmp_path / "db")
    h2 = make_record(record_id="0" * 16)
    lih = make_record(molecule="LiH", record_id="0" * 16,
                      geometry=[["Li", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, 1.6]], bond_length=1.6)
    for record in (h2, lih):
        with pytest.raises(UsageError, match=f"{'0' * 16}.*{record.compute_id()}"):
            db.put(record)
    assert [p for p in db.root.rglob("*") if p.is_file()] == []
    assert db.put(make_record(record_id=h2.compute_id())) == h2.compute_id()


def test_get_unknown_id(tmp_path):
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(KeyError):
        db.get("0" * 16)


@pytest.mark.parametrize("record_id", ["../outside", "abc", "F" * 16, 7])
def test_get_and_versions_reject_malformed_id(tmp_path, record_id):
    # The id names a file, so only 16 lowercase hex digits may reach a path.
    db = EnergyDB(tmp_path / "db")
    (tmp_path / "db" / "outside.v1.json").write_text(
        json.dumps(make_record(record_id="0" * 16).to_dict())
    )
    with pytest.raises(KeyError, match="16 hex digits"):
        db.get(record_id)
    with pytest.raises(KeyError, match="16 hex digits"):
        db.get(record_id, version=1)
    with pytest.raises(KeyError, match="16 hex digits"):
        db.versions(record_id)


def test_get_unknown_version(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    with pytest.raises(KeyError):
        db.get(record_id, version=2)


def test_put_rejects_invalid_record(tmp_path):
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError):
        db.put(make_record(e_vqe=-1.0e2))
    assert db.list_ids() == []


@pytest.mark.parametrize("record_id", ["../outside", "abc", "F" * 16])
def test_put_rejects_malformed_record_id(tmp_path, record_id):
    # The id names the record's file, so it must stay a plain file name.
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError, match="16 hex digits"):
        db.put(make_record(record_id=record_id))
    assert [p for p in db.root.rglob("*") if p.is_file()] == []


def test_list_ids_sorted(tmp_path):
    db = EnergyDB(tmp_path / "db")
    ids = {db.put(make_record(seed=s)) for s in range(5)}
    assert db.list_ids() == sorted(ids)
    assert len(ids) == 5


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def fill_query_db(db):
    for length in (0.9, 0.7, 0.5):
        db.put(
            make_record(
                molecule="H2",
                bond_length=length,
                geometry=[["H", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, length]],
            )
        )
    db.put(
        make_record(
            molecule="LiH",
            basis="sto-3g",
            bond_length=1.6,
            geometry=[["Li", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, 1.6]],
            e_hf=-7.8,
            e_vqe=None,
            e_exact=None,
        )
    )


def test_query_by_molecule(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    h2 = db.query(molecule="H2")
    assert [r.molecule for r in h2] == ["H2"] * 3
    assert [r.bond_length for r in h2] == [0.5, 0.7, 0.9]  # sorted by length
    assert len(db.query(molecule="LiH")) == 1
    assert db.query(molecule="He") == []


def test_query_by_basis(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    assert len(db.query(basis="sto-3g")) == 4
    assert db.query(basis="cc-pvdz") == []


def test_query_by_method(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    assert len(db.query(method="hf")) == 4
    # The LiH record carries no VQE or exact energy, so it drops out.
    assert len(db.query(method="vqe")) == 3
    assert len(db.query(method="exact")) == 3


def test_query_by_ansatz(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    hea_id = db.put(make_record(bond_length=0.7, ansatz="hea"))
    assert len(db.query(molecule="H2")) == 4
    assert [r.record_id for r in db.query(ansatz="hea")] == [hea_id]
    assert [r.bond_length for r in db.query(molecule="H2", ansatz="uccsd")] == [0.5, 0.7, 0.9]


def test_query_unknown_method(tmp_path):
    db = EnergyDB(tmp_path / "db")
    with pytest.raises(UsageError):
        db.query(method="ci")


def test_query_returns_latest_version(tmp_path):
    db = EnergyDB(tmp_path / "db")
    db.put(make_record(e_vqe=-1.10))
    db.put(make_record(e_vqe=-1.13))
    (record,) = db.query(molecule="H2")
    assert record.e_vqe == -1.13


def test_query_sorts_across_molecules(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    names = [r.molecule for r in db.query()]
    assert names == sorted(names)


def fill_churned_db(db, seed):
    """Seeded records with re-puts and error records, then a version gap,
    an id whose v1 is gone and a stray temporary file. Returns the id with
    the gap and the id without v1."""
    rng = random.Random(seed)
    written = []
    for k in range(40):
        if written and rng.random() < 0.3:
            record = EnergyRecord.from_dict(rng.choice(written))
            record.created_at = ""
            record.evaluations = rng.randrange(1000)
        elif rng.random() < 0.15:
            record = EnergyRecord(molecule=rng.choice(("H2", "LiH")), basis="sto-3g",
                                  bond_length=round(rng.uniform(0.5, 3.0), 3),
                                  error=f"ComputationError: point {k} failed")
        else:
            length = round(rng.uniform(0.5, 3.0), 3)
            ansatz = rng.choice((None, "uccsd", "hea"))
            record = make_record(
                molecule=rng.choice(("H2", "LiH", "HeH+")),
                basis=rng.choice(("sto-3g", "6-31g")),
                geometry=[["H", 0.0, 0.0, 0.0], ["H", 0.0, 0.0, length]],
                bond_length=length if rng.random() < 0.9 else None,
                e_hf=-1.0, e_exact=-1.1 if rng.random() < 0.7 else None,
                e_vqe=-1.05 if ansatz else None, ansatz=ansatz,
                optimizer="nelder_mead" if ansatz else None, seed=k if ansatz else None,
            )
        db.put(record)
        written.append(record.to_dict())
    stacked = [i for i in db.list_ids() if len(db.versions(i)) >= 2]
    gap = db.put(EnergyRecord.from_dict({**written[0], "created_at": ""}))
    while len(db.versions(gap)) < 4:
        db.put(EnergyRecord.from_dict({**written[0], "created_at": ""}))
    (db.records_dir / f"{gap}.v3.json").unlink()
    no_v1 = next(i for i in stacked if i != gap)
    (db.records_dir / f"{no_v1}.v1.json").unlink()
    (db.records_dir / f"tmpq8z0{TMP_SUFFIX}").write_text(json.dumps(written[1]))
    return gap, no_v1


@pytest.mark.parametrize("seed", [0, 1])
def test_query_matches_the_per_id_path(tmp_path, seed):
    db = EnergyDB(tmp_path / "db")
    gap, no_v1 = fill_churned_db(db, seed)
    assert gap in db.list_ids() and no_v1 not in db.list_ids()
    assert db.latest_versions()[gap] == len(db.versions(gap)) == 2
    per_id = [db.get(record_id) for record_id in db.list_ids()]
    for molecule, basis, method, ansatz in itertools.product(
        (None, "H2", "LiH", "HeH+", "He"), (None, "sto-3g", "6-31g"),
        (None, "hf", "vqe", "exact"), (None, "uccsd", "hea"),
    ):
        expected = sorted(
            (r for r in per_id
             if (molecule is None or r.molecule == molecule)
             and (basis is None or r.basis == basis)
             and (method is None or getattr(r, f"e_{method}") is not None)
             and (ansatz is None or r.ansatz == ansatz)),
            key=lambda r: (r.molecule, r.bond_length if r.bond_length is not None
                           else float("inf"), r.created_at),
        )
        got = db.query(molecule=molecule, basis=basis, method=method, ansatz=ansatz)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in expected]


def test_query_makes_no_per_id_version_probe(tmp_path, monkeypatch):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    expected = [r.to_dict() for r in db.query()]

    def probe(self, record_id):
        raise AssertionError("query probed versions")

    monkeypatch.setattr(EnergyDB, "versions", probe)
    assert [r.to_dict() for r in db.query()] == expected
    assert len(expected) == 4


def test_query_raises_key_error_for_a_file_gone_after_the_listing(tmp_path, monkeypatch):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    listing = db._listing()
    (db.records_dir / f"{record_id}.v1.json").unlink()
    monkeypatch.setattr(EnergyDB, "_listing", lambda self: listing)
    with pytest.raises(KeyError, match=record_id):
        db.query()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_clean(tmp_path):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)
    assert db.audit() == []


def test_audit_detects_missing_file(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    db.put(make_record())
    (db.root / db.versions(record_id)[0]["file"]).unlink()
    problems = db.audit()
    assert len(problems) == 1
    assert "missing file" in problems[0]


def test_audit_detects_corrupt_file(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    path = db.root / db.versions(record_id)[0]["file"]
    path.write_text("{not json")
    assert any("unreadable" in p for p in db.audit())


def test_audit_detects_id_mismatch(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    path = db.root / db.versions(record_id)[0]["file"]
    data = json.loads(path.read_text())
    data["record_id"] = "f" * 16
    path.write_text(json.dumps(data))
    assert any("claims id" in p for p in db.audit())


def test_audit_detects_content_of_another_id(tmp_path):
    # A hand-written file whose record hashes to another id than its name's.
    db = EnergyDB(tmp_path / "db")
    other = make_record(molecule="LiH", record_id="0" * 16)
    (db.records_dir / f"{'0' * 16}.v1.json").write_text(json.dumps(other.to_dict()))
    assert db.audit() == [f"{'0' * 16}: file records/{'0' * 16}.v1.json holds "
                          f"content id {other.compute_id()}"]


def write_unchecked(db, record):
    """Write record as version 1 of its content id, past put's validation,
    as a hand-edited file would be; return the id."""
    record.record_id = record.compute_id()
    (db.records_dir / f"{record.record_id}.v1.json").write_text(json.dumps(record.to_dict()))
    return record.record_id


def test_a_repeat_put_hamiltonian_stages_nothing(tmp_path, monkeypatch):
    # a rescan into the same db puts every point's FCIDUMP again: the
    # content-addressed name is there already, so no file is created,
    # written or fsynced
    db = EnergyDB(tmp_path / "db")
    text = "&FCI NORB=1,NELEC=0,MS2=0,\n&END\n1.5 0 0 0 0\n"
    name = db.put_hamiltonian(text)
    calls = []
    monkeypatch.setattr(molq.db.tempfile, "mkstemp", lambda *a, **k: calls.append("mkstemp"))
    monkeypatch.setattr(molq.db.os, "fsync", lambda fd: calls.append("fsync"))
    assert db.put_hamiltonian(text) == name
    assert calls == []
    assert (db.root / name).read_text() == text
    assert os.listdir(db.hamiltonians_dir) == [Path(name).name]
    assert db.audit() == []


def test_audit_detects_a_missing_hamiltonian(tmp_path):
    # the {"integrals"} ref scan points write, the {"fermion", "pauli"} ref
    # of records written before the FCIDUMP was stored, and a bare path
    # from a hand-written record, which put refuses: audit reports it as
    # malformed without looking for a file
    db = EnergyDB(tmp_path / "db")
    integrals = db.put_hamiltonian("&FCI NORB=1,NELEC=0,MS2=0,\n&END\n1.5 0 0 0 0\n")
    older = {"fermion": "hamiltonians/0123456789abcdef.fop",
             "pauli": "hamiltonians/fedcba9876543210.pauli"}
    for name in older.values():
        (db.root / name).write_text("")
    refs = [{"integrals": integrals}, older, None]
    ids = [db.put(make_record(seed=seed, hamiltonian_ref=ref)) for seed, ref in enumerate(refs)]
    bare = write_unchecked(db, make_record(seed=3, hamiltonian_ref="hamiltonians/absent.fcidump"))
    malformed = (f"{bare}: file records/{bare}.v1.json has a malformed "
                 "hamiltonian_ref 'hamiltonians/absent.fcidump'")

    def problems(missing):
        return sorted([f"{record_id}: file records/{record_id}.v1.json refers to missing {name}"
                       for record_id, name in missing.items()] + [malformed])

    assert db.audit() == problems({})
    (db.root / integrals).unlink()
    (db.root / older["pauli"]).unlink()
    assert db.audit() == problems({ids[0]: integrals, ids[1]: older["pauli"]})


@pytest.mark.parametrize("ref", MALFORMED_REFS)
def test_audit_reports_a_malformed_hamiltonian_ref_and_resolves_no_path(tmp_path, monkeypatch,
                                                                        ref):
    db = EnergyDB(tmp_path / "db")
    record_id = write_unchecked(db, make_record(hamiltonian_ref=ref))

    def refuse(path):
        raise AssertionError(f"audit looked for {path}")

    monkeypatch.setattr(os.path, "isfile", refuse)
    assert db.audit() == [f"{record_id}: file records/{record_id}.v1.json has a malformed "
                          f"hamiltonian_ref {ref!r}"]


def test_audit_of_records_without_a_hamiltonian_checks_no_file(tmp_path, monkeypatch):
    db = EnergyDB(tmp_path / "db")
    fill_query_db(db)

    def refuse(path):
        raise AssertionError(f"audit looked for {path}")

    monkeypatch.setattr(os.path, "isfile", refuse)
    assert db.audit() == []


def test_audit_detects_version_gap(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    v1 = db.records_dir / f"{record_id}.v1.json"
    v1.rename(v1.with_name(f"{record_id}.v3.json"))
    assert any("not contiguous" in p for p in db.audit())


def test_versions_past_a_gap_are_seen_only_by_audit(tmp_path):
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    db.put(make_record(e_vqe=-1.1373))
    other = db.put(make_record(seed=8))
    (db.records_dir / f"{record_id}.v1.json").unlink()
    assert db.list_ids() == [other]
    assert [r.record_id for r in db.query()] == [other]
    with pytest.raises(KeyError):
        db.get(record_id)
    assert db.get(record_id, version=2).e_vqe == -1.1373
    assert len(db.audit()) == 1


def test_stray_temporary_file_is_invisible_but_audited(tmp_path):
    # What a put interrupted between writing and linking leaves behind.
    db = EnergyDB(tmp_path / "db")
    record_id = db.put(make_record())
    stray = db.records_dir / f"tmpk3j9x2{TMP_SUFFIX}"
    stray.write_text(json.dumps(make_record(record_id="f" * 16, seed=8).to_dict()))
    assert db.list_ids() == [record_id]
    assert [r.record_id for r in db.query()] == [record_id]
    assert [e["version"] for e in db.versions(record_id)] == [1]
    with pytest.raises(KeyError):
        db.get("f" * 16)
    assert db.audit() == [f"leftover temporary file records/{stray.name}"]


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_concurrent_puts_preserve_every_version(tmp_path):
    db = EnergyDB(tmp_path / "db")
    n_threads, per_thread = 8, 5
    errors = []

    def worker(k):
        try:
            for j in range(per_thread):
                db.put(make_record(e_vqe=-1.1373 + 1e-6 * (k * per_thread + j)))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    (record_id,) = db.list_ids()
    entries = db.versions(record_id)
    assert [e["version"] for e in entries] == list(
        range(1, n_threads * per_thread + 1)
    )
    assert db.audit() == []


PUT_WORKER = """
import sys
from molq.db import EnergyDB, EnergyRecord

root, k, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
db = EnergyDB(root)
print("ready", flush=True)
sys.stdin.readline()
for j in range(count):
    db.put(EnergyRecord(molecule="H2", basis="sto-3g", e_vqe=-1.1373 + 1e-6 * (k * count + j)))
"""


def test_concurrent_processes_preserve_every_version(tmp_path):
    root, n_procs, per_proc = tmp_path / "db", 2, 12
    EnergyDB(root)
    env = {**os.environ, "PYTHONPATH": str(Path(molq.__file__).parents[1])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PUT_WORKER, str(root), str(k), str(per_proc)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for k in range(n_procs)
    ]
    try:
        for proc in procs:       # both are loaded before either puts
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.close()
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            proc.kill()
            proc.stdout.close()
    db = EnergyDB(root)
    (record_id,) = db.list_ids()
    entries = db.versions(record_id)
    assert [e["version"] for e in entries] == list(range(1, n_procs * per_proc + 1))
    written = {db.get(record_id, version=e["version"]).e_vqe for e in entries}
    assert len(written) == n_procs * per_proc
    assert db.audit() == []
