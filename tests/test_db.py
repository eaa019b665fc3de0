"""File-backed energy database: identity, versioning, queries, audit."""

import json
import os
import subprocess
import sys
import threading
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
    ],
)
def test_compute_id_tracks_configuration(field, value):
    assert make_record(**{field: value}).compute_id() != make_record().compute_id()


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


def test_validate_skips_missing_energies():
    make_record(e_exact=None).validate()
    make_record(e_vqe=None, e_hf=None).validate()


def test_round_trip_dict():
    record = make_record(record_id="abc", created_at="2026-01-01T00:00:00+00:00")
    assert EnergyRecord.from_dict(record.to_dict()) == record


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
