"""Tour of the file-backed energy database.

Runs a small scan into a throwaway database, then shows what lands on
disk: content-addressed record ids, version stacking on re-runs, query
filters, the stored FCIDUMP each point re-runs from, the integrity audit,
and CSV curve emission. Everything lives under a temporary directory that is deleted at
the end.

Run from the repository root:  python3 demos/database_tour.py
"""

import json
import tempfile
from pathlib import Path

from molq import (
    EnergyDB,
    ScanSpec,
    build_fermionic_hamiltonian,
    dense_ground_energy,
    emit_curve,
    jordan_wigner,
    parse_fcidump,
    run_scan,
    scan_point,
)

spec = ScanSpec(
    molecule="H2",
    bond_lengths=[0.6, 0.7, 0.8, 0.9],
    fragment_a=[("H", (0.0, 0.0, 0.0))],
    fragment_b=[("H", (0.0, 0.0, 0.0))],
    basis="sto-3g",
    methods=("hf", "exact"),
)

with tempfile.TemporaryDirectory() as tmp:
    db = EnergyDB(Path(tmp) / "h2db")

    print("== 1. Scan four bond lengths into the database ==")
    records = run_scan(spec, db)
    for r in records:
        print(f"  {r.record_id}  R={r.bond_length:.1f} A  "
              f"E_exact={r.e_exact:.8f}")

    print("\n== 2. On-disk layout: the records/ listing is the index ==")
    for path in sorted(db.root.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(db.root)}")
    print("  records/<id>.v<N>.json is version N; hamiltonians/ holds each point's")
    print("  FCIDUMP, named by a hash of its text, so identical integrals are stored once")

    print("\n== 3. Record ids hash the configuration, not the results ==")
    again = scan_point(spec, 0.7, db)
    entries = db.versions(again.record_id)
    print(f"  re-running R=0.7 reused id {again.record_id}; it now holds "
          f"{len(entries)} versions")
    print(f"  latest version:   {db.get(again.record_id).created_at}")
    print(f"  first version:    {db.get(again.record_id, version=1).created_at}")

    print("\n== 4. Queries ==")
    hits = db.query(molecule='H2', method='exact')
    print(f"  query(molecule='H2', method='exact') -> {len(hits)} records, "
          f"sorted by bond length:")
    print("  lengths:", [r.bond_length for r in hits])

    print("\n== 5. Stored record (JSON) ==")
    record = db.get(again.record_id)
    print("  " + json.dumps(
        {k: v for k, v in record.to_dict().items() if v is not None},
        sort_keys=True, indent=2).replace("\n", "\n  "))

    print("\n== 6. The stored FCIDUMP re-runs the exact energy ==")
    fcidump = db.root / record.hamiltonian_ref["integrals"]
    mo = parse_fcidump(fcidump.read_text())
    pauli = jordan_wigner(build_fermionic_hamiltonian(mo))
    e_exact = dense_ground_energy(pauli, mo.n_electrons).ground_energy
    print(f"  {fcidump.name}: {mo.n_orbitals} orbitals, {mo.n_electrons} electrons, "
          f"{len(pauli.coefficients)} Pauli strings on {pauli.n_qubits} qubits")
    print(f"  E_exact = {e_exact:.12f}, stored {record.e_exact:.12f}")

    print("\n== 7. Integrity audit ==")
    problems = db.audit()
    print(f"  audit() -> {problems!r}  (empty list = healthy)")

    print("\n== 8. Dissociation curve straight from the database ==")
    print(emit_curve(db.query(molecule="H2")), end="")
