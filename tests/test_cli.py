"""Command-line interface: subcommands, formats, and exit codes."""

import json
from pathlib import Path

import pytest

from molq.cli import main
from molq.db import EnergyDB
from molq.exact import dense_ground_energy
from molq.integrals import Geometry
from molq.integrals_io import write_fcidump
from molq.pauli import parse_pauli

from conftest import pipeline

H2_GEOMETRY = """\
# hydrogen molecule near equilibrium
H 0.0 0.0 0.0
H 0.0 0.0 0.7354
"""

E_HF_H2 = -1.1169814467789592
E_EXACT_H2 = -1.1373058080797822
LIH_FCIDUMP = str(
    Path(__file__).resolve().parent.parent / "data" / "fcidump" / "lih_d1.60.fcidump"
)


@pytest.fixture(scope="module")
def h2_xyz(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "h2.xyz"
    path.write_text(H2_GEOMETRY)
    return str(path)


@pytest.fixture(scope="module")
def h2_fcidump(tmp_path_factory, h2_xyz):
    path = tmp_path_factory.mktemp("cli") / "h2.fcidump"
    code = main(["scf", "--geometry", h2_xyz, "--basis", "sto-3g",
                 "--output", str(path)])
    assert code == 0
    return str(path)


def value_after(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    raise AssertionError(f"no line starts with {prefix!r}:\n{out}")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_no_arguments_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag(capsys):
    assert main(["scf", "--nope"]) == 1


def test_missing_required_flag(capsys):
    assert main(["scf"]) == 1


def test_bad_optimizer_choice(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--optimizer", "bogus"]) == 1


# ---------------------------------------------------------------------------
# integrals / scf
# ---------------------------------------------------------------------------


def test_integrals_stdout(capsys, h2_xyz):
    assert main(["integrals", "--geometry", h2_xyz, "--basis", "sto-3g"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("NAO 2")
    for section in ("OVERLAP", "CORE", "ERI", "ENUC", "NELEC"):
        assert f"SECTION {section}" in out


def test_integrals_output_file(capsys, h2_xyz, tmp_path):
    target = tmp_path / "h2.ao"
    code = main(["integrals", "--geometry", h2_xyz, "--basis", "sto-3g",
                 "--output", str(target)])
    assert code == 0
    assert target.read_text().startswith("NAO 2")
    assert "n_ao=2" in capsys.readouterr().out


def test_scf_stdout(capsys, h2_xyz):
    assert main(["scf", "--geometry", h2_xyz, "--basis", "sto-3g"]) == 0
    out = capsys.readouterr().out
    assert float(value_after(out, "E_HF = ")) == pytest.approx(E_HF_H2, abs=1e-10)
    assert int(value_after(out, "iterations = ")) >= 1
    assert len(value_after(out, "orbital_energies = ").split()) >= 1


def test_scf_verbose_streams_iterations(capsys, h2_xyz):
    assert main(["scf", "--geometry", h2_xyz, "--basis", "sto-3g",
                 "--verbose"]) == 0
    assert "iter 1 E=" in capsys.readouterr().err


def test_scf_writes_fcidump(h2_fcidump):
    text = Path(h2_fcidump).read_text()
    assert text.startswith("&FCI NORB=2,NELEC=2")


# ---------------------------------------------------------------------------
# ham / vqe / exact
# ---------------------------------------------------------------------------


def test_ham_fermion_listing(capsys, h2_fcidump):
    assert main(["ham", "--fcidump", h2_fcidump]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all(" * ( " in line for line in lines)


def test_ham_limit(capsys, h2_fcidump):
    assert main(["ham", "--fcidump", h2_fcidump, "--limit", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_ham_pauli_round_trips(capsys, h2_fcidump):
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli"]) == 0
    pauli = parse_pauli(capsys.readouterr().out)
    assert pauli.n_qubits == 4
    assert dense_ground_energy(pauli).ground_energy == pytest.approx(
        E_EXACT_H2, abs=1e-9
    )


def test_ham_geometry_route_matches_fcidump(capsys, h2_xyz, h2_fcidump):
    assert main(["ham", "--geometry", h2_xyz, "--basis", "sto-3g",
                 "--pauli"]) == 0
    from_geometry = capsys.readouterr().out
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli"]) == 0
    from_dump = capsys.readouterr().out
    a, b = parse_pauli(from_geometry), parse_pauli(from_dump)
    assert len(a.terms) == len(b.terms)
    for ta, tb in zip(a.terms, b.terms):
        assert ta.letters == tb.letters
        assert ta.coefficient == pytest.approx(tb.coefficient, abs=1e-12)


def test_vqe_reaches_exact(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--budget", "600",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    energy = float(value_after(out, "E_VQE = "))
    assert energy == pytest.approx(E_EXACT_H2, abs=1.6e-3)
    assert energy >= E_EXACT_H2 - 1e-9
    assert "ansatz = uccsd" in out
    assert "optimizer = nelder_mead" in out
    assert int(value_after(out, "evaluations = ")) > 0
    assert "converged = true" in out


def test_vqe_verbose_streams_evals(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--budget", "50",
                 "--optimizer", "spsa", "--verbose"]) == 0
    assert "eval 1 E=" in capsys.readouterr().err


def test_vqe_budget_below_one_exits_1(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert "E_VQE" not in captured.out


def test_scan_budget_below_one_writes_nothing(capsys, tmp_path):
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7", "--methods", "hf,vqe",
                 "--budget", "0", "--db", str(db_dir)]) == 1
    assert "budget" in capsys.readouterr().err
    assert EnergyDB(db_dir).list_ids() == []


def test_vqe_hea(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--ansatz", "hea",
                 "--depth", "1", "--budget", "300"]) == 0
    out = capsys.readouterr().out
    assert "ansatz = hea(depth=1)" in out
    assert float(value_after(out, "E_VQE = ")) >= E_EXACT_H2 - 1e-9


@pytest.mark.parametrize("method", ["dense", "fci"])
def test_exact_methods_agree(capsys, h2_fcidump, method):
    assert main(["exact", "--fcidump", h2_fcidump, "--method", method]) == 0
    energy = float(value_after(capsys.readouterr().out, "E_exact = "))
    assert energy == pytest.approx(E_EXACT_H2, abs=1e-9)


def test_exact_dense_is_the_cation_sector(capsys, tmp_path, sto3g):
    """HeH+ has two electrons; the dense path must not return the lower
    energy of the neutral (three-electron) sector."""
    geometry = Geometry.from_angstrom(
        [("He", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.774))], charge=1
    )
    _, _, mo = pipeline(geometry, sto3g)
    path = tmp_path / "heh.fcidump"
    path.write_text(write_fcidump(mo))
    energies = {}
    for method in ("dense", "fci"):
        assert main(["exact", "--fcidump", str(path), "--method", method]) == 0
        energies[method] = float(value_after(capsys.readouterr().out, "E_exact = "))
    assert energies["dense"] == pytest.approx(energies["fci"], abs=1e-9)


def test_exact_freeze_core(capsys):
    assert main(["exact", "--fcidump", LIH_FCIDUMP, "--method", "fci"]) == 0
    full = float(value_after(capsys.readouterr().out, "E_exact = "))
    assert main(["exact", "--fcidump", LIH_FCIDUMP, "--method", "fci",
                 "--freeze", "1"]) == 0
    frozen = float(value_after(capsys.readouterr().out, "E_exact = "))
    assert frozen == pytest.approx(full, abs=5e-3)
    assert frozen != full


# ---------------------------------------------------------------------------
# scan / db / curve
# ---------------------------------------------------------------------------


def test_scan_db_curve_end_to_end(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    csv_path = tmp_path / "curve.csv"
    code = main([
        "scan", "--molecule", "H2",
        "--fragment-a", "H", "--fragment-b", "H",
        "--basis", "sto-3g", "--lengths", "0.6:0.8:0.1",
        "--methods", "hf,exact", "--db", db_dir,
        "--output", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    point_lines = [l for l in out.splitlines() if l.startswith("length=")]
    assert len(point_lines) == 3
    assert all("e_hf=" in l and "e_exact=" in l and "id=" in l for l in point_lines)

    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "bond_length_angstrom,e_hf,e_vqe,e_exact"
    assert len(csv_lines) == 4

    assert main(["db", "list", "--db", db_dir]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert len(listing) == 3
    assert all("versions=1" in l and "molecule=H2" in l for l in listing)

    assert main(["curve", "--db", db_dir, "--molecule", "H2"]) == 0
    assert capsys.readouterr().out == csv_path.read_text()


def test_scan_comma_lengths(capsys, tmp_path):
    code = main([
        "scan", "--molecule", "H2",
        "--fragment-a", "H", "--fragment-b", "H",
        "--basis", "sto-3g", "--lengths", "0.7,0.75",
        "--methods", "hf",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "length=0.7 " in out and "length=0.75 " in out
    assert "e_exact=" not in out


def test_scan_rejects_bad_lengths(capsys):
    assert main([
        "scan", "--molecule", "H2",
        "--fragment-a", "H", "--fragment-b", "H",
        "--basis", "sto-3g", "--lengths", "0.8:0.6:0.1:9",
    ]) == 1


def test_db_put_get_query(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    record = {
        "molecule": "H2", "basis": "sto-3g", "bond_length": 0.7354,
        "e_hf": E_HF_H2, "e_exact": E_EXACT_H2,
    }
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps(record))

    assert main(["db", "put", "--db", db_dir, str(record_file)]) == 0
    record_id = capsys.readouterr().out.strip()
    assert len(record_id) == 16

    assert main(["db", "get", "--db", db_dir, record_id]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded["molecule"] == "H2"
    assert loaded["e_hf"] == E_HF_H2

    assert main(["db", "put", "--db", db_dir, str(record_file)]) == 0
    capsys.readouterr()
    assert main(["db", "get", "--db", db_dir, record_id, "--version", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["record_id"] == record_id

    assert main(["db", "query", "--db", db_dir, "--molecule", "H2",
                 "--method", "hf", "--limit", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["molecule"] == "H2"


def test_db_query_filters_by_ansatz(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    for ansatz in ("hea", "uccsd"):
        record_file = tmp_path / f"{ansatz}.json"
        record_file.write_text(json.dumps({
            "molecule": "H2", "basis": "sto-3g", "bond_length": 0.7354,
            "e_vqe": E_EXACT_H2, "ansatz": ansatz, "optimizer": "nelder_mead", "seed": 0,
        }))
        assert main(["db", "put", "--db", db_dir, str(record_file)]) == 0
    capsys.readouterr()
    assert main(["db", "query", "--db", db_dir]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    for ansatz in ("hea", "uccsd"):
        assert main(["db", "query", "--db", db_dir, "--ansatz", ansatz]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["ansatz"] for line in lines] == [ansatz]
    assert main(["db", "query", "--db", db_dir, "--ansatz", "qaoa"]) == 1


def test_db_put_rejects_bound_violation(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    record_file = tmp_path / "bad.json"
    record_file.write_text(json.dumps({
        "molecule": "H2", "basis": "sto-3g",
        "e_vqe": E_EXACT_H2 - 1e-3, "e_exact": E_EXACT_H2,
    }))
    assert main(["db", "put", "--db", db_dir, str(record_file)]) == 1
    assert "variational bound" in capsys.readouterr().err


def test_db_get_missing_record(capsys, tmp_path):
    assert main(["db", "get", "--db", str(tmp_path / "db"), "0" * 16]) == 1


def test_db_get_rejects_path_traversal(capsys, tmp_path):
    # a record file beside records/ must not be reachable through the id
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g"}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 0
    record_id = capsys.readouterr().out.strip()
    (db_dir / "outside.v1.json").write_text(
        (db_dir / "records" / f"{record_id}.v1.json").read_text()
    )
    for args in (["../outside"], ["../outside", "--version", "1"]):
        assert main(["db", "get", "--db", str(db_dir), *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16 hex digits" in captured.err


def test_db_put_without_file(capsys, tmp_path):
    assert main(["db", "put", "--db", str(tmp_path / "db")]) == 1


def test_db_audit_healthy_exits_0(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g"}))
    assert main(["db", "put", "--db", db_dir, str(record_file)]) == 0
    capsys.readouterr()
    assert main(["db", "audit", "--db", db_dir]) == 0
    assert capsys.readouterr().out == ""


def test_db_audit_problems_exit_2(capsys, tmp_path):
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g"}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 0
    record_id = capsys.readouterr().out.strip()
    (db_dir / "records" / f"{record_id}.v1.json").write_text("{not json")
    (db_dir / "records" / "tmpx1.tmp").write_text("")
    assert main(["db", "audit", "--db", str(db_dir)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "leftover temporary file records/tmpx1.tmp"
    assert lines[1].startswith(f"{record_id}: unreadable records/{record_id}.v1.json")
    assert len(lines) == 2


def test_curve_without_matches(capsys, tmp_path):
    assert main(["curve", "--db", str(tmp_path / "db"), "--molecule", "H2"]) == 1


def test_curve_picks_one_configuration(capsys, tmp_path):
    # an hf,exact scan and an hf,vqe scan of the same lengths: two records
    # per length, so the curve needs the ansatz filter
    db_dir = str(tmp_path / "db")
    for methods in ("hf,exact", "hf,vqe"):
        assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                     "--basis", "sto-3g", "--lengths", "0.7,0.9",
                     "--methods", methods, "--db", db_dir]) == 0
    capsys.readouterr()
    assert main(["curve", "--db", db_dir, "--molecule", "H2"]) == 1
    err = capsys.readouterr().err
    assert "two records at bond length 0.7" in err
    assert "ansatz" in err and "e_vqe" in err
    assert main(["curve", "--db", db_dir, "--molecule", "H2", "--ansatz", "uccsd"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.7", "0.9"]
    assert all(row.split(",")[2] and not row.split(",")[3] for row in rows[1:])


# ---------------------------------------------------------------------------
# exit codes 2 and 3
# ---------------------------------------------------------------------------


def test_computation_failure_exits_2(capsys, tmp_path):
    path = tmp_path / "overlap.xyz"
    path.write_text("H 0 0 0\nH 0 0 0\n")
    assert main(["scf", "--geometry", str(path), "--basis", "sto-3g"]) == 2
    assert "computation failed" in capsys.readouterr().err


def test_missing_input_file_exits_3(capsys):
    assert main(["ham", "--fcidump", "/no/such/file.fcidump"]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_parse_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("H 0 0\n")
    assert main(["scf", "--geometry", str(path), "--basis", "sto-3g"]) == 1
    assert "error" in capsys.readouterr().err
