"""Command-line interface: subcommands, formats, and exit codes."""

import json
import math
from pathlib import Path

import pytest

from molq.cli import build_parser, main
from molq.db import EnergyDB, EnergyRecord
from molq.exact import dense_ground_energy
from molq.fermion import build_fermionic_hamiltonian, freeze_core
from molq.integrals import Geometry
from molq.integrals_io import parse_fcidump, write_fcidump
from molq.pauli import jordan_wigner, serialize_pauli
from molq.vqe import OptimizerConfig
from molq.workbench import ScanSpec, scan_point

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
    # the short names nm and gd are gone: --optimizer takes OPTIMIZER_METHODS
    for name in ("bogus", "nm", "gd"):
        assert main(["vqe", "--fcidump", h2_fcidump, "--optimizer", name]) == 1
        assert "invalid choice" in capsys.readouterr().err


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


def test_ham_pauli_limit_keeps_the_first_strings(capsys, h2_fcidump):
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli"]) == 0
    strings = capsys.readouterr().out.splitlines(keepends=True)
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli", "--limit", "3"]) == 0
    assert capsys.readouterr().out == "".join(strings[:3])


@pytest.mark.parametrize("pauli", [[], ["--pauli"]])
def test_ham_negative_limit_exits_1(capsys, pauli):
    assert main(["ham", "--fcidump", LIH_FCIDUMP, "--limit", "-1", *pauli]) == 1
    captured = capsys.readouterr()
    assert "--limit" in captured.err
    assert captured.out == ""


def pauli_of(mo):
    return jordan_wigner(build_fermionic_hamiltonian(mo))


def test_ham_pauli_round_trips(capsys, h2_fcidump):
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli"]) == 0
    pauli = pauli_of(parse_fcidump(Path(h2_fcidump).read_text()))
    assert capsys.readouterr().out == serialize_pauli(pauli)
    assert pauli.n_qubits == 4
    assert dense_ground_energy(pauli).ground_energy == pytest.approx(
        E_EXACT_H2, abs=1e-9
    )


def test_ham_geometry_route_matches_fcidump(capsys, h2_xyz, h2_fcidump, h2_equilibrium):
    assert main(["ham", "--geometry", h2_xyz, "--basis", "sto-3g",
                 "--pauli"]) == 0
    from_geometry = capsys.readouterr().out
    assert main(["ham", "--fcidump", h2_fcidump, "--pauli"]) == 0
    from_dump = capsys.readouterr().out
    a, b = pauli_of(h2_equilibrium[2]), pauli_of(parse_fcidump(Path(h2_fcidump).read_text()))
    assert (from_geometry, from_dump) == (serialize_pauli(a), serialize_pauli(b))
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


def test_vqe_and_scan_take_their_defaults_from_the_library():
    parser = build_parser()
    for argv in (["vqe"], ["scan", "--molecule", "H2", "--lengths", "0.7"]):
        args = parser.parse_args(argv)
        assert (args.ansatz, args.depth) == (ScanSpec.ansatz, ScanSpec.depth)
        assert (args.optimizer, args.budget, args.seed) == (
            OptimizerConfig.method, OptimizerConfig.budget, OptimizerConfig.seed)
    args = parser.parse_args(["scan", "--molecule", "H2", "--lengths", "0.7"])
    assert (args.charge, args.freeze) == (ScanSpec.charge, ScanSpec.n_frozen)
    assert tuple(args.methods.split(",")) == ScanSpec.methods


@pytest.mark.parametrize("optimizer, budget", [("gradient_descent", "3"), ("spsa", "1")])
def test_vqe_budget_below_one_step_evaluates_theta0(capsys, optimizer, budget):
    # a gradient step costs 1 + 2 * 3 evaluations here, an SPSA step 2
    assert main(["vqe", "--fcidump", LIH_FCIDUMP, "--freeze", "1",
                 "--optimizer", optimizer, "--budget", budget]) == 0
    out = capsys.readouterr().out
    assert int(value_after(out, "evaluations = ")) == 1
    assert math.isfinite(float(value_after(out, "E_VQE = ")))
    assert "converged = false" in out


def test_scan_budget_below_one_writes_nothing(capsys, tmp_path):
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7", "--methods", "hf,vqe",
                 "--budget", "0", "--db", str(db_dir)]) == 1
    assert "budget" in capsys.readouterr().err
    assert EnergyDB(db_dir).list_ids() == []


def test_vqe_negative_seed_exits_1(capsys):
    assert main(["vqe", "--fcidump", LIH_FCIDUMP, "--freeze", "1",
                 "--optimizer", "spsa", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert "E_VQE" not in captured.out


def test_scan_negative_seed_writes_nothing(capsys, tmp_path):
    db_dir = tmp_path / "db"
    pattern = LIH_FCIDUMP.replace("1.60", "{length:.2f}")
    assert main(["scan", "--molecule", "LiH", "--fcidump-pattern", pattern,
                 "--lengths", "1.6", "--methods", "hf,vqe", "--freeze", "1",
                 "--optimizer", "spsa", "--seed", "-1", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert captured.out == ""
    assert EnergyDB(db_dir).list_ids() == []



def test_scan_has_no_workers_flag(capsys, tmp_path):
    # a scan runs its points serially; ScanSpec.workers accepts only 1
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7", "--workers", "2",
                 "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --workers 2" in captured.err
    assert captured.out == ""
    assert not db_dir.exists()


def test_vqe_hea(capsys, h2_fcidump):
    assert main(["vqe", "--fcidump", h2_fcidump, "--ansatz", "hea",
                 "--depth", "1", "--budget", "300"]) == 0
    out = capsys.readouterr().out
    assert "ansatz = hea(depth=1)" in out
    assert float(value_after(out, "E_VQE = ")) >= E_EXACT_H2 - 1e-9


def test_vqe_hea_outside_the_sector_exits_2(capsys, tmp_path):
    # at 1.8 Angstrom the depth-2 HEA optimum drifts out of the 2-electron
    # sector; its energy must not be printed as the molecule's
    xyz = tmp_path / "h2_stretched.xyz"
    xyz.write_text("H 0.0 0.0 0.0\nH 0.0 0.0 1.8\n")
    assert main(["vqe", "--geometry", str(xyz), "--basis", "sto-3g",
                 "--ansatz", "hea", "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert "E_VQE" not in captured.out
    assert "HEA state left the 2-electron sector: <N> = " in captured.err
    # the optimizer's end point moves with the last bits of the integrals
    found = float(captured.err.rsplit("= ", 1)[1])
    assert found == pytest.approx(2.010507, abs=1e-5)


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


@pytest.mark.parametrize("header,code,stream", [
    ("NORB=+,NELEC=2", 1, "error:"),                    # not an integer
    ("NORB=2,NELEC=-2", 1, "error:"),                   # negative electron count
    ("NORB=100000,NELEC=2", 2, "computation failed:"),  # ERIs past the byte limit
])
def test_exact_refuses_bad_fcidump_header(capsys, tmp_path, header, code, stream):
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI {header},MS2=0,&END\n0.5 1 1 0 0\n")
    assert main(["exact", "--fcidump", str(path), "--method", "fci"]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(stream) and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_exact_refuses_a_non_finite_integral(capsys, tmp_path, value):
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,&END\n{value} 1 1 2 2\n0.6 1 1 1 1\n"
                    "0.6 2 2 2 2\n-1.2 1 1 0 0\n-0.5 2 2 0 0\n0.0 0 0 0 0\n")
    assert main(["exact", "--fcidump", str(path), "--method", "dense"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_exact_fci_refuses_a_non_finite_integral(capsys, tmp_path, value):
    # the FCI path never builds a Pauli image: parse_fcidump refuses the line
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,&END\n0.6 1 1 1 1\n{value} 1 1 2 2\n"
                    "0.6 2 2 2 2\n-1.2 1 1 0 0\n-0.5 2 2 0 0\n0.0 0 0 0 0\n")
    assert main(["exact", "--fcidump", str(path), "--method", "fci"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 3:") and "non-finite" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# scan / db / curve
# ---------------------------------------------------------------------------


def test_scan_charge_gets_its_own_id(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    ids = {}
    for charge in ("0", "2"):
        assert main(["scan", "--molecule", "LiH", "--fragment-a", "Li", "--fragment-b", "H",
                     "--basis", "sto-3g", "--lengths", "1.6", "--methods", "hf,exact",
                     "--charge", charge, "--db", db_dir]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        ids[charge] = line.split("id=")[1]
    assert ids["0"] == "e1a060af790ca3f6"     # a neutral id is what it was before charge
    assert ids["2"] != ids["0"]
    db = EnergyDB(db_dir)
    by_charge = {record.charge: record for record in db.query(molecule="LiH")}
    assert by_charge[0].e_exact == pytest.approx(-7.8434, abs=1e-4)
    assert by_charge[2].e_exact == pytest.approx(-6.8049, abs=1e-4)
    assert [len(db.versions(i)) for i in ids.values()] == [1, 1]


def test_scan_budget_gets_its_own_id(capsys, tmp_path):
    # two budgets are two computations; each VQE record stores its budget
    # and the version of its ansatz
    db_dir = str(tmp_path / "db")
    ids = {}
    for budget in ("30", "40"):
        assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                     "--basis", "sto-3g", "--lengths", "0.7354", "--methods", "hf,vqe",
                     "--budget", budget, "--db", db_dir]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        ids[budget] = line.split("id=")[1]
    assert ids["30"] != ids["40"]
    db = EnergyDB(db_dir)
    for budget, record_id in ids.items():
        record = db.get(record_id)
        assert (record.budget, record.ansatz_version) == (int(budget), 2)
        assert record.evaluations <= int(budget)


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


def test_scan_rejects_an_unformattable_fcidump_pattern(capsys, tmp_path):
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "LiH", "--fcidump-pattern", "x_{foo}",
                 "--lengths", "1.6", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "fcidump_pattern" in captured.err
    assert captured.out == ""
    assert EnergyDB(db_dir).list_ids() == []


@pytest.mark.parametrize("flag, value", [
    ("--fragment-a", "H,H"), ("--fragment-b", "Li,H"), ("--fragment-a", "H,"),
    ("--fragment-b", ""),
])
def test_scan_refuses_a_fragment_flag_of_other_than_one_symbol(capsys, tmp_path, flag, value):
    fragments = {"--fragment-a": "H", "--fragment-b": "H", flag: value}
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H3", *(x for item in fragments.items() for x in item),
                 "--basis", "sto-3g", "--lengths", "0.7", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} takes one element symbol")
    assert "ScanSpec" in captured.err and captured.out == ""
    assert not db_dir.exists() or EnergyDB(db_dir).list_ids() == []


@pytest.mark.parametrize("symbol, message", [
    ("Xx", "unknown element symbol 'Xx'"),
    ("C", "basis 'sto-3g' has no functions for element C"),
], ids=["unknown", "no-functions"])
def test_scan_refuses_a_fragment_symbol_no_point_could_run(capsys, tmp_path, symbol, message):
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "HX", "--fragment-a", symbol, "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7,0.8", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""
    assert not (db_dir / "records").exists() or not any((db_dir / "records").iterdir())


def test_scan_refuses_a_geometry_no_closed_shell_point_could_run(capsys, tmp_path):
    # neutral He...H: 3 electrons, so every point's SCF would refuse
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "HeH", "--fragment-a", "He", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.8,1.0", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: closed-shell methods need an even electron count "
                            "in 0..4 for 2 orbitals, got 3\n")
    assert captured.out == ""
    assert not (db_dir / "records").exists() or not any((db_dir / "records").iterdir())


def test_scan_refuses_to_freeze_more_orbitals_than_its_pairs(capsys, tmp_path):
    # H2 has one electron pair, so every point's freeze_core would refuse
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7,0.9", "--freeze", "2",
                 "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot freeze 2 orbitals with 2 electrons\n"
    assert captured.out == ""
    assert not (db_dir / "records").exists() or not any((db_dir / "records").iterdir())


def test_scan_names_the_cause_when_every_point_fails(capsys, tmp_path):
    db_dir = tmp_path / "db"
    pattern = str(tmp_path / "absent_{length:.2f}.fcidump")
    assert main(["scan", "--molecule", "LiH", "--fcidump-pattern", pattern,
                 "--lengths", "1.6,1.7", "--db", str(db_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed: every scan point failed")
    assert "1.6 Angstrom" in err and "FileNotFoundError" in err and "absent_1.60" in err


@pytest.mark.parametrize("extra", [
    ["--basis", "sto-3g"], ["--fragment-a", "Li"], ["--fragment-b", "H"],
])
def test_scan_refuses_a_basis_or_fragments_beside_an_fcidump_pattern(capsys, tmp_path, extra):
    db_dir = tmp_path / "db"
    pattern = LIH_FCIDUMP.replace("1.60", "{length:.2f}")
    assert main(["scan", "--molecule", "LiH", "--fcidump-pattern", pattern, *extra,
                 "--lengths", "1.6", "--db", str(db_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "give no basis or fragments" in captured.err
    assert captured.out == "" and EnergyDB(db_dir).list_ids() == []


@pytest.mark.parametrize("row", ["1.0 inf", "nan 0.5"])
def test_scf_refuses_a_basis_file_with_a_bad_primitive(capsys, tmp_path, h2_xyz, row):
    basis = tmp_path / "bad.basis"
    basis.write_text(f"ELEMENT H 1\n{row}\n")
    assert main(["scf", "--geometry", h2_xyz, "--basis", str(basis)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2:") and captured.out == ""


def test_cli_prints_the_energies_of_the_scan_point(capsys, h2_xyz):
    """The CLI runs the stages scan_point runs: the same energies, bit for bit."""
    spec = ScanSpec(molecule="H2", bond_lengths=[0.7354], fragment_a=[("H", (0.0, 0.0, 0.0))],
                    fragment_b=[("H", (0.0, 0.0, 0.0))], basis="sto-3g",
                    methods=("hf", "vqe", "exact"), budget=50)
    record = scan_point(spec, 0.7354)
    geometry = ["--geometry", h2_xyz, "--basis", "sto-3g"]
    for command, prefix, energy in ((["scf"], "E_HF = ", record.e_hf),
                                    (["exact"], "E_exact = ", record.e_exact),
                                    (["vqe", "--budget", "50"], "E_VQE = ", record.e_vqe)):
        assert main(command + geometry) == 0
        assert value_after(capsys.readouterr().out, prefix) == repr(energy)

    lih = ScanSpec(molecule="LiH", bond_lengths=[1.6], methods=("exact",), n_frozen=1,
                   fcidump_pattern=LIH_FCIDUMP.replace("1.60", "{length:.2f}"))
    assert main(["exact", "--fcidump", LIH_FCIDUMP, "--freeze", "1"]) == 0
    assert value_after(capsys.readouterr().out, "E_exact = ") == repr(
        scan_point(lih, 1.6).e_exact)


@pytest.mark.parametrize("scan", [
    ["--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H", "--basis", "sto-3g",
     "--lengths", "0.7354"],
    ["--molecule", "LiH", "--fcidump-pattern", LIH_FCIDUMP.replace("1.60", "{length:.2f}"),
     "--lengths", "1.6", "--freeze", "1"],
], ids=["H2", "LiH frozen core"])
def test_scan_hamiltonian_reruns_through_molq_exact(capsys, tmp_path, scan):
    db_dir = tmp_path / "db"
    assert main(["scan", *scan, "--methods", "hf,exact", "--db", str(db_dir)]) == 0
    (record,) = EnergyDB(db_dir).query()
    stored = db_dir / record.hamiltonian_ref["integrals"]
    if "--freeze" in scan:
        shipped = parse_fcidump(Path(LIH_FCIDUMP).read_text())
        assert stored.read_text() == write_fcidump(freeze_core(shipped, 1))
    capsys.readouterr()
    assert main(["exact", "--fcidump", str(stored)]) == 0
    energy = float(value_after(capsys.readouterr().out, "E_exact = "))
    assert abs(energy - record.e_exact) <= 1e-12


def test_scan_rejects_bad_lengths(capsys):
    # unparsable numbers, and a range refused by its point count before
    # any point is made (1e-12 steps would be 2e11 points)
    for lengths in ("0.8:0.6:0.1:9", "abc", "0.5:abc:0.1", "0.5:0.7:1e-12", "0.5:inf:0.1"):
        assert main([
            "scan", "--molecule", "H2",
            "--fragment-a", "H", "--fragment-b", "H",
            "--basis", "sto-3g", "--lengths", lengths,
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")


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


def test_db_query_negative_limit_exits_1(capsys, tmp_path):
    db_dir = str(tmp_path / "db")
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "e_hf": E_HF_H2}))
    assert main(["db", "put", "--db", db_dir, str(record_file)]) == 0
    capsys.readouterr()
    assert main(["db", "query", "--db", db_dir, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--limit" in captured.err
    assert captured.out == ""


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


def test_db_put_rejects_a_record_id_of_other_content(capsys, tmp_path):
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g",
                                       "record_id": "0" * 16}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 1
    err = capsys.readouterr().err
    assert "0" * 16 in err and "content id" in err
    assert EnergyDB(db_dir).list_ids() == []


def test_db_put_rejects_mistyped_fields_and_the_db_still_reads(capsys, tmp_path):
    db_dir = tmp_path / "db"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "bond_length": 0.7354,
                                "e_hf": E_HF_H2, "e_exact": E_EXACT_H2}))
    assert main(["db", "put", "--db", str(db_dir), str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g",
                               "bond_length": "abc", "e_hf": True}))
    assert main(["db", "put", "--db", str(db_dir), str(bad)]) == 1
    assert "bond_length must be a finite number" in capsys.readouterr().err
    assert len(list((db_dir / "records").iterdir())) == 1
    for command in (["db", "query"], ["db", "list"], ["curve", "--molecule", "H2"]):
        assert main(command + ["--db", str(db_dir)]) == 0
        assert "0.7354" in capsys.readouterr().out


@pytest.mark.parametrize("ref", ["hamiltonians/0123456789abcdef.fcidump",
                                 {"integrals": "../x"}, {"integrals": "/etc/passwd"}],
                         ids=["bare-string", "parent", "absolute"])
def test_db_put_rejects_a_hamiltonian_ref_outside_hamiltonians(capsys, tmp_path, ref):
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g",
                                       "hamiltonian_ref": ref}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 1
    assert "hamiltonian_ref must be" in capsys.readouterr().err
    assert EnergyDB(db_dir).list_ids() == []


@pytest.mark.parametrize("field, value, message", [
    ("molecule", 5, "molecule must be a non-empty string"),
    ("basis", ["sto-3g"], "basis must be a non-empty string"),
    ("ansatz", 1, "ansatz must be a string"),
    ("optimizer", ["nelder_mead"], "optimizer must be a string"),
    ("error", {"kind": "SCF"}, "error must be a string"),
    ("created_at", 20261019, "created_at must be a string"),
])
def test_db_put_rejects_mistyped_strings_and_the_db_still_reads(capsys, tmp_path, field,
                                                                value, message):
    db_dir = tmp_path / "db"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "bond_length": 0.7354}))
    assert main(["db", "put", "--db", str(db_dir), str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "bond_length": 0.9,
                               field: value}))
    assert main(["db", "put", "--db", str(db_dir), str(bad)]) == 1
    assert message in capsys.readouterr().err
    assert len(list((db_dir / "records").iterdir())) == 1
    assert main(["db", "query", "--db", str(db_dir)]) == 0
    assert "0.7354" in capsys.readouterr().out


def test_db_list_matches_the_per_id_path(capsys, tmp_path, monkeypatch):
    # re-puts, an id with a version gap and an id without v1
    db = EnergyDB(tmp_path / "db")
    ids = []
    for length, puts in ((0.5, 1), (0.7, 4), (0.9, 2), (None, 3)):
        for k in range(puts):
            ids.append(db.put(EnergyRecord(molecule="H2", basis="sto-3g",
                                           bond_length=length, e_hf=-1.0 - k)))
    gap, no_v1 = ids[1], ids[5]
    (db.records_dir / f"{gap}.v3.json").unlink()
    (db.records_dir / f"{no_v1}.v1.json").unlink()
    expected = ""
    for record_id in db.list_ids():
        record = db.get(record_id)
        expected += f"{record_id} versions={len(db.versions(record_id))} molecule=H2"
        expected += "\n" if record.bond_length is None else f" length={record.bond_length:g}\n"
    assert f"{gap} versions=2 " in expected and no_v1 not in expected

    def probe(self, record_id):
        raise AssertionError("db list probed versions")

    monkeypatch.setattr(EnergyDB, "versions", probe)
    assert main(["db", "list", "--db", str(db.root)]) == 0
    assert capsys.readouterr().out == expected


def test_db_get_missing_record(capsys, tmp_path):
    assert main(["db", "get", "--db", str(tmp_path / "db"), "0" * 16]) == 1
    # the KeyError's message is printed as it is, not quoted again by str()
    for target, message in [
        (["0" * 16], "0000000000000000 has no version 1"),
        (["0" * 16 + ".v1.json"], "record_id '0000000000000000.v1.json' is not 16 hex digits"),
        (["0" * 16, "--version", "0"], "version must be an integer >= 1, got 0"),
    ]:
        capsys.readouterr()
        assert main(["db", "get", "--db", str(tmp_path / "db"), *target]) == 1
        assert capsys.readouterr().err == f"error: no such record: {message}\n"


def test_db_get_refuses_version_0(capsys, tmp_path):
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g"}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 0
    record_id = capsys.readouterr().out.strip()
    assert main(["db", "get", "--db", str(db_dir), record_id, "--version", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no such record" in captured.err and "integer >= 1, got 0" in captured.err


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


H2_SCAN = ["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
           "--basis", "sto-3g"]


@pytest.mark.parametrize("argv, message", [
    (["ham", "--fcidump", LIH_FCIDUMP, "--limit", "abc"], "want an int >= 0, got 'abc'"),
    (["vqe"], "--geometry is required here"),
    (H2_SCAN + ["--lengths", "1:2:0"], "length step must be positive"),
    (["db", "put", "--db", "{db}", ""], "db put needs a record JSON file"),
    (["db", "get", "--db", "{db}", ""], "db get needs a record id"),
    (["db", "put", "--db", "{db}", "{record}"], "bad record file"),
], ids=["limit", "vqe-input", "length-step", "put-target", "get-target", "record-file"])
def test_cli_refuses_bad_input_with_exit_1(capsys, tmp_path, argv, message):
    record = tmp_path / "record.json"
    record.write_text("not a record")
    assert main([arg.format(db=tmp_path / "db", record=record) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_scan_prints_a_failed_point_beside_one_that_ran(capsys):
    # at 1.8 Angstrom the depth-2 HEA optimum leaves the 2-electron sector
    assert main(H2_SCAN + ["--lengths", "0.7,1.8", "--methods", "hf,vqe",
                           "--ansatz", "hea", "--depth", "2"]) == 0
    ran, failed = capsys.readouterr().out.splitlines()
    assert ran.startswith("length=0.7 e_hf=") and " e_vqe=" in ran
    assert failed.startswith(
        "length=1.8 FAILED: ComputationError: HEA state left the 2-electron sector")


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


def test_an_unreadable_record_is_one_io_error_line_naming_it(capsys, tmp_path):
    # these readers ended in a JSONDecodeError traceback; audit lists the file
    db_dir = tmp_path / "db"
    record_file = tmp_path / "rec.json"
    record_file.write_text(json.dumps({"molecule": "H2", "basis": "sto-3g", "bond_length": 0.7}))
    assert main(["db", "put", "--db", str(db_dir), str(record_file)]) == 0
    record_id = capsys.readouterr().out.strip()
    (db_dir / "records" / f"{record_id}.v1.json").write_text("{not json")
    for argv in (["db", "list"], ["db", "query"], ["db", "get", record_id],
                 ["curve", "--molecule", "H2"]):
        assert main([*argv, "--db", str(db_dir)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"I/O error: unreadable records/{record_id}.v1.json")
        assert "molq db audit" in line
    assert main(["db", "audit", "--db", str(db_dir)]) == 2
    assert capsys.readouterr().out.startswith(f"{record_id}: unreadable records/{record_id}.v1.json")


def test_db_audit_missing_hamiltonian_exits_2(capsys, tmp_path):
    db_dir = tmp_path / "db"
    assert main(["scan", "--molecule", "H2", "--fragment-a", "H", "--fragment-b", "H",
                 "--basis", "sto-3g", "--lengths", "0.7354", "--methods", "hf",
                 "--db", str(db_dir)]) == 0
    assert main(["db", "audit", "--db", str(db_dir)]) == 0
    capsys.readouterr()
    (stored,) = (db_dir / "hamiltonians").iterdir()
    stored.unlink()
    assert main(["db", "audit", "--db", str(db_dir)]) == 2
    (record_id,) = EnergyDB(db_dir).list_ids()
    assert capsys.readouterr().out == (f"{record_id}: file records/{record_id}.v1.json refers "
                                       f"to missing hamiltonians/{stored.name}\n")


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
