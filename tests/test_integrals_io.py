"""FCIDUMP round-trips and parser error handling, and the native AO file
against its round-trip oracle."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from molq import (
    Geometry,
    ParseError,
    ResourceError,
    UsageError,
    ao_to_mo,
    assign_basis,
    build_ao_integrals,
    fci_determinant_oracle,
    freeze_core,
    hf_reference_circuit,
    hf_reference_energy,
    parse_fcidump,
    scf_solve,
    uccsd_ansatz,
    write_ao_file,
    write_fcidump,
)
from molq.integrals import AOIntegrals, pair_index
from molq.integrals_io import ERI_BYTES_LIMIT, MOIntegrals, closed_shell_pairs
from conftest import random_mo_integrals

FCIDUMP_DIR = Path(__file__).resolve().parent.parent / "data" / "fcidump"
FCIDUMPS = sorted(FCIDUMP_DIR.glob("*.fcidump"))


# ------------------------------------------------------------ parse_fcidump
def test_parse_minimal_one_body():
    mo = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n0.5 1 1 0 0\n")
    assert mo.n_orbitals == 2 and mo.n_electrons == 2
    assert mo.h[0, 0] == 0.5
    assert np.count_nonzero(mo.h) == 1
    assert np.count_nonzero(mo.g) == 0
    assert mo.e_core == 0.0


def test_parse_two_body_orbit_of_itself():
    mo = parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0,&END\n0.7746 1 1 1 1\n")
    assert mo.g[0, 0, 0, 0] == 0.7746
    assert np.count_nonzero(mo.g) == 1


def test_parse_fans_out_eightfold_orbit():
    mo = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n0.25 2 1 1 1\n")
    for idx in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        assert mo.g[idx] == 0.25
    assert np.count_nonzero(mo.g) == 4


def test_parse_one_body_symmetrized():
    mo = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n-0.3 2 1 0 0\n")
    assert mo.h[1, 0] == -0.3 and mo.h[0, 1] == -0.3


def test_parse_header_slash_terminator():
    mo = parse_fcidump("&FCI NORB=1,NELEC=0,MS2=0,\n/\n1.5 0 0 0 0\n")
    assert mo.e_core == 1.5


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_fcidump("NORB=2\n")  # missing &FCI
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NELEC=2,MS2=0,&END\n")  # missing NORB
    with pytest.raises(ParseError) as err:
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n0.5 1 1 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\n0.5 3 1 0 0\n")  # index range
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,&END\nx 1 1 0 0\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("indices", ["0 0 0 0", "2 1 0 0", "2 1 2 2"])
def test_parse_refuses_non_finite_values(value, indices):
    with pytest.raises(ParseError, match="non-finite") as err:
        parse_fcidump(f"&FCI NORB=2,NELEC=2,MS2=0,&END\n0.5 1 1 0 0\n{value} {indices}\n")
    assert err.value.line == 3


def test_parse_last_line_of_an_orbit_wins():
    mo = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,&END\n"
                       "0.5 2 1 3 1\n0.7 1 2 1 3\n0.9 3 1 1 2\n0.2 2 1 0 0\n0.3 1 2 0 0\n")
    assert mo.g[1, 0, 2, 0] == mo.g[0, 2, 0, 1] == 0.9
    assert np.count_nonzero(mo.g) == 8
    assert mo.h[1, 0] == mo.h[0, 1] == 0.3


@pytest.mark.parametrize("value", ["+", "-", "", "2.0", "two", "0x2"])
def test_parse_header_value_not_an_integer(value):
    with pytest.raises(ParseError, match="NORB") as err:
        parse_fcidump(f"&FCI NORB={value},NELEC=2,MS2=0,&END\n")
    assert err.value.line == 1


@pytest.mark.parametrize("nelec", [-2, -1, 5])
def test_parse_electron_count_outside_spin_orbitals(nelec):
    with pytest.raises(UsageError, match=f"electron count {nelec}"):
        parse_fcidump(f"&FCI NORB=2,NELEC={nelec},MS2=0,&END\n0.5 1 1 0 0\n")


def test_parse_refuses_a_high_spin_ms2():
    # a triplet header on the shipped LiH point: its closed-shell e_hf and
    # (2, 2)-block e_exact would be reported as if it were a singlet
    text = (FCIDUMP_DIR / "lih_d1.60.fcidump").read_text()
    with pytest.raises(ParseError, match="MS2=2 with NELEC=4") as err:
        parse_fcidump(text.replace("MS2=0", "MS2=2", 1))
    assert err.value.line == 1


@pytest.mark.parametrize("nelec, ms2, accepted", [
    (2, "MS2=0,", True), (2, "", True), (2, "MS2=1,", False), (2, "MS2=-2,", False),
    (3, "MS2=0,", True), (3, "MS2=1,", True), (3, "", True), (3, "MS2=-1,", False),
    (3, "MS2=3,", False),
])
def test_parse_accepts_ms2_zero_or_the_parity_of_nelec(nelec, ms2, accepted):
    text = f"&FCI NORB=2,NELEC={nelec},{ms2}&END\n0.5 1 1 0 0\n"
    if accepted:
        assert parse_fcidump(text).n_electrons == nelec
    else:
        with pytest.raises(ParseError, match=f"{ms2[:-1]} with NELEC={nelec}"):
            parse_fcidump(text)


# --------------------------------------------------------- the closed-shell rule
@pytest.mark.parametrize("n_electrons, n_orbitals, pairs", [(0, 0, 0), (0, 3, 0), (4, 3, 2), (6, 3, 3)])
def test_closed_shell_pairs(n_electrons, n_orbitals, pairs):
    assert closed_shell_pairs(n_electrons, n_orbitals) == pairs


@pytest.mark.parametrize("n_electrons, n_orbitals", [(1, 3), (3, 3), (8, 3), (-2, 3), (2, 0)])
def test_closed_shell_pairs_refuses(n_electrons, n_orbitals):
    with pytest.raises(UsageError, match=f"in 0..{2 * n_orbitals} for {n_orbitals} orbitals, "
                                         f"got {n_electrons}"):
        closed_shell_pairs(n_electrons, n_orbitals)


ODD_MO = MOIntegrals(2, 3, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("call", [
    lambda: scf_solve(AOIntegrals(2, np.eye(2), np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.0, 3)),
    lambda: hf_reference_energy(ODD_MO),
    lambda: freeze_core(ODD_MO, 0),
    lambda: fci_determinant_oracle(ODD_MO),
    lambda: hf_reference_circuit(4, 3),
    lambda: uccsd_ansatz(4, 3),
], ids=["scf_solve", "hf_reference_energy", "freeze_core", "fci_determinant_oracle",
        "hf_reference_circuit", "uccsd_ansatz"])
def test_every_closed_shell_method_refuses_odd_n_with_one_message(call):
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == ("closed-shell methods need an even electron count "
                              "in 0..4 for 2 orbitals, got 3")


def test_size_guard_before_allocation():
    # 8 * 100000^4 bytes would be 745 PiB: refused from the header alone
    with pytest.raises(ResourceError, match="100000 orbitals"):
        parse_fcidump("&FCI NORB=100000,NELEC=2,MS2=0,&END\n")


def test_size_guard_limit_is_107_orbitals():
    assert 8 * 107**4 <= ERI_BYTES_LIMIT < 8 * 108**4
    with pytest.raises(ResourceError, match="108 orbitals"):
        parse_fcidump("&FCI NORB=108,NELEC=2,MS2=0,&END\n")


# ------------------------------------------------------------ write_fcidump
@pytest.mark.parametrize("path", FCIDUMPS, ids=lambda path: path.name)
def test_shipped_fcidumps_round_trip_exactly(path):
    text = path.read_text()
    assert write_fcidump(parse_fcidump(text)) == text


def test_eleven_shipped_fcidumps():
    assert len(FCIDUMPS) == 11


def test_write_core_only_single_data_line():
    mo = MOIntegrals(1, 0, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)), e_core=1.5)
    lines = write_fcidump(mo).splitlines()
    data = [ln for ln in lines if not ln.startswith("&")]
    assert data == ["1.5 0 0 0 0"]


def test_roundtrip_random_integrals():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mo = random_mo_integrals(rng, 3, 4)
        back = parse_fcidump(write_fcidump(mo))
        assert back.n_orbitals == mo.n_orbitals
        assert back.n_electrons == mo.n_electrons
        assert_allclose(back.h, mo.h, rtol=0, atol=1e-14)
        assert_allclose(back.g, mo.g, rtol=0, atol=1e-14)
        assert_allclose(back.e_core, mo.e_core, rtol=0, atol=1e-14)


def test_h2_fcidump_roundtrip_preserves_fci_energy(h2_equilibrium):
    _, _, mo = h2_equilibrium
    again = parse_fcidump(write_fcidump(mo))
    assert abs(fci_determinant_oracle(again) - fci_determinant_oracle(mo)) < 1e-12


# ---------------------------------------------------------------- AO files
def read_ao_file(text: str) -> AOIntegrals:
    """The AOIntegrals in write_ao_file's text, each lower-triangle entry
    set with its mirror: the writer's round-trip oracle."""
    head, *sections = text.split("SECTION ")
    n = int(head.split()[1])
    data = {name: [line.split() for line in lines]
            for name, *lines in map(str.splitlines, sections)}
    index = pair_index(n)

    def symmetric(name, size=n, position=lambda i, j: (i, j)):
        m = np.zeros((size, size))
        for value, *labels in data[name]:
            r, c = position(*(int(label) - 1 for label in labels))
            m[r, c] = m[c, r] = float(value)
        return m

    pairs = symmetric("ERI", n * (n + 1) // 2,
                      lambda i, j, k, l: (index[i, j], index[k, l]))
    return AOIntegrals(n, symmetric("OVERLAP"), symmetric("CORE"),
                       pairs[index[:, :, None, None], index],
                       float(data["ENUC"][0][0]), int(data["NELEC"][0][0]))


def test_read_minimal_ao_file():
    ao = AOIntegrals(1, np.ones((1, 1)), np.full((1, 1), -0.5), np.zeros((1, 1, 1, 1)), 0.0, 1)
    text = write_ao_file(ao)
    assert text == ("NAO 1\nSECTION OVERLAP\n1 1 1\nSECTION CORE\n-0.5 1 1\nSECTION ERI\n"
                    "SECTION ENUC\n0\nSECTION NELEC\n1\n")
    back = read_ao_file(text)
    assert back.n_ao == 1
    assert back.overlap[0, 0] == 1.0
    assert back.core_hamiltonian[0, 0] == -0.5
    assert back.eri[0, 0, 0, 0] == 0.0 and back.n_electrons == 1


def test_ao_file_roundtrip(h2_equilibrium):
    ao, _, _ = h2_equilibrium
    back = read_ao_file(write_ao_file(ao))
    assert_allclose(back.overlap, ao.overlap, rtol=0, atol=1e-14)
    assert_allclose(back.core_hamiltonian, ao.core_hamiltonian, rtol=0, atol=1e-14)
    assert_allclose(back.eri, ao.eri, rtol=0, atol=1e-14)
    assert back.e_nuclear == pytest.approx(ao.e_nuclear, abs=1e-14)
    assert back.n_electrons == ao.n_electrons


def test_ao_file_scf_pipeline_equivalence(h2_equilibrium):
    ao, scf, _ = h2_equilibrium
    back = read_ao_file(write_ao_file(ao))
    scf2 = scf_solve(back)
    assert abs(scf2.e_hf - scf.e_hf) < 1e-12


AO_FILE_SHA256 = {
    "H2": "670f9930dc84b70b719fc8bc5815bcc30ed0a3f484e5a7215431fd5b075c12d8",
    "LiH-H2": "1155fcfa63aa7724adcc8480e1c387631735031b6511e85c12d8bc3b1ca35b7b",
    "HeH+": "c370449c26fd0f78597a7bcef48b0a60f7a4ad5f0e3291ff473ac53cd73b4f6f",
}
AO_FILE_GEOMETRIES = {
    "H2": Geometry.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.7354))]),
    "LiH-H2": Geometry.from_angstrom(
        [("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))]
    ),
    "HeH+": Geometry.from_angstrom([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], charge=1),
}


@pytest.mark.parametrize("name", AO_FILE_SHA256)
def test_ao_file_bytes_are_pinned(sto3g, name):
    geometry = AO_FILE_GEOMETRIES[name]
    ao = build_ao_integrals(geometry, assign_basis(geometry, sto3g))
    text = write_ao_file(ao)
    assert hashlib.sha256(text.encode()).hexdigest() == AO_FILE_SHA256[name]
    back = read_ao_file(text)
    assert np.array_equal(back.eri, ao.eri)
    assert np.array_equal(back.overlap, ao.overlap)
    assert np.array_equal(back.core_hamiltonian, ao.core_hamiltonian)
