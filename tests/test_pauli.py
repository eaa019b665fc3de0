"""Pauli algebra, the Jordan-Wigner transform, canonicalization,
qubit-wise-commuting grouping, and the text format."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import molq.vqe
from molq.cli import main
from molq import (
    ANNIHILATION,
    CREATION,
    FermionOperator,
    FermionTerm,
    Geometry,
    ParseError,
    PauliSum,
    PauliTerm,
    ResourceError,
    UsageError,
    build_fermionic_hamiltonian,
    canonicalize,
    freeze_core,
    group_measurement_basis,
    hardware_efficient_ansatz,
    jordan_wigner,
    parse_fcidump,
    parse_pauli,
    pauli_multiply,
    qwc_group,
    run_circuit,
    sample_expectation,
    serialize_pauli,
    uccsd_ansatz,
)
from conftest import pipeline

FCIDUMPS = sorted((Path(__file__).resolve().parent.parent / "data" / "fcidump").glob("*.fcidump"))
LIH_FCIDUMP = FCIDUMPS[0].parent / "lih_d1.60.fcidump"

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def term_matrix(term, n):
    """Dense matrix of a PauliTerm with qubit 0 as the least significant bit."""
    out = np.array([[term.coefficient]], dtype=complex)
    for q in range(n):
        out = np.kron(MATS[term.letters.get(q, "I")], out)
    return out


# ------------------------------------------------------------ pauli_multiply
def test_defining_relation_xy():
    out = pauli_multiply(PauliTerm(1.0, {0: "X"}), PauliTerm(1.0, {0: "Y"}))
    assert out.letters == {0: "Z"} and out.coefficient == 1j


def test_involution_zz():
    out = pauli_multiply(PauliTerm(1.0, {0: "Z"}), PauliTerm(1.0, {0: "Z"}))
    assert out.letters == {} and out.coefficient == 1.0


def test_two_qubit_product():
    out = pauli_multiply(
        PauliTerm(1.0, {0: "X", 1: "Y"}), PauliTerm(1.0, {0: "Y", 1: "Y"})
    )
    assert out.letters == {0: "Z"} and out.coefficient == 1j


def test_product_matches_dense_matrices():
    rng = np.random.default_rng(0)
    letters = ["I", "X", "Y", "Z"]
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = PauliTerm(1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.8})
        b = PauliTerm(1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.8})
        prod = pauli_multiply(a, b)
        assert_allclose(
            term_matrix(prod, n),
            term_matrix(a, n) @ term_matrix(b, n),
            rtol=0,
            atol=1e-14,
        )


def test_associativity_exact():
    rng = np.random.default_rng(11)
    letters = ["I", "X", "Y", "Z"]

    def rand(n):
        return PauliTerm(
            1.0, {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.7}
        )

    for _ in range(300):
        n = int(rng.integers(1, 6))
        a, b, c = rand(n), rand(n), rand(n)
        lhs = pauli_multiply(pauli_multiply(a, b), c)
        rhs = pauli_multiply(a, pauli_multiply(b, c))
        assert lhs.letters == rhs.letters and lhs.coefficient == rhs.coefficient


# ------------------------------------------------------------- jordan_wigner
def test_number_operator():
    op = FermionOperator(2, (FermionTerm(1.0, ((0, CREATION), (0, ANNIHILATION))),))
    s = canonicalize(jordan_wigner(op))
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table == {(): 0.5, ((0, "Z"),): -0.5}


def test_single_creation_operator():
    op = FermionOperator(1, (FermionTerm(1.0, ((0, CREATION),)),))
    s = jordan_wigner(op)
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table[((0, "X"),)] == 0.5
    assert table[((0, "Y"),)] == -0.5j


def test_hopping_term():
    op = FermionOperator(
        2,
        (
            FermionTerm(1.0, ((0, CREATION), (1, ANNIHILATION))),
            FermionTerm(1.0, ((1, CREATION), (0, ANNIHILATION))),
        ),
    )
    s = canonicalize(jordan_wigner(op))
    table = {t.pattern_key(): t.coefficient for t in s.terms}
    assert table == {((0, "X"), (1, "X")): 0.5, ((0, "Y"), (1, "Y")): 0.5}


def test_z_chain_between_distant_modes():
    op = FermionOperator(4, (FermionTerm(1.0, ((3, CREATION), (0, ANNIHILATION))),))
    s = canonicalize(jordan_wigner(op))
    for t in s.terms:
        letters = dict(t.pattern_key())
        assert letters.get(1) == "Z" and letters.get(2) == "Z"


def test_jw_matches_dense_anticommutation():
    # {a_p, a^dag_q} = delta_pq as 3-mode dense matrices
    n = 3
    for p in range(n):
        for q in range(n):
            ap = FermionOperator(n, (FermionTerm(1.0, ((p, ANNIHILATION),)),))
            aqd = FermionOperator(n, (FermionTerm(1.0, ((q, CREATION),)),))
            mp = sum(term_matrix(t, n) for t in jordan_wigner(ap).terms)
            mq = sum(term_matrix(t, n) for t in jordan_wigner(aqd).terms)
            anti = mp @ mq + mq @ mp
            expected = np.eye(2**n) if p == q else np.zeros((2**n, 2**n))
            assert_allclose(anti, expected, rtol=0, atol=1e-14)


def test_hermitian_input_gives_real_coefficients(h2_equilibrium):
    _, _, mo = h2_equilibrium
    s = jordan_wigner(build_fermionic_hamiltonian(mo))
    for t in s.terms:
        assert t.coefficient.imag == 0.0


def test_constant_becomes_identity_term():
    op = FermionOperator(2, (), constant=0.25)
    s = jordan_wigner(op)
    assert len(s.terms) == 1
    assert s.terms[0].letters == {} and s.terms[0].coefficient == 0.25


def test_jw_rejects_more_modes_than_the_qubit_guard():
    op = FermionOperator(25, (FermionTerm(1.0, ((24, CREATION), (0, ANNIHILATION))),))
    with pytest.raises(ResourceError, match="25 modes"):
        jordan_wigner(op)
    with pytest.raises(ResourceError, match="25 qubits"):
        canonicalize(PauliSum(25, (PauliTerm(1.0, {24: "X"}),)))
    # the largest accepted register still maps, with its top qubit intact
    edge = jordan_wigner(FermionOperator(24, (FermionTerm(1.0, ((23, CREATION),)),)))
    assert all(t.letters[23] in "XY" and len(t.letters) == 24 for t in edge.terms)


def test_sum_validation_and_columns():
    with pytest.raises(UsageError):  # a mask outside the register, from terms
        PauliSum(2, (PauliTerm(1.0, {2: "X"}),))
    with pytest.raises(UsageError):  # ... past the int64 masks
        PauliSum(2, (PauliTerm(1.0, {70: "X"}),))
    for x in (4, -1):  # ... and from columns
        with pytest.raises(UsageError):
            PauliSum(2, x=[x], z=[0], coefficients=[1.0])
    with pytest.raises(UsageError):
        PauliSum(2, x=[1, 2], z=[0], coefficients=[1.0, 1.0])
    with pytest.raises(ResourceError, match="63 qubits"):
        PauliSum(63)
    assert PauliSum(62).n_qubits == 62
    s = PauliSum(2, x=[1, 0], z=[2, 3], coefficients=[0.5, -1.0])
    assert s.coefficients.dtype == np.float64
    assert [(t.letters, t.coefficient) for t in s.terms] == [
        ({0: "X", 1: "Z"}, 0.5), ({0: "Z", 1: "Z"}, -1.0)
    ]
    assert PauliSum(1, (PauliTerm(1.0), PauliTerm(2j, {0: "Y"}))).coefficients.dtype == complex
    s.terms[0].coefficient = 7.0  # terms is a fresh view: the sum is unchanged
    assert s.terms[0].coefficient == 0.5 and s.coefficients[0] == 0.5


def reference_jordan_wigner(op):
    """The scalar transform: a pauli_multiply fold per term, then a dict merge."""
    terms = [PauliTerm(complex(op.constant))] if op.constant != 0.0 else []
    for fterm in op.terms:
        partial = [PauliTerm(complex(fterm.coefficient))]
        for mode, kind in fterm.factors:
            bit, chain, sign = 1 << mode, (1 << mode) - 1, -0.5j if kind == CREATION else 0.5j
            ladder = [PauliTerm(0.5, x=bit, z=chain), PauliTerm(sign, x=bit, z=chain | bit)]
            partial = [pauli_multiply(p, e) for p in partial for e in ladder]
        terms.extend(partial)
    merged = {}
    for t in terms:
        merged[t.x, t.z] = merged.get((t.x, t.z), 0.0) + t.coefficient
    kept = [PauliTerm(c, x=x, z=z) for (x, z), c in merged.items() if abs(c) >= 1e-12]
    kept.sort(key=lambda t: (t.weight, t.pattern(op.n_modes)))
    if all(abs(t.coefficient.imag) <= 1e-12 for t in kept):
        for t in kept:
            t.coefficient = t.coefficient.real
    return PauliSum(op.n_modes, kept)


def assert_jw_byte_identical(op):
    assert serialize_pauli(jordan_wigner(op)) == serialize_pauli(reference_jordan_wigner(op))


def test_jw_byte_identical_on_molecules(sto3g, h2_equilibrium):
    assert_jw_byte_identical(build_fermionic_hamiltonian(h2_equilibrium[2]))
    for atoms, charge in (
        ([("H", (0, 0, 0.9 * k)) for k in range(4)], 0),
        ([("Li", (0, 0, 0)), ("H", (0, 0, 1.6)), ("H", (0, 0, 2.6)), ("H", (0, 0, 3.34))], 0),
        ([("He", (0, 0, 0)), ("H", (0, 0, 0.9))], 1),
    ):
        _, _, mo = pipeline(Geometry.from_angstrom(atoms, charge=charge), sto3g)
        assert_jw_byte_identical(build_fermionic_hamiltonian(mo))


@pytest.mark.parametrize("path", FCIDUMPS, ids=lambda p: p.stem)
def test_jw_byte_identical_on_lih_fcidumps(path):
    mo = parse_fcidump(path.read_text())
    assert_jw_byte_identical(build_fermionic_hamiltonian(mo))
    assert_jw_byte_identical(build_fermionic_hamiltonian(freeze_core(mo, 1)))


def test_jw_byte_identical_on_uccsd_generators(monkeypatch):
    seen = []

    def recording(op):
        seen.append(op)
        return jordan_wigner(op)

    monkeypatch.setattr(molq.vqe, "jordan_wigner", recording)
    uccsd_ansatz(8, 4)
    assert len(seen) == 1  # every slot's T_k and T_k^dagger rows in one operator
    assert_jw_byte_identical(seen[0])


def test_jw_byte_identical_on_random_operators():
    # mixed factor counts, out-of-order and repeated modes, complex
    # non-Hermitian coefficients whose imaginary parts survive
    rng = np.random.default_rng(7)
    kept_complex = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        terms = tuple(
            FermionTerm(
                complex(rng.standard_normal(), rng.standard_normal() * (rng.random() < 0.7)),
                tuple(
                    (int(rng.integers(0, n)), CREATION if rng.random() < 0.5 else ANNIHILATION)
                    for _ in range(rng.integers(0, 5))
                ),
            )
            for _ in range(rng.integers(0, 12))
        )
        op = FermionOperator(n, terms, constant=float(rng.standard_normal()) * (rng.random() < 0.5))
        assert_jw_byte_identical(op)
        kept_complex += any(isinstance(t.coefficient, complex) for t in jordan_wigner(op).terms)
    assert kept_complex > 0


# ------------------------------------------------------------- canonicalize
def test_merge_duplicates():
    s = canonicalize(PauliSum(1, (PauliTerm(1.0, {0: "X"}), PauliTerm(1.0, {0: "X"}))))
    assert len(s.terms) == 1 and s.terms[0].coefficient == 2.0


def test_cancellation_drops_term():
    s = canonicalize(PauliSum(1, (PauliTerm(1.0, {0: "X"}), PauliTerm(-1.0, {0: "X"}))))
    assert not s.terms


def test_idempotent_on_random_sums():
    rng = np.random.default_rng(3)
    letters = ["I", "X", "Y", "Z"]
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms = tuple(
            PauliTerm(
                complex(rng.standard_normal(), rng.standard_normal()),
                {q: letters[rng.integers(1, 4)] for q in range(n) if rng.random() < 0.6},
            )
            for _ in range(rng.integers(1, 8))
        )
        once = canonicalize(PauliSum(n, terms))
        twice = canonicalize(once)
        assert [(t.pattern_key(), t.coefficient) for t in once.terms] == [
            (t.pattern_key(), t.coefficient) for t in twice.terms
        ]


# ---------------------------------------------------------------- qwc_group
def test_conflicting_terms_split():
    z0 = PauliTerm(1.0, {0: "Z"})
    z0z1 = PauliTerm(1.0, {0: "Z", 1: "Z"})
    x0 = PauliTerm(1.0, {0: "X"})
    groups = qwc_group(PauliSum(2, (z0, z0z1, x0)))
    assert len(groups) == 2
    assert {t.pattern_key() for t in groups[0].terms} == {z0.pattern_key(), z0z1.pattern_key()}
    assert {t.pattern_key() for t in groups[1].terms} == {x0.pattern_key()}


def test_identical_terms_one_group():
    terms = tuple(PauliTerm(float(k + 1), {0: "Y", 2: "Y"}) for k in range(4))
    groups = qwc_group(PauliSum(3, terms))
    assert len(groups) == 1 and len(groups[0].coefficients) == 4


def test_h2_hamiltonian_group_count(h2_hamiltonian):
    groups = qwc_group(h2_hamiltonian)
    assert len(groups) <= 5
    assert sum(len(g.coefficients) for g in groups) == len(h2_hamiltonian.terms)


def test_group_measurement_basis_unions_letters():
    g = PauliSum(2, (PauliTerm(1.0, {0: "Z"}), PauliTerm(1.0, {0: "Z", 1: "X"})))
    assert group_measurement_basis(g) == {0: "Z", 1: "X"}


def reference_qwc_group(s):
    """The object-based grouping: each term is tested against a PauliTerm
    holding its group's union masks, first fit."""
    groups, bases = [], []
    for term in s.terms:
        for group, basis in zip(groups, bases):
            if ((basis.x ^ term.x) | (basis.z ^ term.z)) & (basis.x | basis.z) & (term.x | term.z) == 0:
                group.append(term)
                basis.x |= term.x
                basis.z |= term.z
                break
        else:
            groups.append([term])
            bases.append(PauliTerm(1.0, x=term.x, z=term.z))
    return groups


def assert_same_partition(s):
    groups = qwc_group(s)
    assert all(g.n_qubits == s.n_qubits for g in groups)
    assert [[(t.x, t.z, t.coefficient) for t in g.terms] for g in groups] == [
        [(t.x, t.z, t.coefficient) for t in g] for g in reference_qwc_group(s)
    ]
    for g in groups:
        letters = {}
        for t in g.terms:
            letters.update(t.letters)
        assert group_measurement_basis(g) == dict(sorted(letters.items()))
    return groups


def test_qwc_group_matches_the_object_grouping(sto3g, h2_hamiltonian, lih_h2_hamiltonian):
    h4 = pipeline(Geometry.from_angstrom([("H", (0, 0, 0.9 * k)) for k in range(4)]), sto3g)[2]
    for s, n_groups in (
        (h2_hamiltonian, 5),
        (jordan_wigner(build_fermionic_hamiltonian(h4)), None),
        (lih_h2_hamiltonian, 194),
    ):
        groups = assert_same_partition(s)
        assert n_groups is None or len(groups) == n_groups


def test_qwc_group_matches_the_object_grouping_on_random_sums():
    # random masks are mostly Y-bearing; every third row comes back as a duplicate
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        masks = rng.integers(0, 2**n, size=(int(rng.integers(0, 30)), 2))
        masks = rng.permutation(np.concatenate([masks, masks[::3]]))
        coefficients = rng.standard_normal(len(masks))
        if rng.random() < 0.5:
            coefficients = coefficients + 1j * rng.standard_normal(len(masks))
        assert_same_partition(PauliSum(n, x=masks[:, 0], z=masks[:, 1], coefficients=coefficients))
    with pytest.raises(UsageError, match="qubit-wise commute"):
        group_measurement_basis(PauliSum(1, x=[1, 0], z=[0, 1], coefficients=[1.0, 1.0]))
    assert qwc_group(PauliSum(2)) == [] and group_measurement_basis(PauliSum(2)) == {}


def test_grouping_sampling_and_parsing_build_no_pauli_terms(h2_hamiltonian, monkeypatch, capsys):
    psi = run_circuit(hardware_efficient_ansatz(4, 1).circuit, np.linspace(0.3, 1.1, 8))
    text = serialize_pauli(h2_hamiltonian)
    built = []
    init = PauliTerm.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliTerm, "__init__", counting)
    for group in qwc_group(h2_hamiltonian):
        group_measurement_basis(group)
    sample_expectation(psi, h2_hamiltonian, shots=100, seed=0)
    parse_pauli(text)
    assert main(["ham", "--fcidump", str(LIH_FCIDUMP), "--pauli"]) == 0
    assert capsys.readouterr().out
    assert built == []
    PauliSum(1, (PauliTerm(1.0),)).terms  # the counter does see a construction
    assert len(built) == 2


# --------------------------------------------------------------- text format
def test_serialize_parse_roundtrip(h2_hamiltonian):
    back = parse_pauli(serialize_pauli(h2_hamiltonian))
    assert back.n_qubits == h2_hamiltonian.n_qubits
    assert {t.pattern_key(): t.coefficient for t in back.terms} == pytest.approx(
        {t.pattern_key(): t.coefficient for t in h2_hamiltonian.terms}
    )


def test_serialize_pattern_orientation():
    # qubit 0 is printed leftmost
    s = PauliSum(3, (PauliTerm(1.0, {0: "X"}),))
    line = serialize_pauli(s).strip()
    assert line.split()[1] == "XII"


def test_parse_serialize_byte_identical(h2_hamiltonian, lih_h2_hamiltonian):
    lih = parse_fcidump(LIH_FCIDUMP.read_text())
    for s in (h2_hamiltonian, jordan_wigner(build_fermionic_hamiltonian(lih)), lih_h2_hamiltonian):
        text = serialize_pauli(s)
        back = parse_pauli(text)
        assert serialize_pauli(back) == text
        assert back.n_qubits == s.n_qubits
        assert np.array_equal(back.x, s.x) and np.array_equal(back.z, s.z)


def test_parse_pauli_mask_edges():
    top = parse_pauli("0.5 " + "I" * 61 + "Y\n-1.0 X" + "Z" * 61 + "\n")
    assert top.x.tolist() == [1 << 61, 1] and top.z.tolist() == [1 << 61, 2**62 - 2]
    assert top.coefficients.tolist() == [0.5, -1.0]
    assert parse_pauli("").n_qubits == 0 and len(parse_pauli("\n \n").coefficients) == 0
    with pytest.raises(ResourceError, match="63 qubits"):
        parse_pauli("1.0 " + "X" * 63 + "\n")
    with pytest.raises(ParseError) as err:  # a bad line still wins, as it is read first
        parse_pauli("1.0 " + "X" * 63 + "\nbroken\n")
    assert err.value.line == 2


def test_parse_pauli_errors():
    with pytest.raises(ParseError):
        parse_pauli("1.0 XQ\n")
    with pytest.raises(ParseError) as err:
        parse_pauli("1.0 XI\nbroken\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:  # ragged patterns are not padded
        parse_pauli("1.0 XI\n2.0 Z\n")
    assert err.value.line == 2
