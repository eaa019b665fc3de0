"""Second-quantized Hamiltonian assembly, frozen core, and the printed
term format."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from molq import (
    ANNIHILATION,
    CREATION,
    FermionOperator,
    FermionTerm,
    UsageError,
    build_fermionic_hamiltonian,
    fci_determinant_oracle,
    freeze_core,
    serialize_terms,
)
from molq.integrals_io import MOIntegrals, parse_fcidump
from conftest import random_mo_integrals

LIH_FCIDUMP = Path(__file__).resolve().parent.parent / "data" / "fcidump" / "lih_d1.60.fcidump"


def adjoint(term: FermionTerm) -> FermionTerm:
    """The Hermitian conjugate: factors reversed, each kind flipped, the
    coefficient conjugated."""
    flipped = tuple((mode, ANNIHILATION if kind == CREATION else CREATION)
                    for mode, kind in reversed(term.factors))
    return FermionTerm(np.conjugate(term.coefficient), flipped)


def is_hermitian(op: FermionOperator, tol: float = 1e-12) -> bool:
    """True when every term's adjoint appears with the conjugate coefficient."""
    table = {}
    for term in op.terms:
        table[term.factors] = table.get(term.factors, 0.0) + term.coefficient
    for factors, coeff in table.items():
        adj = adjoint(FermionTerm(coeff, factors))
        if abs(table.get(adj.factors, 0.0) - adj.coefficient) > tol:
            return False
    return True


def one_orbital(h00, g0000=0.0, e_core=0.0, n_e=2):
    return MOIntegrals(
        1, n_e, np.array([[h00]]), np.full((1, 1, 1, 1), g0000), e_core=e_core
    )


# ------------------------------------------------- build_fermionic_hamiltonian
def test_zero_integrals_constant_only():
    op = build_fermionic_hamiltonian(one_orbital(0.0, e_core=1.5))
    assert op.constant == 1.5
    assert not op.terms


def test_one_body_spin_duplication():
    op = build_fermionic_hamiltonian(one_orbital(-0.5))
    terms = {t.factors: t.coefficient for t in op.terms}
    assert terms == {
        ((0, CREATION), (0, ANNIHILATION)): -0.5,
        ((1, CREATION), (1, ANNIHILATION)): -0.5,
    }


def test_h2_leading_one_body_coefficient(h2_14bohr):
    _, _, mo = h2_14bohr
    op = build_fermionic_hamiltonian(mo)
    coeff = {t.factors: t.coefficient for t in op.terms}[
        ((0, CREATION), (0, ANNIHILATION))
    ]
    assert abs(coeff - (-1.2528)) <= 0.002


def test_two_body_skips_null_operators():
    # a single orbital gives only the alpha-beta-alpha-beta quartic term:
    # same-spin a^dag_p a^dag_p ... vanish identically
    op = build_fermionic_hamiltonian(one_orbital(0.0, g0000=0.7746))
    quartic = [t for t in op.terms if len(t.factors) == 4]
    assert len(quartic) == 2  # (alpha,beta) and (beta,alpha) orderings
    for t in quartic:
        modes = [m for m, _ in t.factors]
        assert modes[0] != modes[1] and modes[2] != modes[3]
        assert t.coefficient == pytest.approx(0.5 * 0.7746)


def test_builder_output_is_hermitian(h2_equilibrium):
    _, _, mo = h2_equilibrium
    assert is_hermitian(build_fermionic_hamiltonian(mo))


def test_builder_hermitian_on_random_integrals():
    rng = np.random.default_rng(9)
    for _ in range(5):
        mo = random_mo_integrals(rng, 3, 2)
        assert is_hermitian(build_fermionic_hamiltonian(mo))


def test_term_count_bound(h2_equilibrium):
    _, _, mo = h2_equilibrium
    op = build_fermionic_hamiltonian(mo)
    n2 = 2 * mo.n_orbitals
    assert len(op.terms) <= n2**2 + n2**4


def test_nan_integral_is_kept():
    # only |c| < DROP_TOLERANCE is dropped, so a bad integral still shows
    op = build_fermionic_hamiltonian(one_orbital(float("nan")))
    assert len(op.terms) == 2
    assert all(np.isnan(t.coefficient) for t in op.terms)


def test_builder_emits_serialized_order(h2_equilibrium):
    _, _, h2 = h2_equilibrium
    lih = freeze_core(parse_fcidump(LIH_FCIDUMP.read_text()), 1)
    random = random_mo_integrals(np.random.default_rng(4), 3, 2)
    for mo in (h2, lih, random):
        terms = build_fermionic_hamiltonian(mo).terms
        assert {len(t.factors) for t in terms} == {2, 4}
        assert terms == sorted(terms, key=lambda t: (len(t.factors), t.factors))


def test_operator_validation():
    with pytest.raises(UsageError):
        FermionOperator(1, (FermionTerm(1.0, ((5, CREATION),)),))  # mode range
    with pytest.raises(UsageError):
        FermionOperator(1, (FermionTerm(1.0, ((-1, ANNIHILATION),)),))  # code -1, not padding
    with pytest.raises(UsageError):
        FermionOperator(1, (FermionTerm(1.0, ((0, "?"),)),))  # bad kind
    # the column form: codes 2*mode + (kind == "-"), rows padded with -1
    for factors in ([[2]], [[-2]], [[-1, 0]], [[0], [1]]):
        with pytest.raises(UsageError):
            FermionOperator(1, coefficients=[1.0], factors=factors)
    op = FermionOperator(2, coefficients=[0.5, 2.0], factors=[[0, 3], [-1, -1]])
    assert op.terms == [
        FermionTerm(0.5, ((0, CREATION), (1, ANNIHILATION))), FermionTerm(2.0, ())
    ]


# -------------------------------------------------------------- freeze_core
def test_freeze_zero_is_identity(h2_equilibrium):
    _, _, mo = h2_equilibrium
    out = freeze_core(mo, 0)
    assert out.n_orbitals == mo.n_orbitals
    assert out.n_electrons == mo.n_electrons
    assert_allclose(out.h, mo.h, rtol=0, atol=0)
    assert_allclose(out.g, mo.g, rtol=0, atol=0)
    assert out.e_core == mo.e_core


def test_freeze_all_occupied_reproduces_scf_energy(h2_equilibrium):
    _, scf, mo = h2_equilibrium
    out = freeze_core(mo, mo.n_electrons // 2)
    assert out.n_electrons == 0
    assert abs(out.e_core - scf.e_hf) <= 1e-8


def test_lih_frozen_core_close_to_full_fci():
    mo = parse_fcidump(LIH_FCIDUMP.read_text())
    full = fci_determinant_oracle(mo)
    reduced = freeze_core(mo, 1)
    assert reduced.n_orbitals == 2 and reduced.n_electrons == 2
    assert abs(fci_determinant_oracle(reduced) - full) <= 5e-3


def test_freeze_too_many_rejected(h2_equilibrium):
    _, _, mo = h2_equilibrium
    with pytest.raises(UsageError):
        freeze_core(mo, 2)  # H2 has one occupied orbital


# ----------------------------------------------------------- serialize_terms
def test_term_format_byte_exact():
    op = FermionOperator(
        2, (FermionTerm(-19.945046536186272, ((0, CREATION), (0, ANNIHILATION))),)
    )
    assert serialize_terms(op) == "-19.945046536186272 * ( +_0 -_0 )\n"


def test_constant_only_serializes_empty():
    assert serialize_terms(FermionOperator(2, (), constant=3.25)) == ""


def test_one_body_terms_listed_before_two_body(h2_equilibrium):
    _, _, mo = h2_equilibrium
    lines = serialize_terms(build_fermionic_hamiltonian(mo)).splitlines()
    sizes = [line.count("+_") + line.count("-_") for line in lines]
    assert sizes == sorted(sizes)


def test_serialize_orders_creation_before_annihilation():
    ordered = [
        ((0, CREATION),),
        ((0, ANNIHILATION),),
        ((1, CREATION),),
        ((0, CREATION), (0, ANNIHILATION)),
        ((0, CREATION), (1, ANNIHILATION)),
        ((0, ANNIHILATION), (0, CREATION)),
        ((1, CREATION), (0, ANNIHILATION)),
        ((0, CREATION), (1, CREATION), (1, ANNIHILATION), (0, ANNIHILATION)),
        ((0, ANNIHILATION), (1, CREATION), (0, CREATION), (1, ANNIHILATION)),
    ]
    terms = [FermionTerm(float(k), factors) for k, factors in enumerate(ordered)]
    shuffled = list(terms)
    np.random.default_rng(7).shuffle(shuffled)
    assert shuffled != terms
    expected = serialize_terms(FermionOperator(2, terms))
    assert [float(line.split()[0]) for line in expected.splitlines()] == list(
        range(len(ordered))
    )
    assert serialize_terms(FermionOperator(2, shuffled)) == expected


def test_limit_slices_output(h2_equilibrium):
    _, _, mo = h2_equilibrium
    op = build_fermionic_hamiltonian(mo)
    all_lines = serialize_terms(op).splitlines()
    assert serialize_terms(op, limit=3).splitlines() == all_lines[:3]


def test_adjoint_closure(h2_equilibrium):
    _, _, mo = h2_equilibrium
    op = build_fermionic_hamiltonian(mo)
    table = {t.factors: t.coefficient for t in op.terms}
    for t in op.terms:
        adj = adjoint(t)
        assert table[adj.factors] == pytest.approx(adj.coefficient)
