"""From Gaussian integrals to a qubit Hamiltonian, step by step.

Builds H2 at its equilibrium geometry and walks the full mapping chain:
AO integrals -> restricted Hartree-Fock -> MO integrals -> second-quantized
fermionic Hamiltonian -> Jordan-Wigner Pauli sum -> qubit-wise commuting
measurement groups. Finishes with the cross-check that the Hartree-Fock
determinant's expectation value of the qubit Hamiltonian reproduces the
SCF energy.

Run from the repository root:  python3 demos/hamiltonian_terms.py
"""

from molq import (
    Geometry,
    assign_basis,
    ao_to_mo,
    build_ao_integrals,
    build_fermionic_hamiltonian,
    expectation,
    group_measurement_basis,
    hf_reference_circuit,
    jordan_wigner,
    load_basis,
    qwc_group,
    run_circuit,
    scf_solve,
    serialize_pauli,
    serialize_terms,
)

geometry = Geometry.from_angstrom(
    [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.7354))]
)
basis = load_basis("sto-3g")

print("== 1. AO integrals ==")
ao = build_ao_integrals(geometry, assign_basis(geometry, basis))
print(f"n_ao = {ao.n_ao}, n_electrons = {ao.n_electrons}")
print(f"nuclear repulsion = {ao.e_nuclear:.10f} Ha")
print(f"overlap S[0,1] = {ao.overlap[0, 1]:.10f}")

print("\n== 2. Hartree-Fock ==")
scf = scf_solve(ao)
print(f"E_HF = {scf.e_hf:.10f} Ha after {scf.iterations} iterations")
print("orbital energies:", " ".join(f"{e:+.6f}" for e in scf.orbital_energies))

print("\n== 3. MO-basis integrals ==")
mo = ao_to_mo(ao, scf.mo_coefficients)
print(f"h[0,0] = {mo.h[0, 0]:+.10f}   (00|00) = {mo.g[0, 0, 0, 0]:+.10f}")
print(f"constant (nuclear repulsion) = {mo.e_core:+.10f}")

print("\n== 4. Second-quantized Hamiltonian ==")
fermion_op = build_fermionic_hamiltonian(mo)
print(f"{len(fermion_op.coefficients)} ladder-operator terms on "
      f"{fermion_op.n_modes} spin orbitals; first five:")
print(serialize_terms(fermion_op, limit=5), end="")

print("\n== 5. Jordan-Wigner qubit Hamiltonian ==")
pauli = jordan_wigner(fermion_op)
print(f"{len(pauli.coefficients)} Pauli strings on {pauli.n_qubits} qubits:")
print(serialize_pauli(pauli), end="")

print("\n== 6. Qubit-wise commuting measurement groups ==")
groups = qwc_group(pauli)
print(f"{len(pauli.coefficients)} strings fit in {len(groups)} simultaneously "
      f"measurable groups:")
for k, group in enumerate(groups, start=1):
    basis_map = group_measurement_basis(group)
    label = "".join(basis_map.get(q, "Z") for q in range(pauli.n_qubits))
    patterns = ", ".join(line.split()[1] for line in serialize_pauli(group).splitlines())
    print(f"  group {k} (measure {label}): {patterns}")

print("\n== 7. Cross-check against SCF ==")
psi = run_circuit(hf_reference_circuit(pauli.n_qubits, mo.n_electrons))
e_ref = expectation(psi, pauli)
print(f"<HF|JW(H)|HF> = {e_ref:.10f} Ha")
print(f"scf E_HF      = {scf.e_hf:.10f} Ha")
print(f"difference    = {abs(e_ref - scf.e_hf):.2e} Ha")
