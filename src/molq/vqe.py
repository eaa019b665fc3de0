"""VQE: ansatz construction, parameter-shift gradients, classical optimizers.

Both ansatz kinds start from the Hartree-Fock reference (theta = 0 prepares
it exactly). UCCSD is the product of factors exp(-i phi/2 P), one per Pauli
string P of each excitation generator, and each factor is one native Pauli
rotation gate; phi enters a shared parameter slot through the gate's scale
factor, which keeps the parameter-shift rule exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .errors import UsageError
from .fermion import ANNIHILATION, CREATION, FermionOperator, FermionTerm
from .pauli import PauliSum, jordan_wigner
from .statevector import Circuit, run_circuit, expectation


@dataclass
class Ansatz:
    circuit: Circuit          # includes the HF preparation prefix
    parameter_count: int
    descriptor: str


@dataclass
class VQEResult:
    energy: float
    parameters: np.ndarray
    evaluations: int
    history: list             # best-so-far energy per objective evaluation
    converged: bool


def hf_reference_circuit(n_qubits: int, n_electrons: int) -> Circuit:
    """X gates filling the occupied alpha and beta blocks (blocked ordering)."""
    if n_electrons % 2 != 0:
        raise UsageError("HF reference needs an even electron count")
    circuit = Circuit(n_qubits)
    if n_electrons == 0:
        return circuit
    if n_qubits % 2 != 0:
        raise UsageError("blocked spin ordering needs an even qubit count")
    n_occ = n_electrons // 2
    if n_occ > n_qubits // 2:
        raise UsageError("more electron pairs than spatial orbitals")
    for q in range(n_occ):
        circuit.x(q)
    for q in range(n_qubits // 2, n_qubits // 2 + n_occ):
        circuit.x(q)
    return circuit


def hardware_efficient_ansatz(n_qubits: int, depth: int, n_electrons: int = 0) -> Ansatz:
    """HF prefix, then `depth` [RY layer + CZ chain] blocks, then a final RY
    layer; n_qubits*(depth+1) parameters."""
    if depth < 0:
        raise UsageError("depth must be >= 0")
    circuit = hf_reference_circuit(n_qubits, n_electrons)
    slot = 0
    for _ in range(depth):
        for q in range(n_qubits):
            circuit.ry(q, slot=slot)
            slot += 1
        for q in range(n_qubits - 1):
            circuit.cz(q, q + 1)
    for q in range(n_qubits):
        circuit.ry(q, slot=slot)
        slot += 1
    return Ansatz(
        circuit=circuit,
        parameter_count=n_qubits * (depth + 1),
        descriptor=f"hea(depth={depth})",
    )


def _append_excitation(circuit: Circuit, factors: tuple, n_qubits: int, slot: int):
    """Append exp(theta_slot * (T - T^dagger)) for T given by `factors`.

    The Jordan-Wigner image of T - T^dagger is a sum of mutually commuting
    Pauli strings with purely imaginary coefficients i*k; each becomes one
    exponential factor with phi = -2*k*theta.
    """
    t = FermionTerm(1.0, factors)
    t_dag = t.adjoint()
    generator = FermionOperator(
        n_modes=n_qubits, terms=[t, FermionTerm(-t_dag.coefficient, t_dag.factors)]
    )
    image = jordan_wigner(generator)
    for term in image.terms:
        coeff = complex(term.coefficient)
        if abs(coeff.real) > 1e-12:
            raise UsageError("excitation generator is not anti-Hermitian")
        circuit.pauli_rot(term.x, term.z, slot=slot, scale=-2.0 * coeff.imag)


def uccsd_ansatz(n_qubits: int, n_electrons: int) -> Ansatz:
    """HF prefix plus Trotterized spin-conserving singles and alpha-beta
    doubles, one parameter per excitation."""
    if n_qubits % 2 != 0:
        raise UsageError("blocked spin ordering needs an even qubit count")
    if n_electrons % 2 != 0 or n_electrons <= 0:
        raise UsageError("UCCSD needs a positive even electron count")
    n_spatial = n_qubits // 2
    n_occ = n_electrons // 2
    n_virt = n_spatial - n_occ
    if n_virt <= 0:
        raise UsageError("no virtual orbitals to excite into")

    circuit = hf_reference_circuit(n_qubits, n_electrons)
    slot = 0
    n_singles = 0
    for spin in (0, n_spatial):
        for i in range(n_occ):
            for a in range(n_occ, n_spatial):
                factors = ((a + spin, CREATION), (i + spin, ANNIHILATION))
                _append_excitation(circuit, factors, n_qubits, slot)
                slot += 1
                n_singles += 1
    n_doubles = 0
    for i in range(n_occ):
        for j in range(n_occ):
            for a in range(n_occ, n_spatial):
                for b in range(n_occ, n_spatial):
                    factors = (
                        (a, CREATION),
                        (b + n_spatial, CREATION),
                        (j + n_spatial, ANNIHILATION),
                        (i, ANNIHILATION),
                    )
                    _append_excitation(circuit, factors, n_qubits, slot)
                    slot += 1
                    n_doubles += 1
    return Ansatz(
        circuit=circuit,
        parameter_count=slot,
        descriptor=f"uccsd(singles={n_singles},doubles={n_doubles})",
    )


def parameter_shift_gradient(a: Ansatz, h: PauliSum, theta) -> np.ndarray:
    """dE/dtheta_k via +-pi/2 shifts of each gate's effective angle, scaled
    by the gate's scale factor and summed over gates sharing slot k."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(a.parameter_count)
    for gi, gate in enumerate(a.circuit.gates):
        if gate.slot is None:
            continue
        values = []
        for sign in (1.0, -1.0):
            shifted = replace(gate, angle=gate.angle + sign * 0.5 * math.pi)
            gates = list(a.circuit.gates)
            gates[gi] = shifted
            psi = run_circuit(Circuit(a.circuit.n_qubits, gates), theta)
            values.append(expectation(psi, h))
        grad[gate.slot] += gate.scale * 0.5 * (values[0] - values[1])
    return grad


@dataclass
class OptimizerConfig:
    method: str = "nelder_mead"   # nelder_mead | spsa | gradient_descent
    budget: int = 2000            # objective-evaluation budget
    seed: int = 0
    spsa_a: float = 0.1
    spsa_c: float = 0.1
    gd_step: float = 0.1
    gd_tol: float = 1e-6
    nm_fatol: float = 1e-9
    nm_xatol: float = 1e-8


@dataclass
class MinimizeResult:
    parameters: np.ndarray
    value: float
    evaluations: int
    converged: bool

    def __iter__(self):
        # allows `theta, value, evaluations = minimize(...)`
        yield from (self.parameters, self.value, self.evaluations)


def minimize(objective, theta0, config: OptimizerConfig | None = None, gradient=None) -> MinimizeResult:
    """Derivative-free / gradient minimization, deterministic given the seed.

    gradient_descent uses the supplied gradient callable when given (each
    call charged as 2*P evaluations against the budget), otherwise +-pi/2
    parameter shifts of the objective itself.
    """
    config = config or OptimizerConfig()
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    n_params = theta0.size

    state = {"count": 0, "best_value": math.inf, "best_theta": theta0.copy()}

    def f(x):
        x = np.asarray(x, dtype=float)
        state["count"] += 1
        value = float(objective(x))
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_theta"] = x.copy()
        return value

    def result(converged):
        return MinimizeResult(
            parameters=state["best_theta"],
            value=state["best_value"],
            evaluations=state["count"],
            converged=converged,
        )

    if n_params == 0:
        f(theta0)
        return result(True)

    if config.method == "nelder_mead":
        simplex = np.tile(theta0, (n_params + 1, 1))
        for k in range(n_params):
            simplex[k + 1, k] += 0.1
        res = scipy.optimize.minimize(
            f,
            theta0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "fatol": config.nm_fatol,
                "xatol": config.nm_xatol,
                "maxfev": config.budget,
                "maxiter": config.budget,
                "disp": False,
            },
        )
        return result(bool(res.success))

    if config.method == "spsa":
        rng = np.random.default_rng(config.seed)
        big_a = 0.1 * config.budget
        theta = theta0.copy()
        k = 0
        while state["count"] + 2 <= config.budget:
            a_k = config.spsa_a / (k + 1 + big_a) ** 0.602
            c_k = config.spsa_c / (k + 1) ** 0.101
            delta = rng.integers(0, 2, size=n_params) * 2.0 - 1.0
            f_plus = f(theta + c_k * delta)
            f_minus = f(theta - c_k * delta)
            ghat = (f_plus - f_minus) / (2.0 * c_k) * delta
            theta = theta - a_k * ghat
            k += 1
        return result(False)

    if config.method == "gradient_descent":
        if gradient is None:
            def gradient(x):
                g = np.zeros(n_params)
                for i in range(n_params):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += 0.5 * math.pi
                    xm[i] -= 0.5 * math.pi
                    g[i] = 0.5 * (f(xp) - f(xm))
                return g
            gradient_cost = 0       # already counted through f
        else:
            gradient_cost = 2 * n_params
        theta = theta0.copy()
        while True:
            f(theta)
            g = np.asarray(gradient(theta), dtype=float)
            state["count"] += gradient_cost
            if np.max(np.abs(g)) < config.gd_tol:
                return result(True)
            if state["count"] + 1 + max(gradient_cost, 2 * n_params) > config.budget:
                return result(False)
            theta = theta - config.gd_step * g

    raise UsageError(f"unknown optimizer method {config.method!r}")


def vqe_solve(h: PauliSum, a: Ansatz, config: OptimizerConfig | None = None, log=None) -> VQEResult:
    """Minimize theta -> <psi(theta)|H|psi(theta)> from theta = 0."""
    config = config or OptimizerConfig()
    if a.circuit.n_qubits != h.n_qubits:
        raise UsageError("ansatz and Hamiltonian qubit counts differ")
    history = []

    def objective(theta):
        energy = expectation(run_circuit(a.circuit, theta), h)
        if log is not None:
            log.write(f"eval {len(history) + 1} E={energy:.12f}\n")
        history.append(min(energy, history[-1]) if history else energy)
        return energy

    grad = None
    if config.method == "gradient_descent":
        grad = lambda theta: parameter_shift_gradient(a, h, theta)
    res = minimize(objective, np.zeros(a.parameter_count), config, gradient=grad)
    return VQEResult(
        energy=res.value,
        parameters=res.parameters,
        evaluations=res.evaluations,
        history=history,
        converged=res.converged,
    )
