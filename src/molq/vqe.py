"""VQE: ansatz construction, the UCCSD electron-number block, adjoint and
parameter-shift gradients, classical optimizers.

Both ansatz kinds start from the Hartree-Fock reference (theta = 0 prepares
it exactly). UCCSD is the product over slots k of exp(theta_k G_k), with
G_k = JW(T_k - T_k^dagger) the anti-Hermitian generator of one spin-
conserving excitation. Its circuit holds one native Pauli rotation
exp(-i phi/2 P) per string P of each G_k (the strings of one G_k commute);
phi enters a shared slot through the gate's scale factor, which keeps the
parameter-shift rule exact.

vqe_solve runs each kind on one path, chosen by the kind. UCCSD conserves
N and S_z, so its state never leaves the (N/2, N/2) determinant block: H
(a dense matrix) and every G_k (gather arrays, one entry per row) are built
once per solve over that block (UCCSDBlock), each factor is applied exactly as
exp(theta G) = 1 + sin(theta) G + (1 - cos(theta)) G^2, which holds because
G^3 = -G, and gradients come from one backward (adjoint) sweep. HEA leaves
the block and runs its circuit on the full-space simulator, with
parameter-shift gradients. The circuit, `expectation` and
`parameter_shift_gradient` stay the oracles of the block path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationError, ResourceError, UsageError
from .exact import _flip_blocks, pauli_matrix, sector_basis
from .fermion import FermionOperator
from .pauli import PauliSum, jordan_wigner
from .statevector import MAX_QUBITS, Circuit, run_circuit, expectation


@dataclass
class Ansatz:
    circuit: Circuit          # includes the HF preparation prefix
    parameter_count: int
    descriptor: str
    generators: tuple = ()    # UCCSD: G_k = JW(T_k - T_k^dagger) per slot k
    n_electrons: int | None = None   # UCCSD: electrons of the HF reference


@dataclass
class VQEResult:
    energy: float
    parameters: np.ndarray
    evaluations: int
    history: list             # best-so-far energy per objective evaluation
    converged: bool


def _hf_occupied(n_qubits: int, n_electrons: int) -> list:
    """Qubits of the occupied alpha and beta blocks (blocked ordering)."""
    if n_electrons % 2 != 0:
        raise UsageError("HF reference needs an even electron count")
    if n_electrons == 0:
        return []
    if n_qubits % 2 != 0:
        raise UsageError("blocked spin ordering needs an even qubit count")
    n_occ = n_electrons // 2
    if n_occ > n_qubits // 2:
        raise UsageError("more electron pairs than spatial orbitals")
    return list(range(n_occ)) + list(range(n_qubits // 2, n_qubits // 2 + n_occ))


def hf_reference_circuit(n_qubits: int, n_electrons: int) -> Circuit:
    """X gates filling the occupied alpha and beta blocks (blocked ordering)."""
    circuit = Circuit(n_qubits)
    for q in _hf_occupied(n_qubits, n_electrons):
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


def _append_excitation(circuit: Circuit, codes: tuple, n_qubits: int, slot: int) -> PauliSum:
    """Append exp(theta_slot * (T - T^dagger)) for the ladder product T with
    factor `codes` (see `fermion`) and return its generator, the
    Jordan-Wigner image of T - T^dagger.

    That image is a sum of mutually commuting Pauli strings with purely
    imaginary coefficients i*k; each becomes one exponential factor with
    phi = -2*k*theta.
    """
    codes = np.array(codes)
    adjoint = codes[::-1] ^ 1  # reversed, each a+ <-> a
    generator = FermionOperator(
        n_qubits, coefficients=[1.0, -1.0], factors=np.stack([codes, adjoint])
    )
    image = jordan_wigner(generator)
    if np.any(np.abs(image.coefficients.real) > 1e-12):
        raise UsageError("excitation generator is not anti-Hermitian")
    scales = (-2.0 * image.coefficients.imag).tolist()
    for x, z, scale in zip(image.x.tolist(), image.z.tolist(), scales):
        circuit.pauli_rot(x, z, slot=slot, scale=scale)
    return image


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
    generators = []
    n_singles = 0
    for spin in (0, n_spatial):
        for i in range(n_occ):
            for a in range(n_occ, n_spatial):
                codes = (2 * (a + spin), 2 * (i + spin) + 1)  # a+_a a_i
                generators.append(
                    _append_excitation(circuit, codes, n_qubits, len(generators))
                )
                n_singles += 1
    n_doubles = 0
    for i in range(n_occ):
        for j in range(n_occ):
            for a in range(n_occ, n_spatial):
                for b in range(n_occ, n_spatial):
                    # a+_a a+_(b beta) a_(j beta) a_i
                    codes = (2 * a, 2 * (b + n_spatial), 2 * (j + n_spatial) + 1, 2 * i + 1)
                    generators.append(
                        _append_excitation(circuit, codes, n_qubits, len(generators))
                    )
                    n_doubles += 1
    return Ansatz(
        circuit=circuit,
        parameter_count=len(generators),
        descriptor=f"uccsd(singles={n_singles},doubles={n_doubles})",
        generators=tuple(generators),
        n_electrons=n_electrons,
    )


class UCCSDBlock:
    """A UCCSD ansatz and a Hamiltonian on the ansatz's (N/2, N/2)
    determinant block.

    The state has no amplitude outside the block, so psi^dagger H_B psi
    equals <psi|H|psi> for any H, number-conserving or not. H_B is a dense
    matrix (pauli_matrix, whose guard bounds the block). The strings of one
    G_k share one flip mask, so G_k psi = val * psi[src] (val = 0 on rows
    G_k does not reach) and G_k^2 is diagonal, val * val[src].
    """

    def __init__(self, h: PauliSum, a: Ansatz):
        if a.circuit.n_qubits != h.n_qubits:
            raise UsageError("ansatz and Hamiltonian qubit counts differ")
        if h.n_qubits > MAX_QUBITS:
            raise ResourceError(f"{h.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard")
        basis = sector_basis(h.n_qubits, a.n_electrons)
        self.h = pauli_matrix(h, basis)
        self.generators = []
        for generator in a.generators:
            blocks = list(_flip_blocks(generator, basis))
            if len(blocks) > 1:
                raise UsageError("an excitation generator must have one flip mask")
            src, val = np.arange(len(basis)), np.zeros(len(basis), dtype=complex)
            for rows, cols, values in blocks:
                src[rows], val[rows] = cols, values
            self.generators.append((src, val, val * val[src]))
        self.reference = np.zeros(len(basis), dtype=complex)
        occupied = sum(1 << q for q in _hf_occupied(h.n_qubits, a.n_electrons))
        self.reference[np.searchsorted(basis, occupied)] = 1.0
        self.hermitian = bool(np.all(np.abs(h.coefficients.imag) <= 1e-12))

    def state(self, theta) -> np.ndarray:
        """psi(theta) as amplitudes over the block."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.generators),):
            raise UsageError(f"expected {len(self.generators)} parameters, got {theta.shape}")
        psi = self.reference
        for (src, val, g2), t in zip(self.generators, theta):
            psi = psi + math.sin(t) * (val * psi[src]) + (1.0 - math.cos(t)) * (g2 * psi)
        return psi

    def energy(self, theta) -> float:
        psi = self.state(theta)
        value = np.vdot(psi, self.h @ psi)
        if self.hermitian and abs(value.imag) > 1e-10:
            raise ComputationError(
                f"imaginary residual {value.imag:.3e} for a Hermitian operator"
            )
        return float(value.real)

    def gradient(self, theta) -> np.ndarray:
        """dE/dtheta_k = 2 Re <lambda_k|G_k|psi_k>, with psi_k the state after
        slot k and lambda_k = (U_P ... U_{k+1})^dagger H psi: one backward
        sweep undoes each factor on both vectors (Hermitian H)."""
        psi = self.state(theta)
        theta = np.asarray(theta, dtype=float)
        lam = self.h @ psi
        grad = np.zeros(theta.size)
        for k in reversed(range(theta.size)):
            (src, val, g2), t = self.generators[k], theta[k]
            g_psi = val * psi[src]
            grad[k] = 2.0 * np.vdot(lam, g_psi).real
            s, c = math.sin(t), 1.0 - math.cos(t)
            psi = psi - s * g_psi + c * (g2 * psi)
            lam = lam - s * (val * lam[src]) + c * (g2 * lam)
        return grad


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


OPTIMIZER_METHODS = ("nelder_mead", "spsa", "gradient_descent")
SPSA_A = 0.1          # step-size gain a in a_k = a / (k + 1 + A)^0.602
SPSA_C = 0.1          # perturbation gain c in c_k = c / (k + 1)^0.101
GD_TOL = 1e-6         # gradient descent stops once max |g_i| < GD_TOL
NM_FATOL = 1e-9       # Nelder-Mead absolute tolerance on the value
NM_XATOL = 1e-8       # Nelder-Mead absolute tolerance on the parameters


@dataclass
class OptimizerConfig:
    method: str = "nelder_mead"   # one of OPTIMIZER_METHODS
    budget: int = 2000            # objective-evaluation budget
    seed: int = 0
    gd_step: float = 0.1


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
    if config.budget < 1:
        raise UsageError(f"optimizer budget must be >= 1, got {config.budget}")
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
        import scipy.optimize   # here, so `import molq` loads no scipy

        simplex = np.tile(theta0, (n_params + 1, 1))
        for k in range(n_params):
            simplex[k + 1, k] += 0.1
        res = scipy.optimize.minimize(
            f,
            theta0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "fatol": NM_FATOL,
                "xatol": NM_XATOL,
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
            a_k = SPSA_A / (k + 1 + big_a) ** 0.602
            c_k = SPSA_C / (k + 1) ** 0.101
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
            if np.max(np.abs(g)) < GD_TOL:
                return result(True)
            if state["count"] + 1 + max(gradient_cost, 2 * n_params) > config.budget:
                return result(False)
            theta = theta - config.gd_step * g

    raise UsageError(f"unknown optimizer method {config.method!r}")


def vqe_solve(h: PauliSum, a: Ansatz, config: OptimizerConfig | None = None, log=None) -> VQEResult:
    """Minimize theta -> <psi(theta)|H|psi(theta)> from theta = 0: UCCSD on
    its electron-number block with adjoint gradients, any other ansatz on
    the full-space circuit with parameter-shift gradients."""
    config = config or OptimizerConfig()
    if a.circuit.n_qubits != h.n_qubits:
        raise UsageError("ansatz and Hamiltonian qubit counts differ")
    if a.generators:
        block = UCCSDBlock(h, a)
        energy, gradient = block.energy, block.gradient
    else:
        def energy(theta):
            return expectation(run_circuit(a.circuit, theta), h)

        def gradient(theta):
            return parameter_shift_gradient(a, h, theta)
    history = []

    def objective(theta):
        value = energy(theta)
        if log is not None:
            log.write(f"eval {len(history) + 1} E={value:.12f}\n")
        history.append(min(value, history[-1]) if history else value)
        return value

    grad = gradient if config.method == "gradient_descent" else None
    res = minimize(objective, np.zeros(a.parameter_count), config, gradient=grad)
    return VQEResult(
        energy=res.value,
        parameters=res.parameters,
        evaluations=res.evaluations,
        history=history,
        converged=res.converged,
    )
