"""VQE: ansatz construction, the UCCSD electron-number block, adjoint and
parameter-shift gradients, classical optimizers.

Both ansatz kinds start from the Hartree-Fock reference (theta = 0 prepares
it exactly), the lowest `closed_shell_pairs` orbitals of each spin filled.
UCCSD is the product over slots k of exp(theta_k G_k), with
G_k = JW(T_k - T_k^dagger) the anti-Hermitian generator of one spin-
conserving excitation. One jordan_wigner call over a table holding each
T_k and T_k^dagger as a row of factor codes gives `generators`, one
PauliSum whose k-th run of strings sharing a flip mask is G_k. The
circuit, built from it on first read, adds one native Pauli rotation
exp(-i phi/2 P) per string P (the strings of one G_k commute); phi enters
a shared slot through the gate's scale factor, which keeps the
parameter-shift rule exact. Given the
Hamiltonian's Z2 symmetries (pauli.z2_symmetries), uccsd_ansatz drops
every excitation whose flip mask breaks one: its G_k anticommutes with
that parity and moves the state out of the HF determinant's sector, and
its energy gradient is 0 while every such slot is at 0. H2's two singles
go, leaving its one double; H4 keeps 12 of 24 slots, H6 49 of 99. The
electron-number parities prune nothing: every excitation flips an even
number of modes of each spin.

vqe_solve runs an ansatz with generators on its block. UCCSD conserves N
and S_z, so its state never leaves its reference's (N/2, N/2) block: H (a
dense matrix) and every G_k (gather arrays, one entry per row) are read
once per solve from two compiled operators on that block, H and the
generator sum (UCCSDBlock, real when both are). Each factor is applied as
exp(theta G) = 1 + sin(theta) G + (1 - cos(theta)) G^2 (G^3 = -G), and one
backward sweep (G^dagger = -G) gives the gradients; the block checks both.
HEA has no generators: it runs its circuit on the full-space simulator with
parameter-shift gradients and, if it declares its electron count, checks
<N> on its final state. Both refuse an H failing pauli.is_hermitian. The
block's oracles are `expectation`, `parameter_shift_gradient` and the UCCSD
circuit, which a solve never builds.

`minimize` holds the three optimizers, all under one evaluation budget and
all failing on a non-finite objective value, which they number by the
objective call that returned it. Gradient descent takes fixed GD_STEP
steps along the caller's gradient (vqe_solve passes the adjoint or the
parameter-shift one), each call charged as 2*P evaluations.
Nelder-Mead is molq's own loop on Python floats; it evaluates the same
points as scipy.optimize's Nelder-Mead with the same simplex, tolerances
and budget, which stays its oracle in the tests, so no VQE path imports
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ComputationError, ResourceError, UsageError, check_integer
from .exact import compile_operator, pauli_matrix, sector_basis
from .fermion import FermionOperator
from .integrals_io import closed_shell_pairs
from .options import OPTIMIZER_METHODS, OptimizerConfig
from .pauli import PauliSum, is_hermitian, jordan_wigner
from .statevector import MAX_QUBITS, Circuit, _real_energy, run_circuit, expectation

@dataclass
class Ansatz:
    prefix: Circuit           # the gates before the generator slots: all of HEA, UCCSD's HF X gates
    parameter_count: int
    descriptor: str
    generators: PauliSum | None = None   # UCCSD: every G_k = JW(T_k - T_k^dagger), slot by slot
    n_electrons: int | None = None   # electrons of the HF reference, if declared

    @cached_property
    def circuit(self) -> Circuit:
        """The prefix, then one exp(-i phi/2 P) per generator string i*c P,
        in slot k (the index of its run of one flip mask) with
        phi = -2 Im(c) theta_k. Built on first read; only the oracles read
        it for an ansatz with generators."""
        if self.generators is None:
            return self.prefix
        g = self.generators
        circuit = Circuit(self.prefix.n_qubits, list(self.prefix.gates))
        slots = np.cumsum(np.diff(g.x, prepend=g.x[:1]) != 0)
        for x, z, k, scale in zip(g.x.tolist(), g.z.tolist(), slots.tolist(),
                                  (-2.0 * g.coefficients.imag).tolist()):
            circuit.pauli_rot(x, z, slot=k, scale=scale)
        return circuit


@dataclass
class VQEResult:
    energy: float
    parameters: np.ndarray
    evaluations: int
    history: list             # best-so-far energy per objective evaluation
    converged: bool


def _hf_determinant(n_qubits: int, n_electrons: int) -> int:
    """The HF determinant as a basis index: N/2 alpha and N/2 beta orbitals filled."""
    n_spatial = n_qubits // 2
    k = closed_shell_pairs(n_electrons, n_spatial)
    if k and n_qubits % 2:
        raise UsageError("blocked spin ordering needs an even qubit count")
    return ((1 << k) - 1) * (1 + (1 << n_spatial))


def hf_reference_circuit(n_qubits: int, n_electrons: int) -> Circuit:
    """X gates on the occupied qubits of the HF determinant, ascending."""
    circuit = Circuit(n_qubits)
    occupied = _hf_determinant(n_qubits, n_electrons)
    for q in range(n_qubits):
        if occupied >> q & 1:
            circuit.x(q)
    return circuit


def hardware_efficient_ansatz(n_qubits: int, depth: int, n_electrons: int | None = None) -> Ansatz:
    """HF prefix (none without n_electrons), then `depth` [RY layer + CZ
    chain] blocks, then a final RY layer; n_qubits*(depth+1) parameters.
    A declared n_electrons is also the sector vqe_solve checks the result in."""
    check_integer("depth", depth, 0)
    circuit = hf_reference_circuit(n_qubits, n_electrons or 0)
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
        prefix=circuit,
        parameter_count=n_qubits * (depth + 1),
        descriptor=f"hea(depth={depth})",
        n_electrons=n_electrons,
    )


def uccsd_ansatz(n_qubits: int, n_electrons: int, symmetries=()) -> Ansatz:
    """HF prefix plus Trotterized spin-conserving singles and alpha-beta
    doubles, one parameter per excitation, less every excitation whose
    flip mask has odd overlap with one of the Z masks in `symmetries`
    (see pauli.z2_symmetries): its generator anticommutes with that
    parity, so it leads out of the HF determinant's sector.

    Rows 2k and 2k+1 of one FermionOperator hold T_k and T_k^dagger with
    coefficients 1 and -1, and one jordan_wigner call maps them all. T_k
    flips exactly its own modes and no two slots flip the same set, so each
    string's x mask names its slot and its merged coefficient sums only that
    slot's rows; a stable sort by slot keeps each slot's strings in JW
    order. No circuit is built here: Ansatz.circuit builds it from the
    generators when an oracle reads it.
    """
    n_spatial = n_qubits // 2
    n_occ = closed_shell_pairs(n_electrons, n_spatial)
    if not 0 < n_occ < n_spatial:
        raise UsageError("UCCSD needs an occupied and a virtual orbital")
    virtuals = range(n_occ, n_spatial)
    singles = [  # a+_a a_i
        (2 * (a + spin), 2 * (i + spin) + 1)
        for spin in (0, n_spatial) for i in range(n_occ) for a in virtuals
    ]
    doubles = [  # a+_a a+_(b beta) a_(j beta) a_i
        (2 * a, 2 * (b + n_spatial), 2 * (j + n_spatial) + 1, 2 * i + 1)
        for i in range(n_occ) for j in range(n_occ) for a in virtuals for b in virtuals
    ]

    def flip_mask(codes):   # its modes are distinct
        return sum(1 << (code >> 1) for code in codes)

    def kept(codes):
        return not any((flip_mask(codes) & mask).bit_count() & 1 for mask in symmetries)

    singles, doubles = list(filter(kept, singles)), list(filter(kept, doubles))
    rows, flips = [], []
    for codes in singles + doubles:
        pad = (-1,) * (4 - len(codes))
        rows += [codes + pad, tuple(code ^ 1 for code in reversed(codes)) + pad]  # T_k, T_k^dagger
        flips.append(flip_mask(codes))
    image = jordan_wigner(FermionOperator(
        n_qubits, coefficients=np.tile([1.0, -1.0], len(flips)), factors=np.reshape(rows, (-1, 4))
    ))
    slot_of = {flip: k for k, flip in enumerate(flips)}
    slot = np.array([slot_of[flip] for flip in image.x.tolist()], dtype=np.int64)
    order = np.argsort(slot, kind="stable")
    return Ansatz(
        prefix=hf_reference_circuit(n_qubits, n_electrons),
        parameter_count=len(flips),
        descriptor=f"uccsd(singles={len(singles)},doubles={len(doubles)})",
        generators=PauliSum(n_qubits, x=image.x[order], z=image.z[order],
                            coefficients=image.coefficients[order]),
        n_electrons=n_electrons,
    )


class UCCSDBlock:
    """A UCCSD ansatz and a Hamiltonian, refused unless `is_hermitian`, on
    the ansatz's (N/2, N/2) determinant block.

    The state has no amplitude outside the block, so psi^dagger H_B psi
    equals <psi|H|psi> for any H, number-conserving or not. H_B is
    densified (pauli_matrix, whose guard bounds the block, checked before
    the generators are compiled) and the generator sum compiled once (see
    `exact`). G_k's strings, the k-th run of one flip mask, fill the
    entries (row, col) whose basis[row] ^ basis[col] is that mask, at most
    one per row: G_k psi = val_k * psi[src_k] (val_k = 0 on rows G_k does
    not reach) and G_k^2 is diagonal, val_k * val_k[src_k]; a slot is
    refused unless G_k is anti-Hermitian with entries of modulus 1. One
    dtype, float64 where H_B and the generators are real (molecules),
    complex128 otherwise, holds the reference, the state and lambda.
    """

    def __init__(self, h: PauliSum, a: Ansatz):
        if a.prefix.n_qubits != h.n_qubits:
            raise UsageError("ansatz and Hamiltonian qubit counts differ")
        if h.n_qubits > MAX_QUBITS:
            raise ResourceError(f"{h.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard")
        if a.n_electrons is None or a.generators is None:
            raise UsageError("the UCCSD block needs the ansatz's electron count and generators")
        if not is_hermitian(h):
            raise UsageError("PauliSum is not Hermitian")
        basis = sector_basis(h.n_qubits, a.n_electrons)
        self.h = pauli_matrix(h, basis)
        x = a.generators.x   # each run of one flip mask is a slot's strings
        flips = x[np.diff(x, prepend=-1) != 0]
        masks = len(set(flips.tolist()))
        if not masks == flips.size == a.parameter_count:
            raise UsageError(f"{a.parameter_count} slots need as many runs of one flip mask each; "
                             f"the generators hold {flips.size} runs of {masks} masks")
        op = compile_operator(a.generators, basis)
        dtype = np.result_type(self.h, op.values)
        self.h = self.h.astype(dtype, copy=False)
        slot = np.argsort(flips)[np.searchsorted(np.sort(flips), basis[op.rows] ^ basis[op.cols])]
        src = np.tile(np.arange(len(basis)), (flips.size, 1))
        val = np.zeros(src.shape, dtype=dtype)
        src[slot, op.rows], val[slot, op.rows] = op.cols, op.values
        pair = np.take_along_axis(val, src, axis=1)   # G_k[src_k[row], row]
        if np.any(np.abs(pair + val.conj()) > 1e-12) or np.any(np.abs(val * (val * pair + 1)) > 1e-12):
            raise UsageError("a slot's generator is not anti-Hermitian with entries of modulus 1")
        self.generators = list(zip(src, val, val * pair))
        self.reference = np.zeros(len(basis), dtype=dtype)
        self.reference[np.searchsorted(basis, _hf_determinant(h.n_qubits, a.n_electrons))] = 1.0

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
        return _real_energy(np.vdot(psi, self.h @ psi))

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
    circuit = a.circuit
    grad = np.zeros(a.parameter_count)
    for gi, gate in enumerate(circuit.gates):
        if gate.slot is None:
            continue
        values = []
        for sign in (1.0, -1.0):
            shifted = replace(gate, angle=gate.angle + sign * 0.5 * math.pi)
            gates = list(circuit.gates)
            gates[gi] = shifted
            psi = run_circuit(Circuit(circuit.n_qubits, gates), theta)
            values.append(expectation(psi, h))
        grad[gate.slot] += gate.scale * 0.5 * (values[0] - values[1])
    return grad


SPSA_A = 0.1          # step-size gain a in a_k = a / (k + 1 + A)^0.602
SPSA_C = 0.1          # perturbation gain c in c_k = c / (k + 1)^0.101
GD_STEP = 0.1         # gradient descent moves theta by -GD_STEP * g
GD_TOL = 1e-6         # gradient descent stops once max |g_i| < GD_TOL
NM_FATOL = 1e-9       # Nelder-Mead absolute tolerance on the value
NM_XATOL = 1e-8       # Nelder-Mead absolute tolerance on the parameters


@dataclass
class MinimizeResult:
    parameters: np.ndarray
    value: float
    evaluations: int
    converged: bool


class _BudgetSpent(Exception):
    """A Nelder-Mead step asked for an evaluation past the budget."""


def _nelder_mead(f, theta0: list, budget: int) -> bool:
    """Minimize f from theta0 by scipy's Nelder-Mead (non-adaptive, no
    bounds), iterate for iterate, on Python floats: reflection 1, expansion
    2, contraction 0.5 and shrink 0.5 about the best vertex, starting from
    the simplex theta0 + 0.1 e_k. Each step first tests NM_XATOL and
    NM_FATOL; an evaluation past the budget aborts its step, and the
    simplex is re-sorted after every step, aborted or not. f must return
    finite floats. Returns whether it converged within the budget.

    scipy also stops after `budget` steps, which never binds first: the
    simplex costs n + 1 calls and every later step at least one.
    """
    n, calls = len(theta0), 0

    def value(x):
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return f(x)

    def ordered(sim, fsim):
        # np.argsort, as scipy: it decides the order of tied values
        ind = np.argsort(fsim).tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    sim = [list(theta0) for _ in range(n + 1)]
    for k in range(n):
        sim[k + 1][k] += 0.1
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = value(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = ordered(sim, fsim)
    while calls < budget:
        best, worst = sim[0], sim[-1]
        if (max(abs(x - b) for row in sim[1:] for x, b in zip(row, best)) <= NM_XATOL
                and max(abs(fsim[0] - v) for v in fsim[1:]) <= NM_FATOL):
            break
        xbar = best                             # rows summed from the first
        for row in sim[1:-1]:
            xbar = [s + x for s, x in zip(xbar, row)]
        xbar = [s / n for s in xbar]

        def along(c):                           # (1 + c) xbar - c worst
            return [(1.0 + c) * s - c * w for s, w in zip(xbar, worst)]

        try:
            xr = along(1.0)
            fxr = value(xr)
            if fxr < fsim[0]:
                xe = along(2.0)
                fxe = value(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = along(0.5 if outside else -0.5)
                fxc = value(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (x - b) for x, b in zip(sim[j], best)]
                        fsim[j] = value(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return calls < budget


def minimize(objective, theta0, config: OptimizerConfig | None = None, gradient=None) -> MinimizeResult:
    """Derivative-free / gradient minimization, deterministic given the seed.

    gradient_descent needs the caller's gradient callable and charges each
    call as 2*P evaluations against the budget, the cost of P parameter-
    shift pairs; it raises UsageError without one, before any evaluation.
    """
    config = config or OptimizerConfig()
    check_integer("optimizer budget", config.budget, 1)
    check_integer("optimizer seed", config.seed, 0)
    if config.method not in OPTIMIZER_METHODS:
        raise UsageError(f"unknown optimizer method {config.method!r}")
    if config.method == "gradient_descent" and gradient is None:
        raise UsageError("gradient_descent needs a gradient callable")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    n_params = theta0.size

    # count: evaluations charged to the budget; calls: objective calls made
    state = {"count": 0, "calls": 0, "best_value": math.inf, "best_theta": theta0.copy()}

    def f(x):
        x = np.asarray(x, dtype=float)
        state["count"] += 1
        state["calls"] += 1
        value = float(objective(x))
        if not math.isfinite(value):
            raise ComputationError(f"objective evaluation {state['calls']} returned {value}")
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
    # too small for one SPSA pair or one gradient step: theta0 is the answer
    first_step = {"spsa": 2, "gradient_descent": 1 + 2 * n_params}.get(config.method, 1)
    if config.budget < first_step:
        f(theta0)
        return result(False)

    if config.method == "nelder_mead":
        return result(_nelder_mead(f, theta0.tolist(), config.budget))

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

    # gradient_descent
    theta = theta0.copy()
    while True:
        f(theta)
        g = np.asarray(gradient(theta), dtype=float)
        state["count"] += 2 * n_params
        if np.max(np.abs(g)) < GD_TOL:
            return result(True)
        if state["count"] + 1 + 2 * n_params > config.budget:
            return result(False)
        theta = theta - GD_STEP * g


def vqe_solve(h: PauliSum, a: Ansatz, config: OptimizerConfig | None = None, log=None) -> VQEResult:
    """Minimize theta -> <psi(theta)|H|psi(theta)> from theta = 0: an ansatz
    with generators (UCCSD) on its electron-number block with adjoint
    gradients, any other on the full-space circuit with parameter-shift
    gradients. Such an ansatz need not conserve N: one that declares
    n_electrons raises ComputationError unless
    <N> = sum_b popcount(b) |psi_b|^2 of its final state is that count."""
    config = config or OptimizerConfig()
    if a.prefix.n_qubits != h.n_qubits:
        raise UsageError("ansatz and Hamiltonian qubit counts differ")
    if a.generators is not None:
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
    if a.generators is None and a.n_electrons is not None:
        probabilities = np.abs(run_circuit(a.circuit, res.parameters)) ** 2
        found = float(np.bitwise_count(np.arange(probabilities.size)) @ probabilities)
        if abs(found - a.n_electrons) > 1e-6:
            raise ComputationError(
                f"HEA state left the {a.n_electrons}-electron sector: <N> = {found:.6f}"
            )
    return VQEResult(
        energy=res.value,
        parameters=res.parameters,
        evaluations=res.evaluations,
        history=history,
        converged=res.converged,
    )
