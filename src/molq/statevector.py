"""Dense statevector simulator with little-endian qubit indexing.

State index bit k is qubit k (qubit 0 least significant). Gates update the
amplitude array in place; no gate matrix is ever materialized. Gate set:
X, RY, RZ, CNOT, CZ (through strided views) and the Pauli rotation
(kind "pauli_rot", through one index permutation), with

    RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    RZ(t) = diag(e^{-it/2}, e^{+it/2})
    PauliRot(t) = exp(-i t/2 P) = cos(t/2) - i sin(t/2) P

for a Pauli string P held as its (x, z) masks (see `pauli`), which acts as
P|b> = pauli_phase(b) |b ^ x>.

Parameterized gates carry a slot into the parameter vector; the effective
angle is `angle + scale * theta[slot]` (fixed gates have slot None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, ResourceError, UsageError
from .pauli import MAX_QUBITS, PauliSum, group_measurement_basis, qwc_group


@dataclass(frozen=True)
class Gate:
    kind: str                 # "x" | "ry" | "rz" | "cnot" | "cz" | "pauli_rot"
    qubits: tuple
    slot: int | None = None   # index into theta, None = fixed angle
    angle: float = 0.0        # fixed angle, or offset added to scale*theta
    scale: float = 1.0
    x: int = 0                # pauli_rot: the string's X/Y mask
    z: int = 0                # pauli_rot: the string's Z/Y mask

    def effective_angle(self, theta) -> float:
        if self.slot is None:
            return self.angle
        return self.angle + self.scale * float(theta[self.slot])


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)

    @property
    def parameter_count(self) -> int:
        slots = [g.slot for g in self.gates if g.slot is not None]
        return max(slots) + 1 if slots else 0

    def validate(self):
        slots = set()
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n_qubits:
                    raise UsageError(f"qubit {q} outside 0..{self.n_qubits - 1}")
            if gate.kind in ("cnot", "cz") and gate.qubits[0] == gate.qubits[1]:
                raise UsageError(f"{gate.kind} needs two distinct qubits")
            if gate.slot is not None:
                slots.add(gate.slot)
        if slots and slots != set(range(max(slots) + 1)):
            raise UsageError("parameter slots must be dense 0..P-1")

    def add(self, gate: Gate) -> "Circuit":
        self.gates.append(gate)
        return self

    def x(self, q):
        return self.add(Gate("x", (q,)))

    def ry(self, q, slot=None, angle=0.0, scale=1.0):
        return self.add(Gate("ry", (q,), slot=slot, angle=angle, scale=scale))

    def rz(self, q, slot=None, angle=0.0, scale=1.0):
        return self.add(Gate("rz", (q,), slot=slot, angle=angle, scale=scale))

    def cnot(self, control, target):
        return self.add(Gate("cnot", (control, target)))

    def cz(self, a, b):
        return self.add(Gate("cz", (a, b)))

    def pauli_rot(self, x, z, slot=None, angle=0.0, scale=1.0):
        """exp(-i t/2 P) for the Pauli string P with masks (x, z)."""
        support = x | z
        qubits = tuple(q for q in range(support.bit_length()) if support >> q & 1)
        return self.add(
            Gate("pauli_rot", qubits, slot=slot, angle=angle, scale=scale, x=x, z=z)
        )


@dataclass
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())


def _slices(n, assignments):
    """Index tuple fixing qubit->bit assignments on a [2]*n reshaped view."""
    sl = [slice(None)] * n
    for q, bit in assignments.items():
        sl[n - 1 - q] = bit
    return tuple(sl)


def pauli_signs(idx: np.ndarray, z) -> np.ndarray:
    """(-1)^|b&z| for each basis index b in idx; a column of z masks gives
    one row of signs per mask."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


def pauli_phase(idx: np.ndarray, x: int, z: int) -> np.ndarray:
    """<b ^ x|P|b> for each basis index b in idx: i^|x&z| (-1)^|b&z|."""
    return (1j) ** (x & z).bit_count() * pauli_signs(idx, z)


def _apply_gate(amps: np.ndarray, n: int, gate: Gate, theta):
    view = amps.reshape([2] * n)
    if gate.kind == "x":
        q = gate.qubits[0]
        i0, i1 = _slices(n, {q: 0}), _slices(n, {q: 1})
        tmp = view[i0].copy()
        view[i0] = view[i1]
        view[i1] = tmp
    elif gate.kind == "ry":
        q = gate.qubits[0]
        t = gate.effective_angle(theta)
        c, s = math.cos(0.5 * t), math.sin(0.5 * t)
        i0, i1 = _slices(n, {q: 0}), _slices(n, {q: 1})
        a0 = view[i0].copy()
        a1 = view[i1].copy()
        view[i0] = c * a0 - s * a1
        view[i1] = s * a0 + c * a1
    elif gate.kind == "rz":
        q = gate.qubits[0]
        t = gate.effective_angle(theta)
        i0, i1 = _slices(n, {q: 0}), _slices(n, {q: 1})
        view[i0] *= np.exp(-0.5j * t)
        view[i1] *= np.exp(0.5j * t)
    elif gate.kind == "cnot":
        control, target = gate.qubits
        i10 = _slices(n, {control: 1, target: 0})
        i11 = _slices(n, {control: 1, target: 1})
        tmp = view[i10].copy()
        view[i10] = view[i11]
        view[i11] = tmp
    elif gate.kind == "cz":
        a, b = gate.qubits
        view[_slices(n, {a: 1, b: 1})] *= -1.0
    elif gate.kind == "pauli_rot":
        t = gate.effective_angle(theta)
        idx = np.arange(amps.size, dtype=np.int64)
        flipped = (pauli_phase(idx, gate.x, gate.z) * amps)[idx ^ gate.x]
        amps *= math.cos(0.5 * t)
        amps -= 1j * math.sin(0.5 * t) * flipped
    else:
        raise UsageError(f"unknown gate kind {gate.kind!r}")


def run_circuit(c: Circuit, theta=None) -> Statevector:
    """Apply the circuit to |0...0> and return the final state."""
    if c.n_qubits > MAX_QUBITS:
        raise ResourceError(f"{c.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard")
    c.validate()
    theta = np.zeros(0) if theta is None else np.asarray(theta, dtype=float)
    if theta.shape != (c.parameter_count,):
        raise UsageError(
            f"expected {c.parameter_count} parameters, got {theta.shape}"
        )
    amps = np.zeros(2**c.n_qubits, dtype=complex)
    amps[0] = 1.0
    for gate in c.gates:
        _apply_gate(amps, c.n_qubits, gate, theta)
    return Statevector(n_qubits=c.n_qubits, amplitudes=amps)


def expectation(psi: Statevector, h: PauliSum) -> float:
    """Exact <psi|H|psi>, accumulated term by term in the given term order."""
    if psi.n_qubits != h.n_qubits:
        raise UsageError("statevector and Hamiltonian qubit counts differ")
    amps = psi.amplitudes
    idx = np.arange(amps.size, dtype=np.int64)
    total = 0.0 + 0.0j
    hermitian = not np.any(np.abs(h.coefficients.imag) > 1e-12)
    for x, z, coeff in zip(h.x.tolist(), h.z.tolist(), h.coefficients.tolist()):
        phases = pauli_phase(idx, x, z)
        total += complex(coeff) * np.sum(np.conj(amps[idx ^ x]) * phases * amps)
    if hermitian and abs(total.imag) > 1e-10:
        raise ComputationError(
            f"imaginary residual {total.imag:.3e} for a Hermitian operator"
        )
    return float(total.real)


def _basis_rotation(n_qubits: int, basis: dict) -> Circuit:
    """Circuit mapping each X/Y letter to a computational-basis Z measurement:
    X needs RY(-pi/2); Y needs RZ(-pi/2) then RY(-pi/2)."""
    rot = Circuit(n_qubits)
    for q in sorted(basis):
        letter = basis[q]
        if letter == "X":
            rot.ry(q, angle=-0.5 * math.pi)
        elif letter == "Y":
            rot.rz(q, angle=-0.5 * math.pi)
            rot.ry(q, angle=-0.5 * math.pi)
    return rot


def sample_expectation(psi: Statevector, h: PauliSum, shots: int, seed: int) -> float:
    """Shot-sampled <psi|H|psi> sharing samples across each QWC group.

    Each group's terms are estimated from the same `shots` bitstrings drawn
    after rotating a copy of psi into the group's shared basis. Identical
    (psi, h, shots, seed) reproduce the result bit for bit.
    """
    if psi.n_qubits != h.n_qubits:
        raise UsageError("statevector and Hamiltonian qubit counts differ")
    if shots < 1:
        raise UsageError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    for group in qwc_group(h):
        basis = group_measurement_basis(group)
        rotated = psi.amplitudes.copy()
        for gate in _basis_rotation(psi.n_qubits, basis).gates:
            _apply_gate(rotated, psi.n_qubits, gate, ())
        probs = np.abs(rotated) ** 2
        probs /= probs.sum()
        samples = rng.choice(probs.size, size=shots, p=probs).astype(np.int64)
        for term in group:
            values = 1.0 - 2.0 * (np.bitwise_count(samples & (term.x | term.z)) & 1)
            total += complex(term.coefficient).real * float(np.mean(values))
    return total
