"""Dense statevector simulator with little-endian qubit indexing.

A state is its numpy array of 2**n amplitudes: run_circuit returns one;
expectation and sample_expectation read one and refuse an H that fails
pauli.is_hermitian. State index bit k is qubit k (qubit 0 least
significant). Gates update amplitudes in place, never a matrix. Gate set:
X, RY, RZ (on axis 1 of the view amps.reshape(-1, 2, 2**q)), CNOT and CZ
(on axes 1 and 3 of amps.reshape(-1, 2, 2**(hi-lo-1), 2, 2**lo)) and the
Pauli rotation (kind "pauli_rot", gathered through the flat basis index
that run_circuit builds once), with

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

from .errors import ComputationError, ResourceError, UsageError, check_integer
from .pauli import MAX_QUBITS, PauliSum, is_hermitian, pauli_phase, pauli_signs, qwc_group


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


_ARITY = {"x": 1, "ry": 1, "rz": 1, "cnot": 2, "cz": 2}   # pauli_rot: its masks


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
            if gate.kind == "pauli_rot":
                if not 0 <= gate.x | gate.z < 2**self.n_qubits:
                    raise UsageError(f"pauli_rot masks ({gate.x}, {gate.z}) outside the register")
            elif gate.kind not in _ARITY:
                raise UsageError(f"unknown gate kind {gate.kind!r}")
            elif len(gate.qubits) != _ARITY[gate.kind]:
                raise UsageError(f"{gate.kind} needs {_ARITY[gate.kind]} qubit(s)")
            for q in gate.qubits:
                if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
                    raise UsageError(f"qubit index {q!r} is not an integer")
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


def _apply_gate(amps: np.ndarray, idx: np.ndarray, gate: Gate, theta):
    """Apply one validated gate to amps in place; idx is arange(amps.size)."""
    t = gate.effective_angle(theta)
    if gate.kind == "pauli_rot":
        flipped = (pauli_phase(idx, gate.x, gate.z) * amps)[idx ^ gate.x]
        amps *= math.cos(0.5 * t)
        amps -= 1j * math.sin(0.5 * t) * flipped
    elif gate.kind in ("cnot", "cz"):
        a, b = gate.qubits
        lo, hi = min(a, b), max(a, b)
        view = amps.reshape(-1, 2, 2 ** (hi - lo - 1), 2, 2**lo)
        if a < b:
            view = view.swapaxes(1, 3)   # axis 1 holds qubit a, axis 3 qubit b
        if gate.kind == "cz":
            view[:, 1, :, 1] *= -1.0
        else:
            tmp = view[:, 1, :, 0].copy()
            view[:, 1, :, 0] = view[:, 1, :, 1]
            view[:, 1, :, 1] = tmp
    else:
        view = amps.reshape(-1, 2, 2 ** gate.qubits[0])
        if gate.kind == "x":
            view[:, [0, 1]] = view[:, [1, 0]]
        elif gate.kind == "ry":
            c, s = math.cos(0.5 * t), math.sin(0.5 * t)
            a0, a1 = view[:, 0].copy(), view[:, 1].copy()
            view[:, 0] = c * a0 - s * a1
            view[:, 1] = s * a0 + c * a1
        else:
            view[:, 0] *= np.exp(-0.5j * t)
            view[:, 1] *= np.exp(0.5j * t)


def run_circuit(c: Circuit, theta=None) -> np.ndarray:
    """Apply the circuit to |0...0> and return its 2**n complex amplitudes."""
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
    idx = np.arange(amps.size, dtype=np.int64)
    for gate in c.gates:
        _apply_gate(amps, idx, gate, theta)
    return amps


def _real_energy(value: complex) -> float:
    """value.real, refused unless value is real to 1e-10."""
    if abs(value.imag) > 1e-10:
        raise ComputationError(f"imaginary residual {value.imag:.3e} for a Hermitian operator")
    return float(value.real)


def expectation(psi: np.ndarray, h: PauliSum) -> float:
    """Exact <psi|H|psi> of the amplitudes psi, accumulated term by term in
    the given term order; h is refused unless `is_hermitian`."""
    if psi.shape != (2**h.n_qubits,):
        raise UsageError("statevector and Hamiltonian qubit counts differ")
    if not is_hermitian(h):
        raise UsageError("PauliSum is not Hermitian")
    idx = np.arange(psi.size, dtype=np.int64)
    total = 0.0 + 0.0j
    for x, z, coeff in zip(h.x.tolist(), h.z.tolist(), h.coefficients.tolist()):
        phases = pauli_phase(idx, x, z)
        total += complex(coeff) * np.sum(np.conj(psi[idx ^ x]) * phases * psi)
    return _real_energy(total)


def sample_expectation(psi: np.ndarray, h: PauliSum, shots: int, seed: int) -> float:
    """Shot-sampled <psi|H|psi> sharing samples across each QWC group.

    Each group's terms are estimated from the same `shots` bitstrings drawn
    after rotating a complex copy of psi into the group's shared basis: on
    each qubit of its union masks (x, z), an X bit takes RY(-pi/2) and a Y
    bit (x & z) RZ(-pi/2) then RY(-pi/2). Identical (psi, h, shots, seed)
    reproduce the result bit for bit.
    """
    if psi.shape != (2**h.n_qubits,):
        raise UsageError("statevector and Hamiltonian qubit counts differ")
    check_integer("shots", shots, 1)
    check_integer("seed", seed, 0)
    if not is_hermitian(h):
        raise UsageError("PauliSum is not Hermitian")
    rng = np.random.default_rng(seed)
    total = 0.0
    for group in qwc_group(h):
        x, z = int(np.bitwise_or.reduce(group.x)), int(np.bitwise_or.reduce(group.z))
        rotated = psi.astype(complex)
        for q in range(x.bit_length()):
            if x >> q & 1:
                if z >> q & 1:
                    _apply_gate(rotated, None, Gate("rz", (q,), angle=-0.5 * math.pi), ())
                _apply_gate(rotated, None, Gate("ry", (q,), angle=-0.5 * math.pi), ())
        probs = np.abs(rotated) ** 2
        probs /= probs.sum()
        samples = rng.choice(probs.size, size=shots, p=probs).astype(np.int64)
        for support, c in zip((group.x | group.z).tolist(), group.coefficients.real.tolist()):
            total += c * float(np.mean(pauli_signs(samples, support)))
    return total
