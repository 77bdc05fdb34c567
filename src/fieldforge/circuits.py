"""Logical circuits over the architecture's native gate set.

Gates: Xrot(theta) and Zrot(theta) on one qubit, the diagonal entangling
gate diag(1, e^{i alpha}, e^{i beta}, 1) on an ordered qubit pair, and SWAP
on adjacent qubits.  Zrot(theta) = diag(1, e^{-i theta}) matches the
exp(-i H t) phase convention of the gate calibrations; Xrot is the same
rotation conjugated by the dual-rail Hadamard.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TooManyQubits, ValidationError, _count

MAX_DENSE_QUBITS = 12
GATE_KINDS = ("xrot", "zrot", "entangling", "swap")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    qubits: tuple
    angle: float = 0.0   # xrot / zrot
    alpha: float = 0.0   # entangling
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits",
                           tuple(_count(q, "qubit index") for q in self.qubits))
        arity = 1 if self.kind in ("xrot", "zrot") else 2
        if len(self.qubits) != arity:
            raise ValidationError(f"{self.kind} takes {arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError("qubit indices must be distinct")
        for val in (self.angle, self.alpha, self.beta):
            if not np.isfinite(val):
                raise ValidationError("gate angles must be finite")

    def matrix(self):
        if self.kind == "zrot":
            return np.diag([1.0, np.exp(-1j * self.angle)])
        if self.kind == "xrot":
            z = np.diag([1.0, np.exp(-1j * self.angle)])
            return _HADAMARD @ z @ _HADAMARD
        if self.kind == "entangling":
            return np.diag([1.0, np.exp(1j * self.alpha),
                            np.exp(1j * self.beta), 1.0])
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        return swap


@dataclass(frozen=True)
class LogicalCircuit:
    n_qubits: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _count(self.n_qubits, "n_qubits"))
        if self.n_qubits < 1:
            raise ValidationError("need at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if not isinstance(gate, GateSpec):
                raise ValidationError("gates must be GateSpec instances")
            if any(not 0 <= q < self.n_qubits for q in gate.qubits):
                raise ValidationError(
                    f"gate {gate.kind} addresses qubit outside 0..{self.n_qubits - 1}")
            if gate.kind == "swap" and abs(gate.qubits[0] - gate.qubits[1]) != 1:
                raise ValidationError("swap gates must act on adjacent qubits")

    def depth(self):
        # gate count; the architecture schedules gates sequentially
        return len(self.gates)

    def is_nearest_neighbor(self):
        return all(abs(g.qubits[0] - g.qubits[1]) == 1
                   for g in self.gates if len(g.qubits) == 2)


def _apply(circuit: LogicalCircuit, psi):
    """Apply the circuit's gates in turn to psi of shape (2,) * n + batch.

    Axis q holds qubit q (qubit 0 = MSB of a flat index); trailing batch
    axes are carried along untouched.
    """
    for gate in circuit.gates:
        k = len(gate.qubits)
        u = gate.matrix().reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(range(k, 2 * k), gate.qubits))
        psi = np.moveaxis(psi, range(k), gate.qubits)
    return psi


def ideal_unitary(circuit: LogicalCircuit):
    """Dense 2^n x 2^n unitary of the circuit (n <= 12)."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the dense limit of {MAX_DENSE_QUBITS}")
    dim = 2 ** n
    u = _apply(circuit, np.eye(dim, dtype=complex).reshape((2,) * n + (dim,)))
    return u.reshape(dim, dim)


def vacuum_amplitude(circuit: LogicalCircuit):
    """<0...0|U|0...0> of the circuit, the (0, 0) entry of ideal_unitary.

    Only the all-zero state is evolved, so no 2^n x 2^n matrix is built;
    its 2^n entries stop at n = 24, the size of the 12-qubit unitary.
    """
    n = circuit.n_qubits
    if n > 2 * MAX_DENSE_QUBITS:
        raise TooManyQubits(
            f"{n} qubits exceeds the state-vector limit of {2 * MAX_DENSE_QUBITS}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    return complex(_apply(circuit, psi)[(0,) * n])


def insert_swaps(circuit: LogicalCircuit):
    """Rewrite distant entangling gates as swap-conjugated adjacent ones.

    Each Entangling(a, b) with |a - b| > 1 becomes a chain of adjacent swaps
    moving b next to a, the adjacent entangling gate, and the reverse chain,
    so every qubit returns to its original position and the ideal unitary is
    unchanged.  Output gate count is at most ~2n times the input count.
    """
    out = []
    for gate in circuit.gates:
        if gate.kind != "entangling" or abs(gate.qubits[0] - gate.qubits[1]) == 1:
            out.append(gate)
            continue
        a, b = gate.qubits
        if a < b:
            chain = [(k - 1, k) for k in range(b, a + 1, -1)]
            target = (a, a + 1)
        else:
            chain = [(k, k + 1) for k in range(b, a - 1)]
            target = (a, a - 1)
        swaps = [GateSpec("swap", pair) for pair in chain]
        out.extend(swaps)
        out.append(GateSpec("entangling", target,
                            alpha=gate.alpha, beta=gate.beta))
        out.extend(reversed(swaps))
    return LogicalCircuit(circuit.n_qubits, tuple(out))
