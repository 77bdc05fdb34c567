import numpy as np
import pytest

from fieldforge.circuits import (
    GateSpec,
    LogicalCircuit,
    MAX_DENSE_QUBITS,
    ideal_unitary,
    insert_swaps,
    vacuum_amplitude,
)
from fieldforge.errors import TooManyQubits, ValidationError


def test_gate_spec_validation():
    with pytest.raises(ValidationError):
        GateSpec("hadamard", (0,))
    with pytest.raises(ValidationError):
        GateSpec("xrot", (0, 1))
    with pytest.raises(ValidationError):
        GateSpec("entangling", (2,))
    with pytest.raises(ValidationError):
        GateSpec("swap", (1, 1))
    with pytest.raises(ValidationError):
        GateSpec("zrot", (0,), angle=np.inf)
    with pytest.raises(ValidationError):
        GateSpec("entangling", (0, 1), alpha=np.nan)
    for bad in (1.5, np.nan, np.inf, "0.0", "3"):
        with pytest.raises(ValidationError):
            GateSpec("zrot", (bad,))


def test_gate_spec_coerces_qubits():
    g = GateSpec("entangling", [np.int64(1), 3.0], alpha=0.2)
    assert g.qubits == (1, 3)
    assert all(isinstance(q, int) for q in g.qubits)


def test_zrot_matrix():
    theta = 0.73
    np.testing.assert_allclose(
        GateSpec("zrot", (0,), angle=theta).matrix(),
        np.diag([1.0, np.exp(-1j * theta)]))


def test_xrot_matrix_is_conjugated_zrot():
    theta = 1.1
    u = GateSpec("xrot", (0,), angle=theta).matrix()
    # global phase e^{-i theta/2} times a rotation about X
    expect = np.exp(-1j * theta / 2.0) * np.array(
        [[np.cos(theta / 2.0), 1j * np.sin(theta / 2.0)],
         [1j * np.sin(theta / 2.0), np.cos(theta / 2.0)]])
    np.testing.assert_allclose(u, expect, atol=1e-14)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_xrot_pi_is_bit_flip_up_to_phase():
    u = GateSpec("xrot", (0,), angle=np.pi).matrix()
    np.testing.assert_allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_entangling_and_swap_matrices():
    g = GateSpec("entangling", (0, 1), alpha=0.4, beta=-1.3)
    np.testing.assert_allclose(
        g.matrix(), np.diag([1.0, np.exp(0.4j), np.exp(-1.3j), 1.0]))
    s = GateSpec("swap", (0, 1)).matrix()
    np.testing.assert_allclose(s @ s, np.eye(4), atol=0.0)
    np.testing.assert_allclose(s, s.conj().T, atol=0.0)


def test_circuit_validation():
    with pytest.raises(ValidationError):
        LogicalCircuit(0, ())
    with pytest.raises(ValidationError):
        LogicalCircuit(2, (GateSpec("zrot", (2,)),))
    with pytest.raises(ValidationError):
        LogicalCircuit(4, (GateSpec("swap", (0, 2)),))
    with pytest.raises(ValidationError):
        LogicalCircuit(2, ("zrot",))
    for bad in (2.5, np.nan, np.inf):
        with pytest.raises(ValidationError):
            LogicalCircuit(bad, ())
    assert LogicalCircuit(2.0, ()).n_qubits == 2
    assert type(LogicalCircuit(np.int64(2), ()).n_qubits) is int


def test_depth_and_nearest_neighbor():
    circ = LogicalCircuit(4, (
        GateSpec("xrot", (0,), angle=0.3),
        GateSpec("entangling", (0, 3), alpha=0.1, beta=0.2),
    ))
    assert circ.depth() == 2
    assert not circ.is_nearest_neighbor()
    assert insert_swaps(circ).is_nearest_neighbor()


def test_ideal_unitary_single_qubit_embedding():
    # qubit 0 is the most significant bit
    theta = 0.9
    z = np.diag([1.0, np.exp(-1j * theta)])
    circ0 = LogicalCircuit(2, (GateSpec("zrot", (0,), angle=theta),))
    np.testing.assert_allclose(ideal_unitary(circ0), np.kron(z, np.eye(2)),
                               atol=1e-15)
    circ1 = LogicalCircuit(2, (GateSpec("zrot", (1,), angle=theta),))
    np.testing.assert_allclose(ideal_unitary(circ1), np.kron(np.eye(2), z),
                               atol=1e-15)


def test_ideal_unitary_two_qubit_embedding():
    g = GateSpec("entangling", (1, 2), alpha=0.5, beta=-0.7)
    circ = LogicalCircuit(3, (g,))
    np.testing.assert_allclose(
        ideal_unitary(circ), np.kron(np.eye(2), g.matrix()), atol=1e-15)


def test_ideal_unitary_reversed_pair_ordering():
    # entangling on (1, 0) permutes the middle phases relative to (0, 1)
    fwd = ideal_unitary(LogicalCircuit(
        2, (GateSpec("entangling", (0, 1), alpha=0.5, beta=-0.7),)))
    rev = ideal_unitary(LogicalCircuit(
        2, (GateSpec("entangling", (1, 0), alpha=0.5, beta=-0.7),)))
    np.testing.assert_allclose(
        rev, np.diag([1.0, np.exp(-0.7j), np.exp(0.5j), 1.0]), atol=1e-15)
    np.testing.assert_allclose(np.diag(fwd), np.diag(rev)[[0, 2, 1, 3]],
                               atol=1e-15)


def test_ideal_unitary_application_order():
    # first listed gate acts first: U = G2 G1
    g1 = GateSpec("xrot", (0,), angle=0.4)
    g2 = GateSpec("zrot", (0,), angle=-1.2)
    u = ideal_unitary(LogicalCircuit(1, (g1, g2)))
    np.testing.assert_allclose(u, g2.matrix() @ g1.matrix(), atol=1e-15)


def test_ideal_unitary_is_unitary():
    rng = np.random.default_rng(3)
    gates = []
    for _ in range(12):
        kind = rng.choice(["xrot", "zrot", "entangling", "swap"])
        if kind in ("xrot", "zrot"):
            gates.append(GateSpec(kind, (int(rng.integers(0, 4)),),
                                  angle=float(rng.normal())))
        elif kind == "entangling":
            a, b = rng.choice(4, size=2, replace=False)
            gates.append(GateSpec(kind, (int(a), int(b)),
                                  alpha=float(rng.normal()),
                                  beta=float(rng.normal())))
        else:
            a = int(rng.integers(0, 3))
            gates.append(GateSpec(kind, (a, a + 1)))
    u = ideal_unitary(LogicalCircuit(4, tuple(gates)))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


def test_entangling_gate_entangles():
    # Schmidt rank 2 out of a product state unless alpha + beta = 0 mod 2pi
    u = ideal_unitary(LogicalCircuit(
        2, (GateSpec("entangling", (0, 1), alpha=0.7, beta=-1.2),)))
    plus = np.full(4, 0.5)
    psi = (u @ plus).reshape(2, 2)
    s = np.linalg.svd(psi, compute_uv=False)
    assert s[1] > 1e-3
    u0 = ideal_unitary(LogicalCircuit(
        2, (GateSpec("entangling", (0, 1), alpha=0.7, beta=-0.7),)))
    s0 = np.linalg.svd((u0 @ plus).reshape(2, 2), compute_uv=False)
    assert s0[1] < 1e-12


def test_swap_matches_permutation():
    circ = LogicalCircuit(3, (GateSpec("swap", (0, 1)),))
    u = ideal_unitary(circ)
    idx = np.arange(8)
    swapped = ((idx >> 2) & 1) << 1 | ((idx >> 1) & 1) << 2 | (idx & 1)
    np.testing.assert_allclose(u, np.eye(8)[:, swapped].T, atol=0.0)


def _full_space_matrix(gate, n):
    """U[i, j] = u_small[bits_i(q), bits_j(q)] where i and j agree off q."""
    u_small = gate.matrix()
    mask = sum(1 << (n - 1 - q) for q in gate.qubits)

    def sub(i):
        # the gate's qubits of i, first listed qubit most significant
        return sum(((i >> (n - 1 - q)) & 1) << (len(gate.qubits) - 1 - k)
                   for k, q in enumerate(gate.qubits))

    u = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(2 ** n):
        for j in range(2 ** n):
            if i & ~mask == j & ~mask:
                u[i, j] = u_small[sub(i), sub(j)]
    return u


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vacuum_amplitude_matches_ideal_unitary(n):
    # both run one gate-application step, so each is checked against the
    # product of full-space matrices built entry by entry from qubit bits;
    # swaps, distant entanglers in both orders and rotations on every qubit
    rng = np.random.default_rng(n)
    kinds = ["xrot", "zrot"] + ["entangling", "swap"] * (n > 1)
    for _ in range(6):
        gates = []
        for kind in rng.choice(kinds, size=int(rng.integers(1, 13))):
            if kind in ("xrot", "zrot"):
                gates.append(GateSpec(kind, (int(rng.integers(n)),),
                                      angle=float(rng.uniform(-3.0, 3.0))))
            elif kind == "entangling":
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(GateSpec(kind, (int(a), int(b)),
                                      alpha=float(rng.uniform(-3.0, 3.0)),
                                      beta=float(rng.uniform(-3.0, 3.0))))
            else:
                a = int(rng.integers(n - 1))
                gates.append(GateSpec(kind, (a, a + 1)))
        circ = LogicalCircuit(n, tuple(gates))
        oracle = np.eye(2 ** n, dtype=complex)
        for gate in gates:
            oracle = _full_space_matrix(gate, n) @ oracle
        assert np.max(np.abs(ideal_unitary(circ) - oracle)) <= 1e-15
        assert abs(vacuum_amplitude(circ) - oracle[0, 0]) <= 1e-15
    assert vacuum_amplitude(LogicalCircuit(n, ())) == 1.0


def test_insert_swaps_preserves_unitary():
    rng = np.random.default_rng(11)
    gates = [
        GateSpec("xrot", (2,), angle=0.6),
        GateSpec("entangling", (0, 3), alpha=0.8, beta=-0.3),
        GateSpec("zrot", (1,), angle=-0.9),
        GateSpec("entangling", (3, 0), alpha=-1.1, beta=0.25),
        GateSpec("entangling", (2, 1), alpha=0.4, beta=0.9),
    ]
    circ = LogicalCircuit(4, tuple(gates))
    routed = insert_swaps(circ)
    assert routed.is_nearest_neighbor()
    np.testing.assert_allclose(ideal_unitary(routed), ideal_unitary(circ),
                               atol=1e-12)
    # adjacent gates and single-qubit gates pass through untouched
    assert routed.gates[0] == gates[0]
    assert routed.gates[-1] == gates[-1]


def test_insert_swaps_gate_count_bound():
    circ = LogicalCircuit(8, (GateSpec("entangling", (0, 7), alpha=0.1),))
    routed = insert_swaps(circ)
    n_swaps = sum(1 for g in routed.gates if g.kind == "swap")
    assert n_swaps == 12
    assert routed.depth() <= 2 * (circ.n_qubits - 2) + 1


def test_too_many_qubits():
    circ = LogicalCircuit(MAX_DENSE_QUBITS + 1, ())
    with pytest.raises(TooManyQubits):
        ideal_unitary(circ)
    assert vacuum_amplitude(circ) == 1.0
    # past 24 qubits the state vector would outgrow the 12-qubit unitary;
    # at 65 numpy could not even index it
    for n in (2 * MAX_DENSE_QUBITS + 1, 65):
        with pytest.raises(TooManyQubits):
            vacuum_amplitude(LogicalCircuit(n, ()))


def test_identity_circuit():
    u = ideal_unitary(LogicalCircuit(3, ()))
    np.testing.assert_allclose(u, np.eye(8), atol=0.0)
