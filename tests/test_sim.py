import dataclasses
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsshare import circuits, linalg, pauli, sim, symplectic
from qsshare.errors import IndexOutOfRangeError, PreparationFailedError, QssError, TooLargeError

import oracles
from conftest import AVAILABLE


def test_basis_state_and_norm():
    st = sim.basis_state(3, 2, (1, 2))
    assert st.amps[1 * 3 + 2] == 1
    assert st.norm() == 1


def test_fourier_on_zero_gives_uniform():
    st = sim.apply_gate(sim.basis_state(3, 1), circuits.fourier(1))
    assert np.allclose(st.amps, np.full(3, 1 / np.sqrt(3)))


def test_fourier_inverse_cancels():
    rng = np.random.default_rng(3)
    st = sim.StateVector(5, 2, sim.random_secret(5, 2, rng))
    out = sim.apply_gate(sim.apply_gate(st, circuits.fourier(2)), circuits.fourier_inv(2))
    assert np.abs(out.amps - st.amps).max() < 1e-12


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fourier_matches_dense_on_every_axis(p):
    rng = np.random.default_rng(p)
    w = np.exp(2j * np.pi / p)
    dense_f = np.array([[w ** (a * b) for a in range(p)] for b in range(p)]) / np.sqrt(p)
    m = 3
    kinds = ((circuits.fourier, dense_f), (circuits.fourier_inv, dense_f.conj().T))
    for q, (kind, mat) in product(range(1, m + 1), kinds):
        amps = rng.normal(size=p**m) + 1j * rng.normal(size=p**m)
        expected = np.kron(np.kron(np.eye(p ** (q - 1)), mat), np.eye(p ** (m - q))) @ amps
        got = sim.apply_gate(sim.StateVector(p, m, amps), kind(q)).amps
        assert np.abs(got - expected).max() < 1e-12, (p, q, kind)


def test_fourier_matches_tensordot_past_a_block():
    # 2^17 amplitudes: a Fourier gate on every axis of a wide register
    p, m = 2, 17
    rng = np.random.default_rng(67)
    amps = rng.normal(size=p**m) + 1j * rng.normal(size=p**m)
    mat = sim._fourier_matrix(p, False)
    for q in range(1, m + 1):
        for kind, op in ((circuits.fourier, mat), (circuits.fourier_inv, mat.conj().T)):
            tensor = amps.reshape((p,) * m)
            expected = np.moveaxis(np.tensordot(op, tensor, axes=([1], [q - 1])), 0, q - 1)
            got = sim.apply_gate(sim.StateVector(p, m, amps), kind(q)).amps
            assert np.abs(got - expected.reshape(-1)).max() < 1e-12, (q, kind)


def test_phase_pow_diagonal_action():
    st = sim.basis_state(3, 1, (2,))
    out = sim.apply_gate(st, circuits.phase_pow(1, 2))
    w = np.exp(2j * np.pi / 3)
    assert np.abs(out.amps[2] - w ** (2 * 2)) < 1e-12


def test_phase_pow_qubit_uses_fourth_root():
    st = sim.basis_state(2, 1, (1,))
    out = sim.apply_gate(st, circuits.phase_pow(1, 1))
    assert np.abs(out.amps[1] - 1j) < 1e-12


def test_gate_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        sim.apply_gate(sim.basis_state(2, 1), circuits.fourier(2))


def test_apply_phased_pauli_matches_dense():
    rng = np.random.default_rng(13)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        if p**n > 32:
            continue
        op = pauli.PhasedPauli(
            p, int(rng.integers(0, pauli.phase_order(p))), rng.integers(0, p, size=2 * n)
        )
        amps = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
        amps /= np.linalg.norm(amps)
        st = sim.StateVector(p, n, amps)
        got = sim.apply_phased_pauli(st, op).amps
        expected = pauli.dense_matrix(op) @ amps
        assert np.abs(got - expected).max() < 1e-12


def _per_site(state, op):
    """op applied as n single-qudit PAULI gates through apply_circuit, one
    layer of per-axis units, times its scalar w^e."""
    p, n = state.p, state.m
    a, b = op.x_part(), op.z_part()
    gates = tuple(oracles.pauli_gate(q + 1, a[q], b[q]) for q in range(n))
    circuit = circuits.Circuit(p, n, circuits.share_roles(n, 0), gates)
    return sim.apply_circuit(state, circuit).amps * pauli.phase_value(op.phase, p)


# n = 1 leaves the row half empty; then n odd and even, the last ones past DENSE_GUARD
_SEPARABLE_SIZES = {2: (1, 5, 6, 15, 16), 3: (1, 4, 9, 10), 5: (1, 3, 7), 7: (1, 2, 5), 13: (1, 2, 4)}
_SEPARABLE_CASES = [(p, n) for p, sizes in _SEPARABLE_SIZES.items() for n in sizes]


@pytest.mark.parametrize("p, n", _SEPARABLE_CASES)
def test_apply_phased_pauli_matches_per_site_gates(p, n):
    rng = np.random.default_rng(p * 100 + n)
    h, ring = n // 2, pauli.phase_order(p)
    amps = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
    state = sim.StateVector(p, n, amps / np.linalg.norm(amps))
    rows, cols = np.arange(n) < h, np.arange(n) >= h  # the high digits index the rows
    ops = [pauli.identity_pauli(p, n), pauli.PhasedPauli(p, 1 + rng.integers(ring - 1), np.zeros(2 * n))]
    for x_mask in (rows, cols, np.ones(n, bool)):  # X parts in the high half, the low half, both
        x = rng.integers(1, p, size=n) * x_mask
        ops.append(pauli.PhasedPauli(p, rng.integers(ring), np.concatenate([x, rng.integers(0, p, size=n)])))
    for op in ops:
        got = sim.apply_phased_pauli(state, op).amps
        assert np.abs(got - _per_site(state, op)).max() < 1e-12, op
    assert np.array_equal(sim.apply_phased_pauli(state, ops[0]).amps, state.amps)


def _dense_gate(gate, p, m):
    """Independent dense operator of a Pauli-type gate, qudit 1 most significant."""
    site = pauli.PhasedPauli(p, 0, list(gate.params))
    if gate.kind == "PAULI":
        terms = [{gate.qudits[0]: pauli.dense_matrix(site)}]
    else:
        c, t = gate.qudits
        sign = -1 if gate.kind == "CPAULIINV" else 1
        terms = []
        for j in range(p):
            proj = np.zeros((p, p))
            proj[j, j] = 1
            terms.append({c: proj, t: pauli.dense_matrix(pauli.pauli_pow(site, sign * j))})
    out = np.zeros((p**m, p**m), dtype=complex)
    for factors in terms:
        term = np.ones((1, 1))
        for q in range(1, m + 1):
            term = np.kron(term, factors.get(q, np.eye(p)))
        out += term
    return out


def test_controlled_gate_matches_dense_on_random_states():
    rng = np.random.default_rng(17)
    checked = set()
    for p in (2, 3, 5, 7):
        for m in (2, 3):
            pairs = [(c, t) for c in range(1, m + 1) for t in range(1, m + 1) if c != t]
            gates = [
                kind(c, t, int(rng.integers(0, p)), int(rng.integers(1, p)))
                for c, t in pairs
                for kind in (circuits.controlled_pauli, circuits.controlled_pauli_inv)
            ]
            gates += [
                oracles.pauli_gate(q, int(rng.integers(0, p)), int(rng.integers(0, p)))
                for q in range(1, m + 1)
            ]
            gates.append(circuits.controlled_pauli(m, 1, 1, 0))  # pure shift
            if m == 3:  # every (a, b): pure shift, pure phase and both, either control order
                gates += [
                    kind(c, t, a, b)
                    for a, b in product(range(p), repeat=2)
                    for c, t in ((1, 3), (3, 2))
                    for kind in (circuits.controlled_pauli, circuits.controlled_pauli_inv)
                ]
            for gate in gates:
                amps = rng.normal(size=p**m) + 1j * rng.normal(size=p**m)
                amps /= np.linalg.norm(amps)
                st = sim.StateVector(p, m, amps)
                got = sim.apply_gate(st, gate).amps
                assert np.abs(got - _dense_gate(gate, p, m) @ amps).max() < 1e-12, (p, m, gate)
                assert np.array_equal(st.amps, amps)  # the input state is left untouched
                checked.add((p, m, gate.kind, gate.qudits, gate.params))
    # every kind, both control orders, the non-adjacent pairs and every (a, b) ran
    assert {(3, 3, "CPAULIINV", (1, 3)), (5, 3, "CPAULI", (3, 1)), (2, 3, "PAULI", (2,))} <= {
        key[:4] for key in checked
    }
    for p, kind, pair in product((2, 3, 5, 7), ("CPAULI", "CPAULIINV"), ((1, 3), (3, 2))):
        assert {key[4] for key in checked if key[:4] == (p, 3, kind, pair)} == set(
            product(range(p), repeat=2)
        )


def _runs_circuit(p, m, rng, segments=10):
    """Gates of all six kinds on m qudits: runs of controlled Paulis of one
    kind and control, on targets before and after the control, runs of one,
    a run with a repeated target, and sequences of up to three single-qudit
    gates on any qudits, repeats included, that break runs."""
    gates = []
    for _ in range(segments):
        control = int(rng.integers(1, m + 1))
        others = [q for q in range(1, m + 1) if q != control]
        size = int(rng.integers(1, len(others) + 1))
        targets = [int(t) for t in rng.choice(others, size=size, replace=False)]
        if rng.random() < 0.2:  # a repeated target starts a new run
            targets.append(targets[0])
        kind = str(rng.choice(["CPAULI", "CPAULIINV"]))
        for t in targets:
            params = tuple(int(v) for v in rng.integers(0, p, size=2))
            gates.append(circuits.Gate(kind, (control, t), params))
        for _ in range(int(rng.integers(0, 4))):
            q = int(rng.integers(1, m + 1))
            breaker = str(rng.choice(["F", "FINV", "PPOW", "PAULI"]))
            params = {
                "PPOW": (int(rng.integers(0, pauli.phase_order(p))),),
                "PAULI": tuple(int(v) for v in rng.integers(0, p, size=2)),
            }.get(breaker, ())
            gates.append(circuits.Gate(breaker, (q,), params))
    return gates


def _per_gate_deviation(gates, p, m, batch, rng):
    """Largest deviation of apply_circuit, on each member of a random batch,
    from the per-gate oracle."""
    tensor = rng.normal(size=(p,) * m + (batch,)) + 1j * rng.normal(size=(p,) * m + (batch,))
    expected = oracles.apply_gates(tensor, gates, p)
    circuit = circuits.Circuit(p, m, circuits.share_roles(m, 0), tuple(gates))
    members = [sim.apply_circuit(sim.StateVector(p, m, tensor[..., b]), circuit).amps for b in range(batch)]
    return np.abs(np.stack(members, axis=-1) - expected.reshape(-1, batch)).max()


@pytest.mark.parametrize("p, m", [(2, 7), (3, 5), (5, 4), (7, 3)])
@pytest.mark.parametrize("batch", [1, 3])
def test_fused_runs_match_per_gate_oracle(p, m, batch):
    rng = np.random.default_rng(100 * p + batch)
    for _ in range(6):
        gates = _runs_circuit(p, m, rng)
        assert _per_gate_deviation(gates, p, m, batch, rng) < 1e-12, gates


def test_norm_preserved_through_long_circuit(hexcode, hexconv):
    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    circ = circuits.synthesize_reconstruction(plan, hexcode)
    rng = np.random.default_rng(19)
    st = sim.StateVector(3, 8, sim.random_secret(3, 8, rng))
    for _ in range(4):  # ~100 gates total
        st = sim.apply_circuit(st, circ)
    assert abs(st.norm() - 1) < 1e-9


def test_logical_zero_reference(hexcode, hexconv):
    zero = sim.logical_zero(hexcode, hexconv)
    assert zero.amps.shape[0] == 729
    for g in hexconv.generators:
        out = sim.apply_phased_pauli(zero, g)
        assert np.abs(out.amps - zero.amps).max() < 1e-9
    # logical-z condition: 1/alpha_i M(z_i) fixes the logical zero
    for i in range(hexcode.k):
        op = pauli.PhasedPauli(3, hexconv.alpha_inverse_exponent(i), hexcode.logical_z[i])
        out = sim.apply_phased_pauli(zero, op)
        assert np.abs(out.amps - zero.amps).max() < 1e-9


def test_logical_zero_single_qudit_z_code():
    code = symplectic.build_code(3, np.array([[0, 1]]))
    conv = pauli.make_convention(code)
    zero = sim.logical_zero(code, conv)
    assert np.abs(zero.amps - np.array([1, 0, 0])).max() < 1e-12


def test_logical_zero_qubit_random_codes():
    for seed in range(5):
        code = symplectic.random_self_orthogonal_code(2, 5, 1, seed)
        conv = pauli.make_convention(code)
        zero = sim.logical_zero(code, conv)
        for g in conv.generators:
            out = sim.apply_phased_pauli(zero, g)
            assert np.abs(out.amps - zero.amps).max() < 1e-9


@st.composite
def small_codes(draw):
    """Random codes small enough for the dense projector oracle (p^n <= 729),
    k = 0 included, and codes whose generators have no X part at all."""
    p, largest = draw(st.sampled_from(((2, 7), (3, 6), (5, 4), (7, 3))))
    n = draw(st.integers(1, largest))
    k = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return symplectic.random_self_orthogonal_code(p, n, k, seed)
    rng = np.random.default_rng(seed)
    z = rng.integers(0, p, size=(n - k, n))
    while linalg.rank(z, p) < n - k:
        z = rng.integers(0, p, size=(n - k, n))
    zeros = np.zeros((n, n), dtype=np.int64)
    return symplectic.build_code(
        p, np.hstack([zeros[: n - k], z]), self_dual=np.hstack([zeros, np.eye(n, dtype=np.int64)]), n=n
    )


@settings(max_examples=80)
@given(small_codes())
def test_logical_zero_equals_projector_oracle(code):
    conv = pauli.make_convention(code)
    got = sim.logical_zero(code, conv).amps
    expected = oracles.logical_zero_projector(code, conv).amps
    assert np.abs(got - expected).max() < 1e-12


def _shift_phase(conv, index, by):
    gens = list(conv.generators)
    gens[index] = pauli.PhasedPauli(conv.p, gens[index].phase + by, gens[index].vec)
    return dataclasses.replace(conv, generators=gens)


def test_logical_zero_names_the_generator_that_fails():
    code = symplectic.build_code(2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]))  # XX, ZZ
    conv = pauli.make_convention(code)
    assert np.allclose(sim.logical_zero(code, conv).amps, np.array([1, 0, 0, 1]) / np.sqrt(2))
    # i XX squares to -1, and i ZZ has eigenvalues +-i only: each moves the state by sqrt(2)
    for index in (0, 1):
        with pytest.raises(PreparationFailedError, match=rf"^generator {index + 1} does not fix .*norm 1\.41\)$"):
            sim.logical_zero(code, _shift_phase(conv, index, 1))
    # -ZZ is a valid generator: its +1 state is (|01> + |10>)/sqrt(2)
    flipped = sim.logical_zero(code, _shift_phase(conv, 1, 2)).amps
    assert np.allclose(flipped, np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_logical_z_eigenvalue_on_basis_codewords(hexcode, hexconv):
    # 1/alpha_i M(z_i) reads out digit i of a basis codeword as w_p^{digit}
    zero = sim.logical_zero(hexcode, hexconv)
    w_p = np.exp(2j * np.pi / 3)
    for digits in ((1, 0), (0, 1), (2, 1)):
        secret = sim.basis_state(3, 2, digits)
        encoded = sim.encode_secret(hexcode, hexconv, secret.amps, zero=zero)
        for i in range(2):
            op = pauli.PhasedPauli(3, hexconv.alpha_inverse_exponent(i), hexcode.logical_z[i])
            out = sim.apply_phased_pauli(encoded, op)
            assert np.abs(out.amps - w_p ** digits[i] * encoded.amps).max() < 1e-9


def test_encode_zero_secret_is_logical_zero(hexcode, hexconv):
    zero = sim.logical_zero(hexcode, hexconv)
    encoded = sim.encode_secret(hexcode, hexconv, sim.basis_state(3, 2).amps, zero=zero)
    assert np.abs(encoded.amps - zero.amps).max() < 1e-12


def test_encode_routes_agree(hexcode, hexconv):
    zero = sim.logical_zero(hexcode, hexconv)
    rng = np.random.default_rng(23)
    for digits in ((1, 0), (2, 2)):
        secret = sim.basis_state(3, 2, digits).amps
        direct = sim.encode_secret(hexcode, hexconv, secret, zero=zero)
        via, residual = sim.encode_secret_via_dealer(hexcode, hexconv, secret, zero=zero)
        assert residual < 1e-10
        assert np.abs(direct.amps - via.amps).max() < 1e-10
    for _ in range(3):
        secret = sim.random_secret(3, 2, rng)
        direct = sim.encode_secret(hexcode, hexconv, secret, zero=zero)
        via, residual = sim.encode_secret_via_dealer(hexcode, hexconv, secret, zero=zero)
        assert residual < 1e-10
        assert np.abs(direct.amps - via.amps).max() < 1e-10


def test_encoded_states_stay_stabilized(hexcode, hexconv):
    zero = sim.logical_zero(hexcode, hexconv)
    rng = np.random.default_rng(29)
    secret = sim.random_secret(3, 2, rng)
    encoded = sim.encode_secret(hexcode, hexconv, secret, zero=zero)
    for g in hexconv.stabilizer_generators():
        out = sim.apply_phased_pauli(encoded, g)
        assert np.abs(out.amps - encoded.amps).max() < 1e-9


def test_reduced_density_product_state():
    rng = np.random.default_rng(31)
    left = sim.random_secret(3, 1, rng)
    right = sim.random_secret(3, 1, rng)
    st = sim.StateVector(3, 2, np.kron(left, right))
    for keep in ((1,), (2,)):
        rho = oracles.reduced_density(st, keep)
        assert abs(sim.purity(rho) - 1) < 1e-12
        assert abs(np.trace(rho).real - 1) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_reduced_density_maximally_entangled():
    p = 3
    amps = np.zeros(p * p, dtype=complex)
    for j in range(p):
        amps[j * p + j] = 1 / np.sqrt(p)
    st = sim.StateVector(p, 2, amps)
    for keep in ((1,), (2,)):
        rho = oracles.reduced_density(st, keep)
        assert abs(sim.purity(rho) - 1 / p) < 1e-12


def test_encoded_share_subset_is_mixed(hexcode, hexconv):
    zero = sim.logical_zero(hexcode, hexconv)
    encoded = sim.encode_secret(hexcode, hexconv, sim.basis_state(3, 2).amps, zero=zero)
    rho = oracles.reduced_density(encoded, AVAILABLE)
    assert sim.purity(rho) < 0.999


def test_gate_functions_leave_their_input_untouched():
    rng = np.random.default_rng(43)
    p, m = 3, 4
    amps = rng.normal(size=p**m) + 1j * rng.normal(size=p**m)
    state = sim.StateVector(p, m, amps.copy())
    gates = (
        circuits.fourier(1),
        circuits.fourier_inv(4),
        circuits.phase_pow(2, 2),
        oracles.pauli_gate(4, 1, 2),
        circuits.controlled_pauli(1, 4, 2, 1),
        circuits.controlled_pauli_inv(4, 2, 1, 0),
    )
    outputs = [sim.apply_gate(state, gate) for gate in gates]
    outputs.append(sim.apply_circuit(state, circuits.Circuit(p, m, circuits.share_roles(m, 0), gates)))
    op = pauli.PhasedPauli(p, 1, rng.integers(1, p, size=2 * m))
    outputs.append(sim.apply_phased_pauli(state, op))
    assert np.array_equal(state.amps, amps)
    assert not any(np.shares_memory(out.amps, state.amps) for out in outputs)


def _random_circuit(p, n, k, rng, size=40):
    """Gates of every kind on random qudits of a shares-first n + k register."""
    m = n + k
    gates = []
    for _ in range(size):
        kind = str(rng.choice(circuits.GATE_KINDS))
        c, t = (int(q) for q in rng.choice(np.arange(1, m + 1), size=2, replace=False))
        params = {
            "PPOW": (int(rng.integers(0, pauli.phase_order(p))),),
            "CPAULI": tuple(int(v) for v in rng.integers(0, p, size=2)),
            "CPAULIINV": tuple(int(v) for v in rng.integers(0, p, size=2)),
            "PAULI": tuple(int(v) for v in rng.integers(0, p, size=2)),
        }.get(kind, ())
        gates.append(circuits.Gate(kind, (c, t) if kind in ("CPAULI", "CPAULIINV") else (c,), params))
    return circuits.Circuit(p, m, circuits.share_roles(n, k), tuple(gates))


def _ancilla_oracle(code, circuit, encoded):
    """Ancilla state of the emitted, shares-first circuit run on encoded (x) |0...0>."""
    p, n, k = code.p, code.n, code.k
    emitted = circuits.parse_circuit(circuits.emit_circuit(circuit))
    joint = sim.StateVector(p, n + k, np.kron(encoded, sim.basis_state(p, k).amps))
    return oracles.reduced_density(sim.apply_circuit(joint, emitted), range(n + 1, n + k + 1))


@pytest.mark.parametrize("p, n, k, seed", [(3, 6, 2, None), (2, 7, 2, 1), (2, 6, 3, 0), (5, 4, 2, 0)])
def test_ancilla_first_layout_matches_partial_trace(hexcode, hexconv, p, n, k, seed):
    code = hexcode if seed is None else symplectic.random_self_orthogonal_code(p, n, k, seed)
    conv = hexconv if seed is None else pauli.make_convention(code)
    rng = np.random.default_rng(41)
    encoded = sim.encode_secret(code, conv, sim.random_secret(p, k, rng)).amps
    circs = [
        circuits.synthesize_reconstruction(circuits.plan_reconstruction(code, conv, members), code)
        for members in symplectic.all_qualified_sets(code)
    ]
    assert len(circs) >= 4
    circs.append(_random_circuit(p, n, k, rng))  # shares as controls, ancillas as targets
    for circuit in circs:
        (got,) = sim._ancilla_density(circuit, encoded[None], k)
        assert np.abs(got - _ancilla_oracle(code, circuit, encoded)).max() < 1e-12, circuit.gates


def _ancilla_gates(p, n, k, rng, diagonal=False):
    """One to six single-qudit gates on random ancillas of a shares-first
    n + k register, repeats on one ancilla included; diagonal ones only
    (PPOW, or PAULI with a = 0) when asked."""
    kinds = ["PPOW", "PAULI"] if diagonal else ["F", "FINV", "PPOW", "PAULI"]
    gates = []
    for _ in range(int(rng.integers(1, 7))):
        kind, q = str(rng.choice(kinds)), n + 1 + int(rng.integers(k))
        params = {
            "PPOW": (int(rng.integers(pauli.phase_order(p))),),
            "PAULI": (0 if diagonal else int(rng.integers(p)), int(rng.integers(p))),
        }.get(kind, ())
        gates.append(circuits.Gate(kind, (q,), params))
    return gates


def _layered_circuit(p, n, k, rng, lead_run, lead_share):
    """A shares-first circuit shaped like a reconstruction circuit but with
    random ancilla-only sequences: [sequence,] run, sequence, run, diagonal
    sequence, every run from an ancilla control onto shares, and one
    single-qudit share gate inside the middle sequence and, with lead_share,
    one inside the leading sequence."""
    m = n + k

    def run():
        control = n + 1 + int(rng.integers(k))
        targets = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
        kind = str(rng.choice(["CPAULI", "CPAULIINV"]))
        return [circuits.Gate(kind, (control, int(t)), tuple(int(v) for v in rng.integers(0, p, 2))) for t in targets]

    def with_share_gate(gates):
        gates.insert(int(rng.integers(len(gates) + 1)), oracles.pauli_gate(int(rng.integers(1, n + 1)), 1, 1))
        return gates

    lead = [] if lead_run else _ancilla_gates(p, n, k, rng)
    middle = with_share_gate(_ancilla_gates(p, n, k, rng))
    gates = (with_share_gate(lead) if lead_share else lead) + run() + middle + run()
    gates += _ancilla_gates(p, n, k, rng, diagonal=True)
    return circuits.Circuit(p, m, circuits.share_roles(n, k), tuple(gates))


@pytest.mark.parametrize(
    "p, n, k", [(2, 4, 1), (2, 3, 3), (3, 3, 1), (3, 2, 2), (3, 1, 3), (5, 2, 1), (5, 1, 3), (7, 1, 1), (7, 1, 2)]
)
@pytest.mark.parametrize("batch", [1, 3])
def test_ancilla_layers_match_per_gate_oracle(p, n, k, batch):
    rng = np.random.default_rng(1000 * p + 10 * k + batch)
    for trial in range(8):
        # a leading run, a leading sequence on ancillas only, or one that also holds a share gate
        circuit = _layered_circuit(p, n, k, rng, lead_run=trial % 2 == 1, lead_share=trial % 4 == 2)
        encoded = rng.normal(size=(batch, p**n)) + 1j * rng.normal(size=(batch, p**n))
        # the oracle: encoded (x) ancilla |0...0>, shares first, every gate on its own
        start = np.zeros((p**n, p**k, batch), dtype=np.complex128)
        start[:, 0] = encoded.T
        expected = oracles.apply_gates(start.reshape((p,) * (n + k) + (batch,)), circuit.gates, p)
        members = [
            sim.apply_circuit(sim.StateVector(p, n + k, start[..., b]), circuit).amps for b in range(batch)
        ]
        assert np.abs(np.stack(members, axis=-1) - expected.reshape(-1, batch)).max() < 1e-12, circuit.gates
        got = sim._final_states(circuit, encoded, k)  # the whole batch, as verification runs it
        assert np.abs(got - expected.reshape(got.shape)).max() < 1e-12, circuit.gates


def _first_plans(code, conv, count=2):
    sets = symplectic.all_qualified_sets(code)
    return circuits.plan_sets(code, conv, sets[:count])


def _batch_case(hexcode, hexconv, p, n, k, seed):
    code = hexcode if seed is None else symplectic.random_self_orthogonal_code(p, n, k, seed)
    conv = hexconv if seed is None else pauli.make_convention(code)
    return code, conv, 3


# (p, n, k, code seed), each run with batches of up to 2 B + 1 = 7 secrets; seed None is the bundled code
_BATCH_CASES = [(2, 12, 2, 0), (3, 6, 2, None), (5, 4, 2, 0), (5, 5, 2, 0)]


@pytest.mark.parametrize("p, n, k, seed", _BATCH_CASES)
def test_batched_verification_equals_one_secret_per_call(hexcode, hexconv, p, n, k, seed):
    code, conv, batch = _batch_case(hexcode, hexconv, p, n, k, seed)
    plans = _first_plans(code, conv)
    rng = np.random.default_rng(59)
    secrets = [sim.random_secret(p, k, rng) for _ in range(2 * batch + 1)]
    secrets[0] = sim.basis_state(p, k).amps  # zero coefficients ride in a batch too
    single = [sim.verify_reconstruction(code, conv, plans, [secret]) for secret in secrets]
    zero = sim.logical_zero(code, conv)
    encoded = sim._encode_rows(code, conv, np.array(secrets), zero)
    for row, secret in zip(encoded, secrets):  # bit-identical to the one-row encoder
        assert np.array_equal(row, sim.encode_secret(code, conv, secret, zero=zero).amps)
    # The Fourier gate's tensordot can round differently for a batch of B and
    # of 1 (final states differ by up to 7e-18 on the bundled code), so the
    # fidelities and purities, all near 1, agree to a few ulps, not bit for
    # bit. A batching bug moves them by O(1), far outside the bound.
    ulps = 4 * np.finfo(float).eps
    for trials in (1, batch, batch + 1, 2 * batch + 1):
        reports = sim.verify_reconstruction(code, conv, plans, secrets[:trials])
        for i, report in enumerate(reports):
            assert len(report.fidelity) == len(report.purity) == trials
            fidelity = [one[i].fidelity[0] for one in single[:trials]]
            purity = [one[i].purity[0] for one in single[:trials]]
            assert np.abs(np.subtract(report.fidelity, fidelity)).max() <= ulps
            assert np.abs(np.subtract(report.purity, purity)).max() <= ulps
            assert min(report.fidelity) > 1 - 1e-9
    # the whole secret space, beside the sampled secrets
    for fidelity in sim.entanglement_fidelity(code, conv, plans):
        assert 1 - 1e-12 <= fidelity <= 1 + 1e-12


@pytest.mark.parametrize("p, n, k, seed", _BATCH_CASES)
def test_batched_verification_fails_every_secret_of_a_broken_circuit(
    monkeypatch, hexcode, hexconv, p, n, k, seed
):
    code, conv, batch = _batch_case(hexcode, hexconv, p, n, k, seed)
    synthesize = circuits.synthesize_reconstruction

    def off_by_one(plan, code):  # the first PPOW gate's exponent, plus one
        circuit = synthesize(plan, code)
        gates = list(circuit.gates)
        i = next(i for i, gate in enumerate(gates) if gate.kind == "PPOW")
        gates[i] = circuits.phase_pow(gates[i].qudits[0], gates[i].params[0] + 1)
        return dataclasses.replace(circuit, gates=tuple(gates))

    plans = _first_plans(code, conv)
    monkeypatch.setattr(circuits, "synthesize_reconstruction", off_by_one)
    rng = np.random.default_rng(61)
    secrets = [sim.random_secret(p, k, rng) for _ in range(2 * batch + 1)]
    for report in sim.verify_reconstruction(code, conv, plans, secrets):
        assert len(report.fidelity) == 2 * batch + 1
        assert all(fidelity < 1 - 1e-9 for fidelity in report.fidelity), report.fidelity


def _off_by_one(circuit, kind):
    """The circuit with its first gate of `kind` changed: a PPOW exponent
    plus one, or a controlled Pauli's b plus one."""
    gates = list(circuit.gates)
    i = next(i for i, gate in enumerate(gates) if gate.kind == kind)
    params = list(gates[i].params)
    params[-1] += 1
    if kind != "PPOW":
        params[-1] %= circuit.p
    gates[i] = circuits.Gate(kind, gates[i].qudits, tuple(params))
    return dataclasses.replace(circuit, gates=tuple(gates))


def test_entanglement_fidelity_is_one_on_every_bundled_set(hexcode, hexconv):
    sets = symplectic.all_qualified_sets(hexcode)
    assert len(sets) == 22
    fidelities = sim.entanglement_fidelity(hexcode, hexconv, circuits.plan_sets(hexcode, hexconv, sets))
    assert len(fidelities) == 22
    assert all(1 - 1e-12 <= f <= 1 + 1e-12 for f in fidelities), fidelities


# (p, n, k, code seed); the p = 3 code's 9 basis secrets make a buffer of 3^13 amplitudes
@pytest.mark.parametrize("p, n, k, seed", [(2, 9, 2, 1), (3, 9, 2, 0), (5, 4, 2, 0)])
def test_entanglement_fidelity_is_one_on_an_n_minus_1_set(p, n, k, seed):
    code = symplectic.random_self_orthogonal_code(p, n, k, seed)
    conv = pauli.make_convention(code)
    members = next(
        members
        for members in combinations(range(1, n + 1), n - 1)
        if symplectic.erasure_correctable(code, symplectic.complement(members, n))
    )
    (fidelity,) = sim.entanglement_fidelity(code, conv, circuits.plan_reconstruction(code, conv, members))
    assert 1 - 1e-12 <= fidelity <= 1 + 1e-12


@pytest.mark.parametrize("kind", ["PPOW", "CPAULIINV"])
def test_entanglement_fidelity_fails_a_broken_circuit(monkeypatch, hexcode, hexconv, kind):
    synthesize = circuits.synthesize_reconstruction
    monkeypatch.setattr(
        circuits, "synthesize_reconstruction", lambda plan, code: _off_by_one(synthesize(plan, code), kind)
    )
    plans = _first_plans(hexcode, hexconv, count=4)
    for fidelity in sim.entanglement_fidelity(hexcode, hexconv, plans):
        assert fidelity < 1 - 1e-9


def test_verify_reconstruction_reference(hexcode, hexconv):
    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    (report,) = sim.verify_reconstruction(hexcode, hexconv, plan, [sim.basis_state(3, 2).amps])
    assert report.available == AVAILABLE
    (fidelity,), (purity,) = report.fidelity, report.purity
    assert fidelity > 1 - 1e-9
    assert abs(purity - 1) < 1e-9
    assert report.two_qudit_gates == 15
    assert report.single_qudit_gates == 8


def test_verify_reconstruction_random_secrets_all_quads(hexcode, hexconv):
    rng = np.random.default_rng(37)
    secrets = [sim.random_secret(3, 2, rng) for _ in range(3)]
    quads = list(combinations(range(1, 7), 4))
    plans = circuits.plan_sets(hexcode, hexconv, quads)
    reports = sim.verify_reconstruction(hexcode, hexconv, plans, secrets)
    assert [report.available for report in reports] == quads
    for members, report in zip(quads, reports):
        assert len(report.fidelity) == len(report.purity) == 3, members
        for fidelity, purity in zip(report.fidelity, report.purity):
            assert fidelity > 1 - 1e-9, members
            assert abs(purity - 1) < 1e-9, members
    # the whole secret space of every quad, beside the sampled secrets
    for members, fidelity in zip(quads, sim.entanglement_fidelity(hexcode, hexconv, plans)):
        assert 1 - 1e-12 <= fidelity <= 1 + 1e-12, members


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", "8")
    with pytest.raises(TooLargeError):
        sim.basis_state(3, 3)
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", "27")
    assert sim.basis_state(3, 3).norm() == 1
    for value in ("0", "-4", "abc"):  # a guard no state can pass is bad input
        monkeypatch.setenv("QSS_MAX_AMPLITUDES", value)
        with pytest.raises(QssError, match="^QSS_MAX_AMPLITUDES must be a positive integer"):
            sim.basis_state(3, 3)


def test_guard_bounds_the_working_buffer(monkeypatch, hexcode, hexconv):
    # 3^8 amplitudes per secret for verify_reconstruction, 3^10 for the 9 basis secrets of entanglement_fidelity
    plans = _first_plans(hexcode, hexconv, count=1)
    secrets = [sim.basis_state(3, 2).amps] * 3
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", str(3 * 3**8 - 1))
    with pytest.raises(TooLargeError, match=r"^3\^8 x 3 amplitudes exceed the guard"):
        sim.verify_reconstruction(hexcode, hexconv, plans, secrets)
    assert len(sim.verify_reconstruction(hexcode, hexconv, plans, secrets[:2])[0].fidelity) == 2
    with pytest.raises(TooLargeError, match=r"^3\^10 amplitudes exceed the guard"):
        sim.entanglement_fidelity(hexcode, hexconv, plans)
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", str(3**10))
    (fidelity,) = sim.entanglement_fidelity(hexcode, hexconv, plans)
    assert 1 - 1e-12 <= fidelity <= 1 + 1e-12


def test_fix_global_phase_deterministic():
    st = sim.StateVector(2, 1, np.array([0, 1j]))
    fixed = sim.fix_global_phase(st)
    assert np.abs(fixed.amps[1] - 1) < 1e-12
