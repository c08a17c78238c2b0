"""Exact dense simulation of qudit registers: a plain reference simulator,
kept as a library API and as the tests' oracle for certify. No command loads
this module: verify and demo certify circuits with certify.

States are complex amplitude arrays of length p^m with qudit 1 as the most
significant digit of the index. Erased shares are modeled by never applying a
gate to them: the global state stays pure.

Each gate acts on its own, in place, on a working tensor shaped (p,)*m + (B,),
qudit q on axis q - 1 and a batch of B states on the last axis. w^e X^a Z^b
on one axis is one np.roll times a phase vector: digit y reads digit y - a,
times w^(e + c b (y - a)), c = 2 at p = 2 and 1 otherwise. A PAULI gate is
that step, and a CPAULI or CPAULIINV gate takes it on each control slice j
with the power (X^a Z^b)^(+-j). PPOW multiplies the axis by a diagonal, and
F and FINV are one tensordot with the p x p matrix. apply_gate and
apply_circuit copy their input once and never write it. apply_phased_pauli
takes the same step on every qudit of its operator. The logical zero is
built in closed form, as a phased uniform superposition over an affine
subspace, from the code's own pauli.make_convention.

verify_reconstruction and entanglement_fidelity read a plan's code, not its
convention, and run every secret (or every basis secret) as the batch axis
of one working buffer, in the circuit's own shares-first numbering, and
read each ancilla state off the last k digits.

The size guard bounds the working buffer of the call that holds it: p^m
amplitudes for a state, p^(n+k) B for verify_reconstruction with B secrets
and p^(n+2k) for entanglement_fidelity, checked before any allocation. Its
default admits 2^24 amplitudes; the environment variable QSS_MAX_AMPLITUDES,
a positive integer, overrides it. The guard's max_amplitudes,
ReconstructionReport and random_secret live in certify and are imported
from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from . import circuits, linalg, pauli
from .certify import ReconstructionReport, max_amplitudes, random_secret
from .errors import IndexOutOfRangeError, NoSolutionError, PreparationFailedError, TooLargeError


def _guard(p: int, m: int, batch: int = 1) -> None:
    if p**m * batch > max_amplitudes():
        size = f"{p}^{m}" if batch == 1 else f"{p}^{m} x {batch}"
        raise TooLargeError(
            f"{size} amplitudes exceed the guard ({max_amplitudes()}); set QSS_MAX_AMPLITUDES to raise it"
        )


@dataclass
class StateVector:
    p: int
    m: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if self.amps.shape[0] != self.p**self.m:
            raise ValueError(f"expected {self.p}**{self.m} amplitudes")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        return self.amps.reshape((self.p,) * self.m)

    def copy(self) -> "StateVector":
        return StateVector(self.p, self.m, self.amps.copy())


def basis_state(p: int, m: int, digits=None) -> StateVector:
    """|d_1 d_2 ... d_m> with qudit 1 most significant; defaults to |0...0>."""
    _guard(p, m)
    amps = np.zeros(p**m, dtype=np.complex128)
    idx = 0
    if digits is not None:
        for d in digits:
            idx = idx * p + int(d) % p
    amps[idx] = 1.0
    return StateVector(p, m, amps)


def fix_global_phase(state: StateVector, tol: float = 1e-12) -> StateVector:
    """Rotate so the first amplitude of magnitude > tol is real positive."""
    amps = state.amps
    idx = np.argmax(np.abs(amps) > tol)
    pivot = amps[idx]
    if abs(pivot) <= tol:
        return state.copy()
    return StateVector(state.p, state.m, amps * (abs(pivot) / pivot))


def _along(vector: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """A length-p vector shaped to broadcast along one axis of the tensor."""
    return vector.reshape((-1,) + (1,) * (tensor.ndim - axis - 1))


def _pauli_step(tensor: np.ndarray, axis: int, op: pauli.PhasedPauli) -> None:
    """w^e X^a Z^b, a one-qudit op, on one axis in place: digit y reads digit
    y - a, times w^(e + c b (y - a))."""
    p = op.p
    a, b = (int(v) for v in op.vec)
    exps = np.array(pauli.block_exponents(b, op.phase, p)) % pauli.phase_order(p)
    tensor[...] = np.roll(tensor, a, axis=axis) * _along(np.roll(pauli.phase_table(p)[exps], a), tensor, axis)


def apply_phased_pauli(state: StateVector, op: pauli.PhasedPauli) -> StateVector:
    """Apply w^e M(a|b): the per-axis Pauli step on each qudit it moves or
    phases, then the scalar w^e. The input is never written."""
    p, m = state.p, state.m
    if op.p != p or op.n != m:
        raise ValueError("operator register does not match the state")
    tensor = state.tensor().copy()
    for axis, (a, b) in enumerate(zip(op.x_part(), op.z_part())):
        if a or b:
            _pauli_step(tensor, axis, pauli.PhasedPauli(p, 0, (a, b)))
    if op.phase:
        tensor *= pauli.phase_value(op.phase, p)
    return StateVector(p, m, tensor.reshape(-1))


@lru_cache(maxsize=None)
def _fourier_matrix(p: int, inverse: bool) -> np.ndarray:
    """F, or F^-1: read-only, shared through the cache."""
    w = np.exp(2j * np.pi / p)
    grid = np.outer(np.arange(p), np.arange(p)) % p
    mat = w**grid / np.sqrt(p)
    out = mat.conj().T if inverse else mat
    out.flags.writeable = False
    return out


def _apply(tensor: np.ndarray, gate: circuits.Gate, p: int) -> None:
    """Apply one gate in place to a working tensor shaped (p,)*m + (B,)."""
    axis = gate.qudits[0] - 1
    if gate.kind in ("F", "FINV"):
        moved = np.tensordot(_fourier_matrix(p, gate.kind == "FINV"), tensor, axes=([1], [axis]))
        tensor[...] = np.moveaxis(moved, 0, axis)
    elif gate.kind == "PPOW":
        exps = np.arange(p) * gate.params[0] % pauli.phase_order(p)
        tensor *= _along(pauli.phase_table(p)[exps], tensor, axis)
    elif gate.kind == "PAULI":
        _pauli_step(tensor, axis, pauli.PhasedPauli(p, 0, gate.params))
    else:  # sum_j |j><j| (x) (X^a Z^b)^(+-j): slice 0 sees the identity
        target = gate.qudits[1] - 1
        site, sign = pauli.PhasedPauli(p, 0, gate.params), -1 if gate.kind == "CPAULIINV" else 1
        index = [slice(None)] * tensor.ndim
        for j in range(1, p):
            index[axis] = j
            _pauli_step(tensor[tuple(index)], target - (target > axis), pauli.pauli_pow(site, sign * j))


def _apply_gates(state: StateVector, gates) -> StateVector:
    p, m = state.p, state.m
    tensor = state.amps.reshape((p,) * m + (1,)).copy()
    for gate in gates:
        _apply(tensor, gate, p)
    return StateVector(p, m, tensor.reshape(-1))


def apply_gate(state: StateVector, gate: circuits.Gate) -> StateVector:
    for q in gate.qudits:
        if not 1 <= q <= state.m:
            raise IndexOutOfRangeError(f"gate {gate} addresses qudit {q} in a {state.m}-qudit state")
    return _apply_gates(state, (gate,))


def apply_circuit(state: StateVector, circuit: circuits.Circuit) -> StateVector:
    if circuit.p != state.p or circuit.num_qudits != state.m:
        raise ValueError("circuit register does not match the state")
    return _apply_gates(state, circuit.gates)


# ---------------------------------------------------------------------------
# code states


def logical_zero(code) -> StateVector:
    """Joint +1 eigenvector of the code's calibrated self-dual generators, in closed form.

    A stabilizer state is a uniform superposition over an affine subspace with
    exact phases (Dehaene & De Moor, quant-ph/0304125; Hostens, Dehaene &
    De Moor, quant-ph/0408190). Row reduction of the generators' X parts
    yields r products h_i = w^e M(a_i|b_i) with independent a_i and n - r
    diagonal products w^e Z^b; the diagonal +1 conditions e + c b.x = 0
    (c = 2 at p = 2, else 1) fix a point x0, and the state is
    sum_t h_1^t_1 ... h_r^t_r |x0> / sqrt(p^r), grown one h_i at a time by
    w^e X^a Z^b |x> = w^{e + c b.x} |x + a>. Global phase is fixed
    deterministically, and every generator is checked to fix the state.
    """
    p, n = code.p, code.n
    _guard(p, n)
    gens = pauli.make_convention(code).generators
    ring, c = pauli.phase_order(p), 2 if p == 2 else 1
    xs = np.array([g.x_part() for g in gens], dtype=np.int64).reshape(len(gens), n)
    reduced, pivots, _ = linalg.rref(np.hstack([xs, np.eye(len(gens), dtype=np.int64)]), p)
    products = []
    for coeffs in reduced[:, n:]:
        h = pauli.identity_pauli(p, n)
        for i in np.flatnonzero(coeffs):
            h = pauli.pauli_mul(h, pauli.pauli_pow(gens[i], int(coeffs[i])))
        products.append(h)
    r = sum(1 for col in pivots if col < n)  # rows past r have no X part
    x0 = np.zeros(n, dtype=np.int64)
    if products[r:]:
        # An odd e at p = 2 leaves no +1 eigenvector; the check below names a generator.
        zs = np.array([h.z_part() for h in products[r:]])
        try:
            x0 = linalg.solve_linear(zs, [-(h.phase // c) for h in products[r:]], p)
        except NoSolutionError:  # only for dependent generator patterns
            raise PreparationFailedError("the generators have no common +1 eigenvector") from None
    digits, exps = x0.astype(np.int8).reshape(1, n), np.zeros(1, dtype=np.int64)
    for h in products[:r]:
        a, b = h.x_part().astype(np.int8), h.z_part()
        blocks = [(digits, exps)]
        for _ in range(p - 1):
            digits, exps = (digits + a) % p, (exps + h.phase + c * (digits @ b)) % ring
            blocks.append((digits, exps))
        digits, exps = (np.concatenate(part) for part in zip(*blocks))
    amps = np.zeros(p**n, dtype=np.complex128)
    amps[digits @ p ** np.arange(n - 1, -1, -1)] = pauli.phase_table(p)[exps] / np.sqrt(float(p) ** r)
    state = fix_global_phase(StateVector(p, n, amps))
    for i, g in enumerate(gens, start=1):
        residual = float(np.linalg.norm(apply_phased_pauli(state, g).amps - state.amps))
        if residual > 1e-9:
            raise PreparationFailedError(
                f"generator {i} does not fix the logical zero (residual norm {residual:.3g})"
            )
    return state


def encode_secret(code, secret, zero: StateVector | None = None) -> StateVector:
    """Encode a k-qudit secret into an n-share codeword state.

    Basis-wise route: basis state |i_1..i_k> maps to the logical codeword
    prod_t (alpha_t M(x_t))^{i_t} |0...0-bar>, extended linearly.
    """
    p, n = code.p, code.n
    _guard(p, n)
    if zero is None:
        zero = logical_zero(code)
    rows = np.asarray(secret, dtype=np.complex128).reshape(1, -1)
    return StateVector(p, n, _encode_rows(code, rows, zero)[0])


def _encode_rows(code, secrets: np.ndarray, zero: StateVector) -> np.ndarray:
    """Codewords of a (B, p^k) stack of secrets as (B, p^n) rows, in one pass
    over the p^k logical Paulis. A coefficient below 1e-15 counts as exactly
    0, so each row is the sum of the same products, in the same order, as a
    stack of one."""
    p, n, k = code.p, code.n, code.k
    if secrets.shape[1] != p**k:
        raise ValueError(f"secret must have {p}**{k} amplitudes")
    alphas = pauli.make_convention(code).alpha_exponents
    xs = [pauli.PhasedPauli(p, e, x) for e, x in zip(alphas, code.logical_x)]
    coeffs = np.where(np.abs(secrets) < 1e-15, 0, secrets)
    out = np.zeros((len(secrets), p**n), dtype=np.complex128)
    for idx, digits in enumerate(iter_product(range(p), repeat=k)):
        if not coeffs[:, idx].any():
            continue
        op = pauli.identity_pauli(p, n)
        for t in range(k):
            op = pauli.pauli_mul(op, pauli.pauli_pow(xs[t], digits[t]))
        out += coeffs[:, idx, None] * apply_phased_pauli(zero, op).amps
    return out


def encode_secret_via_dealer(code, secret, zero: StateVector | None = None) -> tuple[StateVector, float]:
    """Encode by running the dealer circuit on shares + message register.

    Returns (codeword state on the n shares, residual) where the residual is
    the weight left outside the uniform message state after encoding; it
    certifies the message register disentangled before being discarded.
    """
    p, n, k = code.p, code.n, code.k
    secret = np.asarray(secret, dtype=np.complex128).reshape(-1)
    _guard(p, n + k)
    if zero is None:
        zero = logical_zero(code)
    joint = StateVector(p, n + k, np.kron(zero.amps, secret))
    joint = apply_circuit(joint, circuits.synthesize_dealer(code))
    matrix = joint.amps.reshape(p**n, p**k)
    uniform = np.full(p**k, 1 / np.sqrt(p**k), dtype=np.complex128)
    shares = matrix @ uniform.conj()
    residual = float(np.linalg.norm(matrix - np.outer(shares, uniform)))
    return StateVector(p, n, shares), residual


# ---------------------------------------------------------------------------
# diagnostics and end-to-end verification


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def fidelity_with_pure(rho: np.ndarray, psi) -> float:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return float(np.real(psi.conj() @ rho @ psi))


def _final_states(circuit: circuits.Circuit, encoded: np.ndarray, k: int) -> np.ndarray:
    """The state after a shares-first circuit acts on encoded (x) |0...0>, for
    a (B, p^n) stack of codewords, as a (p^n, p^k, B) array."""
    p, m, batch = circuit.p, circuit.num_qudits, len(encoded)
    states = np.zeros((p ** (m - k), p**k, batch), dtype=np.complex128)
    states[:, 0] = encoded.T
    tensor = states.reshape((p,) * m + (batch,))
    for gate in circuit.gates:
        _apply(tensor, gate, p)
    return states


def _ancilla_density(circuit: circuits.Circuit, encoded: np.ndarray, k: int) -> np.ndarray:
    """The ancilla state after a shares-first circuit acts on encoded (x)
    |0...0>, for a (B, p^n) stack of codewords, as a (B, p^k, p^k) array:
    M^T conj(M) for each final state M as a (p^n, p^k) matrix."""
    members = _final_states(circuit, encoded, k).transpose(2, 0, 1)
    return members.transpose(0, 2, 1) @ members.conj()


def verify_reconstruction(plan, secrets) -> list[ReconstructionReport]:
    """Encode, erase, reconstruct, and report ancilla fidelity and purity.

    Takes a circuits.ReconstructionPlan of any number of share sets,
    synthesizes each set's circuit once and encodes each secret once, then
    runs every circuit on n + k qudits: the encoded shares (missing ones never
    addressed) plus a fresh |0...0> ancilla register the circuit drives to the
    secret, with the secrets on the batch axis. Returns one report per set,
    in order.
    """
    p, n, k = plan.code.p, plan.code.n, plan.code.k
    rows = np.asarray(secrets, dtype=np.complex128).reshape(len(secrets), p**k)
    _guard(p, n + k, max(1, len(rows)))
    circs = [circuits.synthesize_reconstruction(one) for one in plan]
    zero = logical_zero(plan.code)
    encoded = np.array([encode_secret(plan.code, row, zero).amps for row in rows]).reshape(len(rows), p**n)
    reports = []
    for available, circuit in zip(plan.available, circs):
        rhos = _ancilla_density(circuit, encoded, k)
        reports.append(
            ReconstructionReport(
                available=available,
                fidelity=tuple(fidelity_with_pure(rho, row) for rho, row in zip(rhos, rows)),
                purity=tuple(purity(rho) for rho in rhos),
                two_qudit_gates=circuit.two_qudit_count(),
                single_qudit_gates=circuit.single_qudit_count(),
            )
        )
    return reports


def entanglement_fidelity(plan) -> list[float]:
    """Entanglement fidelity of each set's circuit over the whole secret space.

    Runs the p^k basis secrets |s> through each circuit as the batch axis.
    With M_s the final state as a (p^n, p^k) matrix, F_e = ||sum_s M_s[:, s]||^2
    / p^(2k). F_e = 1 exactly when every basis secret comes out as
    |junk> (x) |s> with one junk state and one phase shared by all s, which by
    linearity is exact reconstruction of every secret (Schumacher,
    quant-ph/9604023). Returns one F_e per set of the plan, in order.
    """
    p, n, k = plan.code.p, plan.code.n, plan.code.k
    _guard(p, n + 2 * k)
    encoded = _encode_rows(plan.code, np.eye(p**k, dtype=np.complex128), logical_zero(plan.code))
    out = []
    for one in plan:
        states = _final_states(circuits.synthesize_reconstruction(one), encoded, k)
        total = np.trace(states, axis1=1, axis2=2)
        out.append(float(np.vdot(total, total).real) / p ** (2 * k))
    return out
