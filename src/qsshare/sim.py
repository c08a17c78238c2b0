"""Exact dense simulation of qudit registers.

States are complex amplitude arrays of length p^m with qudit 1 as the most
significant digit of the index. Erased shares are modeled by never applying a
gate to them: the global state stays pure and the reduced state on a subset
is only materialized by the diagnostic partial-trace helper.

Every gate but the Fourier gate is monomial: X^a Z^b on a qudit is a phase
vector w_p^{b t} and a roll by a; a controlled Pauli applies its j-th power
to the control-j slice. No dense operator is built: pauli.dense_matrix is a
test oracle.

The default size guard admits up to 2^24 amplitudes; the environment
variable QSS_MAX_AMPLITUDES overrides it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from . import circuits, pauli
from .errors import IndexOutOfRangeError, PreparationFailedError, QssError, TooLargeError

DEFAULT_MAX_AMPLITUDES = 2**24


def max_amplitudes() -> int:
    value = os.environ.get("QSS_MAX_AMPLITUDES")
    if not value:
        return DEFAULT_MAX_AMPLITUDES
    try:
        return int(value)
    except ValueError:
        raise QssError(f"QSS_MAX_AMPLITUDES must be an integer, got {value!r}") from None


def _guard(p: int, m: int) -> None:
    if p**m > max_amplitudes():
        raise TooLargeError(
            f"{p}^{m} amplitudes exceed the guard ({max_amplitudes()}); "
            "set QSS_MAX_AMPLITUDES to raise it"
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


def _pauli_on_axis(tensor: np.ndarray, a: int, b: int, p: int, axis: int) -> np.ndarray:
    """X^a Z^b on one axis: multiply by w_p^{b t}, then roll t -> t + a."""
    if b:
        w_p = np.exp(2j * np.pi / p)
        phases = w_p ** ((b * np.arange(p)) % p)
        tensor = tensor * phases.reshape((1,) * axis + (p,) + (1,) * (tensor.ndim - axis - 1))
    if a:
        tensor = np.roll(tensor, a, axis=axis)
    return tensor


def apply_phased_pauli(state: StateVector, op: pauli.PhasedPauli) -> StateVector:
    """Apply w^e M(a|b): a permutation of indices plus diagonal phases."""
    p, m = state.p, state.m
    if op.p != p or op.n != m:
        raise ValueError("operator register does not match the state")
    a, b = op.x_part(), op.z_part()
    tensor = state.tensor()
    for q in range(m):
        tensor = _pauli_on_axis(tensor, int(a[q]), int(b[q]), p, q)
    amps = tensor.reshape(-1) * pauli.phase_value(op.phase, p)
    return StateVector(p, m, amps)


def _fourier_matrix(p: int) -> np.ndarray:
    w = np.exp(2j * np.pi / p)
    grid = np.outer(np.arange(p), np.arange(p)) % p
    return w**grid / np.sqrt(p)


def apply_gate(state: StateVector, gate: circuits.Gate) -> StateVector:
    p, m = state.p, state.m
    for q in gate.qudits:
        if not 1 <= q <= m:
            raise IndexOutOfRangeError(f"gate {gate} addresses qudit {q} in a {m}-qudit state")
    tensor = state.tensor()
    axis = gate.qudits[0] - 1  # the gate's only qudit, or its control
    if gate.kind in ("F", "FINV"):
        mat = _fourier_matrix(p) if gate.kind == "F" else _fourier_matrix(p).conj().T
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=([1], [axis])), 0, axis)
    elif gate.kind == "PPOW":
        phases = np.array([pauli.phase_value(gate.params[0] * j, p) for j in range(p)])
        tensor = tensor * phases.reshape((1,) * axis + (p,) + (1,) * (m - axis - 1))
    elif gate.kind in ("CPAULI", "CPAULIINV"):
        sign = -1 if gate.kind == "CPAULIINV" else 1
        site = pauli.PhasedPauli(p, 0, gate.params)
        tensor = tensor.copy()
        # a view of tensor with the control axis first and the target second
        pair = np.moveaxis(tensor, (axis, gate.qudits[1] - 1), (0, 1))
        for j in range(1, p):
            power = pauli.pauli_pow(site, sign * j)
            pair[j] = _pauli_on_axis(pair[j], *power.vec, p, 0) * pauli.phase_value(power.phase, p)
    elif gate.kind == "PAULI":
        tensor = _pauli_on_axis(tensor, *gate.params, p, axis)
    else:  # pragma: no cover - Gate.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown gate kind {gate.kind}")
    return StateVector(p, m, tensor.reshape(-1))


def apply_circuit(state: StateVector, circuit: circuits.Circuit) -> StateVector:
    if circuit.p != state.p or circuit.num_qudits != state.m:
        raise ValueError("circuit register does not match the state")
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


# ---------------------------------------------------------------------------
# code states


def logical_zero(code, convention) -> StateVector:
    """Joint +1 eigenvector of the calibrated self-dual generators.

    Obtained by running the projector prod_i (1/p) sum_j g_i^j over reference
    basis states until one survives; exact at desk scale and independent of
    any gate-level preparation. Global phase is fixed deterministically.
    """
    p, n = code.p, code.n
    _guard(p, n)
    gens = convention.generators
    for ref in range(p**n):
        digits = np.base_repr(ref, base=p).zfill(n)
        state = basis_state(p, n, [int(d) for d in digits])
        dead = False
        for g in gens:
            acc = state.amps.copy()
            running = state
            for _ in range(p - 1):
                running = apply_phased_pauli(running, g)
                acc += running.amps
            state = StateVector(p, n, acc / p)
            if state.norm() < 1e-9:
                dead = True
                break
        if dead:
            continue
        state = StateVector(p, n, state.amps / state.norm())
        state = fix_global_phase(state)
        for g in gens:
            fixed = apply_phased_pauli(state, g)
            if np.linalg.norm(fixed.amps - state.amps) > 1e-9:
                raise PreparationFailedError("projector output not fixed by a generator")
        return state
    raise PreparationFailedError("no reference state survived the projectors")


def encode_secret(code, convention, secret, zero: StateVector | None = None) -> StateVector:
    """Encode a k-qudit secret into an n-share codeword state.

    Basis-wise route: basis state |i_1..i_k> maps to the logical codeword
    prod_t (alpha_t M(x_t))^{i_t} |0...0-bar>, extended linearly.
    """
    p, n, k = code.p, code.n, code.k
    secret = np.asarray(secret, dtype=np.complex128).reshape(-1)
    if secret.shape[0] != p**k:
        raise ValueError(f"secret must have {p}**{k} amplitudes")
    _guard(p, n)
    if zero is None:
        zero = logical_zero(code, convention)
    xs = [pauli.PhasedPauli(p, e, x) for e, x in zip(convention.alpha_exponents, code.logical_x)]
    out = np.zeros(p**n, dtype=np.complex128)
    for idx, digits in enumerate(iter_product(range(p), repeat=k)):
        if abs(secret[idx]) < 1e-15:
            continue
        op = pauli.identity_pauli(p, n)
        for t in range(k):
            op = pauli.pauli_mul(op, pauli.pauli_pow(xs[t], digits[t]))
        out += secret[idx] * apply_phased_pauli(zero, op).amps
    return StateVector(p, n, out)


def encode_secret_via_dealer(
    code, convention, secret, zero: StateVector | None = None
) -> tuple[StateVector, float]:
    """Encode by running the dealer circuit on shares + message register.

    Returns (codeword state on the n shares, residual) where the residual is
    the weight left outside the uniform message state after encoding; it
    certifies the message register disentangled before being discarded.
    """
    p, n, k = code.p, code.n, code.k
    secret = np.asarray(secret, dtype=np.complex128).reshape(-1)
    _guard(p, n + k)
    if zero is None:
        zero = logical_zero(code, convention)
    joint = StateVector(p, n + k, np.kron(zero.amps, secret))
    joint = apply_circuit(joint, circuits.synthesize_dealer(code, convention))
    matrix = joint.amps.reshape(p**n, p**k)
    uniform = np.full(p**k, 1 / np.sqrt(p**k), dtype=np.complex128)
    shares = matrix @ uniform.conj()
    residual = float(np.linalg.norm(matrix - np.outer(shares, uniform)))
    return StateVector(p, n, shares), residual


# ---------------------------------------------------------------------------
# diagnostics and end-to-end verification


def reduced_density(state: StateVector, keep) -> np.ndarray:
    """Partial trace keeping the given qudits (1-based), in ascending order."""
    p, m = state.p, state.m
    keep = sorted({int(q) for q in keep})
    for q in keep:
        if not 1 <= q <= m:
            raise IndexOutOfRangeError(f"qudit {q} outside the register")
    dim = p ** len(keep)
    if dim**2 > max_amplitudes():
        raise TooLargeError("reduced density matrix exceeds the size guard")
    rest = [q for q in range(1, m + 1) if q not in keep]
    tensor = state.tensor()
    order = [q - 1 for q in keep] + [q - 1 for q in rest]
    matrix = np.transpose(tensor, order).reshape(dim, p ** len(rest))
    return matrix @ matrix.conj().T


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def fidelity_with_pure(rho: np.ndarray, psi) -> float:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return float(np.real(psi.conj() @ rho @ psi))


@dataclass
class ReconstructionReport:
    """One share set's result: one fidelity and one purity per secret."""

    available: tuple[int, ...]
    fidelity: tuple[float, ...]
    purity: tuple[float, ...]
    two_qudit_gates: int
    single_qudit_gates: int


def verify_reconstruction(code, convention, sets, secrets) -> list[ReconstructionReport]:
    """Encode, erase, reconstruct, and report ancilla fidelity and purity.

    Plans each set and encodes each secret once, then runs every circuit on
    n + k qudits: the encoded shares (missing ones never addressed) plus a
    fresh |0...0> ancilla register the circuit drives to the secret. One
    joint state exists at a time. Returns one report per set, in order.
    """
    p, n, k = code.p, code.n, code.k
    _guard(p, n + k)
    plans = [circuits.plan_reconstruction(code, convention, members) for members in sets]
    circs = [circuits.synthesize_reconstruction(plan, code) for plan in plans]
    zero = logical_zero(code, convention)
    ancilla = basis_state(p, k).amps
    results = [[] for _ in circs]
    for secret in secrets:
        encoded = encode_secret(code, convention, secret, zero=zero).amps
        for circuit, result in zip(circs, results):
            joint = apply_circuit(StateVector(p, n + k, np.kron(encoded, ancilla)), circuit)
            matrix = joint.amps.reshape(p**n, p**k)
            rho = matrix.T @ matrix.conj()  # ancilla reduced state
            result.append((fidelity_with_pure(rho, secret), purity(rho)))
    return [
        ReconstructionReport(
            available=plan.available,
            fidelity=tuple(fid for fid, _ in result),
            purity=tuple(pur for _, pur in result),
            two_qudit_gates=circuit.two_qudit_count(),
            single_qudit_gates=circuit.single_qudit_count(),
        )
        for plan, circuit, result in zip(plans, circs, results)
    ]


def random_secret(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector on k qudits, deterministic per generator."""
    dim = p**k
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)
