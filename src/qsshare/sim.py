"""Exact dense simulation of qudit registers: a library API, the tests'
oracle for certify, and demo's verification line. The command line's
verify certifies circuits with certify and never loads this module.

States are complex amplitude arrays of length p^m with qudit 1 as the most
significant digit of the index. Erased shares are modeled by never applying a
gate to them: the global state stays pure.

Gates run in place on one working tensor shaped (p,)*m + (B,), qudit q on
axis q - 1 and a batch of B states on the last axis. Every circuit first
becomes a _program of two op kinds. Each maximal run of consecutive
controlled Paulis of one kind and one control on distinct targets, a lone
controlled gate included, is a runs.Run, which runs.apply_run moves as one
gather-and-phase pass per control value, in rows of at most runs.ROW
amplitudes. Each maximal sequence of single-qudit gates between runs, on
any qudits, is one _Layer, the operator (x)_q U_q: U_q is qudit q's gates
run in order on eye(p), a Fourier gate as a product and w^e X^a Z^b as row
t moved to row t + a times w^{e + c b t} (c = 2 at p = 2 and 1 otherwise);
consecutive qudits share one Kronecker-product matrix while p^L <= LAYER,
and a diagonal one is kept as its diagonal. One dense kernel, _product,
applies each matrix: it multiplies every (p^L, after) block of L
consecutive axes by the p^L x p^L matrix, one slab of at most BLOCK
amplitudes at a time, each written back in place (a state of at most BLOCK
amplitudes takes one product), or scales the blocks' rows by a diagonal.
apply_gate and apply_circuit build their program the same way, copy their
input once and never write it. No operator on the whole register is built:
pauli.dense_matrix is a test oracle.

apply_phased_pauli applies w^e M(a|b) to a whole state, which the logical
zero's generator check and encoding do for every operator, without walking
any axis: destination y reads source y - a, times w^(e + c b.(y - a)), and
both split over the digits. The state is a (p^h, p^(m-h)) matrix, h = m // 2;
each half has a source-index table and a phase row, outer sums over its
digits, so the result is np.take of the rows, np.take of the columns into a
new array, and one multiply by each half's phases, the scalar w^e riding on
the rows. The input is never written. The logical zero is built in closed
form, as a phased uniform superposition over an affine subspace.

verify_reconstruction runs each circuit ancilla-first: ancilla i becomes
qudit i and share j becomes qudit k + j. A reconstruction circuit is then
2k runs of controlled Paulis from leading axes, so rows are contiguous (a
row reaches back over its control axis only while it is short). Its
single-qudit gates all sit on ancillas, so the program is: the initial
state, k runs, one layer (the step-3 phase powers and the step-4 Fourier
gates), k runs, one diagonal layer (the step-6 phase powers). A leading
layer on ancillas only never touches the joint state: it runs on the p^k
ancilla tensor |0...0>, and the buffer is written once as that ket (x)
encoded. The trial secrets go through in balanced chunks of
B <= max(1, BLOCK // p^(n+k)), each riding through every circuit as the
batch axis of one working buffer; on the bundled [[6,2,3]] qutrit code 10
secrets make two chunks of 5, and a state of more than BLOCK / 2 amplitudes
runs one secret at a time. Consecutive chunks of at most max(B, p^k // 2)
secrets together are encoded in one pass over the logical Paulis. Each
circuit's program is built once per call, with equal runs of different
circuits shared, so the tables of its runs serve every chunk and none
outlives the call. A member's ancilla state is M M^H for its final state M
as a (p^k, p^n) matrix, summed over slabs of columns, so no second
state-sized array is made. entanglement_fidelity runs the p^k basis secrets
the same way and checks the whole secret space at once.

The default size guard admits up to 2^24 amplitudes; the environment
variable QSS_MAX_AMPLITUDES, a positive integer, overrides it. The guard's
max_amplitudes, ReconstructionReport and random_secret live in certify and
are imported from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from itertools import product as iter_product

import numpy as np

from . import circuits, linalg, pauli, runs
from .certify import ReconstructionReport, max_amplitudes, random_secret
from .errors import IndexOutOfRangeError, NoSolutionError, PreparationFailedError, TooLargeError

BLOCK = 2**16  # amplitudes (1 MiB): a Fourier slab, an M M^H slab, a secret batch, 4 runs.ROW rows
# Consecutive ancilla axes share one layer matrix while their joint dimension
# p^L stays at most LAYER. One p^L x p^L product against L per-axis Fourier
# products, 2^17 to 2^21 amplitudes, one BLAS thread, best of 7: time ratio
# 0.40-0.62 at p = 2 up to p^L = 64, 0.53-0.68 at 9 and 27, 0.76-0.94 at 25,
# 0.81-0.92 at 81, 0.88-1.28 at 49, 1.8-2.2 at 121 and 125.
LAYER = 32


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


def apply_phased_pauli(state: StateVector, op: pauli.PhasedPauli) -> StateVector:
    """Apply w^e M(a|b) as one gather-and-phase pass over the state as a
    (p^h, p^(m-h)) matrix, h = m // 2: np.take of the rows, then of the
    columns, times the phase rows of the two halves (c = 2 at p = 2 and 1
    otherwise in w^(e + c b.(y - a)))."""
    p, m = state.p, state.m
    if op.p != p or op.n != m:
        raise ValueError("operator register does not match the state")
    ring, h = pauli.phase_order(p), m // 2
    a, b = op.x_part(), op.z_part()
    reads = (np.arange(p) - a[:, None]) % p  # (m, p): the digit that each digit reads
    exps = np.array([pauli.block_exponents(z, 0, p) for z in b.tolist()]).reshape(m, p)
    places = p ** np.concatenate((np.arange(h - 1, -1, -1), np.arange(m - h - 1, -1, -1)))
    # per digit, a (2, p) stack of its place-valued source digit and its phase
    # exponent; the outer sum over a half's digits gives its two tables
    digits = np.stack((reads * places[:, None], exps[np.arange(m)[:, None], reads]), axis=1)
    (rows, row_exps), (cols, col_exps) = runs._outer_sum(digits[:h], 2), runs._outer_sum(digits[h:], 2)
    # a half that moves no digit reads itself, and one of phase 1 scales nothing
    rows = rows if a[:h].any() else None
    cols = cols if a[h:].any() else None
    row_phase = pauli.phase_table(p)[(row_exps + op.phase) % ring] if b[:h].any() or op.phase else None
    col_phase = pauli.phase_table(p)[col_exps % ring] if b[h:].any() else None
    matrix = state.amps.reshape(p**h, p ** (m - h))
    out = matrix if rows is None else np.take(matrix, rows, axis=0, mode="clip")
    if cols is not None:
        out = np.take(out, cols, axis=1, mode="clip")
    if out is matrix:  # the input is never written
        out = matrix.copy()
    if row_phase is not None:
        out *= row_phase[:, None]
    if col_phase is not None:
        out *= col_phase
    return StateVector(p, m, out.reshape(-1))


@lru_cache(maxsize=None)
def _fourier_matrix(p: int, inverse: bool) -> np.ndarray:
    """F, or F^-1: read-only, shared through the cache."""
    w = np.exp(2j * np.pi / p)
    grid = np.outer(np.arange(p), np.arange(p)) % p
    mat = w**grid / np.sqrt(p)
    out = mat.conj().T if inverse else mat
    out.flags.writeable = False
    return out


def _product(tensor: np.ndarray, axis: int, matrix: np.ndarray, p: int) -> None:
    """Apply a p^L x p^L matrix in place to the L axes from `axis` on, every
    (p^L, after) block at once, one slab of at most BLOCK amplitudes at a
    time; a 1-d matrix is a diagonal and scales the blocks' rows."""
    view = tensor.reshape(p**axis, matrix.shape[0], -1)
    if matrix.ndim == 1:
        view *= matrix[:, None]
        return
    lead, size, after = view.shape
    rows, cols = max(1, BLOCK // (size * after)), min(after, max(1, BLOCK // size))
    for r in range(0, lead, rows):
        for c in range(0, after, cols):
            part = view[r : r + rows, :, c : c + cols]
            part[...] = matrix @ part


@dataclass(frozen=True)
class _Layer:
    """Single-qudit gates with no run between them, as the one operator
    (x)_q U_q, U_q the product of qudit q's gates in order. groups are
    (first axis, matrix) pairs, the Kronecker product of the U_q of
    consecutive qudits, or its diagonal when that is all it has."""

    groups: tuple


def _layer(gates, p: int) -> _Layer:
    phases, ring = pauli.phase_table(p), pauli.phase_order(p)
    units: dict = {}
    for g in gates:  # qudit q's gates, in order, on eye(p) give U_q
        axis = g.qudits[0] - 1
        unit = units.setdefault(axis, np.eye(p, dtype=np.complex128))
        if g.kind in ("F", "FINV"):
            _product(unit, 0, _fourier_matrix(p, g.kind == "FINV"), p)
            continue
        # PPOW e and PAULI a b move row t to row t + shift, times w^exps[t]: shift 0 and
        # exps e t, or shift a and exps c b t (c = 2 at p = 2 and 1 otherwise)
        if g.kind == "PPOW":
            shift, exps = 0, [g.params[0] * t for t in range(p)]
        else:
            shift, exps = g.params[0] % p, pauli.block_exponents(g.params[1], 0, p)
        units[axis] = moved = np.empty_like(unit) if shift else unit.copy()
        for t in range(p):
            if shift or exps[t] % ring:  # a row that stays with phase 1 is kept as it is
                np.multiply(unit[t], phases[exps[t] % ring], out=moved[(t + shift) % p])
    groups: list = []  # [first axis, axis past the last, matrix], greedily while p^L <= LAYER
    for axis in sorted(units):
        if groups and groups[-1][1] == axis and len(groups[-1][2]) * p <= LAYER:
            groups[-1][1:] = axis + 1, np.kron(groups[-1][2], units[axis])
        else:
            groups.append([axis, axis + 1, units[axis]])
    layer = []
    for axis, _, matrix in groups:
        diagonal = np.diagonal(matrix)
        layer.append((axis, diagonal.copy() if np.array_equal(matrix, np.diag(diagonal)) else matrix))
    return _Layer(tuple(layer))


def _program(gates, p: int) -> list:
    """The ops of a gate sequence, qudit q on axis q - 1: runs.program's
    runs, with each maximal sequence of single-qudit gates between them
    folded into one _Layer."""
    ops: list = []
    for is_run, group in groupby(runs.program(gates), lambda op: isinstance(op, runs.Run)):
        if is_run:
            ops.extend(group)
        else:
            ops.append(_layer(group, p))
    return ops


def _execute(tensor: np.ndarray, ops, p: int) -> None:
    """Run a _program in place on a working tensor shaped (p,)*m + (B,)."""
    for op in ops:
        if isinstance(op, runs.Run):
            runs.apply_run(tensor, op, p)
        else:
            for axis, matrix in op.groups:
                _product(tensor, axis, matrix, p)


def _apply_gates(state: StateVector, gates) -> StateVector:
    p, m = state.p, state.m
    tensor = state.amps.reshape((p,) * m + (1,)).copy()
    _execute(tensor, _program(gates, p), p)
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


def logical_zero(code, convention) -> StateVector:
    """Joint +1 eigenvector of the calibrated self-dual generators, in closed form.

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
    gens = convention.generators
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


def encode_secret(code, convention, secret, zero: StateVector | None = None) -> StateVector:
    """Encode a k-qudit secret into an n-share codeword state.

    Basis-wise route: basis state |i_1..i_k> maps to the logical codeword
    prod_t (alpha_t M(x_t))^{i_t} |0...0-bar>, extended linearly.
    """
    p, n = code.p, code.n
    _guard(p, n)
    if zero is None:
        zero = logical_zero(code, convention)
    rows = np.asarray(secret, dtype=np.complex128).reshape(1, -1)
    return StateVector(p, n, _encode_rows(code, convention, rows, zero)[0])


def _encode_rows(code, convention, secrets: np.ndarray, zero: StateVector) -> np.ndarray:
    """Codewords of a (B, p^k) stack of secrets as (B, p^n) rows, in one pass
    over the p^k logical Paulis. A coefficient below 1e-15 counts as exactly
    0, so each row is the sum of the same products, in the same order, as a
    stack of one."""
    p, n, k = code.p, code.n, code.k
    if secrets.shape[1] != p**k:
        raise ValueError(f"secret must have {p}**{k} amplitudes")
    xs = [pauli.PhasedPauli(p, e, x) for e, x in zip(convention.alpha_exponents, code.logical_x)]
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


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def fidelity_with_pure(rho: np.ndarray, psi) -> float:
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return float(np.real(psi.conj() @ rho @ psi))


def _ancilla_first(circuit: circuits.Circuit, n: int) -> list:
    """The _program of a shares-first circuit, relabeled so ancilla i is
    qudit i and share j is qudit k + j. Its run tables, built on first use,
    serve every later chunk of secrets."""
    k = circuit.num_qudits - n

    def move(q):
        return q + k if q <= n else q - n

    return _program(
        (circuits.Gate(g.kind, tuple(move(q) for q in g.qudits), g.params) for g in circuit.gates), circuit.p
    )


def _final_states(code, program, encoded: np.ndarray) -> np.ndarray:
    """The state after an ancilla-first program acts on |0...0> (x) encoded,
    for a (B, p^n) stack of codewords, as a (p^k, p^n, B) array. A leading
    layer on ancillas only is run on the p^k ancilla tensor |0...0> and
    folded into the initial state, ket (x) encoded, written in one pass."""
    p, n, k = code.p, code.n, code.k
    ket = np.zeros((p,) * k + (1,), dtype=np.complex128)
    ket.flat[0] = 1
    lead = program[0] if program and isinstance(program[0], _Layer) else None
    if lead and all(len(matrix) <= p ** (k - axis) for axis, matrix in lead.groups):
        _execute(ket, program[:1], p)
        program = program[1:]
    tensor = np.empty((p,) * (k + n) + (len(encoded),), dtype=np.complex128)
    matrix = tensor.reshape(p**k, p**n, len(encoded))
    for row, amplitude in zip(matrix, ket.reshape(-1)):
        np.multiply(encoded.T, amplitude, out=row)
    _execute(tensor, program, p)
    return matrix


def _ancilla_density(code, program, encoded: np.ndarray) -> np.ndarray:
    """Ancilla reduced state after an ancilla-first program acts on
    |0...0> (x) encoded.

    encoded is one codeword, or a (B, p^n) stack of them that rides through
    the program as a trailing batch axis; then one state per row comes back.
    """
    p, n, k = code.p, code.n, code.k
    matrix = _final_states(code, program, np.atleast_2d(encoded))
    batch = matrix.shape[-1]
    # M M^H per batch member, by slabs of columns of M
    rho = np.zeros((batch, p**k, p**k), dtype=np.complex128)
    width = max(1, BLOCK // (p**k * batch))
    for c in range(0, p**n, width):
        part = matrix[:, c : c + width].transpose(2, 0, 1)
        rho += part @ part.conj().transpose(0, 2, 1)
    return rho if np.ndim(encoded) > 1 else rho[0]


def _encoded_chunks(code, convention, secrets: np.ndarray, zero: StateVector):
    """(chunk, codewords) for balanced chunks of the rows of a (count, p^k)
    stack of secrets, each at most max(1, BLOCK // p^(n+k)) long. Runs of
    whole chunks of at most max(chunk length, p^k // 2) rows share one
    _encode_rows call, so the logical Paulis meet the logical zero once per
    run, and the codewords beside a joint state stay under half of one past
    a chunk; each row is the same as when encoded alone."""
    p, n, k = code.p, code.n, code.k
    count = -(-len(secrets) // max(1, BLOCK // p ** (n + k)))
    chunks = np.array_split(np.arange(len(secrets)), count) if count else []
    per = max(1, p**k // 2 // len(chunks[0])) if chunks else 1
    for i in range(0, len(chunks), per):
        run = chunks[i : i + per]
        first = run[0][0]
        encoded = _encode_rows(code, convention, secrets[first : run[-1][-1] + 1], zero)
        for chunk in run:
            yield chunk, encoded[chunk[0] - first : chunk[-1] - first + 1]


def verify_reconstruction(code, convention, plans, secrets) -> list[ReconstructionReport]:
    """Encode, erase, reconstruct, and report ancilla fidelity and purity.

    Takes one circuits.ReconstructionPlan per share set, synthesizes each
    circuit once, then runs every circuit on n + k qudits: the encoded shares
    (missing ones never addressed) plus a fresh |0...0> ancilla register the
    circuit drives to the secret. The secrets go through in balanced chunks
    of at most max(1, BLOCK // p^(n+k)), each encoded once and carried by every
    circuit as a batch axis of one working buffer, relabeled ancilla-first.
    Returns one report per plan, in order.
    """
    p, n, k = code.p, code.n, code.k
    _guard(p, n + k)
    circs = [circuits.synthesize_reconstruction(plan, code) for plan in plans]
    programs = runs.share(_ancilla_first(circuit, n) for circuit in circs)
    zero = logical_zero(code, convention)
    rows = np.asarray(secrets, dtype=np.complex128).reshape(len(secrets), p**k)
    results = [[] for _ in circs]
    for chunk, encoded in _encoded_chunks(code, convention, rows, zero):
        for program, result in zip(programs, results):
            for secret, rho in zip(rows[chunk], _ancilla_density(code, program, encoded)):
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


def entanglement_fidelity(code, convention, plans) -> list[float]:
    """Entanglement fidelity of each plan's circuit over the whole secret space.

    Runs the p^k basis secrets |s> through each circuit, relabeled
    ancilla-first, as the batch axis (in chunks as verify_reconstruction
    does). With M_s the final state as a (p^k, p^n) matrix, ancilla digits
    first, F_e = ||sum_s M_s[s, :]||^2 / p^(2k). F_e = 1 exactly when every
    basis secret comes out as |s> (x) |junk> with one junk state and one phase
    shared by all s, which by linearity is exact reconstruction of every
    secret (Schumacher, quant-ph/9604023). Returns one F_e per plan, in order.
    """
    p, n, k = code.p, code.n, code.k
    _guard(p, n + k)
    programs = runs.share(
        _ancilla_first(circuits.synthesize_reconstruction(plan, code), n) for plan in plans
    )
    zero = logical_zero(code, convention)
    basis = np.eye(p**k, dtype=np.complex128)
    sums = np.zeros((len(programs), p**n), dtype=np.complex128)
    for chunk, encoded in _encoded_chunks(code, convention, basis, zero):
        for program, total in zip(programs, sums):
            matrix = _final_states(code, program, encoded)
            total += matrix[chunk, :, np.arange(len(chunk))].sum(axis=0)
    return [float(np.vdot(total, total).real) / p ** (2 * k) for total in sums]

