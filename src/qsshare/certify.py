"""Exact certificate of a reconstruction circuit from its Clifford action.

Every gate kind is a qudit Clifford, so a circuit U maps each Pauli to one
phased Pauli, and whether U returns every secret is a finite question about
Pauli operators that integer arithmetic decides at any n (Aaronson-Gottesman,
quant-ph/0406196; qudit phases and p = 2's Z_4 ring, de Beaudrap,
arXiv:1102.3354). No state vector is built, and the whole secret space is
checked, not a sample of it.

Pull-back. The ancilla generators X_t, Z_t (ancilla t is qudit n + t) go
back through the emitted gates, last to first, as rows w^e M(x|z) on the
n + k qudits: Q = U^dag P U. A single-qudit gate G is a lookup in a table of
the p^2 conjugates G^dag X^x Z^z G = w^e X^x' Z^z' (_site_table). A run of
controlled Paulis of one kind, one control c and distinct targets is
U = sum_j |j><j|_c (x) N^(sigma j), N = M(v), sigma = +1 for CPAULI and -1 for
CPAULIINV; it maps w^e (X^x Z^z)_c (x) M(S) to w^e' (X^x Z^z')_c (x) M(S + m v)
in one update of all rows (_pull_run), with kappa = 2 at p = 2 and 1 otherwise:

    m  = -sigma x                                        (mod the ring order)
    z' = z - sigma <S, v> + [p = 2] (v_a.v_b) x          (mod p)
    e' = e + kappa (v_a.v_b) m(m-1)/2 + kappa S_a.(m v_b)    (mod the ring)

The [p = 2] term is N^2 = -I, met when the control value wraps.

Compression. sim's encoding map is V|s> = Xbar^s |0bar> (x) |0>_A with
Xbar^s = prod_t (alpha_t M(x_t))^(s_t). U returns every secret iff
V^dag Q V = P for each of the 2k generators P: then P UV = UV P, so every
product of generators passes too, and the channel is the identity.
V^dag Q V is 0 unless Q has no X part on the ancillas and its share pattern r
lies in dual(C). Then r = sum a_t x_t + sum c_i h_i + sum d_t z_t over the
logical x rows, stabilizer rows and logical z rows, M(r) = w^h Xbar^a G with
G the ordered product of the calibrated generators, which fixes |0bar>, and
h from pauli.eigenvalue_exponents, so that

    V^dag Q V |s> = w^(e + h + kappa d.s + pi.(a s)) |s + a>,

pi_t the exponent of Xbar_t^p (0 at odd p, 0 or 2 at p = 2). That is the
secret-space Pauli w^f X^a Z^b with b = (kappa d + pi a) / kappa.

Transfer. A failing set is reported from its Pauli transfer: the p^(2k)
products U^dag P U of the generator images, each compressed to w^f P' or 0.
For a secret psi, chi(P) = <psi|P|psi> for every P at once (one FFT), and
sigma = Phi(|psi><psi|) has tr(P^dag sigma) = conj(w^f chi(P')), so

    fidelity = p^-k sum_P tr(P^dag sigma) chi(P),    purity = p^-k sum_P |tr(P^dag sigma)|^2,
    F_e = p^(-3k) sum_P tr(P^dag Phi(P)) = p^(-2k) sum_{P' = P} w^-f.

On a pass every fidelity and purity is exactly 1.0. The size guard
QSS_MAX_AMPLITUDES (default 2^24) bounds p^(2k), the entries of one operator
on the secret space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import circuits, linalg, pauli, symplectic
from .errors import QssError, TooLargeError

DEFAULT_MAX_AMPLITUDES = 2**24
BLOCK = 2**16  # pattern entries of the transfer rows compressed at once


def max_amplitudes() -> int:
    value = os.environ.get("QSS_MAX_AMPLITUDES")
    if not value:
        return DEFAULT_MAX_AMPLITUDES
    try:
        limit = int(value)
    except ValueError:
        limit = 0
    if limit < 1:  # a guard no state can pass would only hide the bad value
        raise QssError(f"QSS_MAX_AMPLITUDES must be a positive integer, got {value!r}")
    return limit


@dataclass
class ReconstructionReport:
    """One share set's result: one fidelity and one purity per secret, and
    the entanglement fidelity over the whole secret space (None where not
    computed: sim.verify_reconstruction leaves it out)."""

    available: tuple[int, ...]
    fidelity: tuple[float, ...]
    purity: tuple[float, ...]
    two_qudit_gates: int
    single_qudit_gates: int
    entanglement_fidelity: float | None = None


def random_secret(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector on k qudits, deterministic per generator."""
    dim = p**k
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _guard(p: int, k: int) -> None:
    if p ** (2 * k) > max_amplitudes():
        raise TooLargeError(
            f"{p}^{2 * k} entries of a secret-space operator exceed the guard ({max_amplitudes()}); "
            "set QSS_MAX_AMPLITUDES to raise it"
        )


# ---------------------------------------------------------------------------
# pull-back


@lru_cache(maxsize=None)
def _site_table(p: int, kind: str, params: tuple) -> np.ndarray:
    """(3, p^2) read-only table of G^dag X^x Z^z G = w^e X^x' Z^z' for the
    single-qudit gate G: column x p + z holds x', z', e."""
    kappa = 2 if p == 2 else 1
    x, z = np.divmod(np.arange(p * p), p)
    if kind == "F":  # F^dag X F = Z^-1, F^dag Z F = X, and Z^a X^b = w_p^(ab) X^b Z^a
        table = (z, -x, -kappa * x * z)
    elif kind == "FINV":  # F X F^dag = Z, F Z F^dag = X^-1
        table = (-z, x, -kappa * x * z)
    elif kind == "PPOW":  # P^-e X P^e for P = diag(w^j): w^-e X at odd p, w^-e X Z^e at p = 2
        e = params[0]
        table = (x, z + e * x * (p == 2), -e * x)
    else:  # PAULI a b: X^x Z^z G = w_p^(z a - x b) G X^x Z^z
        a, b = params
        table = (x, z, kappa * (z * a - x * b))
    out = np.array(table) % np.array([[p], [p], [pauli.phase_order(p)]])
    out.flags.writeable = False
    return out


def _pull_run(p: int, rows, inverse: bool, control: int, targets: dict) -> None:
    """Conjugate rows (phases, xs, zs) in place by one run of controlled
    Paulis: control column, {target column: (a, b)}."""
    phases, xs, zs = rows
    ring, kappa, sigma = pauli.phase_order(p), 2 if p == 2 else 1, -1 if inverse else 1
    cols = list(targets)
    va, vb = np.array(list(targets.values()), dtype=np.int64).T
    x = xs[:, control]
    m = (-sigma * x) % ring
    own = int(va @ vb)
    sa_vb = xs[:, cols] @ vb
    symp = sa_vb - zs[:, cols] @ va  # <S, v>
    phases[:] = (phases + kappa * (own * (m * (m - 1) // 2) + sa_vb * m)) % ring
    zs[:, control] = (zs[:, control] - sigma * symp + own * x * (p == 2)) % p
    xs[:, cols] = (xs[:, cols] + m[:, None] * va) % p
    zs[:, cols] = (zs[:, cols] + m[:, None] * vb) % p


def pull_back(gates, p: int, phases, xs, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U^dag (w^e M(x|z)) U for U the gate sequence and each row, qudit q in
    column q - 1, as new (phases, xs, zs) arrays. The gates go last to first,
    each maximal run of controlled Paulis of one kind and one control on
    distinct targets in one update."""
    rows = tuple(np.array(v, dtype=np.int64) for v in (phases, xs, zs))
    ring = pauli.phase_order(p)
    run = None  # (inverse, control, {target: (a, b)}), gathered last gate first
    for gate in reversed(gates):
        if gate.is_two_qudit():
            control, target = (q - 1 for q in gate.qudits)
            key = (gate.kind == "CPAULIINV", control)
            if run is not None and run[:2] == key and target not in run[2]:
                run[2][target] = gate.params
                continue
            if run is not None:
                _pull_run(p, rows, *run)
            run = (*key, {target: gate.params})
            continue
        if run is not None:
            _pull_run(p, rows, *run)
            run = None
        phases, xs, zs = rows
        q = gate.qudits[0] - 1
        new_x, new_z, shift = _site_table(p, gate.kind, gate.params)[:, xs[:, q] * p + zs[:, q]]
        xs[:, q], zs[:, q] = new_x, new_z
        phases[:] = (phases + shift) % ring
    if run is not None:
        _pull_run(p, rows, *run)
    return rows


def generator_images(circuit: circuits.Circuit, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U^dag P U for the 2k ancilla generators P, X_1..X_k then Z_1..Z_k, of a
    shares-first circuit on n + k qudits."""
    m = circuit.num_qudits
    eye = np.eye(k, dtype=np.int64)
    xs = np.zeros((2 * k, m), dtype=np.int64)
    zs = np.zeros((2 * k, m), dtype=np.int64)
    xs[:k, m - k :], zs[k:, m - k :] = eye, eye
    return pull_back(circuit.gates, circuit.p, np.zeros(2 * k, dtype=np.int64), xs, zs)


# ---------------------------------------------------------------------------
# compression onto the code


@dataclass(frozen=True)
class _Frame:
    """A code's dual(C) as the generators [alpha_t M(x_t)] + the calibrated
    generators (stabilizer rows, then logical z rows): terms are their
    pauli._generator_terms, pivots those of the echelon form of their
    patterns, transform[i] the coefficients of its row i over them, and
    wrap[t] the exponent of (alpha_t M(x_t))^p."""

    terms: tuple
    pivots: list
    transform: np.ndarray
    wrap: np.ndarray


def _frame(code, convention) -> _Frame:
    p, n, k = code.p, code.n, code.k
    xbars = [pauli.PhasedPauli(p, e, x) for e, x in zip(convention.alpha_exponents, code.logical_x)]
    phases, rows = pauli._stacked(xbars + convention.generators, n)  # n + k independent rows
    reduced, pivots, _ = linalg.rref(np.hstack([rows, np.eye(n + k, dtype=np.int64)]), p)
    wrap = np.array([pauli.pauli_pow(g, p).phase for g in xbars], dtype=np.int64)
    return _Frame(pauli._generator_terms(phases, rows, p), list(pivots), reduced[:, 2 * n :], wrap)


def _compress(code, frame: _Frame, phases, xs, zs):
    """V^dag Q V for rows Q = w^e M(x|z) on the n + k qudits, as
    (valid, f, a, b): w^f X^a Z^b on the secret space where valid, else 0."""
    p, n, k = code.p, code.n, code.k
    ring, kappa = pauli.phase_order(p), 2 if p == 2 else 1
    shares = np.hstack([xs[:, :n], zs[:, :n]])
    inside = ~(symplectic._gram(shares, code.stabilizer) % p).any(axis=1)  # r in dual(C)
    valid = inside & ~xs[:, n:].any(axis=1)  # <0|X^a Z^b|0> = 0 for a != 0
    coeffs = shares[:, frame.pivots] @ frame.transform % p  # over x rows, stabilizer rows, z rows
    a, d = coeffs[:, :k], coeffs[:, n:]
    f = (phases + pauli._exponents(frame.terms, coeffs, p)) % ring
    b = (kappa * d + frame.wrap * a) % ring // kappa
    return valid, f, a, b


def _passes(code, frame: _Frame, images) -> bool:
    """Each generator image compresses to its generator: the circuit returns
    every secret."""
    valid, f, a, b = _compress(code, frame, *images)
    return bool(valid.all() and not f.any() and np.array_equal(np.hstack([a, b]), np.eye(2 * code.k)))


def _transfer(code, frame: _Frame, images):
    """The Pauli transfer of a circuit's channel: (valid, f, target) over the
    p^(2k) Paulis P = X^a Z^b, numbered a p^k + b with the first qudit most
    significant, where V^dag U^dag P U V = w^f times the Pauli numbered
    target, or 0 where not valid."""
    p, n, k = code.p, code.n, code.k
    patterns = np.hstack(images[1:])
    terms = pauli._generator_terms(images[0], patterns, p)
    places = p ** np.arange(2 * k - 1, -1, -1)
    count, step = p ** (2 * k), max(1, BLOCK // patterns.shape[1])
    parts = []
    for start in range(0, count, step):
        coeffs = np.arange(start, min(count, start + step))[:, None] // places % p
        # U^dag P U is the product of the images in P's order of the generators
        prods = coeffs @ patterns % p
        phases = -pauli._exponents(terms, coeffs, p)
        valid, f, a, b = _compress(code, frame, phases, prods[:, : n + k], prods[:, n + k :])
        parts.append((valid, f, np.hstack([a, b]) @ places))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _characteristic(secret: np.ndarray, p: int, k: int) -> np.ndarray:
    """<psi|X^a Z^b|psi> = sum_s conj(psi[s + a]) w_p^(b.s) psi[s] at a p^k + b:
    one inverse FFT over the digits of s per a."""
    dim, places = p**k, p ** np.arange(k - 1, -1, -1)
    digits = np.arange(dim)[:, None] // places % p
    shifted = (digits[:, None, :] + digits[None, :, :]) % p @ places  # the number of s + a
    terms = secret[shifted].conj() * secret
    return (dim * np.fft.ifftn(terms.reshape((dim,) + (p,) * k), axes=range(1, k + 1))).reshape(-1)


# ---------------------------------------------------------------------------
# the certificate


def certify_reconstruction(code, convention, plans, secrets) -> list[ReconstructionReport]:
    """Certify each plan's circuit from its Clifford action, and report each
    secret's ancilla fidelity and purity and the circuit's entanglement
    fidelity.

    Synthesizes one circuit per circuits.ReconstructionPlan and pulls the 2k
    ancilla generators back through its gates. A circuit that passes returns
    every secret exactly, so each of its fidelities and purities and its
    entanglement fidelity is 1.0; a failing one is reported from its Pauli
    transfer. Returns one report per plan, in order.
    """
    p, k = code.p, code.k
    _guard(p, k)
    frame = _frame(code, convention)
    rows = [np.asarray(secret, dtype=np.complex128).reshape(p**k) for secret in secrets]
    ring = pauli.phase_order(p)
    reports = []
    for plan in plans:
        circuit = circuits.synthesize_reconstruction(plan, code)
        images = generator_images(circuit, k)
        if _passes(code, frame, images):
            fidelity = purity = (1.0,) * len(rows)
            whole = 1.0
        else:
            valid, f, target = _transfer(code, frame, images)
            kept = valid & (target == np.arange(p ** (2 * k)))
            counts = np.bincount(-f[kept] % ring, minlength=ring)
            if p > 2:  # the p-th roots of unity sum to 0, so a balanced count gives exactly 0
                counts -= counts.min()
            whole = float(pauli.phase_table(p).real @ counts) / p ** (2 * k)
            phase = np.where(valid, pauli.phase_table(p)[f], 0)
            fidelity, purity = [], []
            for secret in rows:
                chi = _characteristic(secret, p, k)
                traces = phase * chi[target]  # conj(tr(P^dag sigma)) for every P
                fidelity.append(float(np.vdot(traces, chi).real) / p**k)
                purity.append(float(np.vdot(traces, traces).real) / p**k)
            fidelity, purity = tuple(fidelity), tuple(purity)
        reports.append(
            ReconstructionReport(
                available=plan.available,
                fidelity=fidelity,
                purity=purity,
                two_qudit_gates=circuit.two_qudit_count(),
                single_qudit_gates=circuit.single_qudit_count(),
                entanglement_fidelity=whole,
            )
        )
    return reports


def entanglement_fidelity(code, convention, plans) -> list[float]:
    """Entanglement fidelity of each plan's circuit over the whole secret
    space, F_e = p^(-2k) sum over the Paulis P that the channel maps to
    w^f P of w^-f, from the Pauli transfer: certify_reconstruction's, with no
    secret sampled. Returns one F_e per plan."""
    return [rep.entanglement_fidelity for rep in certify_reconstruction(code, convention, plans, [])]
