"""Exact certificate of a reconstruction circuit from its Clifford action.

Every gate kind is a qudit Clifford, so a circuit U maps each Pauli to one
phased Pauli, and whether U returns every secret is a finite question about
Pauli operators that integer arithmetic decides at any n (Aaronson-Gottesman,
quant-ph/0406196; qudit phases and p = 2's Z_4 ring, de Beaudrap,
arXiv:1102.3354). No state vector is built, and the whole secret space is
checked, not a sample of it.

Pull-back. The ancilla generators X_t, Z_t (ancilla t is qudit n + t) go
back through the emitted gates, last to first, as rows w^e M(x|z) on the
n + k qudits: Q = U^dag P U. A single-qudit gate G maps each row's factor
X^x Z^z on its qudit to its conjugate G^dag X^x Z^z G = w^e X^x' Z^z' by a
closed-form rule (_site_rule). A run of
controlled Paulis of one kind, one control c and distinct targets is
U = sum_j |j><j|_c (x) N^(sigma j), N = M(v), sigma = +1 for CPAULI and -1 for
CPAULIINV; it maps w^e (X^x Z^z)_c (x) M(S) to w^e' (X^x Z^z')_c (x) M(S + m v)
in one update of all rows (_pull_run), with kappa = 2 at p = 2 and 1 otherwise:

    m  = -sigma x                                        (mod the ring order)
    z' = z - sigma <S, v> + [p = 2] (v_a.v_b) x          (mod p)
    e' = e + kappa (v_a.v_b) m(m-1)/2 + kappa S_a.(m v_b)    (mod the ring)

The [p = 2] term is N^2 = -I, met when the control value wraps.

Every circuit circuits.synthesize_reconstruction emits has one shape: F on
each ancilla, the inverse runs of the y_t, the step-3 phase powers, F
again, the inverse runs of the w_t, the step-6 phase powers. So
certify_reconstruction takes all of a plan's sets at once: _shape_images
walks that shape for a whole circuits.ReconstructionPlan, the rows carrying
its leading sets axis, each site rule and run rule one array update for
every set, with per-set patterns and exponents. One compression (below)
then reads all of the S * 2k images, and only a failing set goes on to its
transfer. The gate-level pull_back, which reads any gate sequence, is the
reference the tests hold the shape walk to, and the path for circuits read
from a file.

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
    """Haar-ish random unit vector on k qudits, deterministic per generator:
    random_secrets of one secret."""
    return random_secrets(p, k, 1, rng)[0]


def random_secrets(p: int, k: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """`count` successive random_secret draws from one draw of the generator:
    each secret's real parts, then its imaginary parts, are the next 2 p^k
    normal samples, and each secret is divided by its own np.linalg.norm."""
    draws = rng.normal(size=(count, 2, p**k))
    return [vec / np.linalg.norm(vec) for vec in draws[:, 0] + 1j * draws[:, 1]]


def _guard(p: int, k: int) -> None:
    if p ** (2 * k) > max_amplitudes():
        raise TooLargeError(
            f"{p}^{2 * k} entries of a secret-space operator exceed the guard ({max_amplitudes()}); "
            "set QSS_MAX_AMPLITUDES to raise it"
        )


# ---------------------------------------------------------------------------
# pull-back


def _site_rule(p: int, kind: str, params: tuple, x, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G^dag X^x Z^z G = w^e X^x' Z^z' for the single-qudit gate G, as
    (x', z', e); x, z and the params broadcast together."""
    kappa = 2 if p == 2 else 1
    if kind == "F":  # F^dag X F = Z^-1, F^dag Z F = X, and Z^a X^b = w_p^(ab) X^b Z^a
        rule = (z, -x, -kappa * x * z)
    elif kind == "FINV":  # F X F^dag = Z, F Z F^dag = X^-1
        rule = (-z, x, -kappa * x * z)
    elif kind == "PPOW":  # P^-e X P^e for P = diag(w^j): w^-e X at odd p, w^-e X Z^e at p = 2
        (e,) = params
        rule = (x, z + e * x * (p == 2), -e * x)
    else:  # PAULI a b: X^x Z^z G = w_p^(z a - x b) G X^x Z^z
        a, b = params
        rule = (x, z, kappa * (z * a - x * b))
    return rule[0] % p, rule[1] % p, rule[2] % pauli.phase_order(p)


def _pull_site(p: int, rows, q: int, kind: str, params: tuple) -> None:
    """Conjugate rows (phases, xs, zs), any leading axes, in place by one
    single-qudit gate on column q."""
    phases, xs, zs = rows
    xs[..., q], zs[..., q], shift = _site_rule(p, kind, params, xs[..., q], zs[..., q])
    phases[...] = (phases + shift) % pauli.phase_order(p)


def _pull_run(p: int, rows, inverse: bool, control: int, va, vb) -> None:
    """Conjugate rows (phases, xs, zs) in place by one run of controlled
    Paulis on a control column: N = M(va|vb), zero at the control and at
    every column the run does not target. The rows' leading axes broadcast
    against those of va and vb, which have one column per row column."""
    phases, xs, zs = rows
    ring, kappa, sigma = pauli.phase_order(p), 2 if p == 2 else 1, -1 if inverse else 1
    x = xs[..., control]
    m = (-sigma * x) % ring
    own = (va * vb).sum(axis=-1)[..., None]
    sa_vb = (xs @ vb[..., None])[..., 0]
    symp = sa_vb - (zs @ va[..., None])[..., 0]  # <S, v>
    phases[...] = (phases + kappa * (own * (m * (m - 1) // 2) + sa_vb * m)) % ring
    zs[..., control] = (zs[..., control] - sigma * symp + own * x * (p == 2)) % p
    xs[...] = (xs + m[..., None] * va[..., None, :]) % p
    zs[...] = (zs + m[..., None] * vb[..., None, :]) % p


def pull_back(gates, p: int, phases, xs, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U^dag (w^e M(x|z)) U for U the gate sequence and each row, qudit q in
    column q - 1, as new (phases, xs, zs) arrays. The gates go last to first,
    each maximal run of controlled Paulis of one kind and one control on
    distinct targets in one update."""
    rows = tuple(np.array(v, dtype=np.int64) for v in (phases, xs, zs))
    width = rows[1].shape[-1]

    def pull_run(inverse, control, targets):
        va, vb = np.zeros((2, width), dtype=np.int64)
        va[list(targets)], vb[list(targets)] = np.array(list(targets.values()), dtype=np.int64).T
        _pull_run(p, rows, inverse, control, va, vb)

    run = None  # (inverse, control, {target: (a, b)}), gathered last gate first
    for gate in reversed(gates):
        if gate.is_two_qudit():
            control, target = (q - 1 for q in gate.qudits)
            key = (gate.kind == "CPAULIINV", control)
            if run is not None and run[:2] == key and target not in run[2]:
                run[2][target] = gate.params
                continue
            if run is not None:
                pull_run(*run)
            run = (*key, {target: gate.params})
            continue
        if run is not None:
            pull_run(*run)
            run = None
        _pull_site(p, rows, gate.qudits[0] - 1, gate.kind, gate.params)
    if run is not None:
        pull_run(*run)
    return rows


def _generators(count: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2k ancilla generators X_1..X_k then Z_1..Z_k on m qudits, the
    ancillas last, as (phases, xs, zs) rows for each of `count` circuits."""
    phases = np.zeros((count, 2 * k), dtype=np.int64)
    xs, zs = np.zeros((2, count, 2 * k, m), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    xs[:, :k, m - k :], zs[:, k:, m - k :] = eye, eye
    return phases, xs, zs


def generator_images(circuit: circuits.Circuit, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U^dag P U for the 2k ancilla generators P, X_1..X_k then Z_1..Z_k, of a
    shares-first circuit on n + k qudits."""
    rows = _generators(1, circuit.num_qudits, k)
    return pull_back(circuit.gates, circuit.p, *(part[0] for part in rows))


def _shape_images(plan: circuits.ReconstructionPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """generator_images of the circuits.synthesize_reconstruction circuit of
    each of the plan's S sets at once, as (S, 2k) phases and (S, 2k, n + k)
    xs and zs.

    Every such circuit has the same six steps, so the pull-back walks them
    last to first for all sets together: each step's gates act on the
    ancillas, one per secret qudit t, and each controlled pattern y_t or w_t
    is one run, CPAULIINV with control n + t on the pattern's support.
    """
    p, n, k = plan.p, plan.n, plan.k
    rows = _generators(len(plan), n + k, k)
    on_ancillas = np.zeros((len(plan), k), dtype=np.int64)
    for exponents, patterns in ((plan.step6_exponents, plan.w), (plan.step3_exponents, plan.y)):
        for t in reversed(range(k)):
            _pull_site(p, rows, n + t, "PPOW", (exponents[:, t, None],))
        for t in reversed(range(k)):
            va = np.hstack([patterns[:, t, :n], on_ancillas])
            vb = np.hstack([patterns[:, t, n:], on_ancillas])
            _pull_run(p, rows, True, n + t, va, vb)
        for t in reversed(range(k)):
            _pull_site(p, rows, n + t, "F", ())
    return rows


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
    phases = np.concatenate([np.array(convention.alpha_exponents, dtype=np.int64), convention.phases])
    rows = np.vstack([linalg.as_field(code.logical_x, p), convention.rows])  # n + k independent rows
    reduced, pivots, _ = linalg.rref(np.hstack([rows, np.eye(n + k, dtype=np.int64)]), p)
    terms = pauli._generator_terms(phases, rows, p)
    # (w^e M(a|b))^p = w^(p e + kappa (a.b) p(p-1)/2) by pauli_pow, 0 at odd p
    wrap = (p * phases[:k] + terms[1][:k] * (p * (p - 1) // 2)) % pauli.phase_order(p)
    return _Frame(terms, list(pivots), reduced[:, 2 * n :], wrap)


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


def _passes(code, frame: _Frame, images) -> np.ndarray:
    """For generator images with a leading sets axis, (S, 2k) phases and
    (S, 2k, n + k) xs and zs: true where each image compresses to its
    generator, so that the circuit returns every secret. One _compress
    serves every set."""
    count, k = len(images[0]), code.k
    valid, f, a, b = _compress(code, frame, *(part.reshape(count * 2 * k, *part.shape[2:]) for part in images))
    read = np.hstack([a, b]).reshape(count, 2 * k, 2 * k)
    whole = valid.reshape(count, 2 * k).all(axis=1) & ~f.reshape(count, 2 * k).any(axis=1)
    return whole & (read == np.eye(2 * k, dtype=np.int64)).all(axis=(1, 2))


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


def certify_reconstruction(code, convention, plan, secrets) -> list[ReconstructionReport]:
    """Certify the circuit of each of the plan's sets from its Clifford
    action, and report each secret's ancilla fidelity and purity and the
    circuit's entanglement fidelity.

    plan is a circuits.ReconstructionPlan of any number of sets. The 2k
    ancilla generators are pulled back through every set's
    circuits.synthesize_reconstruction circuit at once (_shape_images) and
    compressed in one _compress. A circuit that passes returns every secret
    exactly, so each of its fidelities and purities and its entanglement
    fidelity is 1.0; a failing one is reported from its Pauli transfer. The
    gate counts are read from the patterns' supports: one two-qudit gate per
    share in the support of each y_t and w_t, and 4k single-qudit gates.
    Returns one report per set, in order.
    """
    p, n, k = code.p, code.n, code.k
    _guard(p, k)
    frame = _frame(code, convention)
    rows = [np.asarray(secret, dtype=np.complex128).reshape(p**k) for secret in secrets]
    ring = pauli.phase_order(p)
    images = _shape_images(plan)
    passes = _passes(code, frame, images)
    patterns = np.concatenate([plan.y, plan.w], axis=1)
    two_qudit = ((patterns[..., :n] != 0) | (patterns[..., n:] != 0)).sum(axis=(1, 2)).tolist()
    reports = []
    for s, available in enumerate(plan.available):
        if passes[s]:
            fidelity = purity = (1.0,) * len(rows)
            whole = 1.0
        else:
            valid, f, target = _transfer(code, frame, tuple(part[s] for part in images))
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
                available=available,
                fidelity=fidelity,
                purity=purity,
                two_qudit_gates=two_qudit[s],
                single_qudit_gates=4 * k,
                entanglement_fidelity=whole,
            )
        )
    return reports


def entanglement_fidelity(code, convention, plan) -> list[float]:
    """Entanglement fidelity of the circuit of each of the plan's sets over
    the whole secret space, F_e = p^(-2k) sum over the Paulis P that the
    channel maps to w^f P of w^-f, from the Pauli transfer:
    certify_reconstruction's, with no secret sampled. Returns one F_e per
    set."""
    return [rep.entanglement_fidelity for rep in certify_reconstruction(code, convention, plan, [])]
