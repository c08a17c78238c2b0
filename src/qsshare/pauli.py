"""Exact phase arithmetic for products of qudit shift/clock operators.

Single-qudit conventions, fixed once for the whole package:

    X|j> = |j+1 mod p>        Z|j> = w_p^j |j>        w_p = exp(2*pi*i/p)

so ZX = w_p XZ. A pattern (a|b) names the operator X^{a_1}Z^{b_1} x ... x
X^{a_n}Z^{b_n}. Scalars are tracked as exponents of the phase unit w, where

    w = w_p            for p >= 3  (exponents mod p),
    w = sqrt(-1)       for p  = 2  (exponents mod 4, patterns still mod 2).

The fourth root at p = 2 is forced by operators such as XZ, whose square is
-I, so no mod-2 exponent could calibrate them to +1 eigenvalues.

Multiplying M(x) M(y) shifts the exponent by a_y . b_x for p >= 3 and by
2 (a_y . b_x) for p = 2; everything else in this module follows from that
one rule, and dense_matrix provides the independent oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NoSolutionError,
    NotInStabilizerError,
    TooLargeError,
)

DENSE_GUARD = 2**14


def phase_order(p: int) -> int:
    """Order of the phase unit w: p for p >= 3, 4 for p = 2."""
    return 4 if p == 2 else p


def phase_value(e: int, p: int) -> complex:
    """The complex scalar w^e."""
    r = phase_order(p)
    e = int(e) % r
    if p == 2:
        return (1, 1j, -1, -1j)[e]
    return np.exp(2j * np.pi * e / p)


@lru_cache(maxsize=None)
def phase_table(p: int) -> np.ndarray:
    """w^e for e = 0..phase_order(p) - 1, shared read-only through the cache."""
    table = np.array([phase_value(e, p) for e in range(phase_order(p))])
    table.flags.writeable = False
    return table


def block_exponents(b: int, e: int, p: int) -> tuple[int, ...]:
    """Block phase exponents e + c b t of w^e X^a Z^b, c = 2 at p = 2 and 1
    otherwise: the operator moves block t of its qudit to block t + a, times
    w^(e + c b t)."""
    c = 2 if p == 2 else 1
    return tuple(e + c * b * t for t in range(p))


def format_phase(e: int, p: int) -> str:
    """Human-readable w^e: '1', 'i', '-1', '-i' at p=2, else '1' or 'w^e'."""
    e = int(e) % phase_order(p)
    if p == 2:
        return ("1", "i", "-1", "-i")[e]
    return "1" if e == 0 else f"w^{e}"


@dataclass(eq=False)
class PhasedPauli:
    """A scalar w^phase times the operator pattern vec = (a|b)."""

    p: int
    phase: int
    vec: np.ndarray

    def __post_init__(self):
        self.vec = linalg.as_field_vector(self.vec, self.p)
        self.phase = int(self.phase) % phase_order(self.p)

    @property
    def n(self) -> int:
        return self.vec.shape[0] // 2

    def x_part(self) -> np.ndarray:
        return self.vec[: self.n]

    def z_part(self) -> np.ndarray:
        return self.vec[self.n :]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhasedPauli)
            and self.p == other.p
            and self.phase == other.phase
            and np.array_equal(self.vec, other.vec)
        )

    def __repr__(self) -> str:
        a = "".join(str(int(v)) for v in self.x_part())
        b = "".join(str(int(v)) for v in self.z_part())
        return f"PhasedPauli({format_phase(self.phase, self.p)} * M({a}|{b}))"


def identity_pauli(p: int, n: int) -> PhasedPauli:
    return PhasedPauli(p, 0, np.zeros(2 * n, dtype=np.int64))


def pauli_from_vec(vec, p: int, phase: int = 0) -> PhasedPauli:
    return PhasedPauli(p, phase, vec)


def pauli_mul(P: PhasedPauli, Q: PhasedPauli) -> PhasedPauli:
    """Operator product P Q with exact phase tracking."""
    if P.p != Q.p or P.n != Q.n:
        raise DimensionMismatchError("operands act on different registers")
    p = P.p
    cross = int(Q.x_part() @ P.z_part())
    if p == 2:
        phase = P.phase + Q.phase + 2 * cross
    else:
        phase = P.phase + Q.phase + cross
    return PhasedPauli(p, phase, (P.vec + Q.vec) % p)


def pauli_pow(P: PhasedPauli, j: int) -> PhasedPauli:
    """P^j, valid for any integer j (negative powers are exact inverses).

    P^i P adds pauli_mul's cross term c i (a.b), c = 2 at p = 2 and 1 otherwise,
    so P^j = w^{j e + c (a.b) j(j-1)/2} M(j a | j b), j modulo the ring order.
    """
    p = P.p
    j = int(j) % phase_order(p)
    cross = int(P.x_part() @ P.z_part()) * (2 if p == 2 else 1)
    return PhasedPauli(p, j * P.phase + cross * (j * (j - 1) // 2), (j * P.vec) % p)


def single_qudit_matrix(a: int, b: int, p: int) -> np.ndarray:
    """Dense p x p matrix of X^a Z^b."""
    w = np.exp(2j * np.pi / p)
    m = np.zeros((p, p), dtype=np.complex128)
    for c in range(p):
        m[(c + a) % p, c] = w ** (b * c % p)
    return m


def dense_matrix(P: PhasedPauli) -> np.ndarray:
    """Dense p^n x p^n matrix of the phased operator (oracle for everything)."""
    p, n = P.p, P.n
    if p**n > DENSE_GUARD:
        raise TooLargeError(f"dense matrix of dimension {p}^{n} exceeds the guard")
    out = np.array([[phase_value(P.phase, p)]], dtype=np.complex128)
    a, b = P.x_part(), P.z_part()
    for t in range(n):
        out = np.kron(out, single_qudit_matrix(int(a[t]), int(b[t]), p))
    return out


# ---------------------------------------------------------------------------
# calibration and code-space eigenvalues


def calibrate_generator(vec, p: int) -> PhasedPauli:
    """Attach the phase that gives the generator a +1 eigenspace.

    For p >= 3 the bare operator already has order p; for p = 2 a pattern
    with an odd number of XZ positions squares to -I and needs a sqrt(-1)
    coefficient to become an involution.
    """
    vec = linalg.as_field_vector(vec, p)
    return PhasedPauli(p, int(_calibration_phases(vec[None], p)[0]), vec)


def _calibration_phases(rows: np.ndarray, p: int) -> np.ndarray:
    """calibrate_generator's phase for every row of a canonical stack: the
    XZ parity at p = 2, and 0 otherwise."""
    n = rows.shape[1] // 2
    if p == 2:
        return (rows[:, :n] * rows[:, n:]).sum(axis=1) % 2
    return np.zeros(rows.shape[0], dtype=np.int64)


def stabilizer_eigenvalue(generators: list[PhasedPauli], u, p: int) -> int:
    """Exponent h with M(u)|phi> = w^h |phi> on the joint +1 eigenspace.

    Writes u over the generators' patterns (the expression is unique for
    independent generators) and returns eigenvalue_exponents of those
    coefficients.
    """
    if not generators:
        raise NotInStabilizerError("empty generator set")
    u = linalg.as_field_vector(u, p)
    rows = np.array([g.vec for g in generators], dtype=np.int64)
    try:
        coeff = linalg.solve_linear(rows.T, u, p)
    except NoSolutionError as exc:
        raise NotInStabilizerError("vector outside the generated space") from exc
    return int(eigenvalue_exponents(generators, coeff[None, :], p)[0])


def eigenvalue_exponents(generators: list[PhasedPauli], coeffs, p: int) -> np.ndarray:
    """Exponents h_r with M(u_r)|phi> = w^{h_r} |phi> on the joint +1
    eigenspace of the generators, for u_r = sum_i coeffs[r, i] g_i.vec.

    The phased product G = g_1^{c_1} ... g_m^{c_m} = w^d M(u) fixes |phi>, so
    M(u) scales it by w^{-d}. By pauli_pow and pauli_mul's cross term, with
    g_i = w^{phi_i} M(a_i|b_i) and kappa = 2 at p = 2 and 1 otherwise,

        d = sum_i c_i phi_i + kappa sum_i (a_i.b_i) c_i (c_i - 1)/2
            + kappa sum_{j<i} c_j c_i (b_j.a_i),

    computed for every row of coeffs at once.
    """
    if not generators:
        return np.zeros(np.shape(coeffs)[0], dtype=np.int64)
    phases = np.array([g.phase for g in generators], dtype=np.int64)
    return _exponents(_generator_terms(phases, np.array([g.vec for g in generators]), p), coeffs, p)


def _generator_terms(phases: np.ndarray, rows: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """The parts of eigenvalue_exponents' d that do not depend on the
    coefficients, for the generators w^phases[i] M(rows[i]):
    (phi_i, kappa a_i.b_i, kappa b_j.a_i at [j, i] for j < i)."""
    n = rows.shape[1] // 2
    a, b = rows[:, :n], rows[:, n:]
    kappa = 2 if p == 2 else 1
    return phases, kappa * (a * b).sum(axis=1), kappa * np.triu(b @ a.T, 1)


def _exponents(terms: tuple[np.ndarray, ...], coeffs, p: int) -> np.ndarray:
    """eigenvalue_exponents from the generators' _generator_terms."""
    phases, own, cross = terms
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    d = coeffs @ phases + (coeffs * (coeffs - 1) // 2) @ own + ((coeffs @ cross) * coeffs).sum(axis=1)
    return (-d) % phase_order(p)


# ---------------------------------------------------------------------------
# encoding convention


@dataclass(eq=False)
class EncodingConvention:
    """Calibrated generators of the self-dual space plus the alpha scalars.

    rows   : the self-dual basis, (n, 2n); the first n-k rows generate the
             stabilizer space, the final k are the logical-z patterns
    phases : (n,) calibration phases: generator i is w^phases[i] M(rows[i]),
             which for logical z_i is 1/alpha_i * M(z_i)
    alpha_exponents : e(alpha_i) in the phase ring, one per secret qudit

    The arrays are read as fixed once stabilizer_exponents has used them;
    a convention with other ones is a new one (dataclasses.replace).
    """

    p: int
    n: int
    k: int
    rows: np.ndarray
    phases: np.ndarray
    alpha_exponents: tuple[int, ...] = ()

    @property
    def generators(self) -> list[PhasedPauli]:
        """One calibrated PhasedPauli per row."""
        return [PhasedPauli(self.p, e, row) for e, row in zip(self.phases.tolist(), self.rows)]

    def stabilizer_generators(self) -> list[PhasedPauli]:
        return self.generators[: self.n - self.k]

    def alpha_inverse_exponent(self, i: int) -> int:
        return (-self.alpha_exponents[i]) % phase_order(self.p)

    def stabilizer_exponents(self, coeffs) -> np.ndarray:
        """eigenvalue_exponents(self.stabilizer_generators(), coeffs, p), from
        the stabilizer rows and phases read once per convention."""
        return _exponents(self._stabilizer_terms, coeffs, self.p)

    @cached_property
    def _stabilizer_terms(self) -> tuple[np.ndarray, ...]:
        return _generator_terms(self.phases[: self.n - self.k], self.rows[: self.n - self.k], self.p)


def make_convention(code) -> EncodingConvention:
    """Calibrate a code's self-dual generators and fix the alpha scalars.

    The logical-zero state is the joint +1 eigenvector of the returned
    generators, so alpha_i is pinned by requiring 1/alpha_i * M(z_i) to be
    one of them: alpha_i = 1 for p >= 3, and for p = 2 it is i^{-s} where
    s is the XZ parity of z_i (nothing else gives z_i an involution with a
    +1 eigenspace, per the fourth-root discussion in the module docstring).
    """
    p, n, k = code.p, code.n, code.k
    rows = linalg.as_field(np.vstack([code.stabilizer, code.logical_z]), p)
    phases = _calibration_phases(rows, p)
    alphas = (-phases[len(rows) - k :]) % phase_order(p)
    return EncodingConvention(p=p, n=n, k=k, rows=rows, phases=phases, alpha_exponents=tuple(alphas.tolist()))
