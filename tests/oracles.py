"""Slow, independent reference routines the tests check the package against.

None of these is on a path of the package itself: each computes a fact the
package obtains another way (span intersections and coordinate sections by
explicit kernels, where the package uses column-restricted ranks; reduced
forms by a per-row elimination loop, where the package updates all rows of a
pivot at once; the logical zero by projecting basis states, where the package
builds it in closed form; a reduced state by tracing out any qudits of a
state by a transpose, where the package multiplies a batch of final states
as (p^n, p^k) matrices; a code-space eigenvalue by multiplying out the
generator powers, where the package sums their phases in closed form; a
circuit by contracting each gate's dense operator with its qudits' axes, one
gate at a time, where the package rolls the target axis and multiplies by a
phase vector on each control slice; a random hyperbolic basis, a basis
extension and a self-dual completion by one rank test per candidate row and
one hyperbolic pair at a time, where the package eliminates once and
reduces against every pair in one array expression; a Pauli pulled back
through a circuit by conjugating its factor on each gate's qudits with the
gate's dense operator, one gate at a time, where the package updates all
rows by closed-form tables and a whole run of controlled Paulis at once; a
Pauli compressed onto the code by multiplying out every matrix element
<s|V^dag Q V|t> and reading each code-space eigenvalue by a solve, where
the package reads the logical operator off one echelon form; a plan's
relative phases by multiplying out each row's two factors, where the package
computes every row's in one array expression; membership of a row space by
comparing two ranks, where the package reads one residual; the subset rank
table with the inserted column reduced mod p after every slot in int16, where
the package accumulates it in int64 and reduces it once per column; the
access structure of a polynomial threshold code from its construction, where
the package ranks the stabilizer on each share subset; the defects of a
code's rows by row-loop ranks and one symplectic product per pair of rows,
where the package reads every product off one Gram matrix).
mutated_assemble is no oracle: it breaks one gate of every planned circuit,
for the tests that the certificate refuses it.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from qsshare import circuits, linalg, pauli, sim, symplectic
from qsshare.errors import IndexOutOfRangeError, QssError, TooLargeError


class DecompositionMismatchError(QssError):
    """Claimed additive decomposition of a vector does not hold."""


def rref_rowloop(A, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row-echelon form over F_p, one Python-level update per row and
    pivot, with the package's pivot rule (lowest column, then lowest row)."""
    R = linalg.as_field(A, p)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * linalg.fp_inv(R[r, c], p)) % p
        for j in range(rows):
            if j != r and R[j, c]:
                R[j] = (R[j] - R[j, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, tuple(pivots), len(pivots)


def product_eigenvalue(generators, coeff, p: int) -> int:
    """Exponent h with M(u)|phi> = w^h |phi> on the joint +1 eigenspace, for
    u = sum_i coeff[i] g_i.vec: multiply out G = g_1^{c_1} ... g_m^{c_m}
    = w^d M(u) one pauli_pow and pauli_mul at a time and return -d."""
    out = pauli.identity_pauli(p, generators[0].n)
    for g, c in zip(generators, coeff):
        out = pauli.pauli_mul(out, pauli.pauli_pow(g, int(c)))
    return (-out.phase) % pauli.phase_order(p)


def relative_phase(target, left, right, p: int) -> int:
    """Exponent b with M(target) = w^b M(left) M(right); needs target = left+right."""
    target = linalg.as_field_vector(target, p)
    left = linalg.as_field_vector(left, p)
    right = linalg.as_field_vector(right, p)
    if not np.array_equal(target, (left + right) % p):
        raise DecompositionMismatchError("target is not the sum of the two factors")
    prod = pauli.pauli_mul(pauli.pauli_from_vec(left, p), pauli.pauli_from_vec(right, p))
    return (-prod.phase) % pauli.phase_order(p)


def commutation_phase(x, y, p: int) -> int:
    """Exponent c (mod p) with M(x) M(y) = w_p^c M(y) M(x), w_p = exp(2*pi*i/p).

    Equals -<x, y> mod p; zero exactly when the operators commute.
    """
    return (-symplectic.symplectic_product(x, y, p)) % p


def pauli_gate(q: int, a: int, b: int) -> circuits.Gate:
    return circuits.Gate("PAULI", (q,), (int(a), int(b)))


def row_space_contains_by_ranks(A, v, p: int) -> bool:
    """True when v lies in the row space of A: appending v leaves the rank."""
    A = linalg.as_field(A, p)
    v = linalg.as_field_vector(v, p)
    return linalg.rank(np.vstack([A, v.reshape(1, -1)]), p) == linalg.rank(A, p)


def plan_per_row(code, convention, available) -> dict:
    """Every computed field of circuits.plan_reconstruction, row by row: each
    logical row split by its own solve, each relative phase by
    relative_phase and each eigenvalue by multiplying out the generator
    powers."""
    p, n, k = code.p, code.n, code.k
    ring = pauli.phase_order(p)
    cols = sorted(c for i in symplectic.complement(available, n) for c in (i - 1, i - 1 + n))
    stab, gens = code.stabilizer, convention.stabilizer_generators()
    out = {key: [] for key in ("w", "y", "u", "v", "beta", "gamma", "eta_u", "eta_v")}
    rows = [(x, "w", "u", "beta", "eta_u") for x in code.logical_x]
    rows += [(z, "y", "v", "gamma", "eta_v") for z in code.logical_z]
    for target, local, part, phase, eta in rows:
        coeff = np.zeros(len(stab), dtype=np.int64)
        if cols:
            coeff = linalg.solve_linear(stab[:, cols].T, target[cols], p)
        s = (coeff @ stab) % p
        r = (target - s) % p
        out[part].append(s)
        out[local].append(r)
        out[phase].append(relative_phase(target, r, s, p))
        out[eta].append(product_eigenvalue(gens, coeff, p) if gens else 0)
    alpha = convention.alpha_exponents
    out["step3_exponents"] = [
        (-(convention.alpha_inverse_exponent(i) + out["gamma"][i] + out["eta_v"][i])) % ring for i in range(k)
    ]
    out["step6_exponents"] = [(-(alpha[i] + out["beta"][i] + out["eta_u"][i])) % ring for i in range(k)]
    return out


def row_space_equal(A, B, p: int) -> bool:
    a = linalg.row_basis(A, p)
    b = linalg.row_basis(B, p)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def intersect_spans(A, B, p: int) -> np.ndarray:
    """Canonical basis of rowspace(A) ∩ rowspace(B)."""
    A = linalg.row_basis(A, p)
    B = linalg.row_basis(B, p)
    if A.shape[1] != B.shape[1]:
        raise ValueError("spans live in different ambient spaces")
    if A.shape[0] == 0 or B.shape[0] == 0:
        return linalg.empty_basis(A.shape[1])
    # (x | y) with xᵀA + yᵀB = 0 gives xᵀA = -yᵀB, a vector in both spaces.
    stacked = np.vstack([A, B])
    kernel = linalg.nullspace(stacked.T, p)
    if kernel.shape[0] == 0:
        return linalg.empty_basis(A.shape[1])
    combos = (kernel[:, : A.shape[0]] @ A) % p
    return linalg.row_basis(combos, p)


def coordinate_section(basis, members, n: int, p: int) -> np.ndarray:
    """Canonical basis of rowspace(basis) ∩ F_p^J for J = members."""
    basis = linalg.as_field(basis, p)
    if basis.shape[0] == 0:
        return linalg.empty_basis(2 * n)
    outside = [
        c
        for i in symplectic.complement(members, n)
        for c in (i - 1, i - 1 + n)
    ]
    if not outside:
        return linalg.row_basis(basis, p)
    kernel = linalg.nullspace(basis[:, sorted(outside)].T, p)
    if kernel.shape[0] == 0:
        return linalg.empty_basis(2 * n)
    return linalg.row_basis((kernel @ basis) % p, p)


def project_rows(basis, members, n: int, p: int) -> np.ndarray:
    """Canonical basis of the projection of a row space onto given shares."""
    basis = linalg.as_field(basis, p)
    members = symplectic.share_set(members, n)
    if basis.shape[0] == 0:
        return linalg.empty_basis(2 * len(members))
    rows = [symplectic.project_vector(row, members, n) for row in basis]
    return linalg.row_basis(np.array(rows, dtype=np.int64), p)


def biorthogonalize_loop(cand, other, p: int) -> np.ndarray:
    """Rows x_i with <x_i, o_j> = delta_ij and <x_i, x_j> = 0: one solve per
    row, then the x-x products zeroed row by row, recomputing the Gram
    matrix after each row."""
    k = other.shape[0]
    gram = symplectic.symplectic_gram(cand, other, p)
    x = np.zeros((k, cand.shape[1]), dtype=np.int64)
    for i in range(k):
        coeff = linalg.solve_linear(gram.T, np.eye(k, dtype=np.int64)[i], p)
        x[i] = (coeff @ cand) % p
    skew = symplectic.symplectic_gram(x, x, p)
    for i in range(k):
        for j in range(i + 1, k):
            x[i] = (x[i] + skew[i, j] * other[j]) % p
        skew = symplectic.symplectic_gram(x, x, p)
    return x


def section_correctable(code, missing) -> bool:
    """Erasure correctability as dim(C ∩ F^M) == dim(dual(C) ∩ F^M), by sections."""
    inner = coordinate_section(code.stabilizer, missing, code.n, code.p)
    outer = coordinate_section(symplectic.dual(code.stabilizer, code.n, code.p), missing, code.n, code.p)
    return inner.shape[0] == outer.shape[0]


def subset_ranks_reduced_per_slot(code) -> np.ndarray:
    """The rank of G on every subset's coordinates, as symplectic._subset_lattice
    gives it, by an independent insertion: an echelon basis (not reduced)
    whose inserted column is reduced slot by slot, every step mod p, so no
    entry leaves [0, p^2) and int16 holds them all."""
    p, n, d = code.p, code.n, code.stabilizer.shape[0]
    ranks = np.zeros(1 << n, dtype=np.int8)
    columns = code.stabilizer.T.astype(np.int16)
    inv = linalg._inverses(p).astype(np.int16)
    bases = np.zeros((1 << n, d, d), dtype=np.int16)
    for j in range(n if d else 0):
        work = bases[: 1 << j].copy()
        every = np.arange(1 << j)
        for column in (columns[j], columns[j + n]):
            v = np.repeat(column[None], 1 << j, axis=0)
            for b in range(d):
                v[:, b:] -= v[:, b, None] * work[:, b, b:]
                v[:, b:] %= p
            lead = (v != 0).argmax(axis=1)
            work[every, lead] += v * inv[v[every, lead]][:, None] % p
        ranks[1 << j : 2 << j] = np.count_nonzero(work[:, range(d), range(d)], axis=1)
        bases[1 << j : 2 << j] = work
    return ranks


def qualified_by_ranks(code) -> np.ndarray:
    """True at each nonempty share set S, indexed as in
    symplectic._subset_lattice, whose complement M passes
    symplectic.erasure_correctable's rank formula on the lattice's rank
    table: (n-k) - r[S] == 2|M| - r[M], with M at index 2^n - 1 - S, so r[M]
    is the reversed table. No logical row is read."""
    n = code.n
    ranks = symplectic._subset_lattice(code)[0]
    missing = np.full(1 << n, n, dtype=np.int16)  # |M|
    for j in range(n):
        missing[1 << j : 2 << j] = missing[: 1 << j] - 1
    mask = code.stabilizer.shape[0] - ranks == 2 * missing - ranks[::-1]
    mask[0] = False
    return mask


def brute_force_qualified_sets(code) -> list[tuple[int, ...]]:
    """Every nonempty share set whose complement is correctable, by size then lexicographic."""
    n = code.n
    return [
        members
        for size in range(1, n + 1)
        for members in combinations(range(1, n + 1), size)
        if section_correctable(code, symplectic.complement(members, n))
    ]


def polynomial_threshold_code(p: int, t: int) -> symplectic.CodeSpec:
    """The quantum polynomial ((t, 2t-1)) threshold scheme (Cleve-Gottesman-Lo,
    quant-ph/9901025) on the n = 2t - 1 points 1..n of F_p: with D the
    evaluations of the polynomials of degree at most t - 1 and D0 those with
    f(0) = 0, the X-type stabilizer rows are a basis of D0 and the Z-type rows
    one of dual(D); logical x is all ones, and logical z a row of dual(D0)
    outside dual(D), scaled so that it pairs to 1. A share set is qualified
    exactly when it holds at least t shares, a fact read off no rank."""
    n = 2 * t - 1
    if n >= p:
        raise ValueError(f"F_{p} has no {n} distinct nonzero points")
    powers = np.array([[pow(alpha, j, p) for alpha in range(1, n + 1)] for j in range(t)], dtype=np.int64)
    d0, dual_d = powers[1:], linalg.nullspace(powers, p)
    z = next(row for row in linalg.nullspace(d0, p) if row.sum() % p)
    z = z * pow(int(z.sum()), -1, p) % p
    stabilizer = np.vstack([np.hstack([d0, 0 * d0]), np.hstack([0 * dual_d, dual_d])])
    return symplectic.build_code(p, stabilizer, logical_x=[[1] * n + [0] * n], logical_z=[np.hstack([0 * z, z])])


def code_defect(p: int, stab, cm, lx, lz) -> tuple[str | None, np.ndarray]:
    """(defect, diag): the first reason why the parts given, the stabilizer,
    self-dual, logical x and logical z rows with None for a part not given,
    extend to no code, or None; and the diagonal of the logical pairing, all
    ones unless both logical parts are given. Cm is the self-dual rows, or
    else the stabilizer and logical z rows. A pairing diag(c) with every c
    nonzero is no defect: the z rows divided by c pair to the identity. A
    missing part can be derived exactly when the given x rows are
    independent modulo Cm (modulo C without Cm) and the z rows modulo C.
    Ranks are rref_rowloop's, products one symplectic_product per pair."""
    n = stab.shape[1] // 2
    k = n - len(stab)
    none = np.zeros((0, 2 * n), dtype=np.int64)
    x, z = (none if part is None else part for part in (lx, lz))

    def rank(rows) -> int:
        return rref_rowloop(np.reshape(rows, (-1, 2 * n)), p)[2]

    def products(rows, others) -> np.ndarray:
        return np.array([[symplectic.symplectic_product(a, b, p) for b in others] for a in rows], dtype=np.int64)

    def inside(rows, space) -> bool:
        return all(rank(np.vstack([space, row])) == rank(space) for row in rows)

    def independent(rows, space) -> bool:
        return rank(np.vstack([space, rows])) == rank(space) + len(rows)

    if cm is None and lz is not None:
        cm = np.vstack([stab, lz])
    space = none if cm is None else cm
    pairing = products(lx, lz) if lx is not None and lz is not None else np.eye(k, dtype=np.int64)
    diag = np.diag(pairing)
    scaled = z * np.array([pow(int(c), -1, p) if c else 0 for c in diag], dtype=np.int64)[: len(z), None] % p
    checks = (
        ("stabilizer rows dependent", rank(stab) < len(stab)),
        ("stabilizer rows do not commute", products(stab, stab).any()),
        ("self-dual rank below n", cm is not None and rank(cm) < n),
        ("self-dual rows do not commute", products(space, space).any()),
        ("stabilizer row outside Cm", cm is not None and not inside(stab, cm)),
        ("logical x outside dual(C)", products(x, stab).any()),
        ("logical z outside Cm", cm is not None and not inside(z, cm)),
        ("pairing not diagonal with nonzero diagonal", (pairing != np.diag(diag)).any() or not diag.all()),
        ("logical x rows do not commute", products(x, x).any()),
        ("logical z rows do not commute", products(scaled, scaled).any()),
        ("logical x rows dependent modulo Cm", not independent(x, stab if cm is None else cm)),
        ("logical z rows dependent modulo C", not independent(z, stab)),
    )
    return next((name for name, failed in checks if failed), None), diag


def mutated_assemble(kind, assemble=circuits._assemble, sets=slice(None)):
    """circuits._assemble, which every plan comes from, of one set or many,
    with the first step-3 exponent (the circuit's first PPOW gate), or the b
    of y_1's first support entry (its first CPAULIINV gate), one too large in
    the plan's sets selected by `sets` (every set by default)."""

    def broken(code, *args):
        batch = assemble(code, *args)
        n, chosen = code.n, np.arange(len(batch))[sets]
        if kind == "PPOW":
            step3 = batch.step3_exponents.copy()
            step3[chosen, 0] = (step3[chosen, 0] + 1) % pauli.phase_order(code.p)
            return dataclasses.replace(batch, step3_exponents=step3)
        y = batch.y.copy()
        first = ((y[chosen, 0, :n] != 0) | (y[chosen, 0, n:] != 0)).argmax(axis=1)
        y[chosen, 0, n + first] = (y[chosen, 0, n + first] + 1) % code.p
        return dataclasses.replace(batch, y=y)

    return broken


def logical_zero_projector(code, convention) -> sim.StateVector:
    """Joint +1 eigenvector of the calibrated generators by projection: run
    prod_i (1/p) sum_j g_i^j over reference basis states until one survives,
    then normalize and fix the global phase."""
    p, n = code.p, code.n
    for ref in range(p**n):
        digits = np.base_repr(ref, base=p).zfill(n)
        state = sim.basis_state(p, n, [int(d) for d in digits])
        for g in convention.generators:
            acc = state.amps.copy()
            running = state
            for _ in range(p - 1):
                running = sim.apply_phased_pauli(running, g)
                acc += running.amps
            state = sim.StateVector(p, n, acc / p)
            if state.norm() < 1e-9:
                break
        else:
            return sim.fix_global_phase(sim.StateVector(p, n, state.amps / state.norm()))
    raise ValueError("no reference state survived the projectors")


def reduced_density(state: sim.StateVector, keep) -> np.ndarray:
    """Partial trace keeping the given qudits (1-based), in ascending order."""
    p, m = state.p, state.m
    keep = sorted({int(q) for q in keep})
    for q in keep:
        if not 1 <= q <= m:
            raise IndexOutOfRangeError(f"qudit {q} outside the register")
    dim = p ** len(keep)
    if dim**2 > sim.max_amplitudes():
        raise TooLargeError("reduced density matrix exceeds the size guard")
    rest = [q for q in range(1, m + 1) if q not in keep]
    tensor = state.tensor()
    order = [q - 1 for q in keep] + [q - 1 for q in rest]
    matrix = np.transpose(tensor, order).reshape(dim, p ** len(rest))
    return matrix @ matrix.conj().T


def gate_operator(gate, p: int) -> np.ndarray:
    """Dense operator of one gate on its own qudits, as a (p,)*2r tensor
    (output axes, then input axes), r the number of qudits it addresses."""
    w = np.exp(2j * np.pi / p)
    if gate.kind in ("F", "FINV"):
        f = w ** np.outer(np.arange(p), np.arange(p)) / np.sqrt(p)
        return f.conj().T if gate.kind == "FINV" else f
    if gate.kind == "PPOW":
        return np.diag([pauli.phase_value(gate.params[0] * t, p) for t in range(p)])
    site = pauli.PhasedPauli(p, 0, list(gate.params))
    if gate.kind == "PAULI":
        return pauli.dense_matrix(site)
    sign = -1 if gate.kind == "CPAULIINV" else 1
    out = np.zeros((p, p, p, p), dtype=np.complex128)
    for j in range(p):  # sum_j |j><j| (x) (X^a Z^b)^(+-j)
        out[j, :, j, :] = pauli.dense_matrix(pauli.pauli_pow(site, sign * j))
    return out


def apply_gates(tensor: np.ndarray, gates, p: int) -> np.ndarray:
    """A working tensor shaped (p,)*m + (B,), qudit q on axis q - 1, after the
    gates, each contracted with its qudits' axes on its own; returns a new
    array and leaves its input alone."""
    out = tensor
    for gate in gates:
        axes = [q - 1 for q in gate.qudits]
        op = gate_operator(gate, p).reshape((p,) * (2 * len(axes)))
        out = np.tensordot(op, out, axes=(list(range(len(axes), 2 * len(axes))), axes))
        out = np.moveaxis(out, list(range(len(axes))), axes)
    return np.array(out)


def hyperbolic_reduce_loop(vectors: np.ndarray, x, z, p: int) -> np.ndarray:
    """Make every row orthogonal to one hyperbolic pair (x, z), <x,z> = 1,
    one row at a time."""
    if vectors.shape[0] == 0:
        return vectors
    out = []
    for w in vectors:
        lam = symplectic.symplectic_product(w, z, p)
        mu = symplectic.symplectic_product(x, w, p)
        out.append((w - lam * x - mu * z) % p)
    return np.array(out, dtype=np.int64)


def extend_basis_rankloop(base: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The rows, in order, that are independent of span(base) and of the rows
    kept before them: one rank test per row."""
    working, rank = base, linalg.rank(base, p)
    kept = []
    for row in rows:
        grown = np.vstack([working, row])
        if linalg.rank(grown, p) > rank:
            kept.append(row)
            working, rank = grown, rank + 1
    return np.array(kept, dtype=np.int64).reshape(len(kept), base.shape[1])


def random_symplectic_basis_loop(n: int, p: int, rng: np.random.Generator):
    """Random hyperbolic basis (e_1..e_n, f_1..f_n) of F_p^{2n}, drawn as the
    package draws it: each draw reduced pair by pair, and each new e kept only
    after a rank test against the pairs found so far."""
    es = np.zeros((n, 2 * n), dtype=np.int64)
    fs = np.zeros((n, 2 * n), dtype=np.int64)
    found = 0
    while found < n:
        v = rng.integers(0, p, size=2 * n, dtype=np.int64)
        for j in range(found):
            v = hyperbolic_reduce_loop(v.reshape(1, -1), es[j], fs[j], p)[0]
        if not v.any():
            continue
        span = np.vstack([es[:found], fs[:found], v])
        if linalg.rank(span, p) != 2 * found + 1:
            continue
        while True:
            w = rng.integers(0, p, size=2 * n, dtype=np.int64)
            for j in range(found):
                w = hyperbolic_reduce_loop(w.reshape(1, -1), es[j], fs[j], p)[0]
            c = symplectic.symplectic_product(v, w, p)
            if c:
                w = (w * linalg.fp_inv(c, p)) % p
                break
        es[found] = v
        fs[found] = w
        found += 1
    return es, fs


def self_dual_completion_loop(stabilizer, n: int, p: int):
    """(self_dual_rows, pairs) as symplectic.self_dual_completion returns them:
    each partner found by a scan of single products, each pair removed from
    the remaining rows one row at a time."""
    stab = linalg.row_basis(stabilizer, p)
    remaining = extend_basis_rankloop(stab, symplectic.dual(stab, n, p), p)
    pairs = []
    while remaining.shape[0]:
        x = remaining[0]
        partner = next(
            idx for idx in range(1, remaining.shape[0])
            if symplectic.symplectic_product(x, remaining[idx], p)
        )
        c = symplectic.symplectic_product(x, remaining[partner], p)
        z = (remaining[partner] * linalg.fp_inv(c, p)) % p
        rest = np.delete(remaining, [0, partner], axis=0)
        remaining = hyperbolic_reduce_loop(rest, x, z, p)
        pairs.append((x, z))
    return np.vstack([stab, *(z for _, z in pairs)]), pairs


def identify_pauli(matrix: np.ndarray, p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(e, x, z) with matrix = w^e M(x|z) on r qudits: x and w^e read off
    column 0, each z_t off column e_t, then the whole matrix checked against
    pauli.dense_matrix. Raises ValueError for a matrix of another form."""
    dim = matrix.shape[0]
    r = round(np.log(dim) / np.log(p))
    places = p ** np.arange(r - 1, -1, -1)
    ring = pauli.phase_order(p)

    def digits(index):
        return np.array([index // q % p for q in places], dtype=np.int64)

    def exponent(value, unit):  # the e with value = exp(2 pi i e / unit)
        return round(np.angle(value) / (2 * np.pi / unit)) % unit

    row = int(np.argmax(np.abs(matrix[:, 0])))
    x, e = digits(row), exponent(matrix[row, 0], ring)
    z = np.zeros(r, dtype=np.int64)
    for t in range(r):
        source = int(places[t])
        value = matrix[int((digits(source) + x) % p @ places), source] / matrix[row, 0]
        z[t] = exponent(value, p)
    expected = pauli.dense_matrix(pauli.PhasedPauli(p, e, np.concatenate([x, z])))
    if not np.allclose(matrix, expected, atol=1e-9):
        raise ValueError("not a phased Pauli")
    return e, x, z


@lru_cache(maxsize=None)
def _conjugated_factor(p: int, gate, local: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """G^dag M(local) G for a gate on its own qudits, as (e, x, z)."""
    op = gate_operator(gate, p)
    op = op.reshape(int(np.sqrt(op.size)), -1)
    factor = pauli.dense_matrix(pauli.PhasedPauli(p, 0, local))
    return identify_pauli(op.conj().T @ factor @ op, p)


def pull_back_per_gate(gates, p: int, phases, xs, zs):
    """U^dag (w^e M(x|z)) U for each row, the gates taken last to first, one
    at a time: the row's factor on the gate's qudits is conjugated by the
    gate's dense operator and read back as a phased Pauli."""
    phases, xs, zs = (np.array(v, dtype=np.int64) for v in (phases, xs, zs))
    for gate in reversed(gates):
        qs = [q - 1 for q in gate.qudits]
        key = circuits.Gate(gate.kind, tuple(range(1, len(qs) + 1)), gate.params)
        for i in range(len(phases)):
            e, x, z = _conjugated_factor(p, key, tuple(np.concatenate([xs[i, qs], zs[i, qs]]).tolist()))
            phases[i] = (phases[i] + e) % pauli.phase_order(p)
            xs[i, qs], zs[i, qs] = x, z
    return phases, xs, zs


def compressed_operator(code, convention, phase: int, vec) -> np.ndarray:
    """V^dag Q V for Q = w^phase M(vec) on the n shares and k ancillas, as a
    p^k x p^k matrix, V|s> = Xbar^s|0bar> (x) |0>_A: 0 when Q has an X part
    on the ancillas, else each <0bar|(Xbar^s)^-1 M Xbar^t|0bar> multiplied
    out, with the eigenvalue of a self-dual pattern from
    pauli.stabilizer_eigenvalue and 0 for any other pattern."""
    p, n, k = code.p, code.n, code.k
    vec = np.asarray(vec, dtype=np.int64)
    xs, zs = vec[: n + k], vec[n + k :]
    out = np.zeros((p**k, p**k), dtype=np.complex128)
    if xs[n:].any():
        return out
    op = pauli.PhasedPauli(p, phase, np.concatenate([xs[:n], zs[:n]]))
    xbars = [pauli.PhasedPauli(p, e, x) for e, x in zip(convention.alpha_exponents, code.logical_x)]
    encoders = []
    for s in product(range(p), repeat=k):
        enc = pauli.identity_pauli(p, n)
        for xbar, digit in zip(xbars, s):
            enc = pauli.pauli_mul(enc, pauli.pauli_pow(xbar, digit))
        encoders.append(enc)
    for i, left in enumerate(encoders):
        for j, right in enumerate(encoders):
            term = pauli.pauli_mul(pauli.pauli_mul(pauli.pauli_pow(left, -1), op), right)
            if linalg.row_space_contains(code.self_dual, term.vec, p):
                h = pauli.stabilizer_eigenvalue(convention.generators, term.vec, p)
                out[i, j] = pauli.phase_value(term.phase + h, p)
    return out
