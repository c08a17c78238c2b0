"""Symplectic spaces over F_p and the share-code structure built on them.

A length-2n row (a_1 .. a_n | b_1 .. b_n) records the X/Z exponent pattern of
an n-qudit Pauli operator; the first n entries are the X part, the last n the
Z part. The symplectic product of (a|b) and (a'|b') is sum(a_i b'_i - a'_i b_i)
mod p; two patterns commute as operators exactly when it vanishes.

Share subsets are sorted tuples of 1-based indices into {1..n}. "Available"
always means the shares a reconstructing coalition holds, "missing" their
complement (erased positions).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import linalg
from .errors import (
    NoSolutionError,
    NotCorrectableError,
    NotInDualError,
    NotInSelfDualError,
    NotSelfOrthogonalError,
    TooLargeError,
    ValidationError,
)

MAX_ENUMERATION_SHARES = 15


def share_set(members, n: int) -> tuple[int, ...]:
    """Validate and canonicalize a subset of {1..n}."""
    out = tuple(sorted({int(i) for i in members}))
    for i in out:
        if not 1 <= i <= n:
            raise ValueError(f"share index {i} outside 1..{n}")
    return out


def complement(members, n: int) -> tuple[int, ...]:
    members = set(share_set(members, n))
    return tuple(i for i in range(1, n + 1) if i not in members)


def _coordinate_columns(members, n: int) -> list[int]:
    """Column indices (a and b parts) carried by the given shares."""
    out = []
    for i in share_set(members, n):
        out.append(i - 1)
        out.append(i - 1 + n)
    return sorted(out)


def split_parts(vec, n: int) -> tuple[np.ndarray, np.ndarray]:
    vec = np.asarray(vec, dtype=np.int64).reshape(-1)
    if vec.shape[0] != 2 * n:
        raise ValueError(f"expected a length-{2 * n} vector, got {vec.shape[0]}")
    return vec[:n], vec[n:]


def symplectic_product(x, y, p: int) -> int:
    x = linalg.as_field_vector(x, p)
    y = linalg.as_field_vector(y, p)
    if x.shape != y.shape or x.shape[0] % 2:
        raise ValueError("operands must be equal-length (a|b) vectors")
    n = x.shape[0] // 2
    return int((x[:n] @ y[n:] - y[:n] @ x[n:]) % p)


def symplectic_gram(A, B, p: int) -> np.ndarray:
    """Matrix of pairwise symplectic products between rows of A and rows of B."""
    return _gram(linalg.as_field(A, p), linalg.as_field(B, p)) % p


def _gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """symplectic_gram of two int64 row stacks, not reduced mod p."""
    n = A.shape[1] // 2
    return A[:, :n] @ B[:, n:].T - A[:, n:] @ B[:, :n].T


def dual(basis, n: int, p: int) -> np.ndarray:
    """Canonical basis of {y : <x, y> = 0 for every row x}."""
    basis = linalg.as_field(basis, p)
    if basis.shape[0] == 0:
        return linalg.row_basis(np.eye(2 * n, dtype=np.int64), p)
    # <x, y> = (-b_x | a_x) . y, so the dual is the kernel of the twisted rows.
    twisted = np.hstack([(-basis[:, n:]) % p, basis[:, :n]])
    return linalg.nullspace(twisted, p)


def project_vector(vec, members, n: int) -> np.ndarray:
    """Restrict (a|b) to the given shares, preserving order, as (a_J|b_J)."""
    a, b = split_parts(vec, n)
    idx = [i - 1 for i in share_set(members, n)]
    return np.concatenate([a[idx], b[idx]])


# ---------------------------------------------------------------------------
# code specifications


@dataclass(frozen=True)
class CodeSpec:
    """A prime-qudit stabilizer share code.

    stabilizer : (n-k, 2n) basis of the self-orthogonal space C
    self_dual  : (n, 2n) basis rows of a space Cm with C ⊆ Cm = Cm-dual
    logical_x  : (k, 2n) representatives x_i, one per secret qudit
    logical_z  : (k, 2n) partners z_i ∈ Cm with <x_i, z_j> = delta_ij
    """

    p: int
    n: int
    k: int
    stabilizer: np.ndarray
    self_dual: np.ndarray
    logical_x: np.ndarray
    logical_z: np.ndarray


def validate_code(code: CodeSpec) -> None:
    """Check every structural invariant; raise ValidationError on failure."""
    linalg.check_prime(code.p)
    p, n, k = code.p, code.n, code.k
    stab = linalg.as_field(code.stabilizer, p)
    cm = linalg.as_field(code.self_dual, p)
    lx = linalg.as_field(code.logical_x, p) if k else linalg.empty_basis(2 * n)
    lz = linalg.as_field(code.logical_z, p) if k else linalg.empty_basis(2 * n)
    _check_shapes(n, k, stab, cm, lx, lz)
    gram, s = _stacked_gram(stab, cm, lx, lz, p)
    _validate(n, k, gram, s, _check_stabilizer(stab, cm, n, p, gram[s, s])[0])


def _check_shapes(n: int, k: int, *parts: np.ndarray | None) -> None:
    """0 <= k <= n, and the parts given, stabilizer, self_dual, logical_x,
    logical_z in that order, have their number of rows of length 2n; a part
    given as None is not checked."""
    if not (0 <= k <= n):
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    for name, part, rows in zip(("stabilizer", "self_dual", "logical_x", "logical_z"), parts, (n - k, n, k, k)):
        if part is not None and part.shape != (rows, 2 * n):
            raise ValidationError(f"{name} must be {rows} rows of length {2 * n}, got {part.shape}")


def _check_stabilizer(stab: np.ndarray, cm, n: int, p: int, gram: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """(cm_rank, reduced) for independent, self-orthogonal stabilizer rows,
    gram their Gram matrix mod p; ValidationError otherwise. cm_rank is the
    rank of the self-dual rows cm, or None unless they are n rows of length
    2n. When the stabilizer rows lead cm of rank n, that shows them
    independent; otherwise the stabilizer is reduced on its own, which names
    a dependent row first, and reduced is its reduced basis.
    """
    cm_rank = reduced = None
    if cm is not None and cm.shape == (n, 2 * n):
        cm_rank = linalg.rank(cm, p)
    if cm_rank != n or not np.array_equal(cm[: stab.shape[0]], stab):
        reduced, _, rank = linalg.rref(stab, p)
        if rank != stab.shape[0]:
            raise ValidationError("stabilizer rows are linearly dependent")
        reduced = reduced[:rank]
    _check_self_orthogonal(gram)
    return cm_rank, reduced


def _stacked_gram(stab, cm, lx, lz, p: int) -> tuple[np.ndarray, slice]:
    """(gram, s): the Gram matrix mod p of the rows [cm; lx; lz], with the
    stabilizer rows appended unless they lead cm, and s their rows in it."""
    d = len(stab)
    lead = np.array_equal(cm[:d], stab)  # always so for d = 0
    stacked = np.vstack([cm, lx, lz] if lead else [cm, lx, lz, stab])
    return _gram(stacked, stacked) % p, slice(0, d) if lead else slice(-d, None)


def _validate(n: int, k: int, gram: np.ndarray, s: slice, cm_rank: int) -> None:
    """The invariants beyond _check_shapes and _check_stabilizer, read from
    gram and s of _stacked_gram; cm_rank is the rank of cm."""
    if cm_rank != n:
        raise ValidationError("self-dual space must have dimension n")
    c, x, z = slice(0, n), slice(n, n + k), slice(n + k, n + 2 * k)
    if gram[c, c].any():
        raise ValidationError("self-dual rows are not mutually orthogonal")
    # Cm now has rank n and is self-orthogonal, so it is its own dual: a row
    # lies in Cm exactly when it is orthogonal to every row of Cm.
    _name_first_row(gram[c, s].T, "stabilizer row {} outside the self-dual space")
    if k == 0:
        return
    _name_first_row(gram[x, s], "logical x {} outside the dual space")
    _name_first_row(gram[z, c], "logical z {} outside the self-dual space")
    pairing = gram[x, z]
    if not np.array_equal(pairing, np.eye(k, dtype=np.int64)):
        raise ValidationError(f"logical pairing is not the identity matrix: {pairing.tolist()}")
    if gram[x, x].any():
        raise ValidationError("logical x representatives do not mutually commute")
    if gram[z, z].any():
        raise ValidationError("logical z representatives do not mutually commute")
    # The x rows are now independent modulo Cm, with no further check: if
    # sum_i c_i x_i lay in Cm, pairing it with z_j (in the self-dual Cm) would
    # give c_j = 0 for every j.


def _name_first_row(defect: np.ndarray, message: str) -> None:
    """Raise ValidationError naming the first row of `defect` that is nonzero."""
    if defect.any():
        raise ValidationError(message.format(int(np.flatnonzero(defect.any(axis=1))[0]) + 1))


def _check_self_orthogonal(gram: np.ndarray, what: str = "stabilizer") -> None:
    """NotSelfOrthogonalError naming the first nonzero entry of a Gram matrix."""
    if gram.any():
        i, j = np.argwhere(gram)[0]
        raise NotSelfOrthogonalError(
            f"{what} rows {i + 1} and {j + 1} have symplectic product {gram[i, j]}"
        )


def _hyperbolic_reduce(vectors: np.ndarray, xs: np.ndarray, zs: np.ndarray, p: int) -> np.ndarray:
    """Make every row orthogonal to each hyperbolic pair (x_j, z_j).

    The pairs must be mutually hyperbolic: <x_i, z_j> = delta_ij and every
    other product between them zero. Taking w to w - <w,z_j> x_j + <w,x_j> z_j
    makes w orthogonal to pair j and leaves its products with the other pairs
    alone, so the order of the pairs does not matter and one array
    expression reduces every row against all of them.
    """
    return (vectors - _gram(vectors, zs) @ xs + _gram(vectors, xs) @ zs) % p


def self_dual_completion(
    stabilizer, n: int, p: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Extend a self-orthogonal space C to a self-dual space and logical pairs.

    Returns (self_dual_rows, pairs). The self-dual rows are the stabilizer
    rows followed by the z_i; the pairs (x_i, z_i) form a hyperbolic basis of
    dual(C)/C: <x_i, z_j> = delta_ij and <x_i, x_j> = <z_i, z_j> = 0.
    Deterministic for the fixed pivoting rule.
    """
    stab = linalg.row_basis(stabilizer, p)
    _check_self_orthogonal(_gram(stab, stab) % p, what="input")
    return _completion(stab, n, p)


def _completion(stab: np.ndarray, n: int, p: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """self_dual_completion of a self-orthogonal basis in reduced form."""
    # Coset representatives: dual-basis rows independent modulo C.
    remaining = _extend_basis(stab, dual(stab, n, p), p)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    while remaining.shape[0]:
        # x = remaining[0] pairs with the first row it does not commute with;
        # one exists, as the form induced on dual(C)/C is nondegenerate.
        products = symplectic_gram(remaining[:1], remaining, p)[0]
        partner = int(np.flatnonzero(products)[0])
        x, z = remaining[0], remaining[partner] * linalg.fp_inv(products[partner], p) % p
        remaining = _hyperbolic_reduce(np.delete(remaining, [0, partner], axis=0), x[None], z[None], p)
        pairs.append((x, z))
    return np.vstack([stab, *(z for _, z in pairs)]), pairs


def _extend_basis(base: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The rows, in order, that are independent of span(base) and of the
    rows kept before them.

    One elimination of [base; rows] transposed finds them: a column is a
    pivot exactly when it is independent of the columns before it.
    """
    _, pivots, _ = linalg.rref(np.vstack([base, rows]).T, p)
    return rows[[c - base.shape[0] for c in pivots if c >= base.shape[0]]]


def _solve_rows(A: np.ndarray, p: int) -> np.ndarray:
    """Rows c_j with A c_j = e_j, free variables zero; NoSolutionError if none."""
    return linalg.solve_linear(A, np.eye(A.shape[0], dtype=np.int64), p).T


def _biorthogonalize(cand: np.ndarray, other: np.ndarray, p: int) -> np.ndarray:
    """Rows x_i with <x_i, o_j> = delta_ij and <x_i, x_j> = 0.

    The rows of `other` must be mutually orthogonal. x = G^-1 cand for the
    Gram matrix G = <cand, other>; then x_i += sum_{j>i} <x_i, x_j> o_j
    zeroes the x-x products (<o_j, x_j> = -1 cancels the upper triangle,
    antisymmetry the lower) and keeps the pairing with `other`.
    """
    x = (_solve_rows(symplectic_gram(cand, other, p).T, p) @ cand) % p
    return (x + np.triu(symplectic_gram(x, x, p), 1) @ other) % p


def _pairs_for_fixed_self_dual(
    stab: np.ndarray, cm: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hyperbolic pairs (x_i, z_i) with all z_i inside a given self-dual space.

    The z_i extend C to Cm; candidate x_i extend Cm to dual(C) and are then
    biorthogonalized against the z_i (the pairing between the two quotients
    is nondegenerate, so their Gram matrix is invertible).
    """
    z = _extend_basis(stab, cm, p)
    return _biorthogonalize(_extend_basis(cm, dual(stab, n, p), p), z, p), z


def _partners_of_x(stab: np.ndarray, lx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Partners z_i ∈ dual(C) with <x_i, z_j> = delta_ij, mutually orthogonal.

    Candidates extend span(C ∪ x) to dual(C); x spans a Lagrangian of
    dual(C)/C and the candidates a complement, so their pairing is
    nondegenerate. C + span(z) is then a self-dual space.
    """
    cand = _extend_basis(np.vstack([stab, lx]), dual(stab, n, p), p)
    return (-_biorthogonalize(cand, lx, p)) % p


def build_code(
    p: int,
    stabilizer,
    self_dual=None,
    logical_x=None,
    logical_z=None,
    *,
    n: int | None = None,
) -> CodeSpec:
    """Assemble and validate a CodeSpec, deriving whatever parts are missing.

    Missing self_dual/logical rows are computed by self-dual completion.
    Supplied logical pairs whose pairing matrix is diag(c_1..c_k) with
    c_i != 1 are accepted: each z_i is rescaled by 1/c_i (with a warning).
    With every part given in its shape, one rank of the self-dual rows and
    one _stacked_gram hold every check; a derived part costs its own products.
    """
    linalg.check_prime(p)
    stab = linalg.as_field(stabilizer, p)
    if n is None:
        n = stab.shape[1] // 2
    cm = None if self_dual is None else linalg.as_field(self_dual, p)
    if cm is not None and cm.shape[0] < n:
        # Accept documents that list only the rows extending the stabilizer.
        cm = np.vstack([stab, cm])
    lx = None if logical_x is None else linalg.as_field(logical_x, p)
    lz = None if logical_z is None else linalg.as_field(logical_z, p)
    k = n - stab.shape[0]
    gram = None
    if [np.shape(part) for part in (stab, cm, lx, lz)] == [(n - k, 2 * n), (n, 2 * n), (k, 2 * n), (k, 2 * n)]:
        gram, s = _stacked_gram(stab, cm, lx, lz, p)
    cm_rank, reduced = _check_stabilizer(stab, cm, n, p, _gram(stab, stab) % p if gram is None else gram[s, s])
    # the parts given, before anything is derived from them
    _check_shapes(n, k, stab, cm, lx, lz)

    if cm is None and lz is None and lx is not None:
        lz = _partners_of_x(stab, lx, n, p)
    if cm is None and lz is not None:
        cm = np.vstack([stab, lz])
        cm_rank = linalg.rank(cm, p)
    if cm is not None and cm_rank != n:
        raise ValidationError("self-dual space must have dimension n")
    if self_dual is not None and (lx is None or lz is None):
        # the logical rows are derived from the given Cm, which must be
        # self-orthogonal and hold C: _validate of Cm and C alone
        _validate(n, 0, *_stacked_gram(stab, cm, cm[:0], cm[:0], p), cm_rank)
    if cm is None:  # so the stabilizer was reduced on its own above
        cm, pairs = _completion(reduced, n, p)
        cm_rank = n  # the stabilizer rows and one partner per pair
        lx = np.array([x for x, _ in pairs], dtype=np.int64).reshape(-1, 2 * n)
        lz = np.array([z for _, z in pairs], dtype=np.int64).reshape(-1, 2 * n)
    if lx is None and lz is None:
        lx, lz = _pairs_for_fixed_self_dual(stab, cm, n, p)
    elif lz is None:
        lz = (_solve_rows(symplectic_gram(lx, cm, p), p) @ cm) % p
    elif lx is None:
        # Two steps: x paired with Cm's own z rows, then against the given z
        # rows (one step from the candidates would give other x rows).
        lx = _biorthogonalize(_pairs_for_fixed_self_dual(stab, cm, n, p)[0], lz, p)

    if gram is None:
        _check_shapes(n, k, stab, cm, lx, lz)
        gram, s = _stacked_gram(stab, cm, lx, lz, p)
    z = slice(n + k, n + 2 * k)
    pairing = gram[n : n + k, z]
    diag = pairing.diagonal().copy()  # not a view of the Gram rescaled below
    if (diag != 1).any() and diag.all() and not (pairing - np.diag(diag)).any():
        # z_i / c_i: the Gram's z rows and columns scale with it
        scale = linalg._inverses(p)[diag]
        lz = lz * scale[:, None] % p
        gram[z] = gram[z] * scale[:, None] % p
        gram[:, z] = gram[:, z] * scale % p
        shown = " ".join(str(c).rjust(len(str(diag.max()))) for c in diag.tolist())  # array2string's one line
        warnings.warn(f"logical pairing was diag([{shown}]); rescaled z rows to normalize it", stacklevel=2)
    _validate(n, k, gram, s, cm_rank)
    return CodeSpec(p=p, n=n, k=k, stabilizer=stab, self_dual=cm, logical_x=lx, logical_z=lz)


# ---------------------------------------------------------------------------
# erasure structure


def erasure_correctable(code: CodeSpec, missing) -> bool:
    """True when erasures at the given shares are correctable.

    Tests dim(dual(C) ∩ F^M) == dim(C ∩ F^M) for M = missing; the nested
    self-dual section is squeezed to the same dimension whenever this holds.
    Both sides are ranks of the stabilizer basis G. The vectors cG supported
    on M are those with c in the left kernel of G restricted to the columns
    outside M, so dim(C ∩ F^M) = dim C - rank(G outside M). A vector
    supported on M is orthogonal to C exactly when it is orthogonal to C's
    restriction to M, so dim(dual(C) ∩ F^M) = 2|M| - rank(G on M).
    """
    outside = _coordinate_columns(complement(missing, code.n), code.n)
    inside = _coordinate_columns(missing, code.n)
    stab = code.stabilizer
    inner = stab.shape[0] - linalg.rank(stab[:, outside], code.p)
    outer = len(inside) - linalg.rank(stab[:, inside], code.p)
    return inner == outer


def localize_x(code: CodeSpec, x, available) -> tuple[np.ndarray, np.ndarray]:
    """Split x = u + w with u in the stabilizer space and w supported on
    the available shares; x must lie in dual(C).

    The split exists whenever the complementary erasures are correctable.
    """
    x = linalg.as_field_vector(x, code.p)
    if (_gram(x[None], code.stabilizer) % code.p).any():
        raise NotInDualError("vector outside the dual of the stabilizer space")
    return _localize(code, x, available)


def localize_z(code: CodeSpec, z, available) -> tuple[np.ndarray, np.ndarray]:
    """Split z = v + y with v in the stabilizer space and y supported on the
    available shares; z must lie in the self-dual space."""
    z = linalg.as_field_vector(z, code.p)
    if (_gram(z[None], code.self_dual) % code.p).any():  # Cm is its own dual
        raise NotInSelfDualError("vector outside the self-dual space")
    return _localize(code, z, available)


def _localize(code: CodeSpec, vec: np.ndarray, available) -> tuple[np.ndarray, np.ndarray]:
    """split_on_missing of vec in dual(C), stacked on the 2k logical rows: they
    all split exactly when the available shares are qualified."""
    available = share_set(available, code.n)
    try:
        s, r, _ = split_on_missing(code, np.vstack([vec, code.logical_x, code.logical_z]), complement(available, code.n))
    except NoSolutionError as exc:
        raise NotCorrectableError(f"shares {available} cannot reconstruct") from exc
    return s[0], r[0]


def split_on_missing(code: CodeSpec, vecs, missing):
    """Split field vectors vec = s + r, with s in the stabilizer space equal
    to vec on the missing shares, so r is supported on the others.

    vecs is one length-2n vector or a stack of them as rows; s and r have its
    shape, and one elimination serves the whole stack. Returns (s, r, c),
    where c holds the coefficients of s over the stabilizer rows
    (s = c @ stabilizer, one row of c per row of vecs). Unchecked: the
    caller has established that every vector lies in dual(C)
    (localize_x/localize_z do). Raises NoSolutionError when some
    vector has no such split; for a stack that spans dual(C) together with
    C, such as the 2k logical rows, that happens exactly when the erasure of
    `missing` is not correctable. Deterministic via the linear solver's
    tie-break.
    """
    p, n = code.p, code.n
    vecs = np.asarray(vecs, dtype=np.int64)
    cols = _coordinate_columns(missing, n)
    coeff = np.zeros((*vecs.shape[:-1], code.stabilizer.shape[0]), dtype=np.int64)
    if cols:
        coeff = linalg.solve_linear(code.stabilizer[:, cols].T, vecs[..., cols].T, p).T
    s = (coeff @ code.stabilizer) % p
    return s, (vecs - s) % p, coeff


def split_on_missing_sets(code: CodeSpec, vecs, missing):
    """split_on_missing of one (q, 2n) stack of vectors for each of S share
    sets at once; missing is an (S, n) boolean mask of each set's missing
    shares.

    Returns (s, r, c, split): s and r are (S, q, 2n), c is (S, q, n-k), and
    split (S,) is true where every vector splits (s, r and c are meaningless
    where it is false). One linalg.solve_stacked solves, for every set, the
    system split_on_missing solves, [stabilizer^T | vecs^T] on the set's
    missing coordinates, padded with zero rows up to the widest set. A zero
    row changes neither the rank nor the solvability, and the reduced form is
    unique, so c is split_on_missing's coefficients.
    """
    p, n, d = code.p, code.n, code.stabilizer.shape[0]
    vecs = np.asarray(vecs, dtype=np.int64)
    missing = np.asarray(missing, dtype=bool)
    system = np.zeros((2 * n + 1, d + len(vecs)), dtype=np.int64)  # a row per coordinate, row 2n zero
    system[: 2 * n, :d], system[: 2 * n, d:] = code.stabilizer.T, vecs.T
    # each set's missing shares ascending, then 2n for the padding
    shares = np.sort(np.where(missing, np.arange(n), 2 * n), axis=1)[:, : missing.sum(axis=1).max(initial=0)]
    coeff, split = linalg.solve_stacked(system[np.hstack([shares, np.minimum(shares + n, 2 * n)])], d, p)
    coeff = coeff.transpose(0, 2, 1)
    s = coeff @ code.stabilizer % p
    return s, (vecs - s) % p, coeff, split


def _subset_ranks(code: CodeSpec) -> np.ndarray:
    """Table r with r[S] = rank over F_p of the stabilizer basis G on the a and
    b columns of S, for every share subset S (share j is bit j-1 of S).

    The bases of the subsets holding share j are copies of those of the
    subsets below 2^(j-1), with share j's two columns of G inserted. A basis
    is in echelon form: n-k slots, slot b empty or holding a vector that
    leads with a 1 at b. An insert reduces the column against every filled
    slot, n-k elimination steps over all bases at once, and files what is
    left in the slot of its leading entry; r[S] counts S's filled slots.
    Stored in int8, the bases computed in int16 (entries below p <= 13).

    The inserted column is reduced mod p once, after its n-k steps: a
    filled slot b leads with 1, so step b makes entry b exactly 0, and each
    step multiplies the entries' bound by at most p, so they stay below
    (p-1) p^(n-k) <= 12 * 13^15 < 2^63 under the enumeration guard.
    """
    p, n, d = code.p, code.n, code.stabilizer.shape[0]
    ranks = np.zeros(1 << n, dtype=np.int8)
    columns = code.stabilizer.T.astype(np.int64)
    inv = linalg._inverses(p)
    bases = np.zeros((1 << max(n - 1, 0), d, d), dtype=np.int8)  # the last half is not kept
    for j in range(n if d else 0):
        work = bases[: 1 << j].astype(np.int16)
        every = np.arange(1 << j)
        for column in (columns[j], columns[j + n]):
            v = np.repeat(column[None], 1 << j, axis=0)
            for b in range(d):  # an empty slot is zero and leaves v alone
                v[:, b:] -= v[:, b, None] * work[:, b, b:]
            v %= p
            # v is zero at every filled slot, so it leads at an empty one (or is zero)
            lead = (v != 0).argmax(axis=1)
            work[every, lead] += v * inv[v[every, lead]][:, None] % p
        ranks[1 << j : 2 << j] = np.count_nonzero(work[:, range(d), range(d)], axis=1)
        bases[1 << j : 2 << j] = work[: len(bases) - (1 << j)]
    return ranks


def _qualified_mask(code: CodeSpec) -> np.ndarray:
    """True at each nonempty qualified S, indexed as in _subset_ranks: erasing
    M = complement(S) is correctable when erasure_correctable's two ranks
    agree, (n-k) - r[S] == 2|M| - r[M]. M is index 2^n - 1 - S, so r[M] is
    the reversed table."""
    n = code.n
    if n > MAX_ENUMERATION_SHARES:
        raise TooLargeError(f"enumeration supports at most {MAX_ENUMERATION_SHARES} shares")
    ranks = _subset_ranks(code)
    missing = np.full(1 << n, n, dtype=np.int16)  # |M|
    for j in range(n):
        missing[1 << j : 2 << j] = missing[: 1 << j] - 1
    mask = code.stabilizer.shape[0] - ranks == 2 * missing - ranks[::-1]
    mask[0] = False
    return mask


def _listed(mask: np.ndarray, n: int) -> np.ndarray:
    """The subsets a mask selects, as (S, n) boolean membership rows (share j
    in column j-1), smallest first then lexicographic: within one size, the
    largest membership bits read with share 1 as the most significant come
    first."""
    bits = (np.flatnonzero(mask)[:, None] >> np.arange(n)) & 1
    return bits[np.lexsort((-(bits @ (1 << np.arange(n)[::-1])), bits.sum(axis=1)))].astype(bool)


def members_of(rows) -> list[tuple[int, ...]]:
    """The share tuples of (S, n) boolean membership rows, in order."""
    rows = np.asarray(rows)
    shares = range(1, rows.shape[1] + 1)
    return [tuple(compress(shares, row)) for row in rows.tolist()]


def qualified_sets(code: CodeSpec, max_size: int | None = None) -> list[tuple[int, ...]]:
    """Minimal qualified share sets of at most max_size shares, smallest
    first then lexicographic.

    Qualification comes from one rank table over every share subset
    (_qualified_mask). A qualified set is minimal when no subset one share
    smaller contains a qualified set; two subset-OR sweeps decide that.
    """
    qualified = _qualified_mask(code)
    covered = qualified.copy()  # contains a qualified set
    shadowed = np.zeros_like(qualified)  # a subset one share smaller is covered
    for table in (covered, shadowed):
        for j in range(code.n):
            halves = table.reshape(-1, 2, 1 << j)  # without, with share j + 1
            halves[:, 1] |= covered.reshape(-1, 2, 1 << j)[:, 0]
    minimal = members_of(_listed(qualified & ~shadowed, code.n))
    return minimal if max_size is None else [m for m in minimal if len(m) <= max_size]


def all_qualified_sets(code: CodeSpec) -> list[tuple[int, ...]]:
    """Every qualified share set, smallest first then lexicographic, from the
    same rank table as qualified_sets.

    This is the up-closure of qualified_sets: erasing M is correctable iff
    dual(C) ∩ F^M ⊆ C (C ∩ F^M lies inside it, so equal dimensions mean
    equal spaces), and for M' ⊆ M, dual(C) ∩ F^M' ⊆ dual(C) ∩ F^M ⊆ C.
    """
    return members_of(all_qualified_rows(code))


def all_qualified_rows(code: CodeSpec) -> np.ndarray:
    """all_qualified_sets as (S, n) boolean membership rows, in its order."""
    return _listed(_qualified_mask(code), code.n)


# ---------------------------------------------------------------------------
# random test inputs


def random_symplectic_basis(n: int, p: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random hyperbolic basis (e_1..e_n, f_1..f_n) of F_p^{2n}.

    Every draw is reduced against the pairs found so far. A nonzero result is
    orthogonal to their span, which is nondegenerate, so it lies outside it
    and starts the next pair; a draw inside the span reduces to zero and is
    drawn again.
    """
    es = np.zeros((n, 2 * n), dtype=np.int64)
    fs = np.zeros((n, 2 * n), dtype=np.int64)
    found = 0

    def reduced_draw():
        draw = rng.integers(0, p, size=2 * n, dtype=np.int64)
        return _hyperbolic_reduce(draw[None], es[:found], fs[:found], p)[0]

    while found < n:
        v = reduced_draw()
        if not v.any():
            continue
        c = 0
        while not c:
            w = reduced_draw()
            c = symplectic_product(v, w, p)
        es[found] = v
        fs[found] = w * linalg.fp_inv(c, p) % p
        found += 1
    return es, fs


def random_self_orthogonal_code(p: int, n: int, k: int, seed: int) -> CodeSpec:
    """Random valid CodeSpec, deterministic per seed."""
    linalg.check_prime(p)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    rng = np.random.default_rng(seed)
    es, fs = random_symplectic_basis(n, p, rng)
    stab = es[: n - k].copy()
    cm = es.copy()
    lx = fs[n - k :].copy()
    lz = (-es[n - k :]) % p  # flips the pairing <f_i, e_i> = -1 to +1
    code = CodeSpec(p=p, n=n, k=k, stabilizer=stab, self_dual=cm, logical_x=lx, logical_z=lz)
    validate_code(code)
    return code
