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
    _check_parts(p, n, stab, cm, lx, lz)


def _check_shapes(n: int, k: int, *parts: np.ndarray | None) -> None:
    """0 <= k <= n, and the parts given, stabilizer, self_dual, logical_x,
    logical_z in that order, have their number of rows of length 2n; a part
    given as None is not checked."""
    if not (0 <= k <= n):
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    for name, part, rows in zip(("stabilizer", "self_dual", "logical_x", "logical_z"), parts, (n - k, n, k, k)):
        if part is not None and part.shape != (rows, 2 * n):
            raise ValidationError(f"{name} must be {rows} rows of length {2 * n}, got {part.shape}")


def _check_parts(p: int, n: int, stab, cm, lx, lz, rescale: bool = False) -> tuple[np.ndarray | None, ...]:
    """Check the parts of a code as given, in their _check_shapes shapes, a
    part still to be derived None; ValidationError names the first defect.

    One Gram matrix of the given rows holds every symplectic product. In
    order: the stabilizer rows are independent and self-orthogonal, Cm has
    rank n (Cm is the self-dual rows, or else the stabilizer and logical z
    rows, and then a shortfall names the z rows), rescale normalizes a
    logical pairing diag(c_1..c_k) with some c_i != 1 by z_i / c_i, with a
    warning, and _validate runs. Returns (reduced, cm, lz): the stabilizer's
    reduced basis (None when its rows lead a Cm of rank n, which shows them
    independent), the rows of Cm (None without self-dual and z rows) and the
    z rows as rescaled.
    """
    d, reduced = len(stab), None
    span = cm if cm is not None or lz is None else np.vstack([stab, lz])
    span_rank = None if span is None else linalg.rank(span, p)
    if span_rank != n or not np.array_equal(span[:d], stab):
        reduced, _, rank = linalg.rref(stab, p)
        if rank != d:
            raise ValidationError("stabilizer rows are linearly dependent")
        reduced = reduced[:d]
    gram, s, c, x, z = _stacked_gram(stab, *(stab[:0] if part is None else part for part in (cm, lx, lz)), p)
    _check_self_orthogonal(gram[s, s])
    if span_rank not in (None, n) and cm is not None:
        raise ValidationError("self-dual space must have dimension n")
    if span_rank not in (None, n):  # the stabilizer rows are independent
        raise ValidationError("logical z rows are linearly dependent modulo the stabilizer space")
    pairing = gram[x, z]  # no rows unless both logical parts are given
    diag = pairing.diagonal().copy()  # not a view of the Gram rescaled below
    if rescale and (diag != 1).any() and diag.all() and not (pairing - np.diag(diag)).any():
        # z_i / c_i: the Gram's z rows and columns scale with it
        scale = linalg._inverses(p)[diag]
        lz = lz * scale[:, None] % p
        gram[z] = gram[z] * scale[:, None] % p
        gram[:, z] = gram[:, z] * scale % p
        shown = " ".join(str(v).rjust(len(str(diag.max()))) for v in diag.tolist())  # array2string's one line
        warnings.warn(f"logical pairing was diag([{shown}]); rescaled z rows to normalize it", stacklevel=3)
    _validate(gram, s, c, x, z)
    return reduced, span, lz


def _stacked_gram(stab, cm, lx, lz, p: int) -> tuple[np.ndarray, slice, slice, slice, slice]:
    """(gram, s, c, x, z): the Gram matrix mod p of the rows [cm; lx; lz],
    with the stabilizer rows appended unless they lead cm, and the rows of
    the stabilizer, cm, lx and lz in it."""
    d, a, b, e = len(stab), len(cm), len(cm) + len(lx), len(cm) + len(lx) + len(lz)
    lead = np.array_equal(cm[:d], stab)  # always so for d = 0
    stacked = np.vstack([cm, lx, lz] if lead else [cm, lx, lz, stab])
    return _gram(stacked, stacked) % p, slice(0, d) if lead else slice(e, None), slice(0, a), slice(a, b), slice(b, e)


def _validate(gram: np.ndarray, s: slice, c: slice, x: slice, z: slice) -> None:
    """The membership, pairing and commutation checks of _check_parts, read
    from _stacked_gram's gram and row slices; a block of no rows passes.
    Cm, when given, has rank n, and the stabilizer is self-orthogonal."""
    if gram[c, c].any():
        raise ValidationError("self-dual rows are not mutually orthogonal")
    # Cm now has rank n and is self-orthogonal, so it is its own dual: a row
    # lies in Cm exactly when it is orthogonal to every row of Cm.
    _name_first_row(gram[c, s].T, "stabilizer row {} outside the self-dual space")
    _name_first_row(gram[x, s], "logical x {} outside the dual space")
    _name_first_row(gram[z, c], "logical z {} outside the self-dual space")
    # a z row in a given Cm lies in dual(C); without Cm, this is its check
    _name_first_row(gram[z, s], "logical z {} outside the dual space")
    pairing = gram[x, z]
    if pairing.size and not np.array_equal(pairing, np.eye(len(pairing), dtype=np.int64)):
        raise ValidationError(f"logical pairing is not the identity matrix: {pairing.tolist()}")
    if gram[x, x].any():
        raise ValidationError("logical x representatives do not mutually commute")
    if gram[z, z].any():
        raise ValidationError("logical z representatives do not mutually commute")
    # The x rows of a full listing are now independent modulo Cm, with no
    # further check: if sum_i c_i x_i lay in Cm, pairing it with z_j (in the
    # self-dual Cm) would give c_j = 0 for every j.


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


def _derive(p: int, n: int, stab, reduced, cm, lx, lz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cm, lx, lz), each missing part (None) derived from the parts given,
    which _check_parts passed and which gave reduced. NoSolutionError when
    given logical rows are dependent modulo the given Cm, or else C."""
    if cm is None and lx is None and lz is None:
        cm, pairs = _completion(reduced, n, p)
        return cm, *(np.array(part, dtype=np.int64).reshape(-1, 2 * n) for part in zip(*pairs))
    if cm is None:
        lz = _partners_of_x(stab, lx, n, p)
        cm = np.vstack([stab, lz])
    if lx is None and lz is None:
        lx, lz = _pairs_for_fixed_self_dual(stab, cm, n, p)
    elif lz is None:
        lz = (_solve_rows(symplectic_gram(lx, cm, p), p) @ cm) % p
    elif lx is None:
        # Two steps: x paired with Cm's own z rows, then against the given z
        # rows (one step from the candidates would give other x rows).
        lx = _biorthogonalize(_pairs_for_fixed_self_dual(stab, cm, n, p)[0], lz, p)
    return cm, lx, lz


def build_code(
    p: int, stabilizer, self_dual=None, logical_x=None, logical_z=None, *, n: int | None = None
) -> CodeSpec:
    """Assemble and validate a CodeSpec, deriving whatever parts are missing.

    The parts given are checked (_check_parts) before missing self_dual or
    logical rows are derived by self-dual completion, and the completed parts
    checked. Without self_dual rows the logical z rows extend C to Cm; with
    k = 0, Cm is C and no part is missing. Supplied logical pairs whose
    pairing matrix is diag(c_1..c_k) with c_i != 1 are accepted: each z_i is
    rescaled by 1/c_i (with a warning).
    """
    linalg.check_prime(p)
    stab = linalg.as_field(stabilizer, p)
    if n is None:
        n = stab.shape[1] // 2
    k = n - stab.shape[0]
    cm, lx, lz = (None if part is None else linalg.as_field(part, p) for part in (self_dual, logical_x, logical_z))
    if cm is not None and cm.shape[0] < n:
        # Accept documents that list only the rows extending the stabilizer.
        cm = np.vstack([stab, cm])
    if k == 0:
        lx, lz = (linalg.empty_basis(2 * n) if part is None else part for part in (lx, lz))
    _check_shapes(n, k, stab, cm, lx, lz)
    reduced, cm, lz = _check_parts(p, n, stab, cm, lx, lz, rescale=True)
    if lx is None or lz is None:
        try:
            cm, lx, lz = _derive(p, n, stab, reduced, cm, lx, lz)
        except NoSolutionError:
            part, space = ("x", "stabilizer" if cm is None else "self-dual") if lz is None else ("z", "stabilizer")
            raise ValidationError(f"logical {part} rows are linearly dependent modulo the {space} space") from None
        _validate(*_stacked_gram(stab, cm, lx, lz, p))
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


def _subset_lattice(code: CodeSpec, targets=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ranks, split, bases) of the system split_on_missing solves, for every
    share subset M of missing shares at once (share j is bit j-1 of M).

    Coordinate c (an a or b column of one share) has the row [G column c |
    targets column c]: the d = n-k stabilizer entries, then one per (q, 2n)
    target row (none without targets). M's system is the rows of M's
    coordinates. The bases of the subsets holding share j are copies of those
    of the subsets below 2^(j-1), with share j's two rows inserted. A basis
    has d slots and is reduced echelon on the stabilizer part: slot b is empty
    (zero) or holds a row that leads with 1 at b and is 0 at every other
    filled slot's lead. So a row is reduced by one product with the basis;
    if its stabilizer part is then nonzero it is scaled to lead with 1,
    cleared from the other slots and filed in the slot of its lead.

    ranks[M] counts M's filled slots, the rank of G on M's coordinates.
    split[M] is false once a row's stabilizer part reduces to zero while its
    target part does not: some target has no split on M. Where split[M]
    holds, bases[M][:, d:] is the coefficient of each stabilizer row in each
    target's split (q columns, zero on empty slots). The reduced form is
    unique, so these are split_on_missing's coefficients.

    Stored and eliminated in uint8: a cleared entry is below p + p(p-1) =
    p^2 <= 169 before its reduction mod p. A row's product with a basis sums
    in uint16, below p + d(p-1)^2 <= 13 + 15 * 144 under the enumeration
    guard. numpy divides unsigned arrays by a constant far faster than it
    takes their remainder, so x mod p is x - (x // p) p.
    """
    p, n, d = code.p, code.n, code.stabilizer.shape[0]
    if n > MAX_ENUMERATION_SHARES:
        raise TooLargeError(f"enumeration supports at most {MAX_ENUMERATION_SHARES} shares")
    rows = code.stabilizer if targets is None else np.vstack([code.stabilizer, targets])
    coordinates = rows.T.astype(np.uint16)
    negated = (p - coordinates[:, :d]) % p
    inv = linalg._inverses(p).astype(np.uint8)
    bases = np.zeros((1 << n, d, len(rows)), dtype=np.uint8)
    split = np.ones(1 << n, dtype=bool)
    for j in range(n):
        work, ok = bases[: 1 << j].copy(), split[: 1 << j].copy()
        for c in (j, j + n):
            v = negated[c] @ work + coordinates[c]
            v = (v - v // p * p).astype(np.uint8)
            filed = v[:, :d].any(axis=1)
            ok &= v[:, d:].any(axis=1) <= filed
            new = np.flatnonzero(filed)
            if not len(new):
                continue
            v, cleared, every = v[new], work[new], np.arange(len(new))
            lead = (v[:, :d] != 0).argmax(axis=1)
            v *= inv[v[every, lead]][:, None]
            v -= v // p * p
            cleared += (p - cleared[every, :, lead])[:, :, None] * v[:, None, :]
            cleared -= cleared // p * p
            cleared[every, lead] = v  # the empty slot, which clearing left zero
            work[new] = cleared
        bases[1 << j : 2 << j], split[1 << j : 2 << j] = work, ok
    return np.count_nonzero(bases[:, range(d), range(d)], axis=1), split, bases


def qualified_splits(code: CodeSpec, vecs) -> tuple[np.ndarray, np.ndarray]:
    """Every nonempty share set S on whose complement each of the (q, 2n)
    vecs splits, as (S, n) boolean membership rows in all_qualified_sets'
    order, and each set's split_on_missing coefficients, (S, q, n-k).

    For the 2k logical rows the sets are the qualified ones
    (circuits.plan_sets says why): one _subset_lattice pass qualifies every
    set and splits the rows on it. M = complement(S) is index 2^n - 1 - S, so
    S's flag is the reversed split table.
    """
    n, d = code.n, code.stabilizer.shape[0]
    _, split, bases = _subset_lattice(code, vecs)
    qualified = split[::-1].copy()
    qualified[0] = False
    rows = _listed(qualified, n)
    missing = ~rows @ (1 << np.arange(n))
    return rows, bases[missing, :, d:].transpose(0, 2, 1).astype(np.int64)


def _qualified_mask(code: CodeSpec) -> np.ndarray:
    """True at each nonempty qualified S, indexed as in _subset_lattice:
    erasing M = complement(S) is correctable when erasure_correctable's two
    ranks agree, (n-k) - r[S] == 2|M| - r[M]. M is index 2^n - 1 - S, so r[M]
    is the reversed table."""
    n = code.n
    ranks = _subset_lattice(code)[0]
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
    (_qualified_mask, from _subset_lattice without targets). A qualified set
    is minimal when no subset one share smaller contains a qualified set; two
    subset-OR sweeps decide that.
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
    return members_of(_listed(_qualified_mask(code), code.n))


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
