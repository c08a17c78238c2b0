"""Gate-level synthesis of dealer encoding and share reconstruction.

Registers are laid out shares-first: qudits 1..n carry the shares (erased
ones stay present but are never addressed), qudits n+1..n+k carry the
message/ancilla register. Gate kinds:

    F q            Fourier |a> -> p^{-1/2} sum_b w_p^{ab} |b>
    FINV q         inverse Fourier
    PPOW q e       e-th power of the phase gate P = diag(w^j): Z for p >= 3,
                   sqrt(Z) for p = 2 (exponent lives in the phase ring)
    CPAULI c t a b     sum_j |j><j|_c x (X^a Z^b)_t^j
    CPAULIINV c t a b  sum_j |j><j|_c x (X^a Z^b)_t^{-j}
    PAULI q a b    single-qudit X^a Z^b

All scalar corrections ride on control qudits as PPOW gates: controlled-(c U)
equals PPOW(control, e(c)) followed by controlled-U, which keeps the
two-qudit gates phase-free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli, symplectic
from .errors import CircuitParseError, NoSolutionError, NotCorrectableError
from .specfile import parse_decimal

# kind -> (qudits, parameters)
_GATE_ARITY = {"F": (1, 0), "FINV": (1, 0), "PPOW": (1, 1), "CPAULI": (2, 2), "CPAULIINV": (2, 2), "PAULI": (1, 2)}
GATE_KINDS = tuple(_GATE_ARITY)
TWO_QUDIT_KINDS = tuple(kind for kind, (qudits, _) in _GATE_ARITY.items() if qudits == 2)


@dataclass(frozen=True)
class Gate:
    kind: str
    qudits: tuple[int, ...]
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (len(self.qudits), len(self.params)) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes (qudits, parameters) {_GATE_ARITY[self.kind]}, not {self}")
        if self.is_two_qudit() and self.qudits[0] == self.qudits[1]:
            raise ValueError("control and target must differ")

    def is_two_qudit(self) -> bool:
        return self.kind in TWO_QUDIT_KINDS


def fourier(q: int) -> Gate:
    return Gate("F", (q,))


def fourier_inv(q: int) -> Gate:
    return Gate("FINV", (q,))


def phase_pow(q: int, e: int) -> Gate:
    return Gate("PPOW", (q,), (int(e),))


def controlled_pauli(c: int, t: int, a: int, b: int) -> Gate:
    return Gate("CPAULI", (c, t), (int(a), int(b)))


def controlled_pauli_inv(c: int, t: int, a: int, b: int) -> Gate:
    return Gate("CPAULIINV", (c, t), (int(a), int(b)))


@dataclass(frozen=True)
class Circuit:
    p: int
    num_qudits: int
    roles: tuple[tuple[str, int], ...]
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if len(self.roles) != self.num_qudits:
            raise ValueError("one role per qudit required")
        for g in self.gates:
            for q in g.qudits:
                if not 1 <= q <= self.num_qudits:
                    raise ValueError(f"gate {g} addresses qudit {q} outside the register")

    def touched_qudits(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out.update(g.qudits)
        return out

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in GATE_KINDS}
        for g in self.gates:
            out[g.kind] += 1
        return out

    def two_qudit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qudit())

    def single_qudit_count(self) -> int:
        return sum(1 for g in self.gates if not g.is_two_qudit())


def share_roles(n: int, k: int) -> tuple[tuple[str, int], ...]:
    return tuple(("share", i) for i in range(1, n + 1)) + tuple(
        ("ancilla", i) for i in range(1, k + 1)
    )


def controlled_pauli_decompose(control: int, vec, n: int, *, inverse: bool = False) -> list[Gate]:
    """Per-share controlled gates realizing controlled-M(vec) (or its inverse).

    The tensor factors of M(vec)^j carry no cross-site phases, so one
    two-qudit gate per support index reproduces sum_j |j><j| x M(vec)^{+-j}
    exactly. Targets are emitted in ascending share order.
    """
    a, b = symplectic.split_parts(vec, n)
    kind = "CPAULIINV" if inverse else "CPAULI"
    return [Gate(kind, (control, t), (x, z)) for t, (x, z) in enumerate(zip(a.tolist(), b.tolist()), start=1) if x or z]


# ---------------------------------------------------------------------------
# reconstruction planning


@dataclass(eq=False)  # compared by identity, as its convention is
class ReconstructionPlan:
    """Everything the available coalitions need to rebuild the secret, for S
    share sets of one code at once, each array with a leading sets axis.

    code is that code and convention its pauli.make_convention, in which
    every phase below is read. For each set s and secret qudit i: localized
    patterns w[s, i] (dual side) and y[s, i] (self-dual side) supported on
    the set's shares available[s]; the stabilizer parts u[s, i], v[s, i]
    they were split against; the relative phases beta, gamma; the code-space
    eigenvalue exponents eta_u, eta_v of M(u) and M(v); and the two ancilla
    phase-gate exponents assembled from them. The patterns are (S, k, 2n),
    the phases and exponents (S, k). len(plan) is S, and plan[s] is set s's
    one-set plan, of views.
    """

    code: symplectic.CodeSpec
    convention: pauli.EncodingConvention
    available: tuple[tuple[int, ...], ...]
    w: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    eta_u: np.ndarray
    eta_v: np.ndarray
    step3_exponents: np.ndarray
    step6_exponents: np.ndarray

    def __len__(self) -> int:
        return len(self.available)

    def __getitem__(self, s: int) -> ReconstructionPlan:
        s = range(len(self))[s]  # a slice past the end would be empty, not an IndexError
        per_set = dataclasses.fields(self)[2:]  # every field after code and convention
        return dataclasses.replace(self, **{field.name: getattr(self, field.name)[s : s + 1] for field in per_set})

    def __iter__(self):
        return (self[s] for s in range(len(self)))

    def __array__(self, dtype=None, copy=None):
        # without it numpy reads a plan as a sequence whose items are plans
        # again, and recurses to its dimension limit
        arrays = ", ".join(field.name for field in dataclasses.fields(self)[3:])
        raise TypeError(f"a ReconstructionPlan is not an array; its array fields are {arrays}")


def plan_reconstruction(code, available) -> ReconstructionPlan:
    """The one-set plan of the share set `available`: plan_sets of [available]."""
    return plan_sets(code, [available])


def plan_sets(code, sets) -> ReconstructionPlan:
    """Build the reconstruction data of every share set in `sets`, in order.

    Raises NotCorrectableError, naming the first, when a set is not qualified
    (this is the only signal; no partial plan is produced). Qualification is
    read from the split itself, the rule symplectic._qualified_mask states:
    each set's logical rows are split by symplectic.split_on_missing, one
    elimination for a set that misses a share and none for every share.
    """
    n = code.n
    available = tuple(symplectic.share_set(members, n) for members in sets)
    _check_k(code)
    if not all(available):
        raise NotCorrectableError("empty share set cannot reconstruct")
    logical = symplectic.logical_rows(code)
    coeffs = np.zeros((len(available), len(logical), code.stabilizer.shape[0]), dtype=np.int64)
    for s, members in enumerate(available):
        try:
            coeffs[s] = symplectic.split_on_missing(code, logical, symplectic.complement(members, n))[2]
        except NoSolutionError:
            raise NotCorrectableError(f"shares {members} are not a qualified set") from None
    return _assemble(code, available, coeffs)


def plan_all_qualified(code) -> ReconstructionPlan:
    """plan_sets of every qualified set, in all_qualified_sets' order: a
    verify sweep. One symplectic.qualified_splits pass finds the sets and
    splits the logical rows on each."""
    _check_k(code)
    rows, coeffs = symplectic.qualified_splits(code)
    return _assemble(code, tuple(symplectic.members_of(rows)), coeffs)


def _check_k(code) -> None:
    if code.k < 1:
        raise ValueError("nothing to reconstruct for a k = 0 code")


def _assemble(code, available, coeffs) -> ReconstructionPlan:
    """The plan of the given sets from the split coefficients of
    symplectic.logical_rows, (S, 2k, n-k): each logical row t = s + r, with
    s = c G in the stabilizer space and r supported on the set."""
    p, n, k = code.p, code.n, code.k
    convention = pauli.make_convention(code)
    stab_parts = coeffs @ code.stabilizer % p
    local_parts = (symplectic.logical_rows(code) - stab_parts) % p
    ring = pauli.phase_order(p)
    # M(target) = w^phase M(local) M(stab), phase = -kappa (stab_a . local_b)
    # by pauli_mul's cross term: beta for the x rows, gamma for the z rows
    kappa = 2 if p == 2 else 1
    phases = -kappa * (stab_parts[..., :n] * local_parts[..., n:]).sum(axis=-1) % ring
    etas = convention.stabilizer_exponents(coeffs.reshape(phases.size, coeffs.shape[-1])).reshape(phases.shape)
    alpha = np.array(convention.alpha_exponents, dtype=np.int64)
    step3 = (alpha - phases[:, k:] - etas[:, k:]) % ring  # -(alpha^-1 + gamma + eta_v)
    step6 = (-alpha - phases[:, :k] - etas[:, :k]) % ring  # -(alpha + beta + eta_u)
    return ReconstructionPlan(
        code=code, convention=convention, available=available,
        w=local_parts[:, :k], y=local_parts[:, k:], u=stab_parts[:, :k], v=stab_parts[:, k:],
        beta=phases[:, :k], gamma=phases[:, k:], eta_u=etas[:, :k], eta_v=etas[:, k:],
        step3_exponents=step3, step6_exponents=step6,
    )


def reconstruction_steps(plan: ReconstructionPlan) -> list[tuple[str, int, np.ndarray | None]]:
    """The six steps of the reconstruction circuit of each of the plan's sets,
    in circuit order, as (kind, ancilla qudit, per-set parameter).

    Steps: (1) Fourier on every ancilla, (2) inverse controlled self-dual
    patterns y_t, (3) ancilla phase powers, (4) Fourier on every ancilla again,
    (5) inverse controlled dual patterns w_t, (6) ancilla phase powers. Ancilla
    t is qudit n + t. A Fourier step has no parameter, a CPAULIINV step the
    sets' (S, 2n) patterns and a PPOW step their (S,) exponents.
    """
    anc = range(plan.code.n + 1, plan.code.n + plan.code.k + 1)
    steps = []
    for patterns, exponents in ((plan.y, plan.step3_exponents), (plan.w, plan.step6_exponents)):
        steps += [("F", q, None) for q in anc]
        steps += [("CPAULIINV", q, patterns[:, t]) for t, q in enumerate(anc)]
        steps += [("PPOW", q, exponents[:, t]) for t, q in enumerate(anc)]
    return steps


def synthesize_reconstruction(plan: ReconstructionPlan) -> Circuit:
    """Emit the measurement-free reconstruction circuit of a one-set plan: its
    reconstruction_steps, each controlled pattern one two-qudit gate per share
    in its support. No gate addresses a share outside the available set.
    """
    if len(plan) != 1:
        raise ValueError(f"a circuit is synthesized from a one-set plan, not one of {len(plan)} sets")
    p, n, k = plan.code.p, plan.code.n, plan.code.k
    gates: list[Gate] = []
    for kind, q, param in reconstruction_steps(plan):
        if kind == "CPAULIINV":
            gates.extend(controlled_pauli_decompose(q, param[0], n, inverse=True))
        else:
            gates.append(fourier(q) if param is None else phase_pow(q, param[0]))
    return Circuit(p=p, num_qudits=n + k, roles=share_roles(n, k), gates=tuple(gates))


def synthesize_dealer(code) -> Circuit:
    """Emit the dealer's two encoding stages on a shares+message register.

    Stage one applies controlled logical-x patterns (with alpha as a control
    phase); stage two applies the inverse Fourier on each message qudit and
    the controlled logical-z patterns (with 1/alpha). Logical-zero
    preparation is not a gate sequence here; the simulator supplies it.
    """
    p, n, k = code.p, code.n, code.k
    convention = pauli.make_convention(code)
    msg = [n + 1 + i for i in range(k)]
    gates: list[Gate] = []
    for i in range(k):
        e = convention.alpha_exponents[i]
        if e:
            gates.append(phase_pow(msg[i], e))
        gates.extend(controlled_pauli_decompose(msg[i], code.logical_x[i], n))
    for i in range(k):
        gates.append(fourier_inv(msg[i]))
    for i in range(k):
        e = convention.alpha_inverse_exponent(i)
        if e:
            gates.append(phase_pow(msg[i], e))
        gates.extend(controlled_pauli_decompose(msg[i], code.logical_z[i], n))
    return Circuit(p=p, num_qudits=n + k, roles=share_roles(n, k), gates=tuple(gates))


# ---------------------------------------------------------------------------
# text format


FORMAT_MAGIC = "QSSCIRC"
FORMAT_VERSION = 1


def emit_circuit(circuit: Circuit) -> str:
    """Serialize to the line-based QSSCIRC text format (round-trip exact)."""
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"p {circuit.p}", f"qudits {circuit.num_qudits}"]
    for q, (kind, idx) in enumerate(circuit.roles, start=1):
        lines.append(f"role {q} {kind} {idx}")
    for g in circuit.gates:
        fields = [str(v) for v in (*g.qudits, *g.params)]
        lines.append(f"gate {g.kind} {' '.join(fields)}".rstrip())
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the QSSCIRC text format; '#' starts a comment.

    Strict, so emitting a parsed circuit is canonical: every integer is
    written in ASCII decimal digits, 'p', 'qudits' and each 'role q' appear
    once, roles and gates address qudits in 1..qudits, a role is 'share i' or
    'ancilla i' with i >= 1, a and b lie in [0, p) and PPOW exponents in
    [0, phase_order(p)).
    """
    header: dict[str, int] = {}
    roles: dict[int, tuple[int, tuple[str, int]]] = {}
    gates: list[tuple[int, Gate]] = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not header_seen:
            if fields != [FORMAT_MAGIC, str(FORMAT_VERSION)]:
                raise CircuitParseError(line_no, f"expected header '{FORMAT_MAGIC} {FORMAT_VERSION}'")
            header_seen = True
            continue
        key = fields[0]
        try:
            if key in ("p", "qudits"):
                if key in header:
                    raise CircuitParseError(line_no, f"repeated {key!r} directive")
                value = parse_decimal(fields[1])
                header[key] = linalg.check_prime(value) if key == "p" else value
            elif key == "role":
                q = parse_decimal(fields[1])
                if q in roles:
                    raise CircuitParseError(line_no, f"repeated role for qudit {q}")
                role = (fields[2], parse_decimal(fields[3]))
                if role[0] not in ("share", "ancilla") or role[1] < 1:
                    raise CircuitParseError(line_no, "role must be 'share i' or 'ancilla i' with i >= 1")
                roles[q] = (line_no, role)
            elif key == "gate":
                kind = fields[1]
                if kind not in _GATE_ARITY:
                    raise CircuitParseError(line_no, f"unknown gate kind {kind!r}")
                nq, np_ = _GATE_ARITY[kind]
                args = [parse_decimal(v) for v in fields[2:]]
                if len(args) != nq + np_:
                    raise CircuitParseError(line_no, f"{kind} takes {nq + np_} integers")
                gates.append((line_no, Gate(kind, tuple(args[:nq]), tuple(args[nq:]))))
            else:
                raise CircuitParseError(line_no, f"unknown directive {key!r}")
        except CircuitParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise CircuitParseError(line_no, f"malformed line: {exc}") from exc
    if "p" not in header or "qudits" not in header:
        raise CircuitParseError(0, "missing 'p' or 'qudits' directive")
    p, num = header["p"], header["qudits"]
    for q, (line_no, _) in roles.items():
        if not 1 <= q <= num:
            raise CircuitParseError(line_no, f"role for qudit {q} outside 1..{num}")
    if len(roles) != num:
        missing = next(q for q in range(1, num + 1) if q not in roles)
        raise CircuitParseError(0, f"missing role for qudit {missing}")
    for line_no, g in gates:
        if not all(1 <= q <= num for q in g.qudits):
            raise CircuitParseError(line_no, f"gate {g.kind} addresses a qudit outside 1..{num}")
        bound = pauli.phase_order(p) if g.kind == "PPOW" else p
        if not all(0 <= v < bound for v in g.params):
            raise CircuitParseError(line_no, f"gate {g.kind} parameters must lie in [0, {bound})")
    role_list = tuple(roles[q][1] for q in range(1, num + 1))
    return Circuit(p=p, num_qudits=num, roles=role_list, gates=tuple(g for _, g in gates))
