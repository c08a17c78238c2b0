import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qsshare
from qsshare import circuits, demo, linalg, pauli, symplectic
from qsshare.errors import CircuitParseError, NotCorrectableError

import oracles
from conftest import AVAILABLE, W1


def dense_gate(gate, p, m):
    """Independent dense operator for a gate on an m-qudit register."""
    dim = p**m
    w = np.exp(2j * np.pi / p)
    if gate.kind in ("F", "FINV"):
        f = np.array([[w ** (a * b) for a in range(p)] for b in range(p)]) / np.sqrt(p)
        mat = f if gate.kind == "F" else f.conj().T
        return embed(mat, gate.qudits[0], p, m)
    if gate.kind == "PPOW":
        (e,) = gate.params
        mat = np.diag([pauli.phase_value(e * j, p) for j in range(p)])
        return embed(mat, gate.qudits[0], p, m)
    if gate.kind == "PAULI":
        a, b = gate.params
        return embed(pauli.single_qudit_matrix(a, b, p), gate.qudits[0], p, m)
    c, t = gate.qudits
    a, b = gate.params
    sign = -1 if gate.kind == "CPAULIINV" else 1
    out = np.zeros((dim, dim), dtype=complex)
    site = pauli.PhasedPauli(p, 0, [a, b])
    for j in range(p):
        proj = np.zeros((p, p))
        proj[j, j] = 1
        term = embed(proj, c, p, m) @ embed(
            pauli.dense_matrix(pauli.pauli_pow(site, sign * j)), t, p, m
        )
        out += term
    return out


def embed(mat, q, p, m):
    out = np.array([[1.0 + 0j]])
    for pos in range(1, m + 1):
        out = np.kron(out, mat if pos == q else np.eye(p))
    return out


def dense_circuit(circuit):
    dim = circuit.p**circuit.num_qudits
    out = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        out = dense_gate(g, circuit.p, circuit.num_qudits) @ out
    return out


def test_decompose_empty_vector():
    assert circuits.controlled_pauli_decompose(3, np.zeros(8, dtype=int), 4) == []


def test_decompose_reference_supports():
    gates = circuits.controlled_pauli_decompose(7, W1, 6)
    assert [g.qudits[1] for g in gates] == [3, 4, 5, 6]
    assert all(g.qudits[0] == 7 for g in gates)


def test_decompose_matches_dense_controlled_operator():
    rng = np.random.default_rng(67)
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        vec = rng.integers(0, p, size=2 * n)
        for inverse in (False, True):
            gates = circuits.controlled_pauli_decompose(n + 1, vec, n, inverse=inverse)
            circ = circuits.Circuit(
                p=p,
                num_qudits=n + 1,
                roles=circuits.share_roles(n, 1),
                gates=tuple(gates),
            )
            got = dense_circuit(circ)
            dim = p**n
            expected = np.zeros((dim * p, dim * p), dtype=complex)
            M = pauli.pauli_from_vec(vec, p)
            for j in range(p):
                proj = np.zeros((p, p))
                proj[j, j] = 1
                block = pauli.dense_matrix(pauli.pauli_pow(M, -j if inverse else j))
                # shares-first layout: pattern on the leading factor, control trails
                expected += np.kron(block, proj)
            assert np.abs(got - expected).max() < 1e-12


def test_controlled_scalar_equivalence():
    # PPOW(control) followed by controlled-U equals controlled-(scalar * U)
    rng = np.random.default_rng(71)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        e = int(rng.integers(0, pauli.phase_order(p)))
        a, b = int(rng.integers(0, p)), int(rng.integers(0, p))
        m = 2
        circ = circuits.Circuit(
            p=p,
            num_qudits=m,
            roles=circuits.share_roles(1, 1),
            gates=(circuits.phase_pow(2, e), circuits.controlled_pauli(2, 1, a, b)),
        )
        got = dense_circuit(circ)
        scalar = pauli.phase_value(e, p)
        site = pauli.PhasedPauli(p, 0, [a, b])
        expected = np.zeros((p * p, p * p), dtype=complex)
        for j in range(p):
            proj = np.zeros((p, p))
            proj[j, j] = 1
            block = scalar**j * pauli.dense_matrix(pauli.pauli_pow(site, j))
            expected += np.kron(block, proj)
        assert np.abs(got - expected).max() < 1e-12


def test_plan_reference_counts_and_support(hexcode, hexconv):
    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    circ = circuits.synthesize_reconstruction(plan)
    assert circ.two_qudit_count() == 15
    assert circ.two_qudit_count() <= 2 * hexcode.k * len(AVAILABLE)
    counts = circ.counts()
    assert counts["PPOW"] == 2 * hexcode.k
    assert counts["F"] == 2 * hexcode.k
    touched = circ.touched_qudits()
    assert touched.isdisjoint({1, 2})
    assert {3, 4, 5, 6, 7, 8} == touched


def test_plan_localized_patterns_validate(hexcode, hexconv):
    from qsshare import linalg

    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    dual_basis = symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p)
    for i in range(hexcode.k):
        assert linalg.row_space_contains(dual_basis, plan.w[0, i], 3)
        assert linalg.row_space_contains(hexcode.self_dual, plan.y[0, i], 3)
        assert not symplectic.project_vector(plan.w[0, i], (1, 2), 6).any()
        assert not symplectic.project_vector(plan.y[0, i], (1, 2), 6).any()


def test_plan_full_share_set_trivial_splits(hexcode, hexconv):
    plan = circuits.plan_reconstruction(hexcode, hexconv, tuple(range(1, 7)))
    for i in range(hexcode.k):
        assert not plan.u[0, i].any()
        assert not plan.v[0, i].any()
        assert plan.beta[0, i] == 0 and plan.gamma[0, i] == 0
        assert plan.eta_u[0, i] == 0 and plan.eta_v[0, i] == 0


def test_plan_rejects_unqualified(hexcode, hexconv):
    with pytest.raises(NotCorrectableError):
        circuits.plan_reconstruction(hexcode, hexconv, (1, 2, 3))
    with pytest.raises(NotCorrectableError):
        circuits.plan_reconstruction(hexcode, hexconv, (1, 2))
    with pytest.raises(NotCorrectableError):
        circuits.plan_reconstruction(hexcode, hexconv, ())


def test_plan_indexing_gives_one_set_views(hexcode, hexconv):
    sets = [(3, 4, 5, 6), (1, 2, 3, 4), (2, 3, 5, 6)]
    plan = circuits.plan_sets(hexcode, hexconv, sets)
    assert len(plan) == 3 and plan.available == tuple(sets)
    assert [one.available for one in plan] == [(members,) for members in sets]
    for s in (1, -2):
        one = plan[s]
        assert len(one) == 1 and one.available == (sets[1],)
        assert one.w.shape == (1, hexcode.k, 2 * hexcode.n) and one.beta.shape == (1, hexcode.k)
        assert np.shares_memory(one.w, plan.w) and np.shares_memory(one.step6_exponents, plan.step6_exponents)
    for s in (3, -4):
        with pytest.raises(IndexError):
            plan[s]


def test_synthesis_refuses_a_plan_of_several_sets(hexcode, hexconv):
    plan = circuits.plan_sets(hexcode, hexconv, [(3, 4, 5, 6), (1, 2, 3, 4)])
    for several in (plan, circuits.plan_sets(hexcode, hexconv, [])):
        with pytest.raises(ValueError, match="one-set plan"):
            circuits.synthesize_reconstruction(several)
    one = circuits.plan_reconstruction(hexcode, hexconv, (1, 2, 3, 4))
    assert circuits.synthesize_reconstruction(plan[1]) == circuits.synthesize_reconstruction(one)


# (p, n, k): with code seeds 0 and 1, 2,032 subsets, 120 of them sets whose
# logical x rows split and whose z rows do not, 54 the other way round
QUALIFICATION_SHAPES = (
    (2, 6, 1), (2, 7, 2), (2, 8, 2), (2, 8, 3), (3, 5, 1), (3, 6, 2),
    (3, 7, 2), (5, 4, 1), (5, 5, 2), (7, 3, 1), (7, 4, 1), (7, 4, 2),
)


@pytest.mark.parametrize(
    "shape", [None, *QUALIFICATION_SHAPES], ids=lambda s: "bundled" if s is None else "p%dn%dk%d" % s
)
def test_plan_qualification_matches_erasure_correctable(shape):
    # every subset, the empty one included
    codes = (
        [demo.six_share_qutrit_code()]
        if shape is None
        else [symplectic.random_self_orthogonal_code(*shape, seed) for seed in (0, 1)]
    )
    for code in codes:
        conv = pauli.make_convention(code)
        n = code.n
        for members in (J for size in range(n + 1) for J in combinations(range(1, n + 1), size)):
            qualified = symplectic.erasure_correctable(code, symplectic.complement(members, n))
            try:
                circuits.plan_reconstruction(code, conv, members)
            except NotCorrectableError:
                assert not qualified, members
            else:
                assert qualified, members


def test_dealer_counts_for_k0_code():
    code = symplectic.random_self_orthogonal_code(2, 4, 0, 1)
    conv = pauli.make_convention(code)
    circ = circuits.synthesize_dealer(code, conv)
    assert circ.gates == ()


def test_synthesized_circuits_are_unitary(hexcode, hexconv):
    code = symplectic.random_self_orthogonal_code(3, 3, 1, 9)
    conv = pauli.make_convention(code)
    for circ in (
        circuits.synthesize_dealer(code, conv),
        circuits.synthesize_reconstruction(circuits.plan_reconstruction(code, conv, tuple(range(1, 4)))),
    ):
        U = dense_circuit(circ)
        assert np.abs(U @ U.conj().T - np.eye(U.shape[0])).max() < 1e-10


def test_reconstruction_inverts_dealer_dense():
    # steps 2-6 of reconstruction equal the dagger of the dealer's two stages
    # when every share is available, as full dense operators
    for p, n, k, seed in ((3, 3, 1, 5), (2, 3, 1, 3), (2, 4, 2, 6)):
        code = symplectic.random_self_orthogonal_code(p, n, k, seed)
        conv = pauli.make_convention(code)
        dealer = dense_circuit(circuits.synthesize_dealer(code, conv))
        plan = circuits.plan_reconstruction(code, conv, tuple(range(1, n + 1)))
        recon = circuits.synthesize_reconstruction(plan)
        tail = circuits.Circuit(
            p=p,
            num_qudits=n + k,
            roles=recon.roles,
            gates=recon.gates[k:],  # skip the ancilla-preparation Fouriers
        )
        assert np.abs(dense_circuit(tail) - dealer.conj().T).max() < 1e-9


def test_emit_parse_round_trip(hexcode, hexconv):
    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    circ = circuits.synthesize_reconstruction(plan)
    text = circuits.emit_circuit(circ)
    parsed = circuits.parse_circuit(text)
    assert parsed == circ
    assert circuits.emit_circuit(parsed) == text


def test_emit_empty_circuit_round_trip():
    circ = circuits.Circuit(p=3, num_qudits=2, roles=circuits.share_roles(2, 0), gates=())
    parsed = circuits.parse_circuit(circuits.emit_circuit(circ))
    assert parsed == circ


@st.composite
def valid_circuits(draw):
    p = draw(st.sampled_from(linalg.SUPPORTED_PRIMES))
    num = draw(st.integers(0, 5))
    roles = tuple(
        (draw(st.sampled_from(("share", "ancilla"))), draw(st.integers(1, 20))) for _ in range(num)
    )
    kinds = [kind for kind in circuits.GATE_KINDS if num >= 2 or kind not in ("CPAULI", "CPAULIINV")]
    gates = []
    for _ in range(draw(st.integers(0, 8)) if num else 0):
        kind = draw(st.sampled_from(kinds))
        qudits = draw(st.permutations(range(1, num + 1)))[: 2 if kind in ("CPAULI", "CPAULIINV") else 1]
        bound = pauli.phase_order(p) if kind == "PPOW" else p
        arity = {"F": 0, "FINV": 0, "PPOW": 1}.get(kind, 2)
        params = tuple(draw(st.integers(0, bound - 1)) for _ in range(arity))
        gates.append(circuits.Gate(kind, tuple(qudits), params))
    return circuits.Circuit(p=p, num_qudits=num, roles=roles, gates=tuple(gates))


@given(valid_circuits())
def test_parse_inverts_emit_on_random_circuits(circ):
    text = circuits.emit_circuit(circ)
    assert circuits.parse_circuit(text) == circ
    assert circuits.emit_circuit(circuits.parse_circuit(text)) == text


@given(st.binary(max_size=300))
def test_parse_rejects_byte_garbage(raw):
    with pytest.raises(CircuitParseError):
        circuits.parse_circuit(raw.decode("latin-1"))


# A directive, then a few tokens: near-miss lines that reach past the tokenizer.
_CIRCUIT_LINES = st.builds(
    lambda head, rest: " ".join([head, *rest]),
    st.sampled_from(["p", "qudits", "role", "gate", "#", "x"]),
    st.lists(
        st.sampled_from(["share", "ancilla", *circuits.GATE_KINDS, "-1", "+1", "0_1", "\u0661", "0", "1", "2",
                     "3", "4", "x"]),
        max_size=5,
    ),
)


@given(st.lists(_CIRCUIT_LINES, max_size=8))
def test_parse_of_token_garbage_fails_cleanly_or_round_trips(lines):
    text = "\n".join(["QSSCIRC 1", *lines])
    try:
        circ = circuits.parse_circuit(text)
    except CircuitParseError:
        return
    assert circuits.parse_circuit(circuits.emit_circuit(circ)) == circ


def test_parse_rejects_negative_qudit_count():
    with pytest.raises(CircuitParseError) as err:
        circuits.parse_circuit("QSSCIRC 1\np 3\nqudits -1\n")
    assert err.value.line_no == 3


def test_parse_rejects_malformed_gate():
    text = "QSSCIRC 1\np 3\nqudits 2\nrole 1 share 1\nrole 2 share 2\ngate PPOW 1\n"
    with pytest.raises(CircuitParseError) as err:
        circuits.parse_circuit(text)
    assert err.value.line_no == 6


def test_parse_rejects_bad_header():
    with pytest.raises(CircuitParseError):
        circuits.parse_circuit("NOTAFORMAT 1\n")


def test_parse_allows_comments(hexconv, hexcode):
    text = "QSSCIRC 1\n# comment\np 3\nqudits 1\nrole 1 share 1\ngate F 1  # fourier\n"
    circ = circuits.parse_circuit(text)
    assert circ.gates == (circuits.fourier(1),)


_ROLES = "role 1 share 1\nrole 2 share 2\n"


@pytest.mark.parametrize(
    "body, line_no",
    [
        ("p 3\nqudits 2\n" + _ROLES + "role 3 share 3\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "role 0 share 0\n", 6),
        ("p 3\np 3\nqudits 2\n" + _ROLES, 3),
        ("p 3\nqudits 2\nqudits 2\n" + _ROLES, 4),
        ("p 3\nqudits 2\n" + _ROLES + "role 2 ancilla 1\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate CPAULI 1 2 3 0\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate CPAULIINV 1 2 0 -1\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate PAULI 1 1 5\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate PPOW 1 -4\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate PPOW 1 3\n", 6),
        ("p 2\nqudits 2\n" + _ROLES + "gate PPOW 1 4\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate CPAULI 1 1 1 0\n", 6),
        ("p 3\nqudits 2\n" + _ROLES + "gate F 3\n", 6),
        ("p 3\nqudits 2\nrole 1 share 1\nrole 2 bogus 2\n", 5),
        ("p 3\nqudits 2\nrole 1 share -7\nrole 2 share 2\n", 4),
        ("p 3\nqudits 2\nrole 1 share 1\nrole 2 ancilla 0\n", 5),
    ],
    ids=[
        "role-past-register", "role-zero", "repeated-p", "repeated-qudits", "repeated-role",
        "a-equals-p", "b-negative", "pauli-b-past-p", "ppow-negative", "ppow-equals-p",
        "ppow-past-ring-p2", "control-equals-target", "gate-past-register",
        "role-kind-unknown", "role-index-negative", "role-index-zero",
    ],
)
def test_parse_rejects_noncanonical_documents(body, line_no):
    with pytest.raises(CircuitParseError) as err:
        circuits.parse_circuit("QSSCIRC 1\n" + body)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("token", ("+1", "0_1", "\u0661", "\uff11"))  # int() takes each
@pytest.mark.parametrize(
    "template, line_no",
    [
        ("p {}\nqudits 1\nrole 1 share 1\n", 2),
        ("p 3\nqudits {}\nrole 1 share 1\n", 3),
        ("p 3\nqudits 1\nrole {} share 1\n", 4),
        ("p 3\nqudits 1\nrole 1 share {}\n", 4),
        ("p 3\nqudits 1\nrole 1 share 1\ngate PPOW {} 1\n", 5),
        ("p 3\nqudits 1\nrole 1 share 1\ngate PAULI 1 {} 0\n", 5),
    ],
    ids=["p", "qudits", "role-qudit", "role-index", "gate-qudit", "gate-parameter"],
)
def test_parse_rejects_integers_not_written_in_ascii_decimal(template, line_no, token):
    with pytest.raises(CircuitParseError) as err:
        circuits.parse_circuit("QSSCIRC 1\n" + template.format(token))
    assert err.value.line_no == line_no
    assert "not a decimal integer" in str(err.value)


def test_parse_accepts_qubit_phase_ring():
    circ = circuits.parse_circuit("QSSCIRC 1\np 2\nqudits 2\n" + _ROLES + "gate PPOW 1 3\n")
    assert circ.gates == (circuits.phase_pow(1, 3),)


def test_control_equal_target_rejected_by_gate():
    for kind in ("CPAULI", "CPAULIINV"):
        with pytest.raises(ValueError):
            circuits.Gate(kind, (2, 2), (1, 0))


def test_plan_splits_every_logical_row_with_one_solve(monkeypatch, hexcode, hexconv):
    # a one-set plan's split is one elimination (one rref of the stacked
    # system) when the set misses a share, and none for J = every share
    plan, solve = circuits.plan_reconstruction, linalg.rref
    counts = {"plan": 0, "solve": 0}
    depth = []

    def counting_plan(*args):
        counts["plan"] += 1
        depth.append(1)
        try:
            return plan(*args)
        finally:
            depth.pop()

    def counting_solve(*args):
        counts["solve"] += bool(depth)
        return solve(*args)

    monkeypatch.setattr(circuits, "plan_reconstruction", counting_plan)
    monkeypatch.setattr(linalg, "rref", counting_solve)
    sets = symplectic.all_qualified_sets(hexcode)
    plans = [circuits.plan_reconstruction(hexcode, hexconv, members) for members in sets]
    monkeypatch.undo()
    assert tuple(range(1, hexcode.n + 1)) in sets
    assert counts == {"plan": len(sets), "solve": len(sets) - 1} == {"plan": 22, "solve": 21}
    # the stacked split equals one split per row
    for one in plans:
        missing = symplectic.complement(one.available[0], hexcode.n)
        for i in range(hexcode.k):
            for row, s, r in (
                (hexcode.logical_x[i], one.u[0, i], one.w[0, i]),
                (hexcode.logical_z[i], one.v[0, i], one.y[0, i]),
            ):
                s0, r0, _ = symplectic.split_on_missing(hexcode, row, missing)
                assert np.array_equal(s, s0) and np.array_equal(r, r0)


def test_a_plan_is_not_an_array(hexcode, hexconv):
    # a plan's items are plans again; numpy is told so instead of recursing
    plan = circuits.plan_sets(hexcode, hexconv, symplectic.all_qualified_sets(hexcode)[:2])
    for convert in (np.asarray, np.array, np.shape):
        for value in (plan, plan[0]):
            with pytest.raises(TypeError, match=r"array fields are w, y, u, v, .*step6_exponents$"):
                convert(value)
    assert np.asarray(plan.w).shape == (2, hexcode.k, 2 * hexcode.n)


def test_analysis_and_synthesis_never_import_the_simulator():
    script = """
import sys
import qsshare
from qsshare import circuits, pauli, symplectic
code = symplectic.random_self_orthogonal_code(3, 5, 1, 0)
conv = pauli.make_convention(code)
for members in symplectic.all_qualified_sets(code):
    circuits.synthesize_reconstruction(circuits.plan_reconstruction(code, conv, members))
assert "qsshare.sim" not in sys.modules
from qsshare import *
assert "qsshare.sim" not in sys.modules and "sim" in dir(qsshare) and "StateVector" not in dir(qsshare)
assert entanglement_fidelity is qsshare.entanglement_fidelity is qsshare.certify.entanglement_fidelity
assert qsshare.sim.StateVector.__module__ == "qsshare.sim"
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsshare.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


# The benchmark's six grid codes (perfbench/workloads.py). Every qualified set
# is planned on those within 12 shares; the 15- and 16-share codes have
# 5,427 and more qualified sets (the 16-share one is past the enumeration
# guard), so 200 qualified sets of each are drawn.
PLAN_GRID = ((2, 12, 2, 0), (3, 10, 2, 0), (3, 10, 2, 3), (5, 6, 2, 0), (2, 15, 3, 2), (2, 16, 2, 0))


def _drawn_qualified_sets(code, count, seed):
    rng = np.random.default_rng(seed)
    found = set()
    while len(found) < count:
        members = tuple(sorted(int(i) + 1 for i in np.flatnonzero(rng.random(code.n) < 0.75)))
        if members and symplectic.erasure_correctable(code, symplectic.complement(members, code.n)):
            found.add(members)
    return sorted(found)


@pytest.mark.parametrize("which", ["bundled", *PLAN_GRID], ids=str)
def test_plan_equals_the_per_row_computation(which):
    code = demo.six_share_qutrit_code() if which == "bundled" else symplectic.random_self_orthogonal_code(*which)
    conv = pauli.make_convention(code)
    sets = symplectic.all_qualified_sets(code) if code.n <= 12 else _drawn_qualified_sets(code, 200, code.n)
    for members in sets:
        plan = circuits.plan_reconstruction(code, conv, members)
        expected = oracles.plan_per_row(code, conv, members)
        assert (plan.p, plan.n, plan.k, plan.available) == (code.p, code.n, code.k, (members,))
        for name, rows in expected.items():
            got = getattr(plan, name)
            patterns = name in ("w", "y", "u", "v")
            assert got.dtype == np.int64 and got.shape == (1, code.k, 2 * code.n)[: 3 if patterns else 2], name
            assert np.array_equal(got[0], np.array(rows)), (name, members)
