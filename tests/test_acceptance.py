"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values follow the dense-matrix oracle, which every phase
quantity here is cross-checked against.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from qsshare import circuits, cli, linalg, pauli, sim, symplectic
from qsshare.errors import NotCorrectableError

import oracles
from conftest import (
    AVAILABLE,
    H_ROWS,
    U1,
    V1,
    V2,
    W1,
    W2,
    X_ROWS,
    Y1,
    Y2,
    Z_ROWS,
)

TOL_END_TO_END = 1e-9
TOL_ORACLE = 1e-12
TOL_DENSE_CROSS = 1e-10


def _announce(num: int, name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_reference_code_reproduction(hexcode):
    started = time.monotonic()
    code = hexcode
    assert code.stabilizer.shape[0] == 4
    assert linalg.rank(code.self_dual, 3) == 6
    dual_basis = symplectic.dual(code.stabilizer, code.n, code.p)
    assert dual_basis.shape[0] == 8

    assert oracles.coordinate_section(code.stabilizer, (1, 2), 6, 3).shape[0] == 0
    assert oracles.coordinate_section(dual_basis, (1, 2), 6, 3).shape[0] == 0

    # membership validators for the known-good reconstruction data (exact)
    missing = (1, 2)
    for x, w in ((X_ROWS[0], W1), (X_ROWS[1], W2)):
        assert linalg.row_space_contains(dual_basis, w, 3)
        assert not symplectic.project_vector(w, missing, 6).any()
        assert linalg.row_space_contains(code.stabilizer, (np.array(x) - w) % 3, 3)
    for z, y in ((Z_ROWS[0], Y1), (Z_ROWS[1], Y2)):
        assert linalg.row_space_contains(code.self_dual, y, 3)
        assert not symplectic.project_vector(y, missing, 6).any()
        assert linalg.row_space_contains(code.stabilizer, (np.array(z) - y) % 3, 3)
    assert np.array_equal(U1, (H_ROWS[2] + H_ROWS[3]) % 3)
    assert linalg.row_space_contains(code.stabilizer, U1, 3)
    assert linalg.row_space_contains(code.stabilizer, V1, 3)
    assert linalg.row_space_contains(code.stabilizer, V2, 3)
    assert np.array_equal((np.array(Z_ROWS[0]) - Y1) % 3, V1)
    assert np.array_equal((np.array(Z_ROWS[1]) - Y2) % 3, V2)
    _announce(1, "reference code reproduction", started, 1.0)


def test_criterion_2_worked_phase_values():
    started = time.monotonic()
    p = 3
    gens = [pauli.calibrate_generator(h, p) for h in H_ROWS]

    # product identity M(h3) M(h4) = w M(u1) by phased multiplication
    prod = pauli.pauli_mul(pauli.pauli_from_vec(H_ROWS[2], p), pauli.pauli_from_vec(H_ROWS[3], p))
    assert prod.phase == 1 and np.array_equal(prod.vec, U1)

    eta = pauli.stabilizer_eigenvalue
    assert eta(gens, U1, p) == 2  # eta(M(u1)) = w^2
    assert eta(gens, U1, p) == eta(gens, (H_ROWS[2] + H_ROWS[3]) % 3, p)  # u2 = u1
    assert eta(gens, V2, p) == 0  # eta(M(v2)) = +1
    # eta(M(v1)) for v1 = -h4: the dense oracle pins w^1, not +1. With the
    # generators calibrated to +1 and M(h3)M(h4) = w M(u1) (both checked
    # above), the phase group forces M(-h4) = w M(h4)^{-1}, whose eigenvalue
    # on the code space is w. No calibration satisfies +1 here together
    # with the three values above.
    assert eta(gens, V1, p) == 1

    # beta1 = w^2 under M(x1) = beta1 M(w1) M(u1)
    beta1 = oracles.relative_phase(X_ROWS[0], W1, U1, p)
    assert beta1 == 2

    # dense 729x729 oracle cross-checks (entrywise)
    dense = pauli.dense_matrix
    vec = pauli.pauli_from_vec
    lhs = dense(vec(H_ROWS[2], p)) @ dense(vec(H_ROWS[3], p))
    rhs = pauli.phase_value(1, p) * dense(vec(U1, p))
    assert np.abs(lhs - rhs).max() < TOL_DENSE_CROSS

    lhs = dense(vec(X_ROWS[0], p))
    rhs = pauli.phase_value(beta1, p) * dense(vec(W1, p)) @ dense(vec(U1, p))
    assert np.abs(lhs - rhs).max() < TOL_DENSE_CROSS

    # eigenvalue cross-check on the dense joint +1 eigenspace of the generators
    dim = p**6
    projector = np.eye(dim, dtype=complex)
    for g in gens:
        dg = dense(g)
        projector = projector @ (np.eye(dim) + dg + dg @ dg) / p
    phi = projector[:, np.argmax(np.linalg.norm(projector, axis=0))]
    phi = phi / np.linalg.norm(phi)
    for target, expected in ((U1, 2), (V1, 1), (V2, 0)):
        out = dense(vec(target, p)) @ phi
        assert np.abs(out - pauli.phase_value(expected, p) * phi).max() < TOL_DENSE_CROSS
    _announce(2, "worked phase values (dense-oracle pinned)", started, 10.0)


def test_criterion_3_circuit_shape(hexcode, hexconv):
    started = time.monotonic()
    plan = circuits.plan_reconstruction(hexcode, hexconv, AVAILABLE)
    circ = circuits.synthesize_reconstruction(plan, hexcode)
    touched = circ.touched_qudits()
    assert touched.isdisjoint({1, 2})
    assert circ.two_qudit_count() <= 2 * hexcode.k * len(AVAILABLE) == 16
    assert circ.two_qudit_count() == 15
    assert circ.counts()["PPOW"] == 2 * hexcode.k == 4
    _announce(3, "reconstruction circuit shape and gate counts", started, 1.0)


def test_criterion_4_end_to_end_reconstruction(hexcode, hexconv):
    started = time.monotonic()
    rng = np.random.default_rng(20240607)
    secrets = [sim.random_secret(3, 2, rng) for _ in range(20)]
    share_sets = [
        members
        for size in (4, 5, 6)
        for members in combinations(range(1, 7), size)
    ]
    assert len(share_sets) == 22
    worst_fidelity = 1.0
    worst_purity_dev = 0.0
    plans = circuits.plan_sets(hexcode, hexconv, share_sets)
    reports = sim.verify_reconstruction(hexcode, hexconv, plans, secrets)
    assert [report.available for report in reports] == share_sets
    for report in reports:
        assert len(report.fidelity) == len(report.purity) == 20
        worst_fidelity = min(worst_fidelity, *report.fidelity)
        worst_purity_dev = max(worst_purity_dev, *(abs(1 - value) for value in report.purity))
    assert worst_fidelity >= 1 - TOL_END_TO_END, worst_fidelity
    assert worst_purity_dev <= TOL_END_TO_END, worst_purity_dev
    # the whole secret space, not just the sampled secrets
    for members, f_e in zip(share_sets, sim.entanglement_fidelity(hexcode, hexconv, plans), strict=True):
        assert f_e >= 1 - 1e-12, (members, f_e)
    _announce(4, f"end-to-end sweep (min fidelity {worst_fidelity:.12f})", started, 120.0)


def test_criterion_5_qubit_path(hexcode):
    started = time.monotonic()
    cases = [(2, 4, 1, 11), (2, 5, 1, 12), (2, 5, 2, 13), (2, 6, 1, 14), (2, 6, 2, 15), (2, 4, 2, 16)]
    rng = np.random.default_rng(424242)
    fourth_root_seen = False
    for p, n, k, seed in cases:
        code = symplectic.random_self_orthogonal_code(p, n, k, seed)
        conv = pauli.make_convention(code)
        fourth_root_seen = fourth_root_seen or any(
            g.phase % 2 for g in conv.generators
        ) or any(e % 2 for e in conv.alpha_exponents)
        secrets = [sim.random_secret(p, k, rng) for _ in range(3)]
        plans = circuits.plan_sets(code, conv, symplectic.all_qualified_sets(code))
        reports = sim.verify_reconstruction(code, conv, plans, secrets)
        for report, f_e in zip(reports, sim.entanglement_fidelity(code, conv, plans), strict=True):
            members = report.available
            assert len(report.fidelity) == len(report.purity) == 3, (seed, members)
            for fidelity, purity in zip(report.fidelity, report.purity):
                assert fidelity >= 1 - TOL_END_TO_END, (seed, members)
                assert abs(1 - purity) <= TOL_END_TO_END, (seed, members)
            assert f_e >= 1 - 1e-12, (seed, members, f_e)  # the whole secret space
    assert fourth_root_seen  # the sqrt(-1) calibrations were actually exercised
    _announce(5, "qubit path with fourth-root calibration", started, 60.0)


def test_criterion_6a_projection_dual_identity():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 7))
        D = rng.integers(0, p, size=(int(rng.integers(1, n + 2)), 2 * n))
        size = int(rng.integers(1, n + 1))
        members = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        section = oracles.coordinate_section(D, members, n, p)
        lhs = symplectic.dual(oracles.project_rows(section, members, n, p), len(members), p)
        rhs = oracles.project_rows(symplectic.dual(D, n, p), members, n, p)
        assert oracles.row_space_equal(lhs, rhs, p)
        checked += 1
    _announce(6, f"a: projection/dual identity on {checked} instances", started, 60.0)


def test_criterion_6b_projected_space_equality_when_correctable():
    started = time.monotonic()
    rng = np.random.default_rng(103)
    checked = 0
    for seed in range(40):
        p = (2, 3, 5)[seed % 3]
        n = 4 + seed % 3
        k = 1 + seed % 2
        code = symplectic.random_self_orthogonal_code(p, n, k, seed)
        for size in range(0, n):
            for missing in combinations(range(1, n + 1), size):
                if not symplectic.erasure_correctable(code, missing):
                    continue
                pc = oracles.project_rows(code.stabilizer, missing, n, p)
                pd = oracles.project_rows(symplectic.dual(code.stabilizer, code.n, code.p), missing, n, p)
                pm = oracles.project_rows(code.self_dual, missing, n, p)
                assert oracles.row_space_equal(pc, pd, p)
                assert oracles.row_space_equal(pc, pm, p)
                checked += 1
        if checked >= 200:
            break
    assert checked >= 200
    _announce(6, f"b: projected-space equality on {checked} correctable sets", started, 60.0)


def test_criterion_6c_phase_arithmetic_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 200:
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        if p**n > 128:
            continue
        P = pauli.PhasedPauli(p, int(rng.integers(0, pauli.phase_order(p))), rng.integers(0, p, size=2 * n))
        Q = pauli.PhasedPauli(p, int(rng.integers(0, pauli.phase_order(p))), rng.integers(0, p, size=2 * n))
        lhs = pauli.dense_matrix(P) @ pauli.dense_matrix(Q)
        assert np.abs(lhs - pauli.dense_matrix(pauli.pauli_mul(P, Q))).max() < TOL_ORACLE
        c = oracles.commutation_phase(P.vec, Q.vec, p)
        w_p = np.exp(2j * np.pi / p)
        mx, my = pauli.dense_matrix(pauli.pauli_from_vec(P.vec, p)), pauli.dense_matrix(
            pauli.pauli_from_vec(Q.vec, p)
        )
        assert np.abs(mx @ my - w_p**c * my @ mx).max() < TOL_ORACLE
        checked += 1
    _announce(6, f"c: product/commutation dense oracles on {checked} pairs", started, 60.0)


def test_criterion_6d_controlled_decomposition_oracle():
    started = time.monotonic()
    from test_circuits import dense_circuit

    rng = np.random.default_rng(109)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        vec = rng.integers(0, p, size=2 * n)
        gates = circuits.controlled_pauli_decompose(n + 1, vec, n)
        circ = circuits.Circuit(
            p=p, num_qudits=n + 1, roles=circuits.share_roles(n, 1), gates=tuple(gates)
        )
        got = dense_circuit(circ)
        dim = p**n
        expected = np.zeros((dim * p, dim * p), dtype=complex)
        M = pauli.pauli_from_vec(vec, p)
        for j in range(p):
            proj = np.zeros((p, p))
            proj[j, j] = 1
            expected += np.kron(pauli.dense_matrix(pauli.pauli_pow(M, j)), proj)
        assert np.abs(got - expected).max() < TOL_ORACLE
    _announce(6, "d: controlled-pattern decomposition oracle", started, 60.0)


def test_criterion_6e_dealer_reconstruction_inverse():
    started = time.monotonic()
    from test_circuits import dense_circuit

    for p, n, k, seed in ((3, 3, 1, 5), (2, 4, 2, 6), (5, 2, 1, 7)):
        code = symplectic.random_self_orthogonal_code(p, n, k, seed)
        conv = pauli.make_convention(code)
        dealer = dense_circuit(circuits.synthesize_dealer(code, conv))
        plan = circuits.plan_reconstruction(code, conv, tuple(range(1, n + 1)))
        recon = circuits.synthesize_reconstruction(plan, code)
        tail = circuits.Circuit(
            p=p, num_qudits=n + k, roles=recon.roles, gates=recon.gates[k:]
        )
        composed = dense_circuit(tail) @ dealer
        phase = composed[0, 0] / abs(composed[0, 0])
        assert np.abs(composed / phase - np.eye(composed.shape[0])).max() < TOL_END_TO_END
    _announce(6, "e: dealer then reconstruction is the identity", started, 60.0)


def test_criterion_7_negative_path(hexcode, hexconv, tmp_path, capsys):
    started = time.monotonic()
    for members in [(1,), (5,), (1, 2), (3, 6)]:
        with pytest.raises(NotCorrectableError):
            circuits.plan_reconstruction(hexcode, hexconv, members)
    # a failing 3-subset found by enumeration (all of them fail for this code)
    failing = next(
        members
        for members in combinations(range(1, 7), 3)
        if not symplectic.erasure_correctable(hexcode, symplectic.complement(members, 6))
    )
    with pytest.raises(NotCorrectableError):
        circuits.plan_reconstruction(hexcode, hexconv, failing)

    from qsshare.demo import SIX_SHARE_QUTRIT_DOCUMENT

    spec_path = tmp_path / "code.qss"
    spec_path.write_text(SIX_SHARE_QUTRIT_DOCUMENT, encoding="utf-8")
    out_path = tmp_path / "c.qsscirc"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(
            ["synthesize", str(spec_path), "--set", ",".join(map(str, failing)), "-o", str(out_path)]
        )
    capsys.readouterr()
    assert rc == 3
    assert not out_path.exists()
    _announce(7, "negative path rejects unqualified sets", started, 30.0)
