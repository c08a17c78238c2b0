"""The Clifford certificate against independent oracles: dense gate
operators for its tables and its pull-back, a multiplied-out compression for
its logical read-out, and the dense simulator for its verdicts and reports."""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qsshare import certify, circuits, linalg, pauli, sim, symplectic
from qsshare.demo import six_share_qutrit_code
from qsshare.errors import NoSolutionError, NotCorrectableError, TooLargeError

ODD_AND_EVEN = (2, 3, 5, 7)

# The bundled code and ten small codes in both phase rings, every qualified
# set of each certified both ways.
SMALL_CODES = (
    (2, 6, 2, 1), (2, 7, 2, 3), (2, 8, 3, 4), (3, 5, 1, 2), (3, 6, 2, 0),
    (5, 4, 2, 0), (5, 5, 1, 1), (7, 4, 1, 0), (2, 5, 1, 0), (3, 7, 2, 1),
)


def _code(which):
    return six_share_qutrit_code() if which == "bundled" else symplectic.random_self_orthogonal_code(*which)


@pytest.mark.parametrize("p", ODD_AND_EVEN)
def test_site_tables_are_the_dense_conjugates(p):
    ring = pauli.phase_order(p)
    gates = [circuits.fourier(1), circuits.fourier_inv(1)]
    gates += [circuits.phase_pow(1, e) for e in range(ring)]
    gates += [oracles.pauli_gate(1, a, b) for a in range(p) for b in range(p)]
    grid = np.divmod(np.arange(p * p), p)  # x, z at column x p + z
    for gate in gates:
        table = certify._site_rule(p, gate.kind, gate.params, *grid)
        op = oracles.gate_operator(gate, p)
        for x, z in product(range(p), repeat=2):
            new_x, new_z, e = (part[x * p + z] for part in table)
            image = pauli.dense_matrix(pauli.PhasedPauli(p, e, (new_x, new_z)))
            source = pauli.dense_matrix(pauli.PhasedPauli(p, 0, (x, z)))
            assert np.allclose(op.conj().T @ source @ op, image, atol=1e-12), (gate, x, z)


def _random_gates(draw, p, m):
    """Blocks of consecutive controlled Paulis of one kind and control on
    distinct targets (so runs form), sometimes repeating a target, between
    single-qudit gates on any qudit."""
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        q = draw(st.integers(1, m))
        kind = draw(st.sampled_from(["F", "FINV", "PPOW", "PAULI", "CPAULI", "CPAULIINV"]))
        if kind in ("F", "FINV"):
            gates.append(circuits.Gate(kind, (q,)))
        elif kind == "PPOW":
            gates.append(circuits.phase_pow(q, draw(st.integers(0, pauli.phase_order(p) - 1))))
        elif kind == "PAULI":
            gates.append(oracles.pauli_gate(q, draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))))
        else:
            others = [t for t in range(1, m + 1) if t != q]
            targets = draw(st.lists(st.sampled_from(others), min_size=1, max_size=m))
            for t in targets:
                params = (draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)))
                gates.append(circuits.Gate(kind, (q, t), params))
    return gates


@settings(max_examples=120)
@given(st.data())
def test_run_rule_equals_per_gate_propagation(data):
    # a sign error in the run rule passes at p = 2 alone, so every ring is drawn
    p = data.draw(st.sampled_from(ODD_AND_EVEN))
    m = data.draw(st.integers(2, 4))
    gates = _random_gates(data.draw, p, m)
    rows = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    phases = rng.integers(0, pauli.phase_order(p), size=rows)
    xs, zs = rng.integers(0, p, size=(2, rows, m))
    got = certify.pull_back(gates, p, phases, xs, zs)
    expected = oracles.pull_back_per_gate(gates, p, phases, xs, zs)
    for part, want in zip(got, expected):
        assert np.array_equal(part, want)


@pytest.mark.parametrize("which", [(2, 6, 2, 1), (3, 5, 1, 2), (5, 4, 2, 0), (7, 4, 1, 0)])
def test_generator_images_equal_per_gate_propagation(which):
    code = _code(which)
    conv = pauli.make_convention(code)
    k, m = code.k, code.n + code.k
    eye = np.eye(k, dtype=np.int64)
    xs, zs = np.zeros((2, 2 * k, m), dtype=np.int64)
    xs[:k, code.n :], zs[k:, code.n :] = eye, eye
    for members in symplectic.all_qualified_sets(code):
        circuit = circuits.synthesize_reconstruction(circuits.plan_reconstruction(code, conv, members))
        got = certify.generator_images(circuit, k)
        expected = oracles.pull_back_per_gate(circuit.gates, code.p, np.zeros(2 * k), xs, zs)
        for part, want in zip(got, expected):
            assert np.array_equal(part, want), members


def _operator(p, k, valid, f, a, b):
    if not valid:
        return np.zeros((p**k, p**k), dtype=np.complex128)
    return pauli.dense_matrix(pauli.PhasedPauli(p, f, np.concatenate([a, b])))


@pytest.mark.parametrize("which", ["bundled", (2, 5, 1, 0), (2, 6, 2, 1), (3, 5, 1, 2), (5, 4, 1, 2), (7, 3, 1, 0)])
def test_compression_equals_every_matrix_element(which):
    code = _code(which)
    conv = pauli.make_convention(code)
    p, n, k = code.p, code.n, code.k
    frame = certify._frame(code, conv)
    rng = np.random.default_rng(n)
    basis = np.vstack([code.logical_x, code.stabilizer, code.logical_z])
    # rows in dual(C) with a Z part on the ancillas, which compress to a
    # Pauli, then the same with an ancilla X part, then random rows
    inside = rng.integers(0, p, size=(12, n + k)) @ basis % p
    anc = rng.integers(0, p, size=(12, k))
    rows = [np.concatenate([r[:n], np.zeros(k, int), r[n:], z]) for r, z in zip(inside, anc)]
    rows += [np.concatenate([r[:n], np.eye(k, dtype=int)[0], r[n:], z]) for r, z in zip(inside[:4], anc)]
    rows += list(rng.integers(0, p, size=(8, 2 * (n + k))))
    rows = np.array(rows)
    phases = rng.integers(0, pauli.phase_order(p), size=len(rows))
    valid, f, a, b = certify._compress(code, frame, phases, rows[:, : n + k], rows[:, n + k :])
    assert valid[:12].all() and not valid[12:16].any()
    for i, (phase, vec) in enumerate(zip(phases, rows)):
        expected = oracles.compressed_operator(code, conv, phase, vec)
        assert np.allclose(_operator(p, k, valid[i], f[i], a[i], b[i]), expected, atol=1e-12), i


@pytest.mark.parametrize("which", [(2, 3, 1, 0), (3, 3, 1, 1), (2, 4, 2, 2), (5, 2, 1, 0)])
def test_multiplied_out_compression_equals_the_dense_one(which):
    # the oracle against <s|V^dag Q V|t> on dense encoded states
    code = _code(which)
    conv = pauli.make_convention(code)
    p, n, k = code.p, code.n, code.k
    ancilla_zero = np.zeros(p**k)
    ancilla_zero[0] = 1
    encoded = np.array([np.kron(sim.encode_secret(code, conv, e).amps, ancilla_zero) for e in np.eye(p**k)])
    rng = np.random.default_rng(5)
    basis = np.vstack([code.logical_x, code.stabilizer, code.logical_z])
    for draw in range(12):
        r = rng.integers(0, p, size=n + k) @ basis % p if draw % 2 else rng.integers(0, p, size=2 * n)
        vec = np.concatenate([r[:n], np.zeros(k, int), r[n:], rng.integers(0, p, size=k)])
        phase = int(rng.integers(0, pauli.phase_order(p)))
        dense = encoded.conj() @ pauli.dense_matrix(pauli.PhasedPauli(p, phase, vec)) @ encoded.T
        assert np.allclose(oracles.compressed_operator(code, conv, phase, vec), dense, atol=1e-12)


def _both(code, conv, plan, secrets):
    return (
        certify.certify_reconstruction(code, conv, plan, secrets),
        sim.verify_reconstruction(code, conv, plan, secrets),
        certify.entanglement_fidelity(code, conv, plan),
        sim.entanglement_fidelity(code, conv, plan),
    )


def _assert_agree(exact, dense, exact_fe, dense_fe, broken):
    dense_passes = min(dense.fidelity) > 1 - 1e-9 and max(abs(1 - v) for v in dense.purity) < 1e-9
    assert (exact.fidelity == (1.0,) * len(exact.fidelity)) == dense_passes == (not broken)
    assert exact.purity == (1.0,) * len(exact.purity) or broken
    assert np.allclose(exact.fidelity, dense.fidelity, rtol=0, atol=1e-12)
    assert np.allclose(exact.purity, dense.purity, rtol=0, atol=1e-12)
    assert abs(exact_fe - dense_fe) < 1e-12 and (exact_fe < 1 - 1e-9) == broken
    assert (exact.available, exact.two_qudit_gates, exact.single_qudit_gates) == (
        dense.available, dense.two_qudit_gates, dense.single_qudit_gates,
    )


@pytest.mark.parametrize("which", ["bundled", *SMALL_CODES])
def test_certificate_agrees_with_dense_on_every_qualified_set(monkeypatch, which):
    code = _code(which)
    conv = pauli.make_convention(code)
    sets = symplectic.all_qualified_sets(code)
    rng = np.random.default_rng(3)
    secrets = [certify.random_secret(code.p, code.k, rng) for _ in range(3)]
    for mutation in (None, "PPOW", "CPAULIINV"):
        if mutation:
            monkeypatch.setattr(circuits, "_assemble", oracles.mutated_assemble(mutation))
        reports = _both(code, conv, circuits.plan_sets(code, conv, sets), secrets)
        for row in zip(*reports):
            _assert_agree(*row, broken=mutation is not None)
        # each set's one-set plan carries the same mutation to the same report
        for members, report in zip(sets, reports[0]):
            plan = circuits.plan_reconstruction(code, conv, members)
            assert certify.certify_reconstruction(code, conv, plan, secrets) == [report]


@settings(max_examples=40)
@given(
    st.sampled_from(ODD_AND_EVEN), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**16),
    st.sampled_from([None, "PPOW", "CPAULIINV"]), st.data(),
)
def test_certificate_agrees_with_dense_on_random_codes(p, n, k, seed, mutation, data):
    k = min(k, n)
    while p ** (2 * k) > 2**12:
        k -= 1
    while n > k and p ** (n + k) > 2**12:
        n -= 1
    code = symplectic.random_self_orthogonal_code(p, n, k, seed)
    conv = pauli.make_convention(code)
    members = data.draw(st.sampled_from(symplectic.all_qualified_sets(code)))
    rng = np.random.default_rng(seed)
    secrets = [certify.random_secret(p, k, rng) for _ in range(2)]
    assemble = circuits._assemble
    try:
        if mutation:
            circuits._assemble = oracles.mutated_assemble(mutation)
        plan = circuits.plan_reconstruction(code, conv, members)
        ((exact,), (dense,), (exact_fe,), (dense_fe,)) = _both(code, conv, plan, secrets)
    finally:
        circuits._assemble = assemble
    _assert_agree(exact, dense, exact_fe, dense_fe, broken=mutation is not None)


@pytest.mark.parametrize("which", ["bundled", *SMALL_CODES, (2, 12, 2, 0), (3, 10, 2, 0)])
def test_batched_plans_images_and_reports_equal_the_per_set_ones(which):
    # the bundled code, SMALL_CODES and the two access-synth grid codes: the
    # sweep's lattice split, the shape pull-back and the support gate counts
    # against split_on_missing, the gate-level pull-back and the emitted
    # circuit; iterating the sweep's plan gives each set's plan_reconstruction
    code = _code(which)
    conv = pauli.make_convention(code)
    n, k = code.n, code.k
    sets = symplectic.all_qualified_sets(code)
    targets = np.vstack([code.logical_x, code.logical_z])
    rows, coeffs = symplectic.qualified_splits(code, targets)
    batch = circuits.plan_all_qualified(code, conv)
    images = certify._shape_images(batch, circuits.reconstruction_steps(batch))
    reports = certify.certify_reconstruction(code, conv, batch, [])
    ones = list(batch)
    assert symplectic.members_of(rows) == list(batch.available) == sets
    assert len(batch) == len(ones) == len(reports) == len(coeffs) == len(sets)
    listed = circuits.plan_sets(code, conv, sets)
    assert (listed.p, listed.n, listed.k, listed.available) == (batch.p, batch.n, batch.k, batch.available)
    for field in dataclasses.fields(batch)[4:]:  # the arrays
        got, want = getattr(batch, field.name), getattr(listed, field.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), field.name
    for s, members in enumerate(sets):
        expected = symplectic.split_on_missing(code, targets, symplectic.complement(members, n))[2]
        assert coeffs.dtype == expected.dtype and np.array_equal(coeffs[s], expected), members
        plan = circuits.plan_reconstruction(code, conv, members)
        assert len(ones[s]) == len(plan) == 1
        for field in dataclasses.fields(plan):
            got, want = getattr(ones[s], field.name), getattr(plan, field.name)
            assert type(got) is type(want) and np.array_equal(got, want), (members, field.name)
        circuit = circuits.synthesize_reconstruction(plan)
        for got, want in zip(images, certify.generator_images(circuit, k)):
            assert np.array_equal(got[s], want), members
        counts = (reports[s].two_qudit_gates, reports[s].single_qudit_gates)
        assert counts == (circuit.two_qudit_count(), circuit.single_qudit_count()), members
        assert [reports[s]] == certify.certify_reconstruction(code, conv, plan, [])
        assert reports[s].entanglement_fidelity == 1.0


@pytest.mark.parametrize("which", ["bundled", *SMALL_CODES, (2, 12, 2, 0), (3, 10, 2, 0)])
def test_padded_split_equals_split_on_missing_on_sets_of_every_size(which):
    # the codes above: the subset lattice's split of the logical rows on
    # every set M of missing shares, every size, nothing missing and every
    # share missing included, against one split_on_missing per set: its
    # flag where the split fails and its coefficients where it exists
    code = _code(which)
    n, d = code.n, code.stabilizer.shape[0]
    targets = np.vstack([code.logical_x, code.logical_z])
    _, split, bases = symplectic._subset_lattice(code, targets)
    for subset in range(2**n):
        missing = [j for j in range(1, n + 1) if subset >> (j - 1) & 1]
        try:
            expected = symplectic.split_on_missing(code, targets, missing)[2]
        except NoSolutionError:
            assert not split[subset], missing
            continue
        assert split[subset] and np.array_equal(bases[subset, :, d:].T, expected), missing
    assert split[0] and not split[-1]


@pytest.mark.parametrize("p", linalg.SUPPORTED_PRIMES)
def test_batched_secrets_are_successive_random_secret_draws(p):
    # bit for bit: the generator's normal samples do not depend on how the
    # draws are split, and each secret is normalized as one vector
    for k in (1, 2, 3):
        for count in (1, 2, 7):
            seed = 100 * k + count
            batch = np.array(certify.random_secrets(p, k, count, np.random.default_rng(seed)))
            rng = np.random.default_rng(seed)
            one_by_one = np.array([certify.random_secret(p, k, rng) for _ in range(count)])
            rng = np.random.default_rng(seed)
            oracle = []
            for _ in range(count):
                vec = rng.normal(size=p**k) + 1j * rng.normal(size=p**k)
                oracle.append(vec / np.linalg.norm(vec))
            assert batch.shape == (count, p**k) and batch.dtype == np.complex128
            assert batch.tobytes() == one_by_one.tobytes() == np.array(oracle).tobytes(), (k, count)


def test_batched_plan_names_the_first_unqualified_set():
    code = six_share_qutrit_code()
    conv = pauli.make_convention(code)
    with pytest.raises(NotCorrectableError, match=r"shares \(1, 2\) are not a qualified set"):
        circuits.plan_sets(code, conv, [(3, 4, 5, 6), (2, 1), (1, 3)])
    with pytest.raises(NotCorrectableError, match="empty share set"):
        circuits.plan_sets(code, conv, [(3, 4, 5, 6), ()])
    assert len(circuits.plan_sets(code, conv, [])) == 0


def test_zero_secrets_give_empty_reports():
    code = six_share_qutrit_code()
    conv = pauli.make_convention(code)
    plan = circuits.plan_reconstruction(code, conv, (3, 4, 5, 6))
    for check in (certify.certify_reconstruction, sim.verify_reconstruction):
        (report,) = check(code, conv, plan, [])
        assert (report.available, report.fidelity, report.purity) == ((3, 4, 5, 6), (), ())
        assert (report.two_qudit_gates, report.single_qudit_gates) == (15, 8)


def test_generator_terms_are_built_once_per_request(monkeypatch):
    code = six_share_qutrit_code()
    conv = pauli.make_convention(code)
    plan = circuits.plan_sets(code, conv, symplectic.all_qualified_sets(code))
    secrets = [certify.random_secret(3, 2, np.random.default_rng(0))]
    calls = []
    terms = pauli._generator_terms

    def counting(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(pauli, "_generator_terms", counting)
    for some in (plan[0], plan):
        calls.clear()
        reports = certify.certify_reconstruction(code, conv, some, secrets)
        assert all(report.fidelity == (1.0,) for report in reports)
        assert len(calls) == 1, len(some)


@pytest.mark.parametrize("which", ["bundled", *SMALL_CODES])
def test_frame_from_the_convention_arrays_equals_the_generator_list_frame(which):
    # the frame of alpha_t M(x_t) and the calibrated generators, as PhasedPaulis
    # multiplied out: the same rows, phases, echelon form and p-th powers
    code = _code(which)
    conv = pauli.make_convention(code)
    p, n, k = code.p, code.n, code.k
    xbars = [pauli.PhasedPauli(p, e, x) for e, x in zip(conv.alpha_exponents, code.logical_x)]
    gens = xbars + conv.generators
    phases, rows = np.array([g.phase for g in gens]), np.array([g.vec for g in gens])
    reduced, pivots, _ = oracles.rref_rowloop(np.hstack([rows, np.eye(n + k, dtype=np.int64)]), p)
    frame = certify._frame(code, conv)
    for got, expected in zip(frame.terms, pauli._generator_terms(phases, rows, p)):
        assert np.array_equal(got, expected)
    assert frame.pivots == list(pivots) and np.array_equal(frame.transform, reduced[:, 2 * n :])
    assert frame.wrap.tolist() == [pauli.pauli_pow(g, p).phase for g in xbars]


def test_guard_bounds_the_secret_space_not_the_register(monkeypatch):
    code = symplectic.random_self_orthogonal_code(3, 40, 2, 0)
    conv = pauli.make_convention(code)
    plan = circuits.plan_reconstruction(code, conv, range(2, 41))
    secrets = [certify.random_secret(3, 2, np.random.default_rng(0))]
    (report,) = certify.certify_reconstruction(code, conv, plan, secrets)  # 3^42 joint amplitudes
    assert report.fidelity == report.purity == (1.0,)
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", "80")  # 3^4 = 81 entries of a secret-space operator
    with pytest.raises(TooLargeError):
        certify.certify_reconstruction(code, conv, plan, secrets)
    with pytest.raises(TooLargeError):
        certify.entanglement_fidelity(code, conv, plan)
    monkeypatch.setenv("QSS_MAX_AMPLITUDES", "81")
    assert certify.entanglement_fidelity(code, conv, plan) == [1.0]
