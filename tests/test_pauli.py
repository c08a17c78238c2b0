import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsshare import circuits, linalg, pauli, symplectic
from qsshare.errors import (
    DimensionMismatchError,
    NotInStabilizerError,
    TooLargeError,
)

import oracles
from oracles import DecompositionMismatchError
from conftest import H_ROWS, U1, V1, V2, W1, X_ROWS, Y1, Z_ROWS, row


def random_pauli(rng, p, n, phased=True):
    phase = int(rng.integers(0, pauli.phase_order(p))) if phased else 0
    return pauli.PhasedPauli(p, phase, rng.integers(0, p, size=2 * n))


def test_dense_matrix_z_is_clock():
    m = pauli.dense_matrix(pauli.pauli_from_vec([0, 1], 3))
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(m, np.diag([1, w, w**2]))


def test_dense_matrix_x_is_shift():
    m = pauli.dense_matrix(pauli.pauli_from_vec([1, 0], 2))
    assert np.allclose(m, np.array([[0, 1], [1, 0]]))


def test_dense_guard():
    with pytest.raises(TooLargeError):
        pauli.dense_matrix(pauli.identity_pauli(2, 20))


def test_mul_reference_product():
    # M(h3) M(h4) = w * M(u1)
    out = pauli.pauli_mul(pauli.pauli_from_vec(H_ROWS[2], 3), pauli.pauli_from_vec(H_ROWS[3], 3))
    assert out.phase == 1
    assert np.array_equal(out.vec, U1)
    assert np.array_equal(U1, row("001211|101200"))


def test_mul_identity():
    rng = np.random.default_rng(2)
    P = random_pauli(rng, 3, 4)
    out = pauli.pauli_mul(pauli.identity_pauli(3, 4), P)
    assert out == P


def test_mul_qubit_xz_squares_to_minus_one():
    xz = pauli.pauli_from_vec([1, 1], 2)
    out = pauli.pauli_mul(xz, xz)
    assert out.phase == 2  # scalar -1 in the fourth-root ring
    assert not out.vec.any()
    dense = pauli.dense_matrix(xz)
    assert np.allclose(dense @ dense, -np.eye(2))


def test_mul_matches_dense_oracle_random():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 220:
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        if p**n > 32:
            continue
        P = random_pauli(rng, p, n)
        Q = random_pauli(rng, p, n)
        out = pauli.pauli_mul(P, Q)
        lhs = pauli.dense_matrix(P) @ pauli.dense_matrix(Q)
        assert np.abs(lhs - pauli.dense_matrix(out)).max() < 1e-12
        checked += 1


def test_mul_associative_random():
    rng = np.random.default_rng(29)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 3))
        P, Q, R = (random_pauli(rng, p, n) for _ in range(3))
        left = pauli.pauli_mul(pauli.pauli_mul(P, Q), R)
        right = pauli.pauli_mul(P, pauli.pauli_mul(Q, R))
        assert left == right


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pauli.pauli_mul(pauli.identity_pauli(3, 2), pauli.identity_pauli(3, 3))
    with pytest.raises(DimensionMismatchError):
        pauli.pauli_mul(pauli.identity_pauli(3, 2), pauli.identity_pauli(5, 2))


def test_pow_zero_is_identity():
    rng = np.random.default_rng(31)
    P = random_pauli(rng, 5, 2)
    assert pauli.pauli_pow(P, 0) == pauli.identity_pauli(5, 2)


def test_pow_cube_of_xz_qutrit_scalar():
    xz = pauli.pauli_from_vec([1, 1], 3)
    out = pauli.pauli_pow(xz, 3)
    dense = pauli.dense_matrix(xz)
    cubed = dense @ dense @ dense
    assert not out.vec.any()
    assert np.abs(cubed - pauli.dense_matrix(out)).max() < 1e-12


def test_pow_order_p_gives_scalar():
    rng = np.random.default_rng(43)
    for p in (2, 3, 5):
        for _ in range(15):
            P = random_pauli(rng, p, 2)
            assert not pauli.pauli_pow(P, p).vec.any()


def test_pow_matches_iterated_mul_and_inverse():
    rng = np.random.default_rng(47)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        P = random_pauli(rng, p, 2)
        acc = pauli.identity_pauli(p, 2)
        for j in range(1, 2 * p + 1):
            acc = pauli.pauli_mul(acc, P)
            assert pauli.pauli_pow(P, j) == acc
        inv = pauli.pauli_pow(P, -1)
        assert pauli.pauli_mul(P, inv) == pauli.identity_pauli(p, 2)


def test_commutation_phase_hyperbolic_pair(hexcode):
    x1, z1 = hexcode.logical_x[0], hexcode.logical_z[0]
    c = oracles.commutation_phase(x1, z1, 3)
    assert c == 2  # -1 mod 3, the logical XZ relation
    assert oracles.commutation_phase(x1, x1, 3) == 0


def test_commutation_phase_matches_dense_oracle():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 220:
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        if p**n > 32:
            continue
        x = rng.integers(0, p, size=2 * n)
        y = rng.integers(0, p, size=2 * n)
        c = oracles.commutation_phase(x, y, p)
        mx = pauli.dense_matrix(pauli.pauli_from_vec(x, p))
        my = pauli.dense_matrix(pauli.pauli_from_vec(y, p))
        w_p = np.exp(2j * np.pi / p)
        assert np.abs(mx @ my - w_p**c * my @ mx).max() < 1e-12
        checked += 1


def test_calibrated_qubit_generators_are_involutions():
    rng = np.random.default_rng(59)
    for _ in range(40):
        vec = rng.integers(0, 2, size=6)
        g = pauli.calibrate_generator(vec, 2)
        dense = pauli.dense_matrix(g)
        assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12
        # +1 eigenspace exists (generators are traceless unless trivial)
        eig = np.linalg.eigvals(dense)
        assert np.any(np.abs(eig - 1) < 1e-9)


def test_odd_xz_pattern_has_imaginary_eigenvalues():
    # qubit patterns with an odd number of XZ sites square to -I
    for vec in ([1, 1], [1, 1, 1, 1, 1, 1], [1, 0, 0, 1, 0, 1]):
        bare = pauli.pauli_from_vec(vec, 2)
        dense = pauli.dense_matrix(bare)
        eig = np.linalg.eigvals(dense)
        assert np.all(np.abs(np.abs(eig.imag) - 1) < 1e-9)


def test_eigenvalue_reference_values():
    gens = [pauli.calibrate_generator(h, 3) for h in H_ROWS]
    w = pauli.stabilizer_eigenvalue
    assert w(gens, U1, 3) == 2  # w^2, matching the worked example
    assert w(gens, np.zeros(12, dtype=int), 3) == 0
    assert w(gens, V2, 3) == 0  # v2 = h3 is a bare generator
    # v1 = -h4: M(-h4) = w * M(h4)^{-1}, so the eigenvalue is w, not +1;
    # M(h4)^2 = w^2 M(2 h4) because site 6 carries XZ^2 (dense-verified below)
    assert w(gens, V1, 3) == 1
    g4 = pauli.dense_matrix(pauli.pauli_from_vec(H_ROWS[3], 3))
    m2h4 = pauli.dense_matrix(pauli.pauli_from_vec(V1, 3))
    wph = np.exp(2j * np.pi / 3)
    assert np.abs(g4 @ g4 - wph**2 * m2h4).max() < 1e-10


def test_eigenvalue_independent_of_expression():
    gens = [pauli.calibrate_generator(h, 3) for h in H_ROWS]
    # same vector expressed over a reordered generator list
    shuffled = [gens[i] for i in (3, 2, 1, 0)]
    for target in (U1, V1, (2 * H_ROWS[0] + H_ROWS[1]) % 3):
        a = pauli.stabilizer_eigenvalue(gens, target, 3)
        b = pauli.stabilizer_eigenvalue(shuffled, target, 3)
        assert a == b


def test_eigenvalue_outside_span():
    gens = [pauli.calibrate_generator(h, 3) for h in H_ROWS]
    with pytest.raises(NotInStabilizerError):
        pauli.stabilizer_eigenvalue(gens, X_ROWS[0], 3)


@given(st.data())
def test_eigenvalue_exponents_equal_the_product_oracle(data):
    p = data.draw(st.sampled_from(linalg.SUPPORTED_PRIMES))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    gens = [
        pauli.PhasedPauli(
            p,
            data.draw(st.integers(0, pauli.phase_order(p) - 1)),
            data.draw(st.lists(entry, min_size=2 * n, max_size=2 * n)),
        )
        for _ in range(m)
    ]
    coeffs = np.array(data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=6)))
    got = pauli.eigenvalue_exponents(gens, coeffs, p)
    assert got.tolist() == [oracles.product_eigenvalue(gens, c, p) for c in coeffs]


@pytest.mark.parametrize("p, n, k, seed", [(p, 6, 2, p) for p in linalg.SUPPORTED_PRIMES] + [(2, 7, 3, 1), (3, 5, 1, 4)])
def test_plan_eigenvalues_equal_the_product_oracle(p, n, k, seed):
    """The 2k exponents of a plan, from one batch of split coefficients,
    match the generator products of u_i and v_i."""
    code = symplectic.random_self_orthogonal_code(p, n, k, seed)
    conv = pauli.make_convention(code)
    gens = conv.stabilizer_generators()
    for members in symplectic.qualified_sets(code)[:4] + [tuple(range(1, n + 1))]:
        plan = circuits.plan_reconstruction(code, conv, members)
        for parts, etas in ((plan.u, plan.eta_u), (plan.v, plan.eta_v)):
            for part, eta in zip(parts[0], etas[0]):
                coeff = linalg.solve_linear(code.stabilizer.T, part, p)
                assert eta == oracles.product_eigenvalue(gens, coeff, p)
                assert eta == pauli.stabilizer_eigenvalue(gens, part, p)


def test_relative_phase_reference():
    beta1 = oracles.relative_phase(X_ROWS[0], W1, U1, 3)
    assert beta1 == 2
    gamma1 = oracles.relative_phase(Z_ROWS[0], Y1, V1, 3)
    assert gamma1 == 2
    assert oracles.relative_phase(W1, W1, np.zeros(12, dtype=int), 3) == 0


def test_relative_phase_mismatch():
    with pytest.raises(DecompositionMismatchError):
        oracles.relative_phase(X_ROWS[0], W1, W1, 3)


def test_relative_phase_matches_dense_oracle():
    rng = np.random.default_rng(61)
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        left = rng.integers(0, p, size=2 * n)
        right = rng.integers(0, p, size=2 * n)
        target = (left + right) % p
        e = oracles.relative_phase(target, left, right, p)
        lhs = pauli.dense_matrix(pauli.pauli_from_vec(target, p))
        rhs = pauli.phase_value(e, p) * (
            pauli.dense_matrix(pauli.pauli_from_vec(left, p))
            @ pauli.dense_matrix(pauli.pauli_from_vec(right, p))
        )
        assert np.abs(lhs - rhs).max() < 1e-12


def test_make_convention_qutrit_alphas_trivial(hexcode, hexconv):
    assert hexconv.alpha_exponents == (0, 0)
    assert len(hexconv.generators) == 6
    assert all(g.phase == 0 for g in hexconv.generators)


def test_make_convention_qubit_alpha_tracks_xz_parity():
    from qsshare import symplectic

    for seed in range(10):
        code = symplectic.random_self_orthogonal_code(2, 5, 1, seed)
        conv = pauli.make_convention(code)
        z = code.logical_z[0]
        parity = int(z[:5] @ z[5:]) % 2
        # 1/alpha carries the sqrt(-1) needed to calibrate M(z)
        assert conv.alpha_inverse_exponent(0) == parity
        g = conv.generators[-1]
        dense = pauli.dense_matrix(g)
        assert np.abs(dense @ dense - np.eye(32)).max() < 1e-12


def test_format_phase():
    assert pauli.format_phase(0, 3) == "1"
    assert pauli.format_phase(2, 3) == "w^2"
    assert pauli.format_phase(1, 2) == "i"
    assert pauli.format_phase(2, 2) == "-1"
