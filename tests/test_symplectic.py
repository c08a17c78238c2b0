import ast
import dataclasses
import hashlib
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsshare import demo, linalg, specfile, symplectic
from qsshare.errors import (
    NoSolutionError,
    NotCorrectableError,
    NotInDualError,
    NotInSelfDualError,
    NotSelfOrthogonalError,
    ValidationError,
)

import oracles
from conftest import AVAILABLE, H_ROWS, U1, V1, V2, W1, W2, X_ROWS, Y1, Y2, Z_ROWS, row


def test_symplectic_product_reference_values(hexcode):
    assert symplectic.symplectic_product(H_ROWS[0], H_ROWS[1], 3) == 0
    # the raw reference pairs evaluate to -1 = 2 before normalization
    assert symplectic.symplectic_product(X_ROWS[0], Z_ROWS[0], 3) == 2


def test_symplectic_product_antisymmetric_random():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            x = rng.integers(0, p, size=2 * n)
            y = rng.integers(0, p, size=2 * n)
            assert symplectic.symplectic_product(x, x, p) == 0
            forward = symplectic.symplectic_product(x, y, p)
            backward = symplectic.symplectic_product(y, x, p)
            assert (forward + backward) % p == 0


def test_dual_contains_logical_x(hexcode):
    dual_basis = symplectic.dual(np.array(H_ROWS), 6, 3)
    assert dual_basis.shape[0] == 8
    for x in X_ROWS:
        assert linalg.row_space_contains(dual_basis, x, 3)


def test_dual_of_full_space_is_zero():
    full = np.eye(8, dtype=int)
    assert symplectic.dual(full, 4, 3).shape[0] == 0


def test_dual_involution_random():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            D = rng.integers(0, p, size=(rng.integers(1, n + 2), 2 * n))
            dd = symplectic.dual(symplectic.dual(D, n, p), n, p)
            assert oracles.row_space_equal(dd, linalg.row_basis(D, p), p)


def test_coordinate_section_reference(hexcode):
    sec = oracles.coordinate_section(hexcode.stabilizer, (1, 2), 6, 3)
    assert sec.shape[0] == 0
    sec_dual = oracles.coordinate_section(symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p), (1, 2), 6, 3)
    assert sec_dual.shape[0] == 0


def test_coordinate_section_full_set_is_whole_space(hexcode):
    sec = oracles.coordinate_section(hexcode.stabilizer, tuple(range(1, 7)), 6, 3)
    assert oracles.row_space_equal(sec, hexcode.stabilizer, 3)


def test_coordinate_section_contains_supported_vector(hexcode):
    sec = oracles.coordinate_section(symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p), AVAILABLE, 6, 3)
    assert linalg.row_space_contains(sec, W1, 3)


def test_project_vector_reference():
    assert np.array_equal(symplectic.project_vector(H_ROWS[0], (1, 2), 6), row("10|02"))
    full = symplectic.project_vector(H_ROWS[0], tuple(range(1, 7)), 6)
    assert np.array_equal(full, H_ROWS[0])


def test_projected_spaces_agree_for_missing_pair(hexcode):
    missing = (1, 2)
    pc = oracles.project_rows(hexcode.stabilizer, missing, 6, 3)
    pd = oracles.project_rows(symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p), missing, 6, 3)
    pm = oracles.project_rows(hexcode.self_dual, missing, 6, 3)
    assert oracles.row_space_equal(pc, pd, 3)
    assert oracles.row_space_equal(pc, pm, 3)


def test_projection_dual_identity_random():
    # For any subspace D and index set: the symplectic dual (inside the
    # restricted space) of the projection of D ∩ F^J equals the projection
    # of the dual of D. Exercised well past 200 instances.
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 220:
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 7))
        D = rng.integers(0, p, size=(int(rng.integers(1, n + 2)), 2 * n))
        size = int(rng.integers(1, n + 1))
        members = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        section = oracles.coordinate_section(D, members, n, p)
        lhs = symplectic.dual(
            oracles.project_rows(section, members, n, p), len(members), p
        )
        rhs = oracles.project_rows(symplectic.dual(D, n, p), members, n, p)
        assert oracles.row_space_equal(lhs, rhs, p), (p, n, members, D)
        checked += 1


def test_erasure_correctable_reference(hexcode):
    assert symplectic.erasure_correctable(hexcode, (1, 2))
    assert symplectic.erasure_correctable(hexcode, ())
    # distance 3: every 3-erasure pattern fails for this code
    for missing in combinations(range(1, 7), 3):
        assert not symplectic.erasure_correctable(hexcode, missing)


def test_erasure_correctable_matches_enumeration_oracle(hexcode):
    # independent oracle: count vectors of C and dual(C) supported on the
    # missing shares by full enumeration
    from itertools import product as iproduct

    def span(basis):
        out = set()
        for coeff in iproduct(range(3), repeat=basis.shape[0]):
            out.add(tuple((np.array(coeff) @ basis) % 3))
        return out

    cvecs = span(hexcode.stabilizer)
    dvecs = span(symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p))

    def supported(vec, missing):
        cols = {i - 1 for i in missing} | {i + 5 for i in missing}
        return all(v == 0 or c in cols for c, v in enumerate(vec))

    for size in (1, 2, 3):
        for missing in combinations(range(1, 7), size):
            expected = sum(1 for v in cvecs if supported(v, missing)) == sum(
                1 for v in dvecs if supported(v, missing)
            )
            assert symplectic.erasure_correctable(hexcode, missing) == expected


def test_localize_x_reference_and_membership(hexcode):
    dual_basis = symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p)
    for x, w_ref in ((X_ROWS[0], W1), (X_ROWS[1], W2)):
        u, w = symplectic.localize_x(hexcode, x, AVAILABLE)
        # reference split passes the membership validators
        assert linalg.row_space_contains(dual_basis, w_ref, 3)
        assert linalg.row_space_contains(hexcode.stabilizer, (x - w_ref) % 3, 3)
        # computed split satisfies the same contracts
        assert linalg.row_space_contains(hexcode.stabilizer, u, 3)
        assert not symplectic.project_vector(w, (1, 2), 6).any()
        assert np.array_equal((u + w) % 3, x)
        # for this code the split is unique, so it equals the reference one
        assert np.array_equal(w, w_ref)


def test_localize_x_already_supported(hexcode):
    u, w = symplectic.localize_x(hexcode, W1, AVAILABLE)
    assert not u.any()
    assert np.array_equal(w, W1)


def test_localize_z_reference_and_membership(hexcode):
    for z_raw, y_ref in ((Z_ROWS[0], Y1), (Z_ROWS[1], Y2)):
        assert linalg.row_space_contains(hexcode.self_dual, y_ref, 3)
        assert linalg.row_space_contains(hexcode.stabilizer, (z_raw - y_ref) % 3, 3)
        v, y = symplectic.localize_z(hexcode, z_raw, AVAILABLE)
        assert linalg.row_space_contains(hexcode.stabilizer, v, 3)
        assert not symplectic.project_vector(y, (1, 2), 6).any()
        assert np.array_equal((v + y) % 3, z_raw % 3)


def test_localize_z_reference_stabilizer_parts(hexcode):
    # v1 = -h4 and v2 = h3 are the stabilizer parts of the reference splits
    assert linalg.row_space_contains(hexcode.stabilizer, V1, 3)
    assert linalg.row_space_contains(hexcode.stabilizer, V2, 3)
    assert np.array_equal((Y1 + V1) % 3, Z_ROWS[0])
    assert np.array_equal((Y2 + V2) % 3, Z_ROWS[1])
    assert np.array_equal(U1, (H_ROWS[2] + H_ROWS[3]) % 3)


def test_localize_errors(hexcode):
    with pytest.raises(NotInDualError):
        symplectic.localize_x(hexcode, row("100000|000000"), AVAILABLE)
    with pytest.raises(NotInSelfDualError):
        symplectic.localize_z(hexcode, X_ROWS[0], AVAILABLE)
    with pytest.raises(NotCorrectableError):
        symplectic.localize_x(hexcode, X_ROWS[0], (1, 2, 3))


def _localize_code(hexcode, which):
    return hexcode if which == "bundled" else symplectic.random_self_orthogonal_code(*which)


def _counting_rref(monkeypatch) -> list:
    calls = []
    rref = linalg.rref

    def counting(A, p):
        calls.append(np.shape(A))
        return rref(A, p)

    monkeypatch.setattr(linalg, "rref", counting)
    return calls


@pytest.mark.parametrize("which", ["bundled", (2, 8, 2, 1), (3, 7, 2, 1)])
def test_localize_reads_qualification_from_its_one_split(monkeypatch, hexcode, which):
    code = _localize_code(hexcode, which)
    n = code.n
    cases = [(symplectic.localize_x, x) for x in code.logical_x] + [(symplectic.localize_z, z) for z in code.logical_z]
    subsets = [s for size in range(n + 1) for s in combinations(range(1, n + 1), size)]
    expected = {}
    for available in subsets:
        missing = symplectic.complement(available, n)
        if symplectic.erasure_correctable(code, missing):
            expected[available] = [symplectic.split_on_missing(code, vec, missing)[:2] for _, vec in cases]
    calls = _counting_rref(monkeypatch)
    for available in subsets:
        for i, (localize, vec) in enumerate(cases):
            calls.clear()
            if available in expected:
                got = localize(code, vec, available)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected[available][i], strict=True))
            else:
                with pytest.raises(NotCorrectableError, match=r"^shares \(.*\) cannot reconstruct$"):
                    localize(code, vec, available)
            # membership by products, qualification and split by one elimination,
            # which a set missing no share does not need
            assert len(calls) == (1 if len(available) < n else 0), (available, localize.__name__)


@pytest.mark.parametrize("which", ["bundled", (2, 8, 2, 1), (3, 7, 2, 1)])
def test_localize_membership_agrees_with_row_reduction(monkeypatch, hexcode, which):
    code = _localize_code(hexcode, which)
    p, n = code.p, code.n
    rng = np.random.default_rng(25)
    cases = []
    for localize, space, error in (
        (symplectic.localize_x, symplectic.dual(code.stabilizer, code.n, code.p), NotInDualError),
        (symplectic.localize_z, code.self_dual, NotInSelfDualError),
    ):
        vecs = rng.integers(0, p, size=(200, space.shape[0])) @ space
        vecs[1::2] += rng.integers(0, p, size=(100, 2 * n)) * (rng.random((100, 1)) < 0.8)  # most leave the space
        vecs %= p
        inside = [linalg.row_space_contains(space, vec, p) for vec in vecs]
        assert 20 < sum(inside) < 180
        cases += [(localize, error, vec, member) for vec, member in zip(vecs, inside)]
    every_share = tuple(range(1, n + 1))
    calls = _counting_rref(monkeypatch)
    for localize, error, vec, member in cases:
        if member:
            u, w = localize(code, vec, every_share)
            assert not u.any() and np.array_equal(w, vec)
        else:
            with pytest.raises(error):
                localize(code, vec, every_share)
    assert calls == []  # no elimination decides membership


def test_self_dual_completion_reference(hexcode):
    cm, pairs = symplectic.self_dual_completion(np.array(H_ROWS), 6, 3)
    assert linalg.rank(cm, 3) == 6
    assert not symplectic.symplectic_gram(cm, cm, 3).any()
    for h in H_ROWS:
        assert linalg.row_space_contains(cm, h, 3)
    assert len(pairs) == 2
    xs = np.array([x for x, _ in pairs])
    zs = np.array([z for _, z in pairs])
    assert np.array_equal(symplectic.symplectic_gram(xs, zs, 3), np.eye(2, dtype=int))
    assert not symplectic.symplectic_gram(xs, xs, 3).any()
    assert not symplectic.symplectic_gram(zs, zs, 3).any()
    # the reference self-dual rows are one valid alternative
    reference = np.array(H_ROWS + Z_ROWS)
    assert linalg.rank(reference, 3) == 6
    assert not symplectic.symplectic_gram(reference, reference, 3).any()


def test_self_dual_completion_already_self_dual():
    stab = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])  # n=2, p=2: X1, X2
    cm, pairs = symplectic.self_dual_completion(stab, 2, 2)
    assert pairs == []
    assert oracles.row_space_equal(cm, stab, 2)


def test_self_dual_completion_rejects_non_isotropic():
    bad = np.array([[1, 0], [0, 1]])  # <(1|0),(0|1)> = 1
    with pytest.raises(NotSelfOrthogonalError):
        symplectic.self_dual_completion(bad, 1, 2)


def test_self_dual_completion_random_property():
    for seed in range(12):
        p = (2, 3, 5)[seed % 3]
        n = 3 + seed % 3
        k = seed % (n - 1) if n > 1 else 0
        code = symplectic.random_self_orthogonal_code(p, n, k, seed)
        cm, pairs = symplectic.self_dual_completion(code.stabilizer, n, p)
        assert linalg.rank(cm, p) == n
        assert not symplectic.symplectic_gram(cm, cm, p).any()
        assert len(pairs) == k


def test_qualified_sets_reference(hexcode):
    minimal = symplectic.qualified_sets(hexcode)
    assert len(minimal) == 15
    assert all(len(m) == 4 for m in minimal)
    assert set(minimal) == set(combinations(range(1, 7), 4))


def test_full_set_always_qualified(hexcode):
    assert symplectic.erasure_correctable(hexcode, ())
    assert tuple(range(1, 7)) in symplectic.all_qualified_sets(hexcode)


def test_random_code_validates_across_seeds():
    for seed in range(6):
        for p, n, k in ((3, 6, 2), (2, 4, 0), (2, 5, 1)):
            code = symplectic.random_self_orthogonal_code(p, n, k, seed)
            symplectic.validate_code(code)  # raises on any violation
            assert code.k == k


def test_validate_rejects_bad_pairing(hexcode):
    # swapped z rows, and z rows doubled to pair as diag(2, 2): only
    # build_code rescales a diagonal pairing, validate_code rejects it
    swapped, doubled = hexcode.logical_z[::-1].copy(), 2 * hexcode.logical_z % 3
    for lz, pairing in ((swapped, [[0, 1], [1, 0]]), (doubled, [[2, 0], [0, 2]])):
        broken = symplectic.CodeSpec(
            p=3,
            n=6,
            k=2,
            stabilizer=hexcode.stabilizer,
            self_dual=hexcode.self_dual,
            logical_x=hexcode.logical_x,
            logical_z=lz,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                symplectic.validate_code(broken)
        assert str(err.value) == f"logical pairing is not the identity matrix: {pairing}"


def _corrupt_row(code, part, index):
    """The code with one row of one part moved out of the space it must lie
    in, keeping every check that runs before that part's membership check."""
    rows = {name: getattr(code, name).copy() for name in ("stabilizer", "logical_x", "logical_z")}
    x1 = code.logical_x[0]
    if part == "stabilizer":
        rows[part][index] = x1  # in dual(C) so still isotropic with C, but outside Cm
    elif part == "logical_x":
        outside_dual = next(e for e in np.eye(2 * code.n, dtype=np.int64)
                            if symplectic.symplectic_gram(code.stabilizer, e, code.p).any())
        rows[part][index] = (rows[part][index] + outside_dual) % code.p
    else:
        rows[part][index] = (rows[part][index] + x1) % code.p  # x1 pairs with z1, so outside Cm
    return dataclasses.replace(code, **rows)


def _corrupt_row_2(code, part):
    return _corrupt_row(code, part, 1)


@pytest.mark.parametrize(
    "part, message",
    [
        ("stabilizer", "stabilizer row 2 outside the self-dual space"),
        ("logical_x", "logical x 2 outside the dual space"),
        ("logical_z", "logical z 2 outside the self-dual space"),
    ],
)
def test_validate_names_first_row_outside_its_space(hexcode, part, message):
    symplectic.validate_code(hexcode)
    with pytest.raises(ValidationError) as err:
        symplectic.validate_code(_corrupt_row_2(hexcode, part))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "part, message",
    [
        ("stabilizer", "stabilizer row 1 outside the self-dual space"),
        ("logical_x", "logical x 1 outside the dual space"),
        ("logical_z", "logical z 1 outside the self-dual space"),
    ],
)
def test_validate_names_row_1_outside_its_space(hexcode, part, message):
    with pytest.raises(ValidationError) as err:
        symplectic.validate_code(_corrupt_row(hexcode, part, 0))
    assert str(err.value) == message


def test_validate_names_logical_x_outside_the_dual_by_its_stabilizer_products(hexcode):
    # x1 + x2 + z1 + (a vector outside dual(C)) also breaks the pairing and
    # the commutation checks; the dual-space check runs first and names row 1
    outside_dual = np.eye(2 * hexcode.n, dtype=np.int64)[0]
    bad = (hexcode.logical_x[0] + hexcode.logical_x[1] + hexcode.logical_z[0] + outside_dual) % 3
    assert not linalg.row_space_contains(symplectic.dual(hexcode.stabilizer, hexcode.n, hexcode.p), bad, 3)
    assert symplectic.symplectic_gram(bad, hexcode.stabilizer, 3).any()
    lx = np.vstack([bad, hexcode.logical_x[1]])
    with pytest.raises(ValidationError) as err:
        symplectic.validate_code(dataclasses.replace(hexcode, logical_x=lx))
    assert str(err.value) == "logical x 1 outside the dual space"


def test_validate_rejects_logical_x_dependent_modulo_the_self_dual_space(hexcode):
    # x2 := x1 + h1 lies in dual(C) but in the coset of x1; the pairing with
    # the z rows is the check that sees it
    lx = np.vstack([hexcode.logical_x[0], (hexcode.logical_x[0] + hexcode.stabilizer[0]) % 3])
    assert linalg.rank(np.vstack([hexcode.self_dual, lx]), 3) < hexcode.n + hexcode.k
    with pytest.raises(ValidationError) as err:
        symplectic.validate_code(dataclasses.replace(hexcode, logical_x=lx))
    assert str(err.value) == "logical pairing is not the identity matrix: [[1, 0], [1, 0]]"


@given(st.data())
def test_validate_rejects_every_logical_x_block_dependent_modulo_the_self_dual_space(data):
    p, n, k = data.draw(st.sampled_from([(2, 5, 2), (3, 5, 2), (5, 4, 2), (3, 6, 3)]))
    code = symplectic.random_self_orthogonal_code(p, n, k, data.draw(st.integers(0, 3)))
    mix = np.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                                      min_size=k, max_size=k)))
    shift = np.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                                        min_size=k, max_size=k)))
    lx = (mix @ code.logical_x + shift @ code.self_dual) % p
    if linalg.rank(np.vstack([code.self_dual, lx]), p) < n + k:
        with pytest.raises(ValidationError):
            symplectic.validate_code(dataclasses.replace(code, logical_x=lx))


def test_build_code_normalizes_reference_pairing():
    with pytest.warns(UserWarning, match="rescaled"):
        code = symplectic.build_code(
            3,
            np.array(H_ROWS),
            self_dual=np.array(H_ROWS + Z_ROWS),
            logical_x=np.array(X_ROWS),
            logical_z=np.array(Z_ROWS),
        )
    pairing = symplectic.symplectic_gram(code.logical_x, code.logical_z, 3)
    assert np.array_equal(pairing, np.eye(2, dtype=int))
    # normalization rescales each z row by the inverse of its raw pairing
    assert np.array_equal(code.logical_z[0], (2 * Z_ROWS[0]) % 3)


def test_bundled_code_load_warns_with_the_exact_rescale_message():
    # the built-in [[6,2,3]] document, as the demo and a hex sweep load it
    with pytest.warns(UserWarning) as caught:
        specfile.parse_code_document(demo.SIX_SHARE_QUTRIT_DOCUMENT)
    assert [str(w.message) for w in caught] == ["logical pairing was diag([2 2]); rescaled z rows to normalize it"]


@pytest.mark.parametrize("diag", [[2], [1, 12], [12, 1, 5], [3] * 30, [3] * 40])
def test_rescale_message_shows_the_pairing_as_array2string_on_one_line(diag):
    # k = n qudits with an empty stabilizer: x_i = X_i and z_i = diag[i] Z_i
    # pair as diag at p = 13; past 75 columns array2string would wrap
    n = len(diag)
    eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    with pytest.warns(UserWarning) as caught:
        symplectic.build_code(
            13, np.zeros((0, 2 * n), dtype=np.int64), self_dual=np.hstack([zero, eye]),
            logical_x=np.hstack([eye, zero]), logical_z=np.hstack([zero, np.diag(diag)]),
        )
    shown = np.array2string(np.array(diag)).replace("\n ", " ")
    assert [str(w.message) for w in caught] == [f"logical pairing was diag({shown}); rescaled z rows to normalize it"]


def test_build_code_derives_missing_logicals():
    code = symplectic.build_code(3, np.array(H_ROWS))
    symplectic.validate_code(code)
    code2 = symplectic.build_code(3, np.array(H_ROWS), self_dual=np.array(H_ROWS + Z_ROWS))
    symplectic.validate_code(code2)
    # derived z rows really live in the supplied self-dual space
    for z in code2.logical_z:
        assert linalg.row_space_contains(np.array(H_ROWS + Z_ROWS), z, 3)


def test_build_code_reports_an_over_long_self_dual_block_as_written(hexcode):
    rows = np.vstack([hexcode.self_dual, hexcode.self_dual[:1]])
    with pytest.raises(ValidationError) as err:
        symplectic.build_code(3, hexcode.stabilizer, self_dual=rows)
    assert str(err.value) == "self_dual must be 6 rows of length 12, got (7, 12)"


# Inputs per code: p, stabilizer, self-dual rows (in an order that makes the
# derivation pick non-leading rows), logical x and z mixed with stabilizer rows.
PIN_INPUTS = {
    "hex": (3, ['100202|020112', '010000|001222', '001200|220201', '000011|211002'], ['000001|221020', '000100|122000', '000011|211002', '001200|220201', '010000|001222', '100202|020112'], ['100202|121212', '100202|120100'], ['000211|122002', '000010|020012']),
    "p2": (2, ['11111|11001', '00001|00111', '11000|00110'], ['10010|10101', '11100|10111', '11000|00110', '00001|00111', '11111|11001'], ['01011|01010', '00100|01001'], ['00100|10001', '01010|10011']),
    "p5": (5, ['4334|2341', '1023|2320'], ['3022|3321', '1213|3232', '1023|2320', '4334|2341'], ['2104|4312', '3221|4243'], ['0310|4143', '3001|4004']),
}

# (self_dual, logical_x, logical_z) rows build_code derives from each given
# subset of the inputs above.
PINNED_DERIVATIONS = {
    ("hex", "nothing"): (['100202|020112', '010000|001222', '001200|220201', '000011|211002', '021100|200000', '110110|110000'], ['211010|000000', '010021|000000'], ['021100|200000', '110110|110000']),
    ("hex", "self_dual"): (['000001|221020', '000100|122000', '000011|211002', '001200|220201', '010000|001222', '100202|020112'], ['012100|011000', '112002|000000'], ['000001|221020', '000100|122000']),
    ("hex", "logical_z"): (['100202|020112', '010000|001222', '001200|220201', '000011|211002', '000211|122002', '000010|020012'], ['221011|020012', '021100|200000'], ['000211|122002', '000010|020012']),
    ("hex", "self_dual+logical_z"): (['000001|221020', '000100|122000', '000011|211002', '001200|220201', '010000|001222', '100202|020112'], ['221001|000000', '021200|022000'], ['000211|122002', '000010|020012']),
    ("hex", "logical_x+self_dual"): (['000001|221020', '000100|122000', '000011|211002', '001200|220201', '010000|001222', '100202|020112'], ['100202|121212', '100202|120100'], ['000200|211000', '000002|112010']),
    ("p2", "nothing"): (['11000|00110', '00110|11000', '00001|00111', '00101|10000', '10000|00100'], ['11000|00000', '00110|00000'], ['00101|10000', '10000|00100']),
    ("p2", "self_dual"): (['10010|10101', '11100|10111', '11000|00110', '00001|00111', '11111|11001'], ['00110|00000', '11110|00000'], ['10010|10101', '11100|10111']),
    ("p2", "logical_z"): (['11111|11001', '00001|00111', '11000|00110', '00100|10001', '01010|10011'], ['11110|00000', '00110|00000'], ['00100|10001', '01010|10011']),
    ("p2", "self_dual+logical_z"): (['10010|10101', '11100|10111', '11000|00110', '00001|00111', '11111|11001'], ['11110|00000', '00110|00000'], ['00100|10001', '01010|10011']),
    ("p2", "logical_x+self_dual"): (['10010|10101', '11100|10111', '11000|00110', '00001|00111', '11111|11001'], ['01011|01010', '00100|01001'], ['11100|10111', '10010|10101']),
    ("p5", "nothing"): (['1023|2320', '0104|3222', '4040|1000', '3200|2300'], ['1100|0000', '0221|0000'], ['4040|1000', '3200|2300']),
    ("p5", "self_dual"): (['3022|3321', '1213|3232', '1023|2320', '4334|2341'], ['1100|0000', '2313|0000'], ['3022|3321', '1213|3232']),
    ("p5", "logical_z"): (['4334|2341', '1023|2320', '0310|4143', '3001|4004'], ['3242|0000', '4400|0000'], ['0310|4143', '3001|4004']),
    ("p5", "self_dual+logical_z"): (['3022|3321', '1213|3232', '1023|2320', '4334|2341'], ['3242|0000', '4400|0000'], ['0310|4143', '3001|4004']),
    ("p5", "logical_x+self_dual"): (['3022|3321', '1213|3232', '1023|2320', '4334|2341'], ['2104|4312', '3221|4243'], ['4342|2323', '2033|2234']),
}


@pytest.mark.parametrize("name, given", sorted(PINNED_DERIVATIONS))
def test_build_code_derivation_rows_pinned(name, given):
    p, stab, cm, lx, lz = PIN_INPUTS[name]
    supplied = {"self_dual": cm, "logical_x": lx, "logical_z": lz}
    kwargs = {
        key: np.array([row(text) for text in supplied[key]])
        for key in given.split("+")
        if key in supplied
    }
    code = symplectic.build_code(p, np.array([row(text) for text in stab]), **kwargs)
    for part, expected in zip(("self_dual", "logical_x", "logical_z"), PINNED_DERIVATIONS[name, given]):
        assert np.array_equal(getattr(code, part), np.array([row(text) for text in expected])), part


def test_build_code_logical_x_only_pairs_with_given_rows():
    # Regression: the self-dual completion used to ignore the given x rows,
    # so an x_i inside it had no partner. 12 of these 45 codes failed.
    for p in (2, 3, 5):
        for seed in range(15):
            ref = symplectic.random_self_orthogonal_code(p, 6, 2, seed)
            code = symplectic.build_code(p, ref.stabilizer, logical_x=ref.logical_x)
            assert np.array_equal(code.logical_x, ref.logical_x)
            assert np.array_equal(code.self_dual[:4], ref.stabilizer)
            assert np.array_equal(code.self_dual[4:], code.logical_z)


code_params = st.tuples(
    st.sampled_from((2, 3, 5)), st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**16)
)


def _random_code(params):
    p, n, k, seed = params
    return symplectic.random_self_orthogonal_code(p, n, min(k, n), seed)


@settings(max_examples=40)
@given(code_params)
def test_erasure_correctable_equals_section_oracle(params):
    code = _random_code(params)
    for size in range(code.n + 1):
        for missing in combinations(range(1, code.n + 1), size):
            assert symplectic.erasure_correctable(code, missing) == oracles.section_correctable(
                code, missing
            ), (params, missing)


@settings(max_examples=40)
@given(code_params)
def test_all_qualified_sets_equals_brute_force_filter(params):
    code = _random_code(params)
    assert symplectic.all_qualified_sets(code) == oracles.brute_force_qualified_sets(code)


@settings(max_examples=60)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**16))
def test_biorthogonalize_equals_row_by_row_loop(p, n, k, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    es, fs = symplectic.random_symplectic_basis(n, p, rng)
    other = es[:k]
    mix = rng.integers(0, p, size=(k, k))
    while linalg.rank(mix, p) < k:
        mix = rng.integers(0, p, size=(k, k))
    cand = (mix @ fs[:k] + rng.integers(0, p, size=(k, n)) @ es) % p
    expected = oracles.biorthogonalize_loop(cand, other, p)
    assert np.array_equal(symplectic._biorthogonalize(cand, other, p), expected)
    assert np.array_equal(symplectic.symplectic_gram(expected, other, p), np.eye(k, dtype=int))
    assert not symplectic.symplectic_gram(expected, expected, p).any()


@pytest.mark.parametrize("rows", ("extension", "full"))
def test_build_code_of_a_full_spec_reduces_stabilizer_and_self_dual_once(monkeypatch, rows):
    seen = _recorded_eliminations(monkeypatch, keep=linalg.as_field)
    for p, n, k, seed in ((3, 6, 2, 0), (2, 7, 3, 1), (5, 4, 1, 2), (3, 5, 4, 3)):
        ref = symplectic.random_self_orthogonal_code(p, n, k, seed)
        given = ref.self_dual[n - k :] if rows == "extension" else ref.self_dual
        seen.clear()
        code = symplectic.build_code(
            p, ref.stabilizer, self_dual=given, logical_x=ref.logical_x, logical_z=ref.logical_z
        )
        assert np.array_equal(code.self_dual, ref.self_dual)
        # the stabilizer leads a self-dual block of rank n: that block is the
        # load's one elimination, and the stabilizer is never reduced alone
        assert len(seen) == 1 and np.array_equal(seen[0], code.self_dual), (p, n, k)


@pytest.mark.parametrize("given", ["nothing", "self_dual", "logical_x", "logical_z", "self_dual+logical_x+logical_z"])
def test_each_load_checks_self_orthogonality_once(monkeypatch, hexcode, given):
    calls = []
    check = symplectic._check_self_orthogonal

    def counted_check(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(symplectic, "_check_self_orthogonal", counted_check)
    kwargs = {part: getattr(hexcode, part) for part in given.split("+") if part != "nothing"}
    symplectic.build_code(3, hexcode.stabilizer, **kwargs)
    assert len(calls) == 1
    # X on share 1 does not commute with stabilizer row 3; the load names
    # the pair before deriving anything
    bad = np.vstack([row("100000|000000"), hexcode.stabilizer[1:]])
    with pytest.raises(NotSelfOrthogonalError, match=r"^stabilizer rows 1 and 3 have symplectic product 2$"):
        symplectic.build_code(3, bad, **kwargs)
    calls.clear()
    symplectic.validate_code(hexcode)
    assert len(calls) == 1


PRIMES = st.sampled_from(linalg.SUPPORTED_PRIMES)


@settings(max_examples=60)
@given(PRIMES, st.integers(1, 8), st.integers(0, 2**16))
def test_random_symplectic_basis_equals_pairwise_loop(p, n, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    es, fs = symplectic.random_symplectic_basis(n, p, rng)
    expected_es, expected_fs = oracles.random_symplectic_basis_loop(n, p, oracle_rng)
    assert np.array_equal(es, expected_es) and np.array_equal(fs, expected_fs)
    # the same draws, so both generators are left in the same state
    assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


@settings(max_examples=80)
@given(PRIMES, st.integers(1, 5), st.integers(0, 4), st.integers(0, 7), st.integers(0, 2**16))
@example(p=2, n=3, base_rows=0, candidates=5, seed=1)  # empty base
def test_extend_basis_equals_rank_loop(p, n, base_rows, candidates, seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, p, size=(base_rows, 2 * n))
    rows = np.zeros((0, 2 * n), dtype=np.int64)
    for _ in range(candidates):
        # a random row, a zero row or a combination of the base and earlier rows
        kind, earlier = rng.integers(3), np.vstack([base, rows])
        if kind == 2 and len(earlier):
            candidate = rng.integers(0, p, size=len(earlier)) @ earlier % p
        else:
            candidate = rng.integers(0, p, size=2 * n) * (kind == 0)
        rows = np.vstack([rows, candidate])
    kept = symplectic._extend_basis(base, rows, p)
    assert kept.dtype == np.int64
    assert np.array_equal(kept, oracles.extend_basis_rankloop(base, rows, p))


@settings(max_examples=60)
@given(PRIMES, st.integers(1, 6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 2**16))
def test_hyperbolic_reduce_equals_pair_by_pair_loop(p, n, pairs, count, seed):
    pairs = min(pairs, n)
    rng = np.random.default_rng(seed)
    es, fs = symplectic.random_symplectic_basis(n, p, rng)
    vectors = rng.integers(0, p, size=(count, 2 * n))
    expected = vectors
    for j in range(pairs):
        expected = oracles.hyperbolic_reduce_loop(expected, es[j], fs[j], p)
    reduced = symplectic._hyperbolic_reduce(vectors, es[:pairs], fs[:pairs], p)
    assert np.array_equal(reduced, expected.reshape(count, 2 * n))


@settings(max_examples=60)
@given(PRIMES, st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**16))
def test_self_dual_completion_equals_pairing_loop(p, n, k, seed):
    code = symplectic.random_self_orthogonal_code(p, n, min(k, n), seed)
    cm, pairs = symplectic.self_dual_completion(code.stabilizer, n, p)
    expected_cm, expected_pairs = oracles.self_dual_completion_loop(code.stabilizer, n, p)
    assert np.array_equal(cm, expected_cm)
    assert len(pairs) == len(expected_pairs)
    for (x, z), (expected_x, expected_z) in zip(pairs, expected_pairs):
        assert np.array_equal(x, expected_x) and np.array_equal(z, expected_z)


def _recorded_eliminations(monkeypatch, keep=lambda A, p: np.shape(A)):
    """Record keep(A, p) of the matrix A of every linalg.rref and linalg.rank
    call from here on."""
    seen = []

    def recording(eliminate):
        def recorded(A, p):
            seen.append(keep(A, p))
            return eliminate(A, p)

        return recorded

    for name in ("rref", "rank"):
        monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
    return seen


def test_random_symplectic_basis_eliminates_nothing(monkeypatch):
    seen = _recorded_eliminations(monkeypatch)
    for p, n in ((2, 9), (3, 6), (13, 4)):
        symplectic.random_symplectic_basis(n, p, np.random.default_rng(n))
    assert seen == []


def test_random_code_is_validated_by_one_elimination(monkeypatch):
    # the stabilizer rows are the first n - k self-dual rows, so the one
    # reduction of the self-dual rows also shows them independent
    seen = _recorded_eliminations(monkeypatch)
    for p, n, k, seed in ((2, 9, 2, 0), (3, 6, 2, 1), (5, 4, 1, 2), (13, 3, 3, 3), (2, 5, 0, 4)):
        seen.clear()
        symplectic.random_self_orthogonal_code(p, n, k, seed)
        assert seen == [(n, 2 * n)], (p, n, k)


def test_a_stabilizer_only_load_eliminates_three_times(monkeypatch):
    # the stabilizer's independence, dual(C) and the coset representatives;
    # the completed Cm has rank n by construction and is not ranked again
    codes = [symplectic.random_self_orthogonal_code(*args) for args in ((2, 9, 2, 0), (3, 6, 2, 1), (5, 4, 1, 2))]
    seen = _recorded_eliminations(monkeypatch)
    for code in codes:
        seen.clear()
        loaded = symplectic.build_code(code.p, code.stabilizer)
        assert len(seen) == 3, (code.p, code.n, code.k)
        symplectic.validate_code(loaded)


@pytest.mark.parametrize("leading", [False, True])
def test_validate_code_names_dependent_stabilizer_rows_first(hexcode, leading):
    # a repeated stabilizer row, beside a self-dual basis of rank n (not
    # leading) or as the self-dual basis's own first rows (leading)
    stab = hexcode.stabilizer.copy()
    stab[1] = stab[0]
    cm = np.vstack([stab, hexcode.self_dual[4:]]) if leading else hexcode.self_dual
    code = dataclasses.replace(hexcode, stabilizer=stab, self_dual=cm)
    with pytest.raises(ValidationError, match="^stabilizer rows are linearly dependent$"):
        symplectic.validate_code(code)


def test_extend_basis_eliminates_once(monkeypatch):
    rng = np.random.default_rng(4)
    cases = [(rng.integers(0, 3, size=(b, 8)), rng.integers(0, 3, size=(r, 8))) for b, r in ((0, 6), (3, 5), (4, 0))]
    seen = _recorded_eliminations(monkeypatch)
    for base, rows in cases:
        seen.clear()
        symplectic._extend_basis(base, rows, 3)
        assert seen == [(8, len(base) + len(rows))]


def _grid(name):
    """A code grid of perfbench/workloads.py, read from its source."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


# sha256 of the four row blocks (stabilizer, self_dual, logical_x, logical_z)
# as little-endian int64, for every seeded code the benchmark generates.
GRID_DIGESTS = {
    (2, 16, 2, 0): "6c1ed0330f940757a1c533cfd01229383642fb7b62c86b2b94b54a8eb9aab94a",
    (2, 15, 3, 2): "0dd2033e110c6bc858c7a704b4baa05e2801d76e2c3dc6a941cac45c19d34b1e",
    (3, 10, 2, 3): "6c802541c2caa69d69d80b5dafe5eeef8677c3aa68274b4dfa2ce23ef9c2a6e3",
    (5, 6, 2, 0): "43a0b20458cd349db3856eea2de0b0c3a379b168e2821a67064bbade51058c7e",
    (2, 12, 2, 0): "75ed05114a060bfffbc23ae558cd403a8ecd563c3b663053c6671819f9451859",
    (3, 10, 2, 0): "aea55ae5c868d178e991c14aabf2f34bb722ca93c09986882180d34ab86fd4e5",
}


def test_benchmark_grid_codes_are_pinned():
    grids = _grid("WIDE_GRID") + _grid("ACCESS_GRID")
    assert set(grids) == set(GRID_DIGESTS)
    for params in grids:
        code = symplectic.random_self_orthogonal_code(*params)
        digest = hashlib.sha256()
        for block in (code.stabilizer, code.self_dual, code.logical_x, code.logical_z):
            digest.update(np.ascontiguousarray(block, dtype="<i8").tobytes())
        assert digest.hexdigest() == GRID_DIGESTS[params], params


def test_random_code_at_sixty_qutrits_validates():
    code = symplectic.random_self_orthogonal_code(3, 60, 2, 0)
    symplectic.validate_code(code)
    assert (code.n, code.k) == (60, 2)

@settings(max_examples=60)
@given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**16))
def test_subset_rank_table_equals_one_rank_per_subset(p, n, k, seed):
    # k = n included: G has no rows and every rank is 0; the lattice's
    # ranks are those of G alone with or without target columns
    code = symplectic.random_self_orthogonal_code(p, n, min(k, n), seed)
    table = symplectic._subset_lattice(code)[0]
    assert table.shape == (2**n,)
    for subset in range(2**n):
        members = [j for j in range(1, n + 1) if subset >> (j - 1) & 1]
        columns = symplectic._coordinate_columns(members, n)
        assert table[subset] == linalg.rank(code.stabilizer[:, columns], p), (subset, members)
    targets = np.vstack([code.logical_x, code.logical_z])
    assert np.array_equal(symplectic._subset_lattice(code, targets)[0], table)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**16))
@example(3, 4, 4, 1)  # d = 0: no stabilizer row, only S = every share is qualified
@example(5, 5, 0, 2)  # k = 0: no target, every nonempty set is qualified
def test_subset_lattice_equals_the_rank_formula_the_sections_and_one_split_per_set(p, n, k, seed):
    # the lattice's split of the 2k logical rows, read as "S qualified" at
    # M = complement(S), against _qualified_mask's rank formula and the
    # brute-force sections; its ranks against the slot-by-slot oracle; its
    # coefficients against one split_on_missing per set; and the sweep's
    # rows and coefficients read from it
    code = symplectic.random_self_orthogonal_code(p, n, min(k, n), seed)
    n, d = code.n, code.stabilizer.shape[0]
    targets = np.vstack([code.logical_x, code.logical_z])
    ranks, split, bases = symplectic._subset_lattice(code, targets)
    assert np.array_equal(ranks, oracles.subset_ranks_reduced_per_slot(code))
    qualified = split[::-1] & (np.arange(2**n) > 0)
    assert np.array_equal(qualified, symplectic._qualified_mask(code))
    members = [tuple(j for j in range(1, n + 1) if subset >> (j - 1) & 1) for subset in range(2**n)]
    by_size = sorted((m for subset, m in enumerate(members) if qualified[subset]), key=lambda m: (len(m), m))
    assert by_size == oracles.brute_force_qualified_sets(code)
    for subset, missing in enumerate(members):
        try:
            expected = symplectic.split_on_missing(code, targets, missing)[2]
        except NoSolutionError:
            assert not split[subset], missing
            continue
        assert split[subset] and np.array_equal(bases[subset, :, d:].T, expected), missing
    rows, coeffs = symplectic.qualified_splits(code, targets)
    assert symplectic.members_of(rows) == by_size and coeffs.shape == (len(by_size), 2 * code.k, d)
    for available, c in zip(by_size, coeffs):
        assert np.array_equal(c, symplectic.split_on_missing(code, targets, symplectic.complement(available, n))[2])


@pytest.mark.parametrize("p, t", [(5, 2), (7, 3), (11, 4), (13, 6)])
def test_threshold_codes_qualify_by_size_in_the_rank_table_and_the_split(p, t):
    # the ((t, 2t-1)) polynomial scheme: a share set is qualified exactly
    # when it holds at least t shares, a rule that reads no rank; the
    # lattice's split is indexed by the missing shares, the reversed table,
    # and the sweep's rows are the sets of at least t shares, in order
    code = oracles.polynomial_threshold_code(p, t)
    n = code.n
    members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # share j + 1 in bit j
    by_size = members.sum(axis=1) >= t
    assert np.array_equal(symplectic._qualified_mask(code), by_size)
    logical = np.vstack([code.logical_x, code.logical_z])
    _, split, _ = symplectic._subset_lattice(code, logical)
    assert np.array_equal(split[::-1], by_size)
    rows, _ = symplectic.qualified_splits(code, logical)
    expected = [m for size in range(t, n + 1) for m in combinations(range(1, n + 1), size)]
    assert symplectic.members_of(rows) == expected


@pytest.mark.parametrize("seed", [3, 4])
def test_subset_rank_table_at_the_largest_accumulator(seed):
    # p = 13 and n - k = 15 (k = 0) at the enumeration guard: a row's product
    # with a basis sums 15 terms of up to 12^2 in uint16, and a cleared entry
    # reaches 168 in uint8 before its reduction mod p, so the whole table is
    # held to the oracle's
    n = symplectic.MAX_ENUMERATION_SHARES
    code = symplectic.random_self_orthogonal_code(13, n, 0, seed)
    table = symplectic._subset_lattice(code)[0]
    assert np.array_equal(table, oracles.subset_ranks_reduced_per_slot(code))
    qualified = symplectic._qualified_mask(code)
    subsets = np.random.default_rng(13).integers(0, 2**n, size=150).tolist() + [0, 1, 2**n - 2, 2**n - 1]
    for subset in subsets:
        members = [j for j in range(1, n + 1) if subset >> (j - 1) & 1]
        columns = symplectic._coordinate_columns(members, n)
        assert table[subset] == linalg.rank(code.stabilizer[:, columns], 13), members
        missing = symplectic.complement(members, n)
        assert qualified[subset] == (bool(members) and symplectic.erasure_correctable(code, missing)), members


@pytest.mark.parametrize("p, n", [(2, 1), (3, 4), (13, 5), (2, 7)])
def test_minimal_sets_of_a_k0_code_are_the_singletons(p, n):
    # with no secret every nonempty set is qualified; the empty set never counts
    code = symplectic.random_self_orthogonal_code(p, n, 0, n)
    assert symplectic.qualified_sets(code) == [(j,) for j in range(1, n + 1)]
    assert len(symplectic.all_qualified_sets(code)) == 2**n - 1


def test_minimal_set_of_an_n_equals_k_code_is_every_share():
    code = symplectic.random_self_orthogonal_code(3, 4, 4, 1)
    assert not symplectic._subset_lattice(code)[0].any()
    assert symplectic.qualified_sets(code) == [(1, 2, 3, 4)]
    assert symplectic.all_qualified_sets(code) == [(1, 2, 3, 4)]
