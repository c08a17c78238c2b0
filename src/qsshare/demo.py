"""Built-in six-share qutrit code and the end-to-end walkthrough.

The [[6,2,3]] qutrit code below shares a 2-qudit secret among 6 participants;
any 4 of them form a qualified set. Its data doubles as the reference input
for the test suite.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from . import certify, circuits, pauli, specfile, symplectic

SIX_SHARE_QUTRIT_DOCUMENT = """\
# [[6,2,3]] qutrit share code
p 3
n 6
k 2
stab 100202|020112
stab 010000|001222
stab 001200|220201
stab 000011|211002
selfdual 000100|122000
selfdual 000001|221020
logicalx 000000|101100
logicalx 000000|100021
logicalz 000100|122000
logicalz 000001|221020
"""

DEMO_SHARES = (3, 4, 5, 6)


def six_share_qutrit_code() -> symplectic.CodeSpec:
    """The built-in [[6,2,3]] qutrit code (logical z rows normalized on load)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return specfile.parse_code_document(SIX_SHARE_QUTRIT_DOCUMENT)


def _row(vec, n, p):
    return specfile.format_row(np.asarray(vec, dtype=np.int64), n, p)


def run_demo() -> str:
    """Walk the built-in code end to end and return the printed report."""
    out = io.StringIO()
    code = six_share_qutrit_code()
    p, n, k = code.p, code.n, code.k
    conv = pauli.make_convention(code)
    print(f"six-share qutrit code: p={p}, n={n}, k={k}", file=out)
    print("stabilizer rows:", file=out)
    for i, row in enumerate(code.stabilizer, start=1):
        print(f"  h{i} = {_row(row, n, p)}", file=out)
    print("logical pairs (pairing normalized to the identity):", file=out)
    for i in range(k):
        print(
            f"  x{i + 1} = {_row(code.logical_x[i], n, p)}"
            f"   z{i + 1} = {_row(code.logical_z[i], n, p)}",
            file=out,
        )
    print(f"dim C = {n - k}, dim Cm = {n}, dim C_perp = {n + k}", file=out)
    minimal = symplectic.qualified_sets(code)
    sizes = sorted({len(m) for m in minimal})
    print(f"minimal qualified sets: {len(minimal)} (sizes {sizes})", file=out)

    members = DEMO_SHARES
    print(f"\nreconstruction for shares J = {{{', '.join(map(str, members))}}}", file=out)
    plan = circuits.plan_reconstruction(code, conv, members)
    for i in range(k):
        w, y, u, v = plan.w[0, i], plan.y[0, i], plan.u[0, i], plan.v[0, i]
        # w is in C_perp when orthogonal to C; y is in Cm, its own dual, when orthogonal to Cm
        ok_w = not symplectic.symplectic_gram(w, code.stabilizer, p).any() and not any(
            symplectic.project_vector(w, symplectic.complement(members, n), n)
        )
        ok_y = not symplectic.symplectic_gram(y, code.self_dual, p).any() and not any(
            symplectic.project_vector(y, symplectic.complement(members, n), n)
        )
        print(f"  w{i + 1} = {_row(w, n, p)}  (in C_perp, supported on J: {'ok' if ok_w else 'FAIL'})", file=out)
        print(f"  u{i + 1} = {_row(u, n, p)}", file=out)
        print(f"  y{i + 1} = {_row(y, n, p)}  (in Cm, supported on J: {'ok' if ok_y else 'FAIL'})", file=out)
        print(f"  v{i + 1} = {_row(v, n, p)}", file=out)
    for i in range(k):
        print(f"eta(M(u{i + 1})) = {pauli.format_phase(plan.eta_u[0, i], p)}", file=out)
    for i in range(k):
        print(f"eta(M(v{i + 1})) = {pauli.format_phase(plan.eta_v[0, i], p)}", file=out)
    for i in range(k):
        print(f"beta{i + 1} = {pauli.format_phase(plan.beta[0, i], p)}", file=out)
    for i in range(k):
        print(f"gamma{i + 1} = {pauli.format_phase(plan.gamma[0, i], p)}", file=out)

    circuit = circuits.synthesize_reconstruction(plan)
    counts = circuit.counts()
    print(
        f"\ngate counts: {circuit.two_qudit_count()} two-qudit"
        f" (bound 2k|J| = {2 * k * len(members)}),"
        f" {counts['PPOW']} phase, {counts['F']} Fourier",
        file=out,
    )
    untouched = sorted(set(range(1, n + 1)) - circuit.touched_qudits())
    print(f"untouched shares: {untouched}", file=out)

    rng = np.random.default_rng(20240521)
    secrets = (np.eye(p**k)[0], certify.random_secret(p, k, rng))
    (report,) = certify.certify_reconstruction(code, conv, plan, secrets)
    fid, pur = min(report.fidelity), min(report.purity)
    print(f"verification: fidelity {fid:.9f}  purity {pur:.9f}", file=out)
    return out.getvalue()
