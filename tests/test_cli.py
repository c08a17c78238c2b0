import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qsshare
from qsshare import certify, circuits, cli, linalg, pauli, sim, specfile, symplectic
from qsshare.demo import SIX_SHARE_QUTRIT_DOCUMENT


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "code.qss"
    path.write_text(SIX_SHARE_QUTRIT_DOCUMENT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_reference(capsys, spec_path):
    rc, out, _ = run(capsys, "analyze", spec_path)
    assert rc == 0
    assert "dim C = 4" in out
    assert "dim Cm = 6" in out
    assert "dim C_perp = 8" in out
    assert "minimal qualified sets (15)" in out
    assert "{3,4,5,6}" in out


def test_analyze_k0(capsys, tmp_path):
    path = tmp_path / "k0.qss"
    path.write_text("p 3\nn 1\nk 0\nstab 0|1\n", encoding="utf-8")
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert "logical pairs: none" in out


def test_verify_k0_checks_the_share_list(capsys, tmp_path):
    path = tmp_path / "k0.qss"
    path.write_text("p 3\nn 1\nk 0\nstab 0|1\n", encoding="utf-8")
    for bad in ("zz,99", "99", ""):
        rc, out, err = run(capsys, "verify", str(path), "--set", bad)
        assert (rc, out) == (2, "") and len(err.splitlines()) == 1 and err.startswith("error: bad share list")
    # a valid list reports what no list does: no set to reconstruct
    listed = run(capsys, "verify", str(path), "--set", "1", "--trials", "2")
    assert listed == run(capsys, "verify", str(path), "--trials", "2")
    rc, out, err = listed
    assert (rc, err) == (0, "") and json.loads(out)["summary"]["qualified_sets"] == 0


def test_analyze_n_equals_k_without_stabilizer_rows(capsys, tmp_path):
    path = tmp_path / "nk.qss"
    path.write_text("p 3\nn 2\nk 2\n", encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, err) == (0, "")
    assert "dim C = 0" in out and out.endswith("minimal qualified sets (1):\n  {1,2}\n")
    rc, out, _ = run(capsys, "verify", str(path), "--trials", "2", "--seed", "1")
    assert rc == 0 and json.loads(out)["summary"]["qualified_sets"] == 1


def test_analyze_invalid_spec_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.qss"
    path.write_text("p 3\nn 2\nk 0\nstab 10|00\nstab 00|10\n", encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2
    assert "symplectic product" in err


def test_analyze_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "absent.qss"))
    assert rc == 2
    assert "error" in err


def test_synthesize_reference(capsys, spec_path, tmp_path):
    out_path = tmp_path / "circuit.qsscirc"
    rc, out, _ = run(capsys, "synthesize", spec_path, "--set", "3,4,5,6", "-o", str(out_path))
    assert rc == 0
    assert "15 two-qudit" in out
    circ = circuits.parse_circuit(out_path.read_text(encoding="utf-8"))
    assert circ.two_qudit_count() == 15
    assert circ.touched_qudits().isdisjoint({1, 2})


def test_synthesize_full_set(capsys, spec_path, tmp_path):
    out_path = tmp_path / "full.qsscirc"
    rc, _, _ = run(capsys, "synthesize", spec_path, "--set", "1,2,3,4,5,6", "-o", str(out_path))
    assert rc == 0


def test_synthesize_unqualified_exit_3(capsys, spec_path, tmp_path):
    out_path = tmp_path / "nope.qsscirc"
    rc, _, err = run(capsys, "synthesize", spec_path, "--set", "1,2", "-o", str(out_path))
    assert rc == 3
    assert "not correctable" in err
    assert not out_path.exists()  # no partial output


def test_verify_single_set(capsys, spec_path):
    rc, out, _ = run(
        capsys, "verify", spec_path, "--trials", "2", "--seed", "5", "--set", "3,4,5,6"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["qualified_sets"] == 1
    assert report["summary"]["min_fidelity"] >= 1 - 1e-9
    assert report["rows"][0]["J"] == [3, 4, 5, 6]
    assert report["rows"][0]["two_qudit_gates"] == 15


def test_verify_zero_trials(capsys, spec_path):
    # zero secrets certify nothing, so no report is printed
    rc, out, err = run(capsys, "verify", spec_path, "--trials", "0")
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_verify_unqualified_set_exit_3(capsys, spec_path):
    rc, _, err = run(capsys, "verify", spec_path, "--set", "1,2", "--trials", "1")
    assert rc == 3
    assert "not qualified" in err


def test_verify_unqualified_set_is_read_from_its_plan(capsys, monkeypatch, spec_path):
    plan = circuits.plan_reconstruction
    planned = []

    def counting_plan(code, conv, members):
        planned.append(members)
        return plan(code, conv, members)

    def no_second_check(*_args):
        raise AssertionError("verify --set decides qualification from the plan")

    monkeypatch.setattr(circuits, "plan_reconstruction", counting_plan)
    monkeypatch.setattr(symplectic, "erasure_correctable", no_second_check)
    rc, out, err = run(capsys, "verify", spec_path, "--set", "1,2", "--trials", "1")
    assert (rc, out, err) == (3, "", "share set {1,2} is not qualified\n")
    assert planned == [(1, 2)]


def test_plan_in_a_synthesize_request_runs_one_elimination(capsys, monkeypatch, spec_path, tmp_path):
    plan, rref = circuits.plan_reconstruction, linalg.rref
    inside = []
    calls = []

    def counting_plan(*args):
        inside.append(1)
        try:
            return plan(*args)
        finally:
            inside.pop()

    def counting_rref(*args):
        calls.append(bool(inside))
        return rref(*args)

    monkeypatch.setattr(circuits, "plan_reconstruction", counting_plan)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    out_path = str(tmp_path / "c.qsscirc")
    for members, status in (("3,4,5,6", 0), ("1,2", 3)):
        calls.clear()
        rc, _, _ = run(capsys, "synthesize", spec_path, "--set", members, "-o", out_path)
        assert rc == status
        assert sum(calls) == 1, members


def test_a_one_set_request_holds_the_convention_as_arrays(capsys, monkeypatch, spec_path, tmp_path):
    # make_convention, the plan and the certificate's frame read the
    # convention's rows and phases: no PhasedPauli, no generator list
    built, listed = [], []
    post_init, exponents = pauli.PhasedPauli.__post_init__, pauli.eigenvalue_exponents
    monkeypatch.setattr(pauli.PhasedPauli, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(pauli, "eigenvalue_exponents", lambda *args: listed.append(1) or exponents(*args))
    frames = _counting(monkeypatch, certify, "_frame")
    out_path = str(tmp_path / "c.qsscirc")
    for argv in (("synthesize", spec_path, "--set", "3,4,5,6", "-o", out_path), ("verify", spec_path, "--set", "3,4,5,6", "--trials", "2")):
        rc, _, _ = run(capsys, *argv)
        assert (rc, built, listed) == (0, [], []), argv[0]
    assert len(frames) == 1
    assert not hasattr(pauli, "_stacked")  # the generator-list round trip is gone


def test_main_builds_one_parser_and_carries_no_arguments_over(capsys, monkeypatch, spec_path):
    assert cli.build_parser() is not cli.build_parser()
    build = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    rc, out, _ = run(capsys, "verify", spec_path, "--set", "3,4,5,6", "--trials", "1")
    assert rc == 0 and [row["J"] for row in json.loads(out)["rows"]] == [[3, 4, 5, 6]]
    rc, out, _ = run(capsys, "verify", spec_path, "--trials", "1")  # no --set: every qualified set
    assert rc == 0 and len(json.loads(out)["rows"]) == 22
    rc, out, _ = run(capsys, "analyze", spec_path, "--max-size", "3")  # every minimal set has 4 shares
    assert rc == 0 and "minimal qualified sets (0):" in out
    rc, out, _ = run(capsys, "analyze", spec_path)  # no size limit
    assert rc == 0 and "minimal qualified sets (15):" in out
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", spec_path, "--trials", "many")
    assert exc.value.code == 2
    assert "invalid int value: 'many'" in capsys.readouterr().err
    rc, out, _ = run(capsys, "verify", spec_path, "--set", "2,3,4,5", "--trials", "1")
    assert rc == 0 and [row["J"] for row in json.loads(out)["rows"]] == [[2, 3, 4, 5]]
    assert built == [1]


def test_verify_deterministic(capsys, spec_path):
    rc1, out1, _ = run(capsys, "verify", spec_path, "--trials", "2", "--seed", "9", "--set", "2,3,4,5")
    rc2, out2, _ = run(capsys, "verify", spec_path, "--trials", "2", "--seed", "9", "--set", "2,3,4,5")
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


def test_verify_full_sweep(capsys, spec_path):
    rc, out, _ = run(capsys, "verify", spec_path, "--trials", "1", "--seed", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["qualified_sets"] == 22
    assert report["summary"]["min_fidelity"] >= 1 - 1e-9
    sizes = [len(row["J"]) for row in report["rows"]]
    assert sizes == sorted(sizes)  # rows ordered by size then lexicographically


def test_verify_qubit_code(capsys, tmp_path):
    from qsshare import specfile, symplectic

    code = symplectic.random_self_orthogonal_code(2, 5, 1, 12)
    lines = [f"p 2\nn {code.n}\nk {code.k}\n"]
    for row in code.stabilizer:
        lines.append(f"stab {specfile.format_row(row, code.n, 2)}\n")
    for row in code.self_dual[code.n - code.k :]:
        lines.append(f"selfdual {specfile.format_row(row, code.n, 2)}\n")
    for row in code.logical_x:
        lines.append(f"logicalx {specfile.format_row(row, code.n, 2)}\n")
    for row in code.logical_z:
        lines.append(f"logicalz {specfile.format_row(row, code.n, 2)}\n")
    path = tmp_path / "qubit.qss"
    path.write_text("".join(lines), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(path), "--trials", "2", "--seed", "1")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["min_fidelity"] >= 1 - 1e-9


def test_demo_output(capsys, monkeypatch):
    plan = circuits.plan_reconstruction
    calls = []

    def counting_plan(*args, **kwargs):
        calls.append(args[2])
        return plan(*args, **kwargs)

    monkeypatch.setattr(circuits, "plan_reconstruction", counting_plan)
    rc, out, _ = run(capsys, "demo")
    assert rc == 0
    assert calls == [(3, 4, 5, 6)]  # the printed plan is the verified one
    assert "eta(M(u1)) = w^2" in out
    assert "eta(M(u2)) = w^2" in out
    assert "eta(M(v1)) = 1" in out
    assert "beta1 = w^2" in out
    assert "fidelity 1.000000000" in out
    assert "untouched shares: [1, 2]" in out


@pytest.mark.parametrize(
    "argv, env",
    [
        (["verify", "{spec}", "--trials", "-3"], None),
        (["verify", "{spec}", "--trials", "0", "--set", "1,2"], None),
        (["verify", "{spec}", "--set", ""], None),
        (["verify", "{spec}", "--set", "0,1,2,3"], None),
        (["analyze", "{p4}"], None),
        (["synthesize", "{spec}", "--set", "3,4,5,6", "-o", "{tmp}/absent/x.qsscirc"], None),
        (["verify", "{spec}", "--set", "3,4,5,6", "--trials", "1"], "abc"),
        (["analyze", "{spec}", "--max-size", "0"], None),
        (["analyze", "{spec}", "--max-size", "-2"], None),
        (["verify", "{spec}", "--seed", "-1"], None),
        (["verify", "{spec}", "--set", "3,4,5,6", "--trials", "1"], "0"),
        (["verify", "{spec}", "--set", "3,4,5,6", "--trials", "1"], "-4"),
        (["verify", "{pairing}"], None),
        (["verify", "{spec}", "--set", "+3,4,5,6"], None),
        (["verify", "{spec}", "--set", "3,4,5_0,6"], None),
        (["synthesize", "{spec}", "--set", "3,\u0664,5,6", "-o", "{tmp}/x.qsscirc"], None),
        (["verify", "{spec}", "--trials", "100000000000000000000"], None),
        (["synthesize", "{k0}", "--set", "1,2", "-o", "{tmp}/k0.qsscirc"], None),
        (["analyze", "{n0}"], None),
        (["synthesize", "{n0}", "--set", "1", "-o", "{tmp}/n0.qsscirc"], None),
        (["verify", "{n0}"], None),
    ],
    ids=[
        "negative-trials", "zero-trials-unqualified-set", "empty-set", "share-zero", "p4-spec",
        "missing-out-dir", "bad-max-amplitudes", "max-size-zero", "max-size-negative",
        "negative-seed", "zero-max-amplitudes", "negative-max-amplitudes", "logical-pairing",
        "signed-share", "underscored-share", "arabic-indic-share", "trials-past-the-guard",
        "synthesize-k0", "analyze-n0", "synthesize-n0", "verify-n0",
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, monkeypatch, spec_path, tmp_path, argv, env):
    p4 = tmp_path / "p4.qss"
    p4.write_text("p 4\nn 1\nk 0\nstab 0|1\n", encoding="utf-8")
    k0 = tmp_path / "k0.qss"  # XX and ZZ: a [[2,0]] qubit code
    k0.write_text("p 2\nn 2\nk 0\nstab 11|00\nstab 00|11\n", encoding="utf-8")
    n0 = tmp_path / "n0.qss"
    n0.write_text("p 3\nn 0\nk 0\n", encoding="utf-8")
    pairing = tmp_path / "pairing.qss"  # x2 := x1 + stabilizer row 1: the pairing is not I
    pairing.write_text(
        SIX_SHARE_QUTRIT_DOCUMENT.replace("logicalx 000000|100021", "logicalx 100202|121212"),
        encoding="utf-8",
    )
    if env is not None:
        monkeypatch.setenv("QSS_MAX_AMPLITUDES", env)
    argv = [arg.format(spec=spec_path, p4=p4, pairing=pairing, k0=k0, n0=n0, tmp=tmp_path) for arg in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_closed_stdout_exits_quietly(tmp_path):
    # z rows with a unit pairing, so loading warns of nothing; the pipe's
    # reader is closed before verify starts, so its first write fails
    spec = tmp_path / "unit.qss"
    spec.write_text(
        SIX_SHARE_QUTRIT_DOCUMENT.replace("logicalz 000100|122000", "logicalz 000200|211000").replace(
            "logicalz 000001|221020", "logicalz 000002|112010"
        ),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsshare.__file__)))
    reader, writer = os.pipe()
    os.close(reader)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsshare", "verify", str(spec), "--trials", "30"],
        stdout=writer,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(writer)
    _, err = proc.communicate(timeout=120)  # reads stderr to its end and closes it
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert err == b""


def test_logical_x_only_spec_loads_and_verifies(capsys, tmp_path):
    text = "".join(
        line + "\n"
        for line in SIX_SHARE_QUTRIT_DOCUMENT.splitlines()
        if not line.startswith(("selfdual", "logicalz"))
    )
    assert "logicalx" in text and "logicalz" not in text
    path = tmp_path / "xonly.qss"
    path.write_text(text, encoding="utf-8")
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert "x1 000000|101100" in out and "x2 000000|100021" in out
    rc, out, _ = run(capsys, "verify", str(path), "--trials", "2", "--seed", "4")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["qualified_sets"] == 22
    assert report["summary"]["min_fidelity"] >= 1 - 1e-9


def test_verify_plans_each_set_once_and_encodes_each_secret_once(capsys, monkeypatch, spec_path, hexcode, hexconv):
    calls = {"plan": 0, "batch": 0, "sweep": 0, "encode": 0}
    plan, batch, sweep, encode = circuits.plan_reconstruction, circuits.plan_sets, circuits.plan_all_qualified, sim.encode_secret

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(circuits, "plan_reconstruction", counting("plan", plan))
    monkeypatch.setattr(circuits, "plan_sets", counting("batch", batch))
    monkeypatch.setattr(circuits, "plan_all_qualified", counting("sweep", sweep))
    monkeypatch.setattr(sim, "encode_secret", counting("encode", encode))
    # the sweep plans every qualified set in one call
    rc, out, _ = run(capsys, "verify", spec_path, "--trials", "3")
    assert rc == 0
    assert json.loads(out)["summary"]["qualified_sets"] == 22
    assert calls == {"plan": 0, "batch": 0, "sweep": 1, "encode": 0}  # the certificate encodes no secret
    # one set's plan is plan_sets of that set: one planning body per request
    rc, out, _ = run(capsys, "verify", spec_path, "--set", "3,4,5,6", "--trials", "3")
    assert rc == 0 and calls == {"plan": 1, "batch": 1, "sweep": 1, "encode": 0}
    # the dense simulator, called on the same 22 sets' plan and 3 secrets
    calls.update(batch=0)
    plan = circuits.plan_sets(hexcode, hexconv, symplectic.all_qualified_sets(hexcode))
    rng = np.random.default_rng(0)
    sim.verify_reconstruction(hexcode, hexconv, plan, [sim.random_secret(3, 2, rng) for _ in range(3)])
    assert calls == {"plan": 1, "batch": 1, "sweep": 1, "encode": 3}


def test_verify_runs_each_circuit_once_per_chunk_of_secrets(capsys, monkeypatch, spec_path):
    # one pull-back of the circuit shape serves the 22 sets and every secret,
    # and its one list of steps also gives the gate counts; no circuit is
    # synthesized or pulled back gate by gate
    shapes, shape_images = [], certify._shape_images
    monkeypatch.setattr(certify, "_shape_images", lambda plan, steps: shapes.append(len(plan)) or shape_images(plan, steps))
    stated, steps_of = [], circuits.reconstruction_steps
    monkeypatch.setattr(circuits, "reconstruction_steps", lambda plan: stated.append(len(plan)) or steps_of(plan))
    gate_level = _counting(monkeypatch, certify, "generator_images")
    synthesized = _counting(monkeypatch, circuits, "synthesize_reconstruction")
    for trials in ("1", "10"):
        shapes.clear()
        stated.clear()
        rc, out, _ = run(capsys, "verify", spec_path, "--trials", trials)
        assert rc == 0
        assert json.loads(out)["summary"]["qualified_sets"] == 22
        assert shapes == stated == [22] and gate_level == synthesized == []


def test_qualified_sets_from_one_rank_table(monkeypatch):
    code = symplectic.random_self_orthogonal_code(2, 12, 2, 0)
    assert not hasattr(linalg, "ranks")
    calls = {"rank": 0, "rref": 0}
    originals = {name: getattr(linalg, name) for name in calls}

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name))
    minimal = symplectic.qualified_sets(code)
    assert calls == {"rank": 0, "rref": 0}
    # an antichain whose up-closure is what one erasure_correctable query
    # per subset finds qualified, so exactly its minimal sets
    monkeypatch.undo()
    assert not any(set(a) < set(b) for a in minimal for b in minimal)
    assert symplectic.all_qualified_sets(code) == [
        members
        for size in range(1, code.n + 1)
        for members in combinations(range(1, code.n + 1), size)
        if symplectic.erasure_correctable(code, symplectic.complement(members, code.n))
    ]


# sha256 of `analyze` stdout: the first three recorded before the enumeration
# became one rank table, the last three (a 15-share code, k = 0 and p = 13)
# while qualification was still a rank formula, before it became the split
ANALYZE_DIGESTS = {
    (2, 12, 2, 0): "6ce6492c6e5db3738402a0c36bdb7f89013e78e834ea4df8c3fc38a9204efbce",
    (3, 10, 2, 0): "b2c23a5d2f9a491e491f5dfc709e577746225ce47fe87cc4755fc8bd5d78cef5",
    "bundled": "c46ee0242f82664dedddc398a17bb5080795eb4c4a089b4830422b7ffdd26c0f",
    (2, 15, 3, 2): "99a8f8682e91173b09423cf340c32cc673384bb180a3e20ef9005a96073db570",
    (3, 8, 0, 1): "07e149e0a7a82ca2f31f2d7d731534deab6d4677e1710178ade5123d48e1c2c7",
    (13, 6, 2, 0): "92bcf71c5d4a9991c21e8cb4ed288f9a78af942ddbb2d4976c5139e3e432628a",
}


@pytest.mark.parametrize("which", list(ANALYZE_DIGESTS))
def test_analyze_stdout_is_pinned(capsys, tmp_path, spec_path, which):
    if which == "bundled":
        path = spec_path
    else:
        path = _write_code(symplectic.random_self_orthogonal_code(*which), tmp_path / "grid.qss")
    rc, out, _ = run(capsys, "analyze", path)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ANALYZE_DIGESTS[which]


def test_analyze_at_the_enumeration_guard(capsys, tmp_path):
    n = symplectic.MAX_ENUMERATION_SHARES
    assert n == 15
    path = _write_code(symplectic.random_self_orthogonal_code(2, n, 2, 0), tmp_path / "wide.qss")
    rc, out, err = run(capsys, "analyze", path)
    assert (rc, err) == (0, "")
    assert out.startswith(f"p 2  n {n}  k 2\n") and "minimal qualified sets (" in out


@pytest.mark.parametrize("extra", [(), ("--max-size", "2")])
def test_analyze_past_the_enumeration_guard_writes_one_error_line_and_no_report(capsys, tmp_path, extra):
    n = symplectic.MAX_ENUMERATION_SHARES + 1
    path = _write_code(symplectic.random_self_orthogonal_code(2, n, 2, 0), tmp_path / "wide.qss")
    rc, out, err = run(capsys, "analyze", path, *extra)
    assert rc == 2 and out == ""
    assert err == f"error: enumeration supports at most {n - 1} shares\n"


def _analyze_file(path, content: bytes):
    """Exit code and stderr lines of `analyze` on a file holding `content`."""
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        rc = cli.main(["analyze", str(path)])
    return rc, err.getvalue().splitlines()


@given(st.binary(max_size=300))
def test_analyze_of_byte_garbage_exits_2_with_one_line(tmp_path_factory, raw):
    rc, err = _analyze_file(tmp_path_factory.mktemp("fuzz") / "garbage.qss", raw)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")


# A directive, then a few tokens: near-miss spec lines that reach the row
# parser and the validation behind it.
_SPEC_LINES = st.builds(
    lambda head, rest: " ".join([head, *rest]),
    st.sampled_from(["stab", "selfdual", "logicalx", "logicalz", "k", "x"]),
    st.lists(st.sampled_from(["-1", "+1", "0_1", "\u0661", "0", "1", "2", "12", "01|10", "1|2", "1 0 | 0 1",
                              "+1 0 | 0 1", "1x|00", "|"]),
             min_size=1, max_size=3),
)


@given(st.sampled_from([2, 3, 11]), st.integers(1, 2), st.integers(0, 2), st.lists(_SPEC_LINES, max_size=6))
def test_analyze_of_token_garbage_exits_0_or_2_with_one_line(tmp_path_factory, p, n, k, lines):
    text = "\n".join([f"p {p}", f"n {n}", f"k {k}", *lines])
    rc, err = _analyze_file(tmp_path_factory.mktemp("fuzz") / "garbage.qss", text.encode())
    assert rc in (0, 2)
    assert rc == 0 or (len(err) == 1 and err[0].startswith("error: "))


def test_analyze_of_a_non_integer_row_entry_exits_2(capsys, tmp_path):
    path = tmp_path / "code.qss"
    path.write_text("p 3\nn 2\nk 1\nstab 1x|00\n", encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2 and err == "error: line 4: row entries must be integers\n"


@pytest.mark.parametrize("p", [4, 17])
def test_analyze_of_an_unsupported_field_size_exits_2(capsys, tmp_path, p):
    # the spec parser states linalg.check_prime's rule and message, with the line
    path = tmp_path / "code.qss"
    path.write_text(f"p {p}\nn 2\nk 0\n", encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: line 1: unsupported field size {p}; expected a prime <= 13\n"


def test_analyze_of_a_directory_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path))
    assert rc == 2 and err.startswith("error: cannot read")


def _write_code(code, path) -> str:
    """Write a spec file holding exactly `code`'s rows; returns the path."""
    n = code.n
    lines = [f"p {code.p}", f"n {n}", f"k {code.k}"]
    for key, rows in (
        ("stab", code.stabilizer),
        ("selfdual", code.self_dual[n - code.k :]),
        ("logicalx", code.logical_x),
        ("logicalz", code.logical_z),
    ):
        lines.extend(f"{key} {specfile.format_row(r, n, code.p)}" for r in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _break_first_phase_exponent(monkeypatch):
    """Make every plan's first step-3 exponent, the circuit's first PPOW
    gate, one too large: one set's plan and verify's batched plan alike."""
    assemble = circuits._assemble

    def off_by_one(code, *args):
        batch = assemble(code, *args)
        step3 = batch.step3_exponents.copy()
        step3[:, 0] = (step3[:, 0] + 1) % pauli.phase_order(code.p)
        return dataclasses.replace(batch, step3_exponents=step3)

    monkeypatch.setattr(circuits, "_assemble", off_by_one)


def test_verify_exits_4_when_a_phase_exponent_is_off_by_one(capsys, monkeypatch, spec_path):
    _break_first_phase_exponent(monkeypatch)
    rc, out, err = run(capsys, "verify", spec_path, "--set", "3,4,5,6", "--trials", "2", "--seed", "9")
    assert rc == 4
    assert json.loads(out)["summary"]["min_fidelity"] < 1 - 1e-9
    assert any("J={3,4,5,6}" in line and "seed 9" in line for line in err.splitlines())
    (line,) = err.splitlines()
    check = re.search(r"\): fidelity (\S+)$", line)  # the failing check and its size
    assert check and float(check.group(1)) < 1 - 1e-9


def test_verify_failure_line_names_the_entanglement_fidelity(capsys, monkeypatch, spec_path, hexcode, hexconv):
    transfers = _counting(monkeypatch, certify, "_transfer")
    argv = ("verify", spec_path, "--trials", "2", "--seed", "9")
    rc, _, err = run(capsys, *argv)
    assert (rc, err, transfers) == (0, "", [])  # the passing path never computes a transfer
    _break_first_phase_exponent(monkeypatch)
    rc, out, err = run(capsys, *argv)
    first = symplectic.all_qualified_sets(hexcode)[0]
    # every set fails, and each is certified once: its one transfer gives its
    # report and its entanglement fidelity
    assert rc == 4 and len(transfers) == len(symplectic.all_qualified_sets(hexcode)) == 22
    (line,) = err.splitlines()
    named = re.fullmatch(
        rf"verification failed for J=\{{{','.join(map(str, first))}\}} \(entanglement fidelity (\S+)\)"
        r" at trial 0 \(seed 9\): fidelity \S+",
        line,
    )
    # the dense simulator's F_e of the same broken circuit, 8.3e-32 where the
    # certificate's sum of roots of unity is exactly 0
    (expected,) = sim.entanglement_fidelity(hexcode, hexconv, circuits.plan_reconstruction(hexcode, hexconv, first))
    assert named and abs(float(named.group(1)) - expected) < 1e-12 and expected < 1 - 1e-9
    assert named.group(1) == "0"
    assert json.loads(out)["summary"]["min_fidelity"] < 1 - 1e-9


def test_verify_failure_line_names_a_purity_deviation(capsys, monkeypatch, spec_path, hexcode, hexconv):
    certificate = certify.certify_reconstruction

    def mixed(*args):
        return [dataclasses.replace(rep, purity=(1.0, 0.97)) for rep in certificate(*args)]

    monkeypatch.setattr(certify, "certify_reconstruction", mixed)
    rc, _, err = run(capsys, "verify", spec_path, "--set", "3,4,5,6", "--trials", "2", "--seed", "9")
    assert rc == 4
    assert err.strip().endswith("at trial 1 (seed 9): purity deviation 0.03")
    # unbroken, the request's two secrets are pure on the dense simulator too
    rng = np.random.default_rng(9)
    secrets = [certify.random_secret(3, 2, rng) for _ in range(2)]
    plan = circuits.plan_reconstruction(hexcode, hexconv, (3, 4, 5, 6))
    ((dense,), (exact,)) = sim.verify_reconstruction(hexcode, hexconv, plan, secrets), certificate(hexcode, hexconv, plan, secrets)
    assert exact.purity == (1.0, 1.0) and max(abs(1 - value) for value in dense.purity) < 1e-9


# Run in a child process: Tracer.install wraps the qsshare functions in place.
_TRACED_REQUESTS = r"""
import contextlib, io, json, sys, warnings
bench, spec, circuit = sys.argv[1:]
sys.path.insert(0, bench)
import run, tracer
import qsshare
from qsshare import circuits, cli, sim

trace = tracer.Tracer()
trace.install(qsshare)
trace.enabled = True
out = io.StringIO()
with contextlib.redirect_stdout(out), warnings.catch_warnings():
    warnings.simplefilter("ignore")
    codes = [
        cli.main(["analyze", spec]),
        cli.main(["synthesize", spec, "--set", "3,4,5,6", "-o", circuit]),
        cli.main(["verify", spec, "--set", "3,4,5,6", "--trials", "1"]),
    ]
sim.apply_gate(sim.basis_state(3, 2), circuits.fourier(2))
trace.end_pass()
trace.enabled = False
metrics = {name: value for name, (value, _unit) in run.per_layer(trace, 1, 0.0, 0.0).items()}
print(json.dumps({"codes": codes, "broken": sorted(trace.broken), "metrics": metrics}, allow_nan=False))
"""


def test_traced_requests_give_every_per_layer_metric(tmp_path):
    # perfbench reads qsshare functions by name; a renamed or private one, or
    # an observer whose result no longer fits, shows as null in its table
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsshare.__file__)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # perfbench/ is read, never written
    spec, circuit = os.path.join(root, "codes", "qutrit_6_2.qss"), str(tmp_path / "c.qsscirc")
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_REQUESTS, os.path.join(root, "perfbench"), spec, circuit],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0] and result["broken"] == []
    metrics = result["metrics"]
    absent = [name for name, value in metrics.items() if type(value) not in (int, float) or not math.isfinite(value)]
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert not absent and declared <= set(metrics)
    assert metrics["sim.apply_gate.calls"] == 1 and metrics["cli.requests"] == 3


# sha256 of stdout, recorded on the dense state-vector verify before the
# Clifford certificate replaced it: a passing report does not depend on how
# it was certified
VERIFY_DIGESTS = [
    ("bundled", ("--trials", "10", "--seed", "7"), "37d72a6dda48195cf6bc76db9c2b7ed8e5fdaf98e114742e5ca9bff828b5ebaf"),
    ("bundled", ("--set", "3,4,5,6", "--trials", "3", "--seed", "5"),
     "5225dae3612a1bc92d2649362040eb9ed3134b390396a486903557d0915d8467"),
    ((2, 5, 1, 12), ("--trials", "2", "--seed", "1"), "b0acd9303966bf903a0913744a65867a387f605561d42dab9f04b73bc0c4304d"),
    ((2, 16, 2, 0), ("--set", "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", "--trials", "2", "--seed", "3"),
     "288adaea3c0f39f2beea5861ffa764a318309063677e12649a94d8dc2e7e1d57"),
    ((3, 10, 2, 3), ("--set", "2,3,4,5,6,7,8,9,10", "--trials", "2", "--seed", "3"),
     "2b2072223352eb7248d978a01152f979ddcee8500ce5e84f15952ecf74c0fda2"),
    ((5, 6, 2, 0), ("--set", "2,3,4,5,6", "--trials", "2", "--seed", "3"),
     "3be8fcb44ac59396aed7984d4cc9b67b3e17a106055dcd6fcc01982e8c85a692"),
]


@pytest.mark.parametrize("which, extra, digest", VERIFY_DIGESTS, ids=lambda v: str(v)[:24])
def test_verify_stdout_is_pinned(capsys, tmp_path, spec_path, which, extra, digest):
    if which == "bundled":
        path = spec_path
    else:
        path = _write_code(symplectic.random_self_orthogonal_code(*which), tmp_path / "code.qss")
    rc, out, err = run(capsys, "verify", path, *extra)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_demo_and_synthesize_stdout_are_pinned(capsys, spec_path, tmp_path):
    rc, out, _ = run(capsys, "demo")
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0074582c8eaec3fa0bd588273d2d25c22600f56edba6f8e452e72ec498947923"
    )
    circuit = tmp_path / "c.qsscirc"
    rc, out, _ = run(capsys, "synthesize", spec_path, "--set", "3,4,5,6", "-o", str(circuit))
    assert (rc, out) == (0, f"wrote {circuit}\ngates: 15 two-qudit (bound 16), 4 phase, 4 Fourier\n")
    assert hashlib.sha256(circuit.read_bytes()).hexdigest() == (
        "494a83a1f3f28aa1e9772777266b2162ca2b3a553ed5c5f8c1ad7a5609551a2f"
    )


# Run in a child process, so that no other test has loaded the simulator.
_VERIFY_WITHOUT_SIMULATOR = r"""
import contextlib, dataclasses, io, sys, warnings
from qsshare import circuits, cli, pauli

def request(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cli.main(list(argv))

assemble = circuits._assemble

def broken(code, *args):  # every plan's first step-3 exponent one too large
    batch = assemble(code, *args)
    step3 = batch.step3_exponents.copy()
    step3[:, 0] = (step3[:, 0] + 1) % pauli.phase_order(code.p)
    return dataclasses.replace(batch, step3_exponents=step3)

codes = [request("verify", sys.argv[1], "--trials", "3"), request("demo")]
circuits._assemble = broken
codes.append(request("verify", sys.argv[1], "--trials", "3"))
print(codes, sorted({"qsshare.sim"} & set(sys.modules)))
"""


def test_verify_never_loads_the_simulator(spec_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsshare.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _VERIFY_WITHOUT_SIMULATOR, spec_path], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 4] []\n"


def test_verify_certifies_a_set_past_the_old_state_vector_guard(capsys, monkeypatch, tmp_path):
    # 3^102 joint amplitudes, far past any dense simulation
    code = symplectic.random_self_orthogonal_code(3, 100, 2, 0)
    path = _write_code(code, tmp_path / "wide.qss")
    members = ",".join(map(str, range(2, 101)))
    rc, out, err = run(capsys, "verify", path, "--set", members, "--trials", "2", "--seed", "1")
    assert (rc, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert (row["min_fidelity"], row["max_purity_deviation"]) == (1.0, 0.0)
    _break_first_phase_exponent(monkeypatch)
    rc, out, err = run(capsys, "verify", path, "--set", members, "--trials", "2", "--seed", "1")
    assert rc == 4 and json.loads(out)["summary"]["min_fidelity"] < 1 - 1e-9
    assert err.startswith("verification failed for J={2,3,")


@pytest.mark.parametrize("p, t", [(5, 2), (7, 3), (11, 4), (13, 6)])
def test_threshold_codes_have_their_known_access_structure(capsys, tmp_path, p, t):
    # the ((t, 2t-1)) polynomial scheme: a set is qualified exactly when it
    # holds t shares, a known answer that no rank formula supplies
    code = oracles.polynomial_threshold_code(p, t)
    n = code.n
    shares = range(1, n + 1)
    path = _write_code(code, tmp_path / "threshold.qss")
    minimal = ["{" + ",".join(map(str, j)) + "}" for j in combinations(shares, t)]
    rc, out, err = run(capsys, "analyze", path)
    assert (rc, err) == (0, "")
    assert out.endswith(f"minimal qualified sets ({len(minimal)}):\n" + "".join(f"  {j}\n" for j in minimal))
    rc, out, err = run(capsys, "verify", path, "--trials", "1")
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert [row["J"] for row in report["rows"]] == [list(j) for size in range(t, n + 1) for j in combinations(shares, size)]
    assert report["summary"]["min_fidelity"] == 1.0
    for size in range(n + 1):
        for members in combinations(shares, size):
            assert symplectic.erasure_correctable(code, symplectic.complement(members, n)) == (size >= t)


@pytest.mark.parametrize("mutation", ["PPOW", "CPAULIINV"])
@pytest.mark.parametrize("p, t", [(5, 2), (7, 3), (11, 4)])
def test_threshold_codes_fail_every_set_under_mutation(capsys, monkeypatch, tmp_path, p, t, mutation):
    # the known access structure is no vacuous pass: with one gate of every
    # circuit broken, the sweep fails each of the sets it passed unbroken
    code = oracles.polynomial_threshold_code(p, t)
    path = _write_code(code, tmp_path / "threshold.qss")
    # packed rows up to p = 7, whitespace-separated rows at p = 11
    assert (" | " in (tmp_path / "threshold.qss").read_text(encoding="utf-8")) == (p > 7)
    monkeypatch.setattr(circuits, "_assemble", oracles.mutated_assemble(mutation))
    rc, out, err = run(capsys, "verify", path, "--trials", "1")
    rows = json.loads(out)["rows"]
    assert rc == 4 and err.startswith("verification failed for J={")
    assert len(rows) == sum(math.comb(code.n, size) for size in range(t, code.n + 1))
    assert all(row["min_fidelity"] < 1 for row in rows)


def test_threshold_builder_refuses_more_points_than_the_field_has():
    for p, t in ((5, 3), (13, 7)):
        with pytest.raises(ValueError, match=f"no {2 * t - 1} distinct nonzero points"):
            oracles.polynomial_threshold_code(p, t)


def test_synthesize_of_a_k0_code_writes_no_file(capsys, tmp_path):
    spec = tmp_path / "k0.qss"
    spec.write_text("p 2\nn 2\nk 0\nstab 11|00\nstab 00|11\n", encoding="utf-8")
    out_path = tmp_path / "k0.qsscirc"
    rc, out, err = run(capsys, "synthesize", str(spec), "--set", "1,2", "-o", str(out_path))
    assert (rc, out) == (2, "")
    assert err == "error: nothing to reconstruct: the code has k = 0\n"
    assert list(tmp_path.iterdir()) == [spec]


_REPORT_FLOATS = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.floats(0, 1).map(lambda value: round(value, 12)),  # a failing row's fidelity
    st.floats(1e-14, 1e-12),
    st.sampled_from([0.0, -0.0, 1.0, 1e-13, 0.999999999999, 1 - 1e-9]),
)
_REPORT_INTS = st.integers(0, 10**30)


@st.composite
def _verify_reports(draw):
    row = st.tuples(st.lists(st.integers(1, 15), max_size=15), _REPORT_FLOATS, _REPORT_FLOATS, _REPORT_INTS, _REPORT_INTS)
    rows = [
        {"J": members, "min_fidelity": fid, "max_purity_deviation": dev, "two_qudit_gates": two, "single_qudit_gates": one}
        for members, fid, dev, two, one in draw(st.lists(row, max_size=4))  # k = 0 gives no row
    ]
    p, n, k, seed, trials = draw(st.tuples(st.sampled_from(linalg.SUPPORTED_PRIMES), *[_REPORT_INTS] * 4))
    summary = {"qualified_sets": draw(_REPORT_INTS), "min_fidelity": draw(_REPORT_FLOATS), "max_purity_deviation": draw(_REPORT_FLOATS)}
    return {"p": p, "n": n, "k": k, "seed": seed, "trials": trials, "rows": rows, "summary": summary}


_REPORT_VALUES = st.recursive(
    st.one_of(_REPORT_FLOATS, st.integers(-(10**30), 10**30)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text("abcdefghij_", max_size=12), inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(st.one_of(_verify_reports(), st.lists(_REPORT_VALUES, max_size=4), st.dictionaries(st.text("xyz", max_size=3), _REPORT_VALUES)))
def test_report_writer_is_json_dumps_with_indent_2(report):
    # the writer walks the report's own keys: any nesting of dicts, lists,
    # ints and floats, empty ones and verify reports with no row among them
    assert cli._json_text(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("value", [True, None, "1", np.int64(1), np.float64(1.0), (1,)])
def test_report_writer_refuses_what_a_report_never_holds(value):
    # json.dumps writes True, None and strings otherwise than this writer
    # would, and refuses numpy ints; the writer refuses all of them
    with pytest.raises(TypeError):
        cli._json_text({"rows": [{"J": [1, value]}]})


@pytest.mark.parametrize("which", ["bundled", (2, 10, 2, 0), (3, 7, 2, 1)])
def test_a_full_sweep_is_one_elimination_and_no_json_encoding(capsys, monkeypatch, tmp_path, spec_path, which):
    # every qualified set, whatever its number of missing shares, found and
    # split by one subset-lattice pass: the sweep's planning calls no rref
    # and no rank; the report written without json.dumps
    if which == "bundled":
        path = spec_path
    else:
        path = _write_code(symplectic.random_self_orthogonal_code(*which), tmp_path / "grid.qss")
    lattices = _counting(monkeypatch, symplectic, "_subset_lattice")
    eliminations = [_counting(monkeypatch, linalg, name) for name in ("rref", "rank")]
    sweep, planned = circuits.plan_all_qualified, []

    def planning(*args):
        before = sum(map(len, eliminations))
        plan = sweep(*args)
        planned.append(sum(map(len, eliminations)) - before)
        return plan

    monkeypatch.setattr(circuits, "plan_all_qualified", planning)
    dumps = _counting(monkeypatch, json, "dumps")
    rc, out, _ = run(capsys, "verify", path, "--trials", "2")
    monkeypatch.undo()
    assert rc == 0 and dumps == [] and planned == [0] and len(lattices) == 1
    assert json.loads(out)["summary"]["qualified_sets"] > 1


@pytest.mark.parametrize("which", ["bundled", (2, 10, 2, 0), (3, 8, 0, 1)])
def test_analyze_is_one_lattice_pass_and_no_elimination_after_the_load(capsys, monkeypatch, tmp_path, spec_path, which):
    # qualification is read from the split flag of one subset-lattice pass,
    # k = 0 included: once the spec is loaded, no rank and no rref
    if which == "bundled":
        path = spec_path
    else:
        path = _write_code(symplectic.random_self_orthogonal_code(*which), tmp_path / "grid.qss")
    lattices = _counting(monkeypatch, symplectic, "_subset_lattice")
    eliminations = [_counting(monkeypatch, linalg, name) for name in ("rref", "rank")]
    load, loaded = cli._load, []

    def loading(*args):
        code = load(*args)
        loaded.append(sum(map(len, eliminations)))
        return code

    monkeypatch.setattr(cli, "_load", loading)
    rc, out, _ = run(capsys, "analyze", path)
    monkeypatch.undo()
    assert rc == 0 and len(lattices) == 1 and loaded == [sum(map(len, eliminations))]
    assert "minimal qualified sets (" in out


def _counting(monkeypatch, module, name) -> list:
    """Record the shape of the first argument of every call of module.name
    from here on."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(np.shape(args[0]))
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("which", ["bundled", (2, 12, 2, 0), (3, 10, 2, 0), (5, 6, 2, 0)])
def test_a_full_spec_costs_one_elimination_to_load_and_one_to_plan(capsys, monkeypatch, tmp_path, spec_path, which):
    # stab + selfdual + logicalx + logicalz: the rank of the self-dual block
    # is the load's one elimination, the plan's split is the other
    if which == "bundled":
        path, members = spec_path, "3,4,5,6"
    else:
        code = symplectic.random_self_orthogonal_code(*which)
        path = _write_code(code, tmp_path / "grid.qss")
        members = ",".join(map(str, symplectic.qualified_sets(code)[0]))
    calls = _counting(monkeypatch, linalg, "rref")
    ranks = _counting(monkeypatch, linalg, "rank")
    grams = _counting(monkeypatch, symplectic, "_gram")
    nullspaces = _counting(monkeypatch, linalg, "nullspace")
    # one Gram matrix of every part holds all of the load's symplectic
    # products: the stabilizer's self-orthogonality, the pairing rescale test
    # and every membership and commutation check
    specfile.load_code(path)
    assert (len(ranks), len(calls), len(grams)) == (1, 0, 1)
    ranks.clear()
    rc, _, _ = run(capsys, "analyze", path)
    assert rc == 0 and (len(ranks), len(calls)) == (1, 0)
    ranks.clear()
    rc, _, _ = run(capsys, "synthesize", path, "--set", members, "-o", str(tmp_path / "c.qsscirc"))
    assert rc == 0 and (len(ranks), len(calls)) == (1, 1) and nullspaces == []


@pytest.mark.parametrize("which", [(3, 5, 0, 1), (3, 10, 0, 0), (2, 6, 0, 3)])
def test_a_k0_spec_of_stabilizer_rows_loads_in_one_pass_as_written(monkeypatch, tmp_path, which):
    # with k = 0 the self-dual space is C and there is no logical row, so
    # nothing is derived: the rank of the stabilizer rows shows them
    # independent, and one Gram matrix shows them self-orthogonal
    code = symplectic.random_self_orthogonal_code(*which)
    path = _write_code(code, tmp_path / "k0.qss")
    lines = (tmp_path / "k0.qss").read_text(encoding="utf-8").splitlines()
    assert all(line.startswith(("p ", "n ", "k ", "stab ")) for line in lines)
    ranks, calls = _counting(monkeypatch, linalg, "rank"), _counting(monkeypatch, linalg, "rref")
    grams, nullspaces = _counting(monkeypatch, symplectic, "_gram"), _counting(monkeypatch, linalg, "nullspace")
    loaded = specfile.load_code(path)
    assert (len(ranks), len(calls), len(nullspaces), len(grams)) == (1, 0, 0, 1)
    for part in ("stabilizer", "self_dual", "logical_x", "logical_z"):
        assert np.array_equal(getattr(loaded, part), getattr(code, part)), part


@pytest.mark.parametrize(
    "keep, old, new, message",
    [
        # x2 := x1 + h1, in the coset of x1
        ("logicalx", "logicalx 000000|100021", "logicalx 100202|121212",
         "logical x rows are linearly dependent modulo the stabilizer space"),
        # x2 := x2 + z1 does not commute with x1
        ("logicalx", "logicalx 000000|100021", "logicalx 000100|222021",
         "logical x representatives do not mutually commute"),
        # x1 := z1, a row of Cm
        ("selfdual logicalx", "logicalx 000000|101100", "logicalx 000100|122000",
         "logical x rows are linearly dependent modulo the self-dual space"),
        # z1 := h1, a row of C
        ("selfdual logicalz", "logicalz 000100|122000", "logicalz 100202|020112",
         "logical z rows are linearly dependent modulo the stabilizer space"),
        # z1 := z1 + X1, and X1 does not commute with h3
        ("logicalz", "logicalz 000100|122000", "logicalz 100100|122000", "logical z 1 outside the dual space"),
    ],
    ids=["dependent-x", "non-commuting-x", "x-inside-cm", "z-inside-c", "z-outside-dual"],
)
def test_a_bad_partial_listing_exits_2_naming_its_part(capsys, tmp_path, keep, old, new, message):
    # the built-in document without the parts it does not keep: the given
    # parts are checked before anything is derived from them, and a
    # derivation that still fails names the logical rows it started from
    keys = ("p", "n", "k", "stab", *keep.split())
    lines = [line for line in SIX_SHARE_QUTRIT_DOCUMENT.splitlines() if line.split(" ")[0] in keys]
    assert old in lines
    path = tmp_path / "partial.qss"
    path.write_text("\n".join(lines).replace(old, new) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("which", ["bundled", (2, 12, 2, 0), (3, 10, 2, 0), (5, 6, 2, 0)])
def test_no_request_reduces_a_space_to_test_membership(capsys, monkeypatch, tmp_path, spec_path, which):
    # membership in dual(C) or in Cm, its own dual, is a symplectic product
    if which == "bundled":
        path, members = spec_path, "3,4,5,6"
    else:
        code = symplectic.random_self_orthogonal_code(*which)
        path = _write_code(code, tmp_path / "grid.qss")
        members = ",".join(map(str, symplectic.qualified_sets(code)[0]))
    nullspaces = _counting(monkeypatch, linalg, "nullspace")
    memberships = _counting(monkeypatch, linalg, "row_space_contains")
    for argv in (
        ("analyze", path),
        ("synthesize", path, "--set", members, "-o", str(tmp_path / "c.qsscirc")),
        ("verify", path, "--set", members, "--trials", "1"),
        ("demo",),
    ):
        rc, _, _ = run(capsys, *argv)
        assert rc == 0, argv
    assert nullspaces == [] and memberships == []


def test_demo_costs_one_elimination_to_load_one_to_plan_and_one_to_certify(capsys, monkeypatch):
    ranks = _counting(monkeypatch, linalg, "rank")
    eliminations = _counting(monkeypatch, linalg, "rref")
    rc, _, _ = run(capsys, "demo")
    assert rc == 0 and (len(ranks), len(eliminations)) == (1, 2)
