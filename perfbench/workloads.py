"""Inputs, request lists and output checks for the three benchmark workloads.

Each workload is a closed loop: one client sends the next CLI request only
after the previous one returned. A *pass* is one walk over the workload's
request list; every pass of a run sends the same kinds of request against the
same spec files, so pass times are comparable within and across runs.

The code grids are fixed. Only the requests (share sets, secrets seeds) are
drawn from `--seed`. Random codes of one (p, n, k) differ too much in cost for
seed-drawn codes to give a steady figure: `analyze` ranges 3.3-4.4 s over
three p=2, n=12 seeds, and `logical_zero` 0.01-7.5 s over four p=3, n=10
seeds. The grids keep one code whose `logical_zero` tries many reference
states (p=3, n=10, seed 3: 19 tries), so that cost still shows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from qsshare import circuits, specfile, symplectic

FIDELITY_SLACK = 1e-9

# The bundled [[6,2,3]] qutrit code (codes/qutrit_6_2.qss), kept here so that
# the workload stays fixed if the bundled file changes. Its logical pairing is
# diag(2,2), so every load rescales z rows and emits a UserWarning.
HEX_SPEC = """\
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
HEX_QUALIFIED_SETS = 22
HEX_TRIALS = 10

# (p, n, k, code seed): enumeration-guard codes for analyze + synthesize.
ACCESS_GRID = ((2, 12, 2, 0), (3, 10, 2, 0))
ACCESS_SYNTH_PER_CODE = 60

# (p, n, k, code seed): p^(n+k) between 2^17 and 2^20, both phase rings.
WIDE_GRID = ((2, 16, 2, 0), (2, 15, 3, 2), (3, 10, 2, 3), (5, 6, 2, 0))
WIDE_TRIALS = 2
WIDE_SETS_PER_CODE = 6  # the p=5, n=6 code has only six 5-share sets


@dataclass
class Request:
    kind: str  # "verify", "analyze" or "synthesize"
    argv: list[str]
    n: int
    k: int
    sets: tuple[tuple[int, ...], ...] = ()  # the set named by --set, if any
    rows: int = 1  # rows a verify report must have
    trials: int = 0
    output: str | None = None
    pick: tuple[int, int] | None = None  # seeds the sets drawn after analyze

    @property
    def items(self) -> int:
        """Results the request delivers: (set, secret) pairs, or one circuit."""
        if self.kind == "verify":
            return self.rows * self.trials
        return 1


@dataclass
class Workload:
    name: str
    primary: str  # request kind whose results items_per_s counts
    min_passes: int
    gauge: str  # reference kernel whose speed tracks this workload's
    plan: list[list[Request]]  # request lists of successive passes, cycled

    def pass_requests(self, index: int) -> list[Request]:
        return self.plan[index % len(self.plan)]


# ---------------------------------------------------------------------------
# spec files


def format_spec(code) -> str:
    """Spec-file text for a CodeSpec: stab, selfdual extension, logical rows."""
    p, n, k = code.p, code.n, code.k
    extension = code.self_dual
    if np.array_equal(code.self_dual[: n - k], code.stabilizer):
        extension = code.self_dual[n - k :]
    lines = [f"p {p}", f"n {n}", f"k {k}"]
    for key, rows in (
        ("stab", code.stabilizer),
        ("selfdual", extension),
        ("logicalx", code.logical_x),
        ("logicalz", code.logical_z),
    ):
        lines.extend(f"{key} {specfile.format_row(row, n, p)}" for row in rows)
    return "\n".join(lines) + "\n"


def write_spec(code, path: str) -> None:
    """Write `code` to `path` and require the loaded rows to equal it exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_spec(code))
    loaded = specfile.load_code(path)
    for part in ("stabilizer", "self_dual", "logical_x", "logical_z"):
        if not np.array_equal(getattr(loaded, part), getattr(code, part)):
            raise RuntimeError(f"{path}: loaded {part} rows differ from the generated code")


# ---------------------------------------------------------------------------
# workloads


def _set_arg(members) -> str:
    return ",".join(str(i) for i in members)


def hex_sweep(workdir: str, seed: int) -> Workload:
    path = os.path.join(workdir, "qutrit_6_2.qss")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(HEX_SPEC)
    code = specfile.load_code(path)
    rng = np.random.default_rng(seed)
    plan = []
    for verify_seed in rng.integers(0, 2**31, size=64):
        argv = ["verify", path, "--trials", str(HEX_TRIALS), "--seed", str(verify_seed)]
        plan.append([Request("verify", argv, code.n, code.k, rows=HEX_QUALIFIED_SETS, trials=HEX_TRIALS)])
    return Workload("hex-sweep", "verify", 3, "cpu", plan)


def access_synth(workdir: str, seed: int) -> Workload:
    requests = []
    for index, (p, n, k, code_seed) in enumerate(ACCESS_GRID):
        code = symplectic.random_self_orthogonal_code(p, n, k, code_seed)
        path = os.path.join(workdir, f"access_p{p}_n{n}_k{k}_s{code_seed}.qss")
        write_spec(code, path)
        requests.append(Request("analyze", ["analyze", path], n, k, pick=(seed, index)))
    return Workload("access-synth", "synthesize", 2, "cpu", [requests])


def follow_up(request: Request, stdout: str, workdir: str) -> list[Request]:
    """The synthesize requests an analyze request leads to.

    A user analyzes a code and then synthesizes circuits for minimal sets it
    listed; the sets are drawn from the listing by a generator seeded with
    `request.pick`, so every pass synthesizes the same sets.
    """
    if request.kind != "analyze":
        return []
    listed = sorted(_listed_sets(stdout), key=lambda members: (len(members), members))
    rng = np.random.default_rng(request.pick)
    chosen = rng.choice(len(listed), min(ACCESS_SYNTH_PER_CODE, len(listed)), replace=False)
    path = request.argv[1]
    out = os.path.join(workdir, "recon.qsscirc")
    return [
        Request("synthesize", ["synthesize", path, "--set", _set_arg(listed[i]), "-o", out],
                request.n, request.k, sets=(listed[i],), output=out)
        for i in chosen
    ]


def _listed_sets(stdout: str) -> list[tuple[int, ...]]:
    return [
        tuple(int(i) for i in line.strip()[1:-1].split(","))
        for line in stdout.splitlines()
        if line.startswith("  {")
    ]


def wide_certify(workdir: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    per_code = []
    for p, n, k, code_seed in WIDE_GRID:
        code = symplectic.random_self_orthogonal_code(p, n, k, code_seed)
        path = os.path.join(workdir, f"wide_p{p}_n{n}_k{k}_s{code_seed}.qss")
        write_spec(code, path)
        requests = []
        for members in _qualified_sets(code, n - 1, WIDE_SETS_PER_CODE, rng):
            verify_seed = int(rng.integers(0, 2**31))
            argv = ["verify", path, "--set", _set_arg(members), "--trials", str(WIDE_TRIALS),
                    "--seed", str(verify_seed)]
            requests.append(Request("verify", argv, n, k, sets=(members,), trials=WIDE_TRIALS))
        per_code.append(requests)
    plan = [list(requests) for requests in zip(*per_code)]
    return Workload("wide-certify", "verify", 3, "memory", plan)


WORKLOADS = {"hex-sweep": hex_sweep, "access-synth": access_synth, "wide-certify": wide_certify}


def _qualified_sets(code, size: int, count: int, rng) -> list[tuple[int, ...]]:
    """`count` distinct qualified sets of `size` shares, drawn by `rng`."""
    found: list[tuple[int, ...]] = []
    for _ in range(50 * count):
        members = tuple(sorted(int(i) + 1 for i in rng.choice(code.n, size, replace=False)))
        missing = symplectic.complement(members, code.n)
        if members not in found and symplectic.erasure_correctable(code, missing):
            found.append(members)
            if len(found) == count:
                return found
    raise RuntimeError(f"found only {len(found)} qualified {size}-sets")


# ---------------------------------------------------------------------------
# output checks


def check(request: Request, code: int, stdout: str) -> str | None:
    """Why the request's outcome is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if request.kind == "verify":
        return _check_verify(request, stdout)
    if request.kind == "synthesize":
        return _check_synthesize(request)
    return _check_analyze(stdout)


def _check_verify(request: Request, stdout: str) -> str | None:
    try:
        report = json.loads(stdout)
        rows = report["rows"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify report: {exc}"
    expected = request.rows
    if report.get("trials", 0) < 1 or len(rows) != expected:
        return f"vacuous report: trials {report.get('trials')}, {len(rows)} rows, expected {expected}"
    if summary.get("qualified_sets") != expected:
        return f"summary names {summary.get('qualified_sets')} sets, expected {expected}"
    if request.sets and [tuple(row["J"]) for row in rows] != list(request.sets):
        return "report rows name other sets than requested"
    for row in [*rows, summary]:
        if row["min_fidelity"] < 1 - FIDELITY_SLACK:
            return f"fidelity {row['min_fidelity']}"
        if row["max_purity_deviation"] > FIDELITY_SLACK:
            return f"purity deviation {row['max_purity_deviation']}"
    return None


def _check_synthesize(request: Request) -> str | None:
    try:
        with open(request.output, encoding="utf-8") as handle:
            text = handle.read()
        circuit = circuits.parse_circuit(text)
    except (OSError, ValueError) as exc:
        return f"unreadable circuit file: {exc}"
    if circuits.emit_circuit(circuit) != text:
        return "circuit file does not round-trip"
    (members,) = request.sets
    k = request.k
    counts = circuit.counts()
    if circuit.two_qudit_count() > 2 * k * len(members):
        return f"{circuit.two_qudit_count()} two-qudit gates exceed 2k|J|"
    if counts["PPOW"] > 2 * k or counts["F"] + counts["FINV"] > 2 * k:
        return f"single-qudit gate counts {counts} exceed 2k"
    touched = {q for q in circuit.touched_qudits() if q <= request.n}
    if not touched <= set(members):
        return f"gates on missing shares {sorted(touched - set(members))}"
    return None


def _check_analyze(stdout: str) -> str | None:
    lines = stdout.splitlines()
    listed = [line for line in lines if line.startswith("  {")]
    header = [line for line in lines if line.startswith("minimal qualified sets (")]
    if not listed or header != [f"minimal qualified sets ({len(listed)}):"]:
        return "analyze listed no minimal qualified set"
    return None
