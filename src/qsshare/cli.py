"""Command-line front end.

Commands: analyze, synthesize, verify, demo. Exit codes: 0 success,
2 parse/validation failure, 3 requested share set not qualified,
4 verification failure, 141 standard output closed early (a pipe whose
reader left, as in `qsshare verify ... | head -1`), with nothing on stderr.
Output files are written to a temp file and renamed so a failed run never
leaves a partial artifact.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

from . import certify, circuits, pauli, specfile, symplectic
from .errors import NotCorrectableError, QssError, TooLargeError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CORRECTABLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left

FIDELITY_SLACK = 1e-9


def _load(path):
    try:
        return specfile.load_code(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise QssError(f"cannot read {path}: {exc}") from exc


def _parse_share_list(text: str, n: int):
    try:
        tokens = [specfile.parse_decimal(tok) for tok in text.replace(",", " ").split()]
        members = symplectic.share_set(tokens, n)
    except ValueError as exc:
        raise QssError(f"bad share list {text!r}: {exc}") from exc
    if not members:
        raise QssError(f"bad share list {text!r}: no share index")
    return members


def _format_set(members) -> str:
    return "{" + ",".join(str(i) for i in members) + "}"


def cmd_analyze(args) -> int:
    if args.max_size is not None and args.max_size < 1:
        raise QssError(f"--max-size must be >= 1, got {args.max_size}")
    code = _load(args.spec)
    p, n, k = code.p, code.n, code.k
    minimal = symplectic.qualified_sets(code, max_size=args.max_size)  # may refuse: before any output
    print(f"p {p}  n {n}  k {k}")
    print(f"dim C = {n - k}")
    print(f"dim Cm = {code.self_dual.shape[0]}")
    print(f"dim C_perp = {2 * n - (n - k)}")
    if k:
        print("logical pairs:")
        for i in range(k):
            print(
                f"  x{i + 1} {specfile.format_row(code.logical_x[i], n, p)}"
                f"  z{i + 1} {specfile.format_row(code.logical_z[i], n, p)}"
            )
    else:
        print("logical pairs: none (k = 0)")
    print(f"minimal qualified sets ({len(minimal)}):")
    for members in minimal:
        print(f"  {_format_set(members)}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    code = _load(args.spec)
    if code.k == 0:
        raise QssError("nothing to reconstruct: the code has k = 0")
    conv = pauli.make_convention(code)
    members = _parse_share_list(args.set, code.n)
    plan = circuits.plan_reconstruction(code, conv, members)
    circuit = circuits.synthesize_reconstruction(plan)
    text = circuits.emit_circuit(circuit)
    directory = os.path.dirname(os.path.abspath(args.output)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, args.output)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise QssError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    counts = circuit.counts()
    print(f"wrote {args.output}")
    print(
        f"gates: {sum(counts[kind] for kind in circuits.TWO_QUDIT_KINDS)} two-qudit"
        f" (bound {2 * code.k * len(members)}),"
        f" {counts['PPOW']} phase, {counts['F'] + counts['FINV']} Fourier"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise QssError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise QssError(f"--seed must be >= 0, got {args.seed}")
    code = _load(args.spec)
    p, n, k = code.p, code.n, code.k
    limit = certify.max_amplitudes()
    if args.trials * p**k > limit:  # the sampled secrets' amplitudes, before any is drawn
        raise TooLargeError(
            f"--trials {args.trials} secrets of {p}^{k} amplitudes exceed the guard ({limit}); "
            "set QSS_MAX_AMPLITUDES to raise it"
        )
    report = {
        "p": p,
        "n": n,
        "k": k,
        "seed": args.seed,
        "trials": args.trials,
        "rows": [],
    }
    conv = pauli.make_convention(code)
    members = None if args.set is None else _parse_share_list(args.set, n)
    if k == 0:  # nothing to reconstruct: an empty report, for a valid --set too
        plan = ()
    elif members is not None:
        try:
            plan = circuits.plan_reconstruction(code, conv, members)
        except NotCorrectableError:
            print(f"share set {_format_set(members)} is not qualified", file=sys.stderr)
            return EXIT_NOT_CORRECTABLE
    else:
        plan = circuits.plan_rows(code, conv, symplectic.all_qualified_rows(code))
    secrets = certify.random_secrets(p, k, args.trials, np.random.default_rng(args.seed))
    failure = None
    for rep in certify.certify_reconstruction(code, conv, plan, secrets) if plan else ():
        devs = [abs(1.0 - value) for value in rep.purity]
        for trial, (fid, dev) in enumerate(zip(rep.fidelity, devs)):
            if failure is None and fid < 1.0 - FIDELITY_SLACK:
                failure = (rep, trial, f"fidelity {fid:.12g}")
            elif failure is None and dev > FIDELITY_SLACK:
                failure = (rep, trial, f"purity deviation {dev:.3g}")
        report["rows"].append(
            {
                "J": list(rep.available),
                "min_fidelity": round(min(rep.fidelity), 12),
                "max_purity_deviation": round(max(devs), 12),
                "two_qudit_gates": rep.two_qudit_gates,
                "single_qudit_gates": rep.single_qudit_gates,
            }
        )
    # round() is monotone: the extremes of the rounded rows are the rounded extremes
    rows = report["rows"]
    report["summary"] = {
        "qualified_sets": len(plan),
        "min_fidelity": min([1.0] + [row["min_fidelity"] for row in rows]),
        "max_purity_deviation": max([0.0] + [row["max_purity_deviation"] for row in rows]),
    }
    print(_json_text(report))
    if failure is not None:
        rep, trial, check = failure
        print(
            f"verification failed for J={_format_set(rep.available)}"
            f" (entanglement fidelity {rep.entanglement_fidelity:.12g}) at trial {trial}"
            f" (seed {args.seed}): {check}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's names


def _float(value: float) -> str:
    """A float as json.dumps writes it."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


_SCALARS = {int: int.__repr__, float: _float}


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) of a dict or list whose keys are plain
    strings and whose values are dicts, lists, ints and floats, as a verify
    report's are; any other value is a TypeError. With an indent, json falls
    back to its pure-Python encoder, about twice as slow as this walk."""
    inner = indent + "  "
    if type(value) is dict:
        items = [
            f'"{key}": {_SCALARS[type(item)](item) if type(item) in _SCALARS else _json_text(item, inner)}'
            for key, item in value.items()
        ]
        brackets = "{}"
    elif type(value) is list:
        items = [_SCALARS[type(item)](item) if type(item) in _SCALARS else _json_text(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")
    if not items:
        return brackets
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{indent}{brackets[1]}"


def cmd_demo(_args) -> int:
    from . import demo

    sys.stdout.write(demo.run_demo())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsshare",
        description="Qudit stabilizer secret sharing: analysis, circuit synthesis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report code dimensions and qualified sets")
    p_analyze.add_argument("spec", help="code specification file")
    p_analyze.add_argument("--max-size", type=int, default=None, help="largest set size to enumerate")
    p_analyze.set_defaults(func=cmd_analyze)

    p_synth = sub.add_parser("synthesize", help="write a reconstruction circuit file")
    p_synth.add_argument("spec")
    p_synth.add_argument("--set", required=True, help="comma-separated share indices, e.g. 3,4,5,6")
    p_synth.add_argument("-o", "--output", required=True)
    p_synth.set_defaults(func=cmd_synthesize)

    p_verify = sub.add_parser("verify", help="certify reconstruction over qualified sets")
    p_verify.add_argument("spec")
    p_verify.add_argument("--trials", type=int, default=5, help="random secrets per set")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--set", default=None, help="restrict to one share set")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="walk the built-in six-share qutrit code end to end")
    p_demo.set_defaults(func=cmd_demo)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so one serves every main call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            status = args.func(args)
        except NotCorrectableError as exc:
            print(f"not correctable: {exc}", file=sys.stderr)
            status = EXIT_NOT_CORRECTABLE
        except QssError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_INVALID
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # what is still buffered, and the flush at exit, go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
