"""Command-line front end.

Subcommands: forward, inverse, diagram, verify, enumerate.  Sequences are
comma-separated signed integers.  Exit codes: 0 success, 1 verification
failure, 2 parse or validation error, 141 (128 + SIGPIPE) when the reader
closes stdout early, as `| head` does.
"""

import argparse
import json
import os
import sys

from .diagram_algorithm import alg_W, gamma_via_diagrams
from .diagrams import render_diagram
from .inverse_algorithm import gamma_inverse
from .oracle import default_window, enumerate_fillings, omega_pairs, roundtrip_sweep
from .seq_algorithm import gamma_forward

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _fmt_seq(seq) -> str:
    return ",".join(str(v) for v in seq)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvbij",
        description="Compute the Lusztig-Vogan bijection for GL_n and verify it at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forward = sub.add_parser("forward", help="map a pair (alpha, nu) to a dominant weight")
    forward.add_argument("--alpha", type=_int_list, required=True)
    forward.add_argument("--nu", type=_int_list, required=True)
    forward.add_argument("--check", action="store_true",
                         help="cross-check against the diagram route")
    forward.add_argument("--format", choices=("text", "json"), default="text")

    inverse = sub.add_parser("inverse", help="map a dominant weight back to (alpha, nu)")
    inverse.add_argument("--lambda", dest="lam", type=_int_list, required=True)
    inverse.add_argument("--format", choices=("text", "json"), default="text")

    diagram = sub.add_parser("diagram", help="print the diagram pair for (alpha, nu)")
    diagram.add_argument("--alpha", type=_int_list, required=True)
    diagram.add_argument("--nu", type=_int_list, required=True)
    diagram.add_argument("--eps", type=int, choices=(-1, 1), default=-1)
    diagram.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run the exhaustive round-trip sweep")
    verify.add_argument("--n-max", type=int, default=4)
    verify.add_argument("--entry-bound", type=int, default=2)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    enum = sub.add_parser("enumerate", help="list (alpha, nu) pairs, or fillings of one pair")
    enum.add_argument("--alpha", type=_int_list)
    enum.add_argument("--nu", type=_int_list)
    enum.add_argument("--window", type=int, default=None,
                      help="half-width of the filling window (default: rows + columns)")
    enum.add_argument("--n-max", type=int, default=None)
    enum.add_argument("--entry-bound", type=int, default=2)
    enum.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_forward(args) -> int:
    result = gamma_forward(args.alpha, args.nu)
    if args.check and gamma_via_diagrams(args.alpha, args.nu) != result:
        print("cross-check failed: sequence and diagram routes disagree", file=sys.stderr)
        return 1
    payload = {
        "input": {"alpha": list(args.alpha), "nu": list(args.nu)},
        "result": list(result),
    }
    _emit(args, [_fmt_seq(result)], payload)
    return 0


def _cmd_inverse(args) -> int:
    alpha, nu = gamma_inverse(args.lam)
    payload = {
        "input": {"lambda": list(args.lam)},
        "result": {"alpha": list(alpha.parts), "nu": list(nu)},
    }
    _emit(args, [f"alpha={_fmt_seq(alpha.parts)} nu={_fmt_seq(nu)}"], payload)
    return 0


def _cmd_diagram(args) -> int:
    pair = alg_W(args.alpha, args.nu, args.eps)
    payload = {
        "input": {"alpha": list(args.alpha), "nu": list(args.nu), "eps": args.eps},
        "result": {
            "X": [list(row) for row in pair.left.rows],
            "Y": [list(row) for row in pair.right.rows],
        },
    }
    lines = ["X:", render_diagram(pair.left), "Y:", render_diagram(pair.right)]
    _emit(args, lines, payload)
    return 0


def _cmd_verify(args) -> int:
    report = roundtrip_sweep(args.n_max, args.entry_bound, extended=True)
    payload = {
        "input": {"n_max": args.n_max, "entry_bound": args.entry_bound},
        "result": {
            "cases": report.cases,
            "ok": report.ok,
            "checks": {
                name: {"cases": c.cases, "first_failure": c.first_failure}
                for name, c in report.checks.items()
            },
        },
    }
    _emit(args, [report.format_text()], payload)
    return 0 if report.ok else 1


def _cmd_enumerate(args) -> int:
    if args.alpha is not None and args.nu is not None:
        window = args.window
        if window is None:
            window = default_window(args.alpha)
        fillings = list(enumerate_fillings(args.alpha, args.nu, window))
        payload = {
            "input": {"alpha": list(args.alpha), "nu": list(args.nu), "window": window},
            "result": [[list(row) for row in f.rows] for f in fillings],
        }
        lines = [";".join(" ".join(str(v) for v in row) for row in f.rows) for f in fillings]
        _emit(args, lines, payload)
        return 0
    if args.n_max is not None:
        pairs = [(alpha, nu) for alpha, nu in omega_pairs(args.n_max, args.entry_bound)]
        payload = {
            "input": {"n_max": args.n_max, "entry_bound": args.entry_bound},
            "result": [
                {"alpha": list(alpha.parts), "nu": list(nu)} for alpha, nu in pairs
            ],
        }
        lines = [f"alpha={_fmt_seq(a.parts)} nu={_fmt_seq(nu)}" for a, nu in pairs]
        _emit(args, lines, payload)
        return 0
    print("enumerate needs either --alpha and --nu, or --n-max", file=sys.stderr)
    return 2


_COMMANDS = {
    "forward": _cmd_forward,
    "inverse": _cmd_inverse,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at interpreter
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
