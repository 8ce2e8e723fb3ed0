"""Command-line front end.

Subcommands: forward, inverse, diagram, verify, enumerate.  Sequences are
comma-separated signed integers.  Each subcommand computes its result once as
a JSON-ready record (`enumerate`: an iterator of them).  `--format json` prints
`{"input": ..., "result": ...}`; text renders each record as it is produced, so
`enumerate` streams.  `enumerate` lists the fillings of one pair (`--alpha`,
`--nu`, `--window`) or the (alpha, nu) pairs up to a size (`--n-max`,
`--entry-bound`, default 2); a flag of the other mode, or only one of
`--alpha` and `--nu`, is a usage error.  Exit codes: 0 success, 1
verification failure, 2 parse, usage or validation error or an answer too
large to build, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterator

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
    return ",".join(map(str, seq))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvbij",
        description="Compute the Lusztig-Vogan bijection for GL_n and verify it at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--alpha", type=_int_list, required=True)
    pair.add_argument("--nu", type=_int_list, required=True)

    forward = sub.add_parser("forward", parents=[pair],
                             help="map a pair (alpha, nu) to a dominant weight")
    forward.add_argument("--check", action="store_true",
                         help="cross-check against the diagram route")

    inverse = sub.add_parser("inverse", help="map a dominant weight back to (alpha, nu)")
    inverse.add_argument("--lambda", dest="lam", type=_int_list, required=True)

    diagram = sub.add_parser("diagram", parents=[pair],
                             help="print the diagram pair for (alpha, nu)")
    diagram.add_argument("--eps", type=int, choices=(-1, 1), default=-1)

    verify = sub.add_parser("verify", help="run the exhaustive round-trip sweep")
    verify.add_argument("--n-max", type=int, default=4)
    verify.add_argument("--entry-bound", type=int, default=2)

    enum = sub.add_parser("enumerate", help="list (alpha, nu) pairs, or fillings of one pair")
    enum.add_argument("--alpha", type=_int_list)
    enum.add_argument("--nu", type=_int_list)
    enum.add_argument("--window", type=int, default=None,
                      help="half-width of the filling window (default: rows + columns)")
    enum.add_argument("--n-max", type=int, default=None)
    enum.add_argument("--entry-bound", type=int, default=None,
                      help="bound on |nu_i| with --n-max (default: 2)")

    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(args, record, result, render) -> None:
    if args.format == "json":
        if isinstance(result, Iterator):
            result = list(result)
        print(json.dumps({"input": record, "result": result}))
    elif isinstance(result, Iterator):
        for item in result:  # one write a line: print makes two, each a syscall unbuffered
            sys.stdout.write(render(item) + "\n")
    else:
        print(render(result))


def _pair_record(alpha, nu) -> dict:
    return {"alpha": list(alpha), "nu": list(nu)}


def _render_pair(record) -> str:
    return f"alpha={_fmt_seq(record['alpha'])} nu={_fmt_seq(record['nu'])}"


def _cmd_forward(args) -> int:
    result = gamma_forward(args.alpha, args.nu)
    if args.check and gamma_via_diagrams(args.alpha, args.nu) != result:
        print("cross-check failed: sequence and diagram routes disagree", file=sys.stderr)
        return 1
    _emit(args, _pair_record(args.alpha, args.nu), list(result), _fmt_seq)
    return 0


def _cmd_inverse(args) -> int:
    alpha, nu = gamma_inverse(args.lam)
    _emit(args, {"lambda": list(args.lam)}, _pair_record(alpha.parts, nu), _render_pair)
    return 0


def _cmd_diagram(args) -> int:
    pair = alg_W(args.alpha, args.nu, args.eps)
    result = {"X": [list(row) for row in pair.left.rows],
              "Y": [list(row) for row in pair.right.rows]}
    _emit(args, {**_pair_record(args.alpha, args.nu), "eps": args.eps}, result,
          lambda r: f"X:\n{render_diagram(r['X'])}\nY:\n{render_diagram(r['Y'])}")
    return 0


def _cmd_verify(args) -> int:
    report = roundtrip_sweep(args.n_max, args.entry_bound, extended=True)
    checks = {name: {"cases": c.cases, "first_failure": c.first_failure}
              for name, c in report.checks.items()}
    _emit(args, {"n_max": args.n_max, "entry_bound": args.entry_bound},
          {"cases": report.cases, "ok": report.ok, "checks": checks},
          lambda _: report.format_text())
    return 0 if report.ok else 1


def _cmd_enumerate(args) -> int:
    # two modes, each with its own flags: fillings of one pair (--alpha, --nu
    # and --window), or (alpha, nu) pairs (--n-max and --entry-bound)
    one_pair = (args.alpha, args.nu, args.window) != (None, None, None)
    if one_pair and args.n_max is not None:
        raise ValueError("enumerate takes --n-max without --alpha, --nu or --window")
    if one_pair and args.entry_bound is not None:
        raise ValueError("enumerate takes --entry-bound without --alpha, --nu or --window")
    if one_pair and (args.alpha is None or args.nu is None):
        raise ValueError("enumerate needs both --alpha and --nu to list fillings")
    if one_pair:
        window = default_window(args.alpha) if args.window is None else args.window
        fillings = (
            [list(row) for row in f.rows]
            for f in enumerate_fillings(args.alpha, args.nu, window)
        )
        _emit(args, {**_pair_record(args.alpha, args.nu), "window": window}, fillings,
              lambda rows: ";".join(" ".join(map(str, row)) for row in rows))
        return 0
    if args.n_max is not None:
        bound = 2 if args.entry_bound is None else args.entry_bound
        pairs = (_pair_record(a.parts, nu) for a, nu in omega_pairs(args.n_max, bound))
        _emit(args, {"n_max": args.n_max, "entry_bound": bound}, pairs, _render_pair)
        return 0
    raise ValueError("enumerate needs either --alpha and --nu, or --n-max")


_COMMANDS = {"forward": _cmd_forward, "inverse": _cmd_inverse, "diagram": _cmd_diagram,
             "verify": _cmd_verify, "enumerate": _cmd_enumerate}


def main(argv=None) -> int:
    # int() and str() refuse more than 4300 digits by default (Python 3.10.7
    # on); answers are exact at any size, so main lifts the limit while it runs
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # a valid input whose answer has more entries than an index or memory holds
        print(f"error: the answer is too large to build ({exc!r})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at interpreter
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
