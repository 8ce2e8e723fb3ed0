"""The lvbij benchmark: one command, standard library only.

    python3 bench/run.py --workload sweep|large --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/` of
that checkout and exits with code 2, printing no result, when there is none.
A run repeats rounds of identical work until `--seconds` have passed, and
sets up (imports the package afresh and builds its inputs) before each.
Every round runs the three sweeps and one pass of each map over the
workload's inputs; the workloads differ in the sizes (see README.md).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json; with `--trace 1` rounds alternate between
untraced and traced, and the metrics are the per-layer ones.  Per-round raw
figures go to `bench/out/`.  The exit code is 1 when any output is wrong.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import inputs
import spans

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
CLOSED_FORMS = inputs.closed_form_inputs(10)


@dataclass(frozen=True)
class Workload:
    forward_sweep: tuple[int, int]  # roundtrip_sweep(n_max, entry_bound, extended=True)
    inverse_sweep: tuple[int, int]  # inverse_roundtrip_sweep(max_len, entry_bound)
    oracle_sweep: tuple[int, int]  # oracle_sweep(n_max, entry_bound)
    family: Callable[[random.Random], inputs.Family]


# `sweep` is the verification use on tiny inputs, `large` the single-call use
# at n ~ 1000; on `large` the sweeps run at a small fixed size so that every
# metric has a reading.
WORKLOADS = {
    "sweep": Workload((4, 3), (6, 3), (4, 2), lambda rng: inputs.sweep_family(4, 3, 6, 3)),
    "large": Workload((3, 2), (4, 2), (3, 2), inputs.large_family),
}


@dataclass
class Round:
    times: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: list[str] = field(default_factory=list)


def load_program():
    """Import `lvbij` afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "lvbij" or m.startswith("lvbij.")]:
        del sys.modules[name]
    package = importlib.import_module("lvbij")
    if Path(package.__file__).resolve().parent != SRC / "lvbij":
        raise ImportError(f"lvbij was imported from {package.__file__}, not from {SRC}")
    return package


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation, reported on stderr
        return exc


def _failed(result) -> bool:
    return isinstance(result, Exception)


def _plain(result):
    """Comparable form of a map's result; a failure compares by its type."""
    if _failed(result):
        return type(result).__name__
    if hasattr(result, "left"):
        return (result.left.rows, result.right.rows)
    if hasattr(result, "alpha"):
        return (tuple(result.alpha), tuple(result.nu))
    return tuple(result)


def run_round(lv, wl: Workload, family: inputs.Family, tracer=None) -> Round:
    """One round: three sweeps and one pass of each map.  Only the map calls are
    timed and traced; the deep attempts run untimed and untraced after them."""
    r = Round()
    with tracer.installed(lv) if tracer else nullcontext():
        t0 = perf_counter()
        forward = lv.roundtrip_sweep(*wl.forward_sweep, extended=True)
        closed = [lv.gamma_forward(a, v) for a, v in CLOSED_FORMS]
        t1 = perf_counter()
        inverse = lv.inverse_roundtrip_sweep(*wl.inverse_sweep)
        t2 = perf_counter()
        oracle = lv.oracle_sweep(*wl.oracle_sweep)
        t3 = perf_counter()
        images = [_attempt(lv.gamma_forward, a, v) for a, v in family.forward]
        t4 = perf_counter()
        pairs = [_attempt(lv.alg_W, a, v, -1) for a, v in family.forward]
        t5 = perf_counter()
        preimages = [lam if _failed(lam) else _attempt(lv.gamma_inverse, lam)
                     for lam in images + family.inverse_only]
        t6 = perf_counter()
    r.times = {"forward_sweep": t1 - t0, "inverse_sweep": t2 - t1, "oracle_sweep": t3 - t2,
               "forward_pass": t4 - t3, "diagram_pass": t5 - t4, "inverse_pass": t6 - t5}

    deep = []
    for alpha, nu in family.deep:
        deep += [_attempt(lv.gamma_forward, alpha, nu), _attempt(lv.alg_W, alpha, nu, -1),
                 _attempt(lv.gamma_inverse, checks.closed_form(alpha, nu))]

    r.outputs = {
        "sweeps": [(rep.cases, rep.ok) for rep in (forward, inverse, oracle)],
        "closed": closed,
        "images": [_plain(x) for x in images],
        "pairs": [_plain(x) for x in pairs],
        "preimages": [_plain(x) for x in preimages],
        "deep": [_plain(x) for x in deep],
        "reports": (forward, inverse, oracle),
    }
    maps = images + pairs + preimages + deep
    r.attempted = forward.cases + len(closed) + inverse.cases + oracle.cases + len(maps)
    r.failed = [f"{type(x).__name__}: {str(x)[:120]}" for x in maps if _failed(x)]
    return r


def check_round(lv, wl: Workload, family: inputs.Family, r: Round) -> list[str]:
    """Check every output of a round against closed forms and the method's properties."""
    forward, inverse, oracle = r.outputs["reports"]
    problems = checks.sweep_problems("roundtrip_sweep", forward, inputs.omega_count(*wl.forward_sweep))
    problems += checks.sweep_problems("inverse_roundtrip_sweep", inverse,
                                      inputs.dominant_count(*wl.inverse_sweep))
    problems += checks.sweep_problems("oracle_sweep", oracle, inputs.omega_count(*wl.oracle_sweep))
    for (alpha, nu), lam in zip(CLOSED_FORMS, r.outputs["closed"]):
        if tuple(lam) != checks.closed_form(alpha, nu):
            problems.append(f"closed form: alpha={alpha} nu={nu} gave {lam}")

    n_fwd = len(family.forward)
    preimages = r.outputs["preimages"]
    for (alpha, nu), lam, pair, omega in zip(family.forward, r.outputs["images"], r.outputs["pairs"],
                                             preimages):
        problems += _forward_problems(alpha, nu, lam, pair, omega)
    for lam, omega in zip(family.inverse_only, preimages[n_fwd:]):
        if not isinstance(omega, str):
            back = _plain(_attempt(lv.gamma_forward, *omega))
            problems += [f"lambda of length {len(lam)}: {p}" for p in checks.preimage_problems(lam, omega, back)]
    deep = r.outputs["deep"]
    for k, (alpha, nu) in enumerate(family.deep):
        problems += _forward_problems(alpha, nu, *deep[3 * k: 3 * k + 3])
    return problems


def _forward_problems(alpha, nu, lam, pair, omega) -> list[str]:
    found = []
    if isinstance(lam, str):
        lam = checks.closed_form(alpha, nu)  # lets a diagram be checked while the image fails
    else:
        found += checks.image_problems(alpha, nu, lam)
    if not isinstance(pair, str):
        found += checks.diagram_problems(alpha, nu, lam, *pair)
    if not isinstance(omega, str):
        found += checks.roundtrip_problems(alpha, nu, omega)
    return [f"alpha of {len(alpha)} rows, n={sum(alpha)}: {p}" for p in found]


def _same_outputs(a: Round, b: Round) -> bool:
    keys = ("sweeps", "closed", "images", "pairs", "preimages", "deep")
    return all(a.outputs[k] == b.outputs[k] for k in keys)


def set_up(wl: Workload, seed: int, times: list[float]):
    """Import the package afresh and build the inputs; append the time taken."""
    t0 = perf_counter()
    lv = load_program()
    family = wl.family(random.Random(seed))
    times.append(perf_counter() - t0)
    return lv, family


def _median(rounds: list[Round], key: str) -> float:
    return statistics.median(r.times[key] for r in rounds)


def _rate(rounds: list[Round], key: str, cases: int) -> float:
    """Cases per second over the whole run: every round does the same cases."""
    return cases * len(rounds) / sum(r.times[key] for r in rounds)


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    first = rounds[0].outputs
    forward, inverse, oracle = first["reports"]
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "forward_cases_per_s": (_rate(rounds, "forward_sweep", forward.cases + len(first["closed"])), "1/s"),
        "inverse_cases_per_s": (_rate(rounds, "inverse_sweep", inverse.cases), "1/s"),
        "oracle_cases_per_s": (_rate(rounds, "oracle_sweep", oracle.cases), "1/s"),
        "forward_pass_s": (_median(rounds, "forward_pass"), "s"),
        "diagram_pass_s": (_median(rounds, "diagram_pass"), "s"),
        "inverse_pass_s": (_median(rounds, "inverse_pass"), "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer_metrics(plain: list[Round], traced: list[Round], layers: list[dict]) -> dict:
    first = layers[0]
    values = {}
    for key in spans.layer_names():
        if key not in first["calls"]:
            continue  # skipped: the function no longer exists
        values[f"{key}.calls"] = (first["calls"][key], "count")
        values[f"{key}.self_ms"] = (statistics.median(lay["self_ns"][key] for lay in layers) / 1e6, "ms")
    values[spans.HIT_RATIO] = (first["hit_ratio"], "ratio")
    round_s = lambda r: sum(r.times.values())
    overhead = statistics.median(map(round_s, traced)) / statistics.median(map(round_s, plain)) - 1
    values["trace.overhead_pct"] = (100 * overhead, "%")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lvbij" / "__init__.py").is_file():
        print(f"error: no lvbij package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    # set-up runs before every round, so that its median spans the run like the
    # other metrics; the first one also compiles the sources
    setup_times: list[float] = []
    lv, family = set_up(wl, args.seed, setup_times)

    start = perf_counter()
    first = run_round(lv, wl, family)
    problems = check_round(lv, wl, family, first)
    rounds, traced, layers = [first], [], []
    differs = False
    tracer = spans.Tracer() if args.trace else None
    while True:
        gc.collect()  # the previous round's garbage and modules go here, not into a timed part
        lv, family = set_up(wl, args.seed, setup_times)
        if tracer and len(traced) < len(rounds):
            tracer.reset()
            r = run_round(lv, wl, family, tracer)
            traced.append(r)
            layers.append({"calls": dict(tracer.calls), "self_ns": dict(tracer.self_ns),
                           "hit_ratio": tracer.hit_ratio()})
        elif perf_counter() - start < args.seconds:
            r = run_round(lv, wl, family)
            rounds.append(r)
        else:
            break
        differs = differs or not _same_outputs(first, r)
        r.outputs = {}  # only the first round's outputs are kept, so memory does not grow with the run
    setup_s = statistics.median(setup_times)
    if differs:
        problems.append("a later round's outputs differ from the first round's")

    everything = rounds + traced
    failures = sorted({f for r in everything for f in r.failed})
    for f in failures:
        print(f"failed operation: {f}", file=sys.stderr)
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    if tracer:
        for key in tracer.skipped:
            print(f"trace: skipped {key}, which no longer exists", file=sys.stderr)
        if any(lay["calls"] != layers[0]["calls"] for lay in layers):
            print("trace: call counts differ between traced rounds", file=sys.stderr)
        metrics = per_layer_metrics(rounds, traced, layers)
    else:
        metrics = end_to_end_metrics(rounds, setup_s)

    OUT.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "setup_s": setup_times, "rounds": [r.times for r in rounds], "traced_rounds": [r.times for r in traced],
           "layers": layers, "failed": failures, "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(len(r.failed) for r in everything),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
