"""Reference figures for the rows of the ROADMAP baseline table (not gated).

    python3 bench/reference.py            # about two minutes on one core

Prints markdown tables: golden-input microseconds per kernel (best of 5
batches of 2000 calls), latency curves of the three maps along fixed families
at n = 10, 100, 1000 (median of 3 calls), sweep throughput at the baseline
sizes (one sweep each), and the latency of one `lvbij forward` subprocess
(median of 20, next to a bare interpreter start).
"""

import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import lvbij as lv  # noqa: E402
from checks import regular_orbit  # noqa: E402

GOLDEN_ALPHA = (4, 3, 2, 1, 1)
GOLDEN_NU = (15, 14, 9, 4, 4)


def best_us(fn, calls: int = 2000, batches: int = 5) -> float:
    fn()
    best = float("inf")
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (perf_counter() - t0) / calls)
    return best * 1e6


def golden_rows() -> list[tuple[str, float]]:
    a, v = GOLDEN_ALPHA, GOLDEN_NU
    sigma = lv.ranking(-1, a, v)
    lam = lv.gamma_forward(a, v)
    X = lv.alg_W(a, v).left
    return [
        ("ranking(-1)", best_us(lambda: lv.ranking(-1, a, v))),
        ("column_seq(-1)", best_us(lambda: lv.column_seq(-1, a, v, sigma))),
        ("validate_omega_pair", best_us(lambda: lv.validate_omega_pair(a, v))),
        ("branch_plan", best_us(lambda: lv.branch_plan(a, v))),
        ("alg_B", best_us(lambda: lv.alg_B(lam))),
        ("e_map", best_us(lambda: lv.e_map(X))),
        ("is_distinguished", best_us(lambda: lv.is_distinguished(X))),
        ("gamma_forward golden", best_us(lambda: lv.gamma_forward(a, v))),
        ("alg_W golden", best_us(lambda: lv.alg_W(a, v))),
        ("gamma_inverse golden", best_us(lambda: lv.gamma_inverse(lam))),
    ]


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, left = [], n
    cap = max(1, int(2 * n ** 0.5))
    while left:
        p = min(left, rng.randint(1, cap))
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


def family(name: str, n: int, rng: random.Random):
    if name == "1^n":
        alpha = (1,) * n
    elif name == "(n)":
        alpha = (n,)
    elif name == "staircase":
        k = max(k for k in range(1, n + 1) if k * (k + 1) // 2 <= n)
        alpha = tuple(range(k, 0, -1))
    else:
        alpha = random_partition(rng, n)
    nu: list[int] = []
    i = 0
    while i < len(alpha):
        j = i
        while j < len(alpha) and alpha[j] == alpha[i]:
            j += 1
        nu += sorted((rng.randint(-5, 5) for _ in range(j - i)), reverse=True)
        i = j
    return alpha, tuple(nu)


def median_ms(fn, *args, repeats: int = 3) -> str:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        try:
            fn(*args)
        except RecursionError:
            return "RecursionError"
        times.append(perf_counter() - t0)
    return f"{statistics.median(times) * 1e3:.3g}"


def curve_rows() -> list[tuple]:
    rows = []
    rng = random.Random(0)
    for name in ("1^n", "(n)", "staircase", "random"):
        for n in (10, 100, 1000):
            alpha, nu = family(name, n, rng)
            # the image of a single row is known in closed form, also where the map fails
            lam = regular_orbit(n, nu[0]) if name == "(n)" else lv.gamma_forward(alpha, nu)
            rows.append((name, sum(alpha), len(alpha),
                         median_ms(lv.gamma_forward, alpha, nu),
                         median_ms(lv.alg_W, alpha, nu),
                         median_ms(lv.gamma_inverse, lam)))
    return rows


def sweep_rows() -> list[tuple]:
    rows = []
    for label, fn, args in [
        ("roundtrip_sweep(5, 3, extended)", lambda n, b: lv.roundtrip_sweep(n, b, extended=True), (5, 3)),
        ("inverse_roundtrip_sweep(6, 4)", lv.inverse_roundtrip_sweep, (6, 4)),
        ("oracle_sweep(5, 2)", lv.oracle_sweep, (5, 2)),
    ]:
        t0 = perf_counter()
        report = fn(*args)
        dt = perf_counter() - t0
        rows.append((label, report.cases, dt, report.cases / dt, report.ok))
    return rows


def cli_rows(repeats: int = 20) -> list[tuple]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {
        "python3 -c pass": [sys.executable, "-c", "pass"],
        "lvbij forward (golden)": [sys.executable, "-m", "lvbij.cli", "forward",
                                   "--alpha", "4,3,2,1,1", "--nu", "15,14,9,4,4"],
    }
    rows = []
    for label, cmd in commands.items():
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            times.append(perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4)
        rows.append((label, med * 1e3, q1 * 1e3, q3 * 1e3))
    return rows


def main() -> None:
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} cores\n")
    print("| golden kernel | µs |\n|---|---|")
    for name, us in golden_rows():
        print(f"| `{name}` | {us:.1f} |")
    print("\n| family | n | rows | gamma_forward ms | alg_W ms | gamma_inverse ms |\n|---|---|---|---|---|---|")
    for row in curve_rows():
        print("| " + " | ".join(str(x) for x in row) + " |")
    print("\n| sweep | cases | s | cases/s | ok |\n|---|---|---|---|---|")
    for label, cases, dt, rate, ok in sweep_rows():
        print(f"| `{label}` | {cases} | {dt:.2f} | {rate:.0f} | {ok} |")
    print("\n| subprocess | median ms | q1 ms | q3 ms |\n|---|---|---|---|")
    for label, med, q1, q3 in cli_rows():
        print(f"| `{label}` | {med:.1f} | {q1:.1f} | {q3:.1f} |")


if __name__ == "__main__":
    main()
