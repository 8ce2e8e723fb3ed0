"""Brute-force verification at desk scale.

Independent of the algorithm modules' internals: fillings with prescribed row
sums are enumerated outright, the norm is minimized over them, distinguished
diagrams are found by exhaustive search over fillings and row orders, and the
sweep harnesses grind through every small input checking the advertised
identities.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Iterator

from .core import (
    Partition,
    as_partition,
    dom,
    norm_sq,
    two_rho,
    validate_omega_pair,
)
from .diagrams import (
    WeightDiagram,
    _adjacent_steps_ok,
    e_map,
    eta,
    h_weight,
    is_distinguished,
    kappa,
)
from .diagram_algorithm import alg_W
from .inverse_algorithm import alg_B, clumps, gamma_inverse, majuscule_extract
from .seq_algorithm import alg_A, gamma_forward

__all__ = [
    "SearchSpaceError",
    "CheckResult",
    "SweepReport",
    "partitions_of",
    "dominant_sequences",
    "omega_pairs",
    "default_window",
    "enumerate_fillings",
    "min_norm_over_fillings",
    "distinguished_fillings",
    "roundtrip_sweep",
    "inverse_roundtrip_sweep",
    "oracle_sweep",
]

STATE_LIMIT = 10**8


class SearchSpaceError(ValueError):
    """The requested enumeration would visit too many states."""


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, parts in weakly decreasing order, largest part first."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    if n >= 1:
        for parts in rec(n, n):
            yield Partition(parts)


def dominant_sequences(alpha, entry_bound: int) -> Iterator[tuple[int, ...]]:
    """All sequences dominant with respect to alpha with entries in [-bound, bound]."""
    alpha = as_partition(alpha)
    values = range(entry_bound, -entry_bound - 1, -1)
    block_choices = [
        combinations_with_replacement(values, mult)
        for _, mult in alpha.distinct_parts()
    ]
    for blocks in product(*block_choices):
        yield tuple(v for block in blocks for v in block)


def omega_pairs(n_max: int, entry_bound: int) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """All valid (alpha, nu) with |alpha| <= n_max and |nu_i| <= entry_bound."""
    for n in range(1, n_max + 1):
        for alpha in partitions_of(n):
            for nu in dominant_sequences(alpha, entry_bound):
                yield alpha, nu


def default_window(alpha) -> int:
    """Window half-width used by the sweeps: number of rows plus number of columns."""
    alpha = as_partition(alpha)
    return alpha.ell + alpha.s


def _row_window(length: int, total: int, window: int) -> tuple[int, int]:
    lo = total // length - window
    hi = -((-total) // length) + window
    return lo, hi


def _composition_count(length: int, total: int, lo: int, hi: int) -> int:
    width = hi - lo
    if width < 0:
        return 0
    target = total - length * lo
    if target < 0 or target > length * width:
        return 0
    ways = [0] * (target + 1)
    ways[0] = 1
    for _ in range(length):
        new = [0] * (target + 1)
        for v, w in enumerate(ways):
            if w:
                for d in range(min(width, target - v) + 1):
                    new[v + d] += w
        ways = new
    return ways[target]


def _row_compositions(length: int, total: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    if length == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    first_lo = max(lo, total - (length - 1) * hi)
    first_hi = min(hi, total - (length - 1) * lo)
    for first in range(first_lo, first_hi + 1):
        for rest in _row_compositions(length - 1, total - first, lo, hi):
            yield (first,) + rest


def _filling_rows(alpha: Partition, nu, window: int) -> list[list[tuple[int, ...]]]:
    """Per row, the list of admissible contents; raises if the product is too big."""
    states = 1
    for length, total in zip(alpha.parts, nu):
        lo, hi = _row_window(length, total, window)
        states *= _composition_count(length, total, lo, hi)
        if states > STATE_LIMIT:
            raise SearchSpaceError(
                f"window {window} spans more than {STATE_LIMIT} fillings "
                f"(at least {states} states)"
            )
    return [
        list(_row_compositions(length, total, *_row_window(length, total, window)))
        for length, total in zip(alpha.parts, nu)
    ]


def enumerate_fillings(alpha, nu, window: int) -> Iterator[WeightDiagram]:
    """All fillings of the Young diagram of alpha with the prescribed row sums.

    Entries of row i stay within `window` of the balanced split of nu[i].
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    for rows in product(*_filling_rows(alpha, nu, window)):
        yield WeightDiagram(rows)


def min_norm_over_fillings(alpha, nu, window: int) -> int:
    """Minimum over all in-window fillings of the offset squared norm of the
    column-sorted weight."""
    alpha, nu = validate_omega_pair(alpha, nu)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    conj = alpha.conjugate().parts
    rho_blocks = [tuple(range(h - 1, -h, -2)) for h in conj]
    best = None
    for rows in product(*_filling_rows(alpha, nu, window)):
        total = 0
        for j, h in enumerate(conj):
            col = sorted((rows[i][j] for i in range(h)), reverse=True)
            total += sum((c + r) ** 2 for c, r in zip(col, rho_blocks[j]))
        if best is None or total < best:
            best = total
    if best is None:
        raise SearchSpaceError("the window admits no fillings at all")
    return best


def _columns_weakly_decreasing(rows) -> bool:
    width = max(len(r) for r in rows)
    for j in range(width):
        prev = None
        for row in rows:
            if len(row) > j:
                if prev is not None and row[j] > prev:
                    return False
                prev = row[j]
    return True


def _arrangements(rows) -> Iterator[tuple[tuple[int, ...], ...]]:
    # distinct orderings of the rows whose first column is weakly decreasing
    # (a necessary condition for a distinguished diagram)
    if not rows:
        yield ()
        return
    counter = Counter(rows)
    distinct = sorted(counter, reverse=True)
    placed: list[tuple[int, ...]] = []

    def rec(bound):
        if len(placed) == len(rows):
            yield tuple(placed)
            return
        for row in distinct:
            if counter[row] and row[0] <= bound:
                counter[row] -= 1
                placed.append(row)
                yield from rec(row[0])
                placed.pop()
                counter[row] += 1

    yield from rec(max(r[0] for r in rows))


def distinguished_fillings(alpha, nu, window: int) -> list[WeightDiagram]:
    """Exhaustive search for distinguished diagrams whose row data recovers nu.

    Enumerates every in-window filling and every distinct row order of it.
    Sorting rows never changes the row data, so the search covers the whole
    fiber within the window.
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    found = set()
    for rows in product(*_filling_rows(alpha, nu, window)):
        for arrangement in _arrangements(rows):
            if not _columns_weakly_decreasing(arrangement):
                continue
            X = WeightDiagram(arrangement)
            if is_distinguished(X, "odd"):
                assert kappa(X) == nu
                found.add(X)
    return sorted(found, key=lambda d: d.rows)


@dataclass
class CheckResult:
    """Success count and the first counterexample (if any) for one named check."""

    name: str
    cases: int = 0
    first_failure: str | None = None

    def record(self, ok: bool, label: str, detail: str = "") -> None:
        self.cases += 1
        if not ok and self.first_failure is None:
            self.first_failure = f"{label}{': ' + detail if detail else ''}"

    @property
    def ok(self) -> bool:
        return self.first_failure is None


@dataclass
class SweepReport:
    """Outcome of a sweep: per-check success counts and first counterexamples."""

    label: str
    cases: int = 0
    checks: dict = field(default_factory=dict)

    def check(self, name: str) -> CheckResult:
        if name not in self.checks:
            self.checks[name] = CheckResult(name)
        return self.checks[name]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def format_text(self) -> str:
        lines = [f"{self.label}: {self.cases} cases"]
        for name in sorted(self.checks):
            c = self.checks[name]
            if c.ok:
                lines.append(f"  {name}: {c.cases} ok")
            else:
                lines.append(f"  {name}: FAIL ({c.first_failure})")
        lines.append("all checks passed" if self.ok else "FAILURES FOUND")
        return "\n".join(lines)


def roundtrip_sweep(n_max: int, entry_bound: int, extended: bool = False) -> SweepReport:
    """Exhaustive forward-side verification over all small inputs.

    Core checks: the inverse returns the input, the row data of the left
    diagram recovers nu, the sequence and diagram forms have equal offset
    norms and equal dominant weights, and the output diagram is
    distinguished.  `extended` adds the pair-coherence, adjacency,
    input-permutation, both-parity, and column-shift compatibility checks.
    """
    report = SweepReport(label=f"roundtrip sweep n<={n_max}, |nu_i|<={entry_bound}")
    for alpha, nu in omega_pairs(n_max, entry_bound):
        report.cases += 1
        label = f"alpha={list(alpha.parts)}, nu={list(nu)}"
        rho2 = two_rho(alpha)

        mu = alg_A(alpha, nu)
        gam = dom(m + r for m, r in zip(mu, rho2))
        pair = alg_W(alpha.parts, nu, -1)
        X, Y = pair.left, pair.right

        report.check("kappa_recovery").record(kappa(X) == nu, label)
        hx = h_weight(X)
        report.check("norm_agreement").record(
            norm_sq(a + r for a, r in zip(hx, rho2)) == norm_sq(a + r for a, r in zip(mu, rho2)),
            label,
        )
        report.check("eta_agreement").record(eta(Y) == gam, label)
        report.check("distinguished_odd").record(is_distinguished(X, "odd"), label)
        report.check("roundtrip").record(gamma_inverse(gam) == (alpha, nu), label)

        if extended:
            report.check("pair_coherence").record(e_map(X) == Y, label)
            report.check("adjacency").record(_adjacent_steps_ok(Y, -1), label)
            report.check("shift_compat").record(
                eta(e_map(X)) == dom(a + r for a, r in zip(hx, rho2)), label
            )
            pair_plus = alg_W(alpha.parts, nu, 1)
            report.check("distinguished_even").record(
                is_distinguished(pair_plus.left, "even"), label
            )
            report.check("adjacency").record(_adjacent_steps_ok(pair_plus.right, 1), label)
            if alpha.ell > 1:
                pairs = list(zip(alpha.parts, nu))
                for shuffled in (pairs[::-1], pairs[1:] + pairs[:1]):
                    beta = [a for a, _ in shuffled]
                    xi = [v for _, v in shuffled]
                    report.check("permutation_invariance").record(
                        alg_W(beta, xi, -1) == pair and alg_W(beta, xi, 1) == pair_plus,
                        label,
                        f"permuted to beta={beta}, xi={xi}",
                    )
    return report


def inverse_roundtrip_sweep(max_len: int, entry_bound: int) -> SweepReport:
    """Exhaustive inverse-side verification over all small dominant weights."""
    report = SweepReport(label=f"inverse sweep len<={max_len}, |entry|<={entry_bound}")
    values = range(entry_bound, -entry_bound - 1, -1)
    for k in range(1, max_len + 1):
        for lam in combinations_with_replacement(values, k):
            report.cases += 1
            label = f"lambda={list(lam)}"

            parts = clumps(lam)
            structure_ok = sum(parts, ()) == lam
            for part in parts:
                structure_ok = structure_ok and all(
                    part[i] - part[i + 1] <= 1 for i in range(len(part) - 1)
                )
            structure_ok = structure_ok and all(
                parts[t][-1] - parts[t + 1][0] >= 2 for t in range(len(parts) - 1)
            )
            report.check("clump_structure").record(structure_ok, label)

            maj_ok = True
            for part in parts:
                extracted, remainder = majuscule_extract(part, -1)
                maj_ok = maj_ok and all(
                    extracted[i] - extracted[i + 1] >= 2 for i in range(len(extracted) - 1)
                )
                maj_ok = maj_ok and list(remainder) == sorted(remainder, reverse=True)
                maj_ok = maj_ok and sorted(extracted + remainder) == sorted(part)
            report.check("majuscule_structure").record(maj_ok, label)

            alpha, nu = gamma_inverse(lam)
            report.check("roundtrip").record(gamma_forward(alpha, nu) == lam, label)
            report.check("section_agreement").record(
                alg_B(lam, -1) == alg_W(alpha.parts, nu, -1).right, label
            )
    return report


def oracle_sweep(n_max: int, entry_bound: int) -> SweepReport:
    """Brute-force minimality and uniqueness checks over all small inputs.

    For each input, the offset norm of the sequence algorithm's output must
    equal the minimum over in-window fillings, that minimum must not change
    when the window grows by 2, and the distinguished-diagram search must
    return exactly the diagram algorithm's left output.
    """
    report = SweepReport(label=f"oracle sweep n<={n_max}, |nu_i|<={entry_bound}")
    for alpha, nu in omega_pairs(n_max, entry_bound):
        report.cases += 1
        label = f"alpha={list(alpha.parts)}, nu={list(nu)}"
        window = default_window(alpha)
        rho2 = two_rho(alpha)

        mu = alg_A(alpha, nu)
        alg_norm = norm_sq(a + r for a, r in zip(mu, rho2))
        m1 = min_norm_over_fillings(alpha, nu, window)
        report.check("min_norm_agreement").record(
            m1 == alg_norm, label, f"fillings give {m1}, algorithm gives {alg_norm}"
        )
        m2 = min_norm_over_fillings(alpha, nu, window + 2)
        report.check("window_stability").record(
            m1 == m2, label, f"window {window} gives {m1}, window {window + 2} gives {m2}"
        )

        found = distinguished_fillings(alpha, nu, window)
        report.check("uniqueness").record(
            len(found) == 1, label, f"found {len(found)} distinguished diagrams"
        )
        report.check("matches_algorithm").record(
            found == [alg_W(alpha.parts, nu, -1).left], label
        )
    return report
