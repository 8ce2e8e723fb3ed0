"""Brute-force verification at desk scale.

Independent of the algorithm modules' internals: fillings with prescribed row
sums are enumerated outright, the norm is minimized over them by a branch and
bound whose bounds follow from the norm's definition, distinguished diagrams
are found by a search over fillings and row orders that places a row only if
it meets the conditions of `is_distinguished` that the rows above it already
decide, and the sweep harnesses grind through every small input checking the
advertised identities.  Both searches return what the plain enumeration
returns; `tests/test_oracle.py` checks them against it.
"""

from bisect import insort
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import comb

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


def _check_bound(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def dominant_sequences(alpha, entry_bound: int) -> Iterator[tuple[int, ...]]:
    """All sequences dominant with respect to alpha with entries in [-bound, bound]."""
    alpha = as_partition(alpha)
    _check_bound("entry_bound", entry_bound)
    values = range(entry_bound, -entry_bound - 1, -1)
    block_choices = [
        combinations_with_replacement(values, mult)
        for _, mult in alpha.distinct_parts()
    ]
    return (tuple(v for block in blocks for v in block) for blocks in product(*block_choices))


def omega_pairs(n_max: int, entry_bound: int) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """All valid (alpha, nu) with |alpha| <= n_max and |nu_i| <= entry_bound."""
    _check_bound("n_max", n_max)
    _check_bound("entry_bound", entry_bound)
    return (
        (alpha, nu)
        for n in range(1, n_max + 1)
        for alpha in partitions_of(n)
        for nu in dominant_sequences(alpha, entry_bound)
    )


def default_window(alpha) -> int:
    """Window half-width used by the sweeps: number of rows plus number of columns."""
    alpha = as_partition(alpha)
    return alpha.ell + alpha.s


def _row_window(length: int, total: int, window: int) -> tuple[int, int]:
    lo = total // length - window
    hi = -((-total) // length) + window
    return lo, hi


def _composition_count(length: int, total: int, lo: int, hi: int) -> int:
    # rows of `length` entries in [lo, hi] summing to total, by inclusion-exclusion
    # over the k entries forced past hi: O(length) integer steps for any window
    width = hi - lo
    target = total - length * lo
    if width < 0 or target < 0:
        return 0
    return sum(
        (-1) ** k * comb(length, k) * comb(target - k * (width + 1) + length - 1, length - 1)
        for k in range(min(length, target // (width + 1)) + 1)
    )


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


def _state_count(alpha: Partition, nu, window: int) -> int:
    """Number of in-window fillings; raises past STATE_LIMIT."""
    states = 1
    for length, total in zip(alpha.parts, nu):
        lo, hi = _row_window(length, total, window)
        states *= _composition_count(length, total, lo, hi)
        if states > STATE_LIMIT:
            raise SearchSpaceError(
                f"window {window} spans more than {STATE_LIMIT} fillings "
                f"(at least {states} states)"
            )
    return states


def _filling_rows(alpha: Partition, nu, window: int) -> list[list[tuple[int, ...]]]:
    """Per row, the list of admissible contents; raises if the product is too big."""
    _state_count(alpha, nu, window)
    return [
        list(_row_compositions(length, total, *_row_window(length, total, window)))
        for length, total in zip(alpha.parts, nu)
    ]


def enumerate_fillings(alpha, nu, window: int) -> Iterator[WeightDiagram]:
    """All fillings of the Young diagram of alpha with the prescribed row sums.

    Entries of row i stay within `window` of the balanced split of nu[i].
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    _check_bound("window", window)
    for rows in product(*_filling_rows(alpha, nu, window)):
        yield WeightDiagram(rows)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def min_norm_over_fillings(alpha, nu, window: int) -> int:
    """Minimum over all in-window fillings of the offset squared norm of the
    column-sorted weight.

    Branch and bound over the entries, row by row.  A column's offset norm
    pairs its entries, sorted decreasingly, with its decreasing rho block;
    by the rearrangement inequality every other pairing gives at most that
    norm.  So pairing the finished rows sorted with the top of each block,
    and every later row i with entry i of each block it reaches, bounds every
    completion from below; a later row's share is in turn at least
    (row total + its rho entries)^2 / row length (Cauchy-Schwarz).  A branch
    whose bound reaches the best norm found so far is cut; the minimum is
    that of the plain enumeration.
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    _check_bound("window", window)
    if not _state_count(alpha, nu, window):
        raise SearchSpaceError("the window admits no fillings at all")
    lengths = alpha.parts
    rho_blocks = [tuple(range(h - 1, -h, -2)) for h in alpha.conjugate().parts]
    ell = len(lengths)
    # offs[i][j]: the rho entry row i meets in column j when rows keep their order
    offs = [tuple(rho_blocks[j][i] for j in range(lengths[i])) for i in range(ell)]
    # rest_offs[i][j]: sum of offs[i][j:]
    rest_offs = [tuple(sum(o[j:]) for j in range(len(o) + 1)) for o in offs]
    tail = [0] * (ell + 1)  # tail[i]: lower bound for rows i.. at their own positions
    for i in reversed(range(ell)):
        tail[i] = tail[i + 1] + _ceil_div((nu[i] + rest_offs[i][0]) ** 2, lengths[i])

    columns: list[list[int]] = [[] for _ in rho_blocks]  # finished rows' entries, ascending
    col_norms = [0] * len(rho_blocks)
    rows: list[list[int]] = [[] for _ in lengths]
    best = None

    def set_col_norm(j: int) -> None:
        col_norms[j] = sum((c + r) ** 2 for c, r in zip(reversed(columns[j]), rho_blocks[j]))

    def finish_row(i: int) -> None:
        nonlocal best
        for j, x in enumerate(rows[i]):
            insort(columns[j], x)
            set_col_norm(j)
        done = sum(col_norms)
        if best is None or done + tail[i + 1] < best:
            if i + 1 == ell:
                best = done
            else:
                extend(i + 1, done, 0, nu[i + 1])
        for j, x in enumerate(rows[i]):
            columns[j].remove(x)
            set_col_norm(j)

    def extend(i: int, done: int, part: int, remaining: int) -> None:
        # done: norm of rows < i, sorted; part: row i's entries so far at position i
        row, length = rows[i], lengths[i]
        j = len(row)
        if j == length:
            finish_row(i)
            return
        lo, hi = _row_window(length, nu[i], window)
        left = length - j - 1
        o, share, k = offs[i][j], remaining + rest_offs[i][j], length - j
        candidates = range(max(lo, remaining - left * hi), min(hi, remaining - left * lo) + 1)
        # nearest to an even split first, so that good bounds come early
        for x in sorted(candidates, key=lambda v: abs((v + o) * k - share)):
            p = part + (x + o) ** 2
            bound = done + p + tail[i + 1]
            if left:
                bound += _ceil_div((remaining - x + rest_offs[i][j + 1]) ** 2, left)
            if best is not None and bound >= best:
                continue
            row.append(x)
            extend(i, done, p, remaining - x)
            row.pop()

    extend(0, 0, 0, nu[0])
    return best


def _step_rows(length: int, total: int, window: int, shifts) -> Iterator[tuple[int, ...]]:
    """In-window rows with the given total that satisfy condition 1 of
    `is_distinguished` (odd parity) once shifted by `shifts`.

    Under the column shift, entry j moves by shifts[j].  Condition 1 allows
    the shifted row to step by 0 or -1 after an odd column and by 0 or +1
    after an even one, so the steps fix the row up to its first entry, and
    the total fixes that.
    """
    lo, hi = _row_window(length, total, window)
    choices = [(0, -1 if j % 2 == 1 else 1) for j in range(1, length)]
    for steps in product(*choices):
        offsets = [0]
        for j, step in enumerate(steps, start=1):
            offsets.append(offsets[-1] + step - shifts[j] + shifts[j - 1])
        first, rem = divmod(total - sum(offsets), length)
        if rem:
            continue
        row = tuple(first + o for o in offsets)
        if lo <= min(row) and max(row) <= hi:
            yield row


def distinguished_fillings(alpha, nu, window: int) -> list[WeightDiagram]:
    """Exhaustive search for distinguished diagrams whose row data recovers nu.

    Covers every in-window filling in every row order: sorting rows never
    changes the row data, so the search covers the whole fiber within the
    window.  Rows are placed top to bottom.  A row is placed only if, at its
    position, it meets the two conditions of `is_distinguished` that involve
    only the rows above it: its shifted entries step as condition 1 allows
    (see `_step_rows`), and no entry exceeds the one above it, which is
    condition 4 (the column shift lowers each entry by 2 more than the one
    above).  Each full diagram is then checked with `is_distinguished`.
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    _check_bound("window", window)
    _state_count(alpha, nu, window)
    heights = alpha.conjugate().parts
    unplaced = Counter(zip(alpha.parts, nu))  # (length, total) -> rows left to place
    filled = [0] * len(heights)  # rows placed so far, per column
    bottom = [0] * len(heights)  # lowest entry placed so far, per column
    placed: list[tuple[int, ...]] = []
    found = []

    def place() -> None:
        if len(placed) == len(alpha.parts):
            X = WeightDiagram._trusted(placed)
            if is_distinguished(X, "odd"):
                assert kappa(X) == nu
                found.append(X)
            return
        for (length, total), left in unplaced.items():
            if not left:
                continue
            shifts = [heights[j] - 2 * filled[j] - 1 for j in range(length)]
            for row in _step_rows(length, total, window, shifts):
                if any(filled[j] and row[j] > bottom[j] for j in range(length)):
                    continue
                above = bottom[:length]
                unplaced[length, total] -= 1
                for j in range(length):
                    filled[j] += 1
                bottom[:length] = row
                placed.append(row)
                place()
                placed.pop()
                bottom[:length] = above
                for j in range(length):
                    filled[j] -= 1
                unplaced[length, total] += 1

    place()
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
    `alg_W` builds the right diagram node by node and takes the left one as
    its column-shift preimage, so pair coherence holds by construction;
    `kappa_recovery`, `norm_agreement` and `distinguished_odd` test the left
    diagram on its own.
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
    _check_bound("max_len", max_len)
    _check_bound("entry_bound", entry_bound)
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
