"""Brute-force verification at desk scale.

Independent of the algorithm modules' internals: fillings with prescribed row
sums are enumerated outright, and the norm is minimized over them by a
branch and bound whose bounds follow from the norm's definition.  A column of
height h has offset norm sum c^2 + 2 sum_(pairs) |c - c'| + (h^3 - h)/3 over
its entries c, so each box placed adds an exact cost without any sorting, and
every row whose total rest is still owed by k boxes adds at least
ceil(rest^2 / k) more (Cauchy-Schwarz); the search over the boxes is one loop.
Distinguished diagrams are found by a search over fillings and row orders,
one loop over an explicit stack of row positions, that places a row only if
it meets the conditions of `is_distinguished` that the rows above it already
decide.  Both searches return what the plain enumeration returns;
`tests/test_oracle.py` checks them against it.  The three sweeps grind
through every small input checking the advertised identities: each is its
bounds, its cases and a generator of (name, ok, detail) check records per
case, and one loop, `_sweep`, builds their reports, counts the cases,
records the checks and formats a case's label only once a check fails.  The
public functions check their bounds and windows with the helpers of `core`.
"""

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import comb

from .core import (
    Partition,
    dom,
    norm_sq,
    two_rho,
    validate_omega_pair,
    _as_partition,
    _ceil_div,
    _check_bound,
    _check_int,
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


def _partitions(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for p in range(min(remaining, max_part), 0, -1):
        for rest in _partitions(remaining - p, p):
            yield (p,) + rest


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, parts in weakly decreasing order, largest part first."""
    n = _check_int(n)
    # n = 0 would give the empty partition, which is not a Partition
    return (Partition._trusted(parts) for parts in _partitions(n, n) if parts)


def dominant_sequences(alpha, entry_bound: int) -> Iterator[tuple[int, ...]]:
    """All sequences dominant with respect to alpha with entries in [-bound, bound]."""
    alpha = _as_partition(alpha)
    entry_bound = _check_bound("entry_bound", entry_bound)
    values = range(entry_bound, -entry_bound - 1, -1)
    block_choices = [
        combinations_with_replacement(values, mult)
        for _, mult in alpha.distinct_parts()
    ]
    return (tuple(v for block in blocks for v in block) for blocks in product(*block_choices))


def omega_pairs(n_max: int, entry_bound: int) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """All valid (alpha, nu) with |alpha| <= n_max and |nu_i| <= entry_bound."""
    n_max = _check_bound("n_max", n_max)
    entry_bound = _check_bound("entry_bound", entry_bound)
    return (
        (alpha, nu)
        for n in range(1, n_max + 1)
        for alpha in partitions_of(n)
        for nu in dominant_sequences(alpha, entry_bound)
    )


def default_window(alpha) -> int:
    """Window half-width used by the sweeps: number of rows plus number of columns."""
    alpha = _as_partition(alpha)
    return alpha.ell + alpha.s


def _composition_terms(length: int, total: int, lo: int, hi: int) -> tuple[int, int]:
    # (target, terms) for `_composition_count`: target is what the entries add
    # above lo, or, if smaller, what they add in the mirror image x -> lo + hi - x,
    # a bijection onto the rows summing to length * (lo + hi) - total
    target = min(total - length * lo, length * hi - total)
    if hi < lo or target < 0:
        return target, 0
    return target, min(length, target // (hi - lo + 1)) + 1


def _composition_count(length: int, total: int, lo: int, hi: int) -> int:
    # rows of `length` entries in [lo, hi] summing to total, by inclusion-exclusion
    # over the k < terms entries forced past hi: O(terms) integer steps for any window
    target, terms = _composition_terms(length, total, lo, hi)
    width = hi - lo
    return sum(
        (-1) ** k * comb(length, k) * comb(target - k * (width + 1) + length - 1, length - 1)
        for k in range(terms)
    )


def _row_compositions(length: int, total: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    # rows of `length` entries in [lo, hi] summing to total, in lexicographic
    # order: a loop over positions, so any length works
    if not length * lo <= total <= length * hi:
        return
    row, start, rest = [0] * length, 0, total
    while True:
        # the smallest entries row[start:] that sum to rest
        for i in range(start, length):
            row[i] = max(lo, rest - (length - 1 - i) * hi)
            rest -= row[i]
        yield tuple(row)
        # the rightmost entry that can grow by 1 while the entries after it shrink
        rest = row[-1]
        for start in range(length - 2, -1, -1):
            if row[start] < hi and rest > (length - 1 - start) * lo:
                break
            rest += row[start]
        else:
            return
        row[start] += 1
        rest -= 1
        start += 1


def _checked_search(alpha, nu, window: int) -> tuple[Partition, tuple[int, ...], list]:
    """The validated input of a search, with one frame (length, total, lo, hi)
    per row: its entries lie in [lo, hi], within `window` of the row's
    balanced split.  Refused past STATE_LIMIT in-window fillings; the message
    holds no caller integer, which str() may refuse.

    A row whose count would sum more than 150 terms is refused without
    counting, since it alone has more than STATE_LIMIT fillings.  Its width
    hi - lo is 2 * window, plus 1 if length does not divide total, and the
    terms number at most length + 1.  At width >= 2 (window >= 1) it has at
    least 150 boxes, and moving a unit from one pair of boxes of the balanced
    row to a disjoint pair already gives C(150, 2) * C(148, 2) = 121561650
    fillings.  At width 1 its entries are q and q + 1, with at least 300 of
    the rarer one, so it has at least C(600, 300) fillings.  At width 0 the
    sum has one term.
    """
    alpha, nu = validate_omega_pair(alpha, nu)
    window = _check_bound("window", window)
    rows, states = [], 1
    for length, total in zip(alpha.parts, nu):
        row = (length, total, total // length - window, -((-total) // length) + window)
        _, terms = _composition_terms(*row)
        states *= _composition_count(*row) if terms <= 150 else STATE_LIMIT + 1
        if states > STATE_LIMIT:
            raise SearchSpaceError(f"the window spans more than {STATE_LIMIT} fillings")
        rows.append(row)
    return alpha, nu, rows


def enumerate_fillings(alpha, nu, window: int) -> Iterator[WeightDiagram]:
    """All fillings of the Young diagram of alpha with the prescribed row sums.

    Entries of row i stay within `window` of the balanced split of nu[i].
    """
    _, _, rows = _checked_search(alpha, nu, window)
    # the first row, the longest, streams; the others are read once, here,
    # and product runs over them for each of its entries, in the same order
    first = _row_compositions(*rows[0])
    others = [tuple(_row_compositions(*row)) for row in rows[1:]]
    return (WeightDiagram._trusted((row,) + tail) for row in first for tail in product(*others))


def min_norm_over_fillings(alpha, nu, window: int) -> int:
    """Minimum over all in-window fillings of the offset squared norm of the
    column-sorted weight.

    A column of height h, sorted as c_0 >= ... >= c_(h-1), meets the rho
    block h-1, h-3, ..., 1-h, so its offset norm is

        sum_k (c_k + h-1-2k)^2 = sum_k c_k^2 + 2 sum_(k<l) |c_k - c_l| + (h^3-h)/3,

    since sum_k c_k (h-1-2k) adds up c_k - c_l over the column's pairs.
    Nothing needs sorting: placing x in a box adds exactly x^2 plus 2|x - y|
    for every entry y already in its column.  The search places the boxes
    column by column, top down, in one loop over an explicit stack whose
    frames hold each box's untried options, best last.  An option's bound is
    the exact cost so far plus, for every row, rest^2 / (boxes left) rounded
    up, where rest is what the row's boxes left must add up to
    (Cauchy-Schwarz).  A frame whose best option reaches the best norm found
    so far is popped; the minimum is that of the plain enumeration.
    """
    alpha, nu, rows = _checked_search(alpha, nu, window)
    heights = alpha.conjugate().parts
    boxes = [(i, j) for j, h in enumerate(heights) for i in range(h)]
    columns: list[list[int]] = [[] for _ in heights]  # entries placed, top down
    rest = list(nu)  # what each row's unplaced boxes must add up to
    cost = sum((h**3 - h) // 3 for h in heights)
    slack = sum(_ceil_div(t * t, length) for length, t, _, _ in rows)
    best = None
    stack: list[list[tuple[int, int, int, int]] | None] = [None]  # None: not yet expanded
    while stack:
        i, j = boxes[len(stack) - 1]
        column = columns[j]
        if len(column) > i:  # back at this box: take back the entry it holds
            rest[i] += column.pop()
        options = stack[-1]
        if options is None:
            length, _, lo, hi = rows[i]
            r, left = rest[i], length - j - 1
            base = slack - _ceil_div(r * r, left + 1)
            options = []
            for x in range(max(lo, r - left * hi), min(hi, r - left * lo) + 1):
                c = cost + x * x + 2 * sum(abs(x - y) for y in column)
                s = base + _ceil_div((r - x) ** 2, left) if left else base
                options.append((c + s, c, x, s))
            options.sort(reverse=True)
            stack[-1] = options
        if not options or best is not None and options[-1][0] >= best:
            stack.pop()
            continue
        _, cost, x, slack = options.pop()
        column.append(x)
        rest[i] -= x
        if len(stack) == len(boxes):
            best = cost
        else:
            stack.append(None)
    return best


def _step_rows(length: int, total: int, lo: int, hi: int, shifts) -> Iterator[tuple[int, ...]]:
    """Rows with entries in [lo, hi] and the given total that satisfy
    condition 1 of `is_distinguished` (odd parity) once shifted by `shifts`.

    Under the column shift, entry j moves by shifts[j].  Condition 1 allows
    the shifted row to step by 0 or -1 after an odd column and by 0 or +1
    after an even one, so the steps fix the row up to its first entry, and
    the total fixes that.  The steps are chosen depth first from an explicit
    stack, and a prefix is cut once its offsets spread wider than the
    window, so the stack holds at most two prefixes per entry.
    """
    stack = [((0,), 0, 0)]  # offsets of a prefix from its first entry, their min and max
    while stack:
        offsets, low, high = stack.pop()
        j = len(offsets)
        if j == length:
            first, rem = divmod(total - sum(offsets), length)
            if not rem and lo <= first + low and first + high <= hi:
                yield tuple(first + o for o in offsets)
            continue
        for step in (0, -1 if j % 2 == 1 else 1):
            o = offsets[-1] + step - shifts[j] + shifts[j - 1]
            if max(high, o) - min(low, o) <= hi - lo:
                stack.append((offsets + (o,), min(low, o), max(high, o)))


def distinguished_fillings(alpha, nu, window: int) -> list[WeightDiagram]:
    """Exhaustive search for distinguished diagrams whose row data recovers nu.

    Covers every in-window filling in every row order: sorting rows never
    changes the row data, so the search covers the whole fiber within the
    window.  Rows are placed top to bottom, one generator per row position
    on an explicit stack, and the entries placed so far are kept per column.
    A row is placed only if, at its position, it meets the two conditions of
    `is_distinguished` that involve only the rows above it: its shifted
    entries step as condition 1 allows (see `_step_rows`), and no entry
    exceeds the one above it, which is condition 4 (the column shift lowers
    each entry by 2 more than the one above).  Each full diagram is then
    checked with `is_distinguished`.
    """
    alpha, nu, rows = _checked_search(alpha, nu, window)
    heights = alpha.conjugate().parts
    unplaced = Counter(rows)  # frame -> rows left to place
    columns: list[list[int]] = [[] for _ in heights]  # entries placed, top down
    placed: list[tuple[int, ...]] = []
    found = []

    def place_next() -> Iterator[tuple[int, ...]]:
        # places each row that fits the next position, taking it back when resumed
        for frame, left in unplaced.items():
            if not left:
                continue
            shifts = [heights[j] - 2 * len(columns[j]) - 1 for j in range(frame[0])]
            for row in _step_rows(*frame, shifts):
                if any(column and x > column[-1] for column, x in zip(columns, row)):
                    continue
                unplaced[frame] -= 1
                for column, x in zip(columns, row):
                    column.append(x)
                placed.append(row)
                yield row
                placed.pop()
                for column in columns[:len(row)]:
                    column.pop()
                unplaced[frame] += 1

    stack = [place_next()]
    while stack:
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(placed) < len(rows):
            stack.append(place_next())
        else:
            X = WeightDiagram._trusted(placed)
            if is_distinguished(X, "odd"):
                assert kappa(X) == nu
                found.append(X)
    return sorted(found, key=lambda d: d.rows)


@dataclass
class CheckResult:
    """Success count and the first counterexample (if any) for one check."""

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
            self.checks[name] = CheckResult()
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


def _sweep(label: str, fields: tuple[str, ...], cases, checks) -> SweepReport:
    """The sweeps' one loop, which builds the report it fills.  Each case is
    a tuple of sequences, named by `fields`; checks(*case) yields one (check
    name, ok, detail) record per check, detail "" if none.  A case's label,
    each field with its sequence as a list, is formatted once a check fails.
    """
    report = SweepReport(label)
    for case in cases:
        report.cases += 1
        case_label = ""
        for name, ok, detail in checks(*case):
            if not ok and not case_label:
                case_label = ", ".join(f"{field}={list(seq)}" for field, seq in zip(fields, case))
            report.check(name).record(ok, case_label, detail)
    return report


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

    def checks(alpha, nu):
        rho2 = two_rho(alpha)
        mu = alg_A(alpha, nu)
        gam = dom(m + r for m, r in zip(mu, rho2))
        pair = alg_W(alpha.parts, nu, -1)
        X, Y = pair.left, pair.right
        yield "kappa_recovery", kappa(X) == nu, ""
        hx = h_weight(X)
        norm_x = norm_sq(a + r for a, r in zip(hx, rho2))
        yield "norm_agreement", norm_x == norm_sq(a + r for a, r in zip(mu, rho2)), ""
        yield "eta_agreement", eta(Y) == gam, ""
        yield "distinguished_odd", is_distinguished(X, "odd"), ""
        yield "roundtrip", gamma_inverse(gam) == (alpha, nu), ""
        if not extended:
            return
        ex = e_map(X)
        yield "pair_coherence", ex == Y, ""
        yield "adjacency", _adjacent_steps_ok(Y.rows, -1), ""
        yield "shift_compat", eta(ex) == dom(a + r for a, r in zip(hx, rho2)), ""
        pair_plus = alg_W(alpha.parts, nu, 1)
        yield "distinguished_even", is_distinguished(pair_plus.left, "even"), ""
        yield "adjacency", _adjacent_steps_ok(pair_plus.right.rows, 1), ""
        if alpha.ell > 1:
            pairs = list(zip(alpha.parts, nu))
            for shuffled in (pairs[::-1], pairs[1:] + pairs[:1]):
                beta = [a for a, _ in shuffled]
                xi = [v for _, v in shuffled]
                same = alg_W(beta, xi, -1) == pair and alg_W(beta, xi, 1) == pair_plus
                yield "permutation_invariance", same, f"permuted to beta={beta}, xi={xi}"

    return _sweep(f"roundtrip sweep n<={n_max}, |nu_i|<={entry_bound}", ("alpha", "nu"),
                  omega_pairs(n_max, entry_bound), checks)


def inverse_roundtrip_sweep(max_len: int, entry_bound: int) -> SweepReport:
    """Exhaustive inverse-side verification over all small dominant weights."""

    def checks(lam):
        parts = clumps(lam)
        structure_ok = sum(parts, ()) == lam
        for part in parts:
            structure_ok = structure_ok and all(
                part[i] - part[i + 1] <= 1 for i in range(len(part) - 1)
            )
        structure_ok = structure_ok and all(
            parts[t][-1] - parts[t + 1][0] >= 2 for t in range(len(parts) - 1)
        )
        yield "clump_structure", structure_ok, ""
        maj_ok = True
        for part in parts:
            extracted, remainder = majuscule_extract(part, -1)
            maj_ok = maj_ok and all(
                extracted[i] - extracted[i + 1] >= 2 for i in range(len(extracted) - 1)
            )
            maj_ok = maj_ok and list(remainder) == sorted(remainder, reverse=True)
            maj_ok = maj_ok and sorted(extracted + remainder) == sorted(part)
        yield "majuscule_structure", maj_ok, ""
        alpha, nu = gamma_inverse(lam)
        yield "roundtrip", gamma_forward(alpha, nu) == lam, ""
        yield "section_agreement", alg_B(lam, -1) == alg_W(alpha.parts, nu, -1).right, ""

    max_len = _check_bound("max_len", max_len)
    entry_bound = _check_bound("entry_bound", entry_bound)
    values = range(entry_bound, -entry_bound - 1, -1)
    cases = ((lam,) for k in range(1, max_len + 1)
             for lam in combinations_with_replacement(values, k))
    return _sweep(f"inverse sweep len<={max_len}, |entry|<={entry_bound}", ("lambda",),
                  cases, checks)


def oracle_sweep(n_max: int, entry_bound: int) -> SweepReport:
    """Brute-force minimality and uniqueness checks over all small inputs.

    For each input, the offset norm of the sequence algorithm's output must
    equal the minimum over in-window fillings, that minimum must not change
    when the window grows by 2, and the distinguished-diagram search must
    return exactly the diagram algorithm's left output.
    """

    def checks(alpha, nu):
        window = default_window(alpha)
        rho2 = two_rho(alpha)
        mu = alg_A(alpha, nu)
        norm = norm_sq(a + r for a, r in zip(mu, rho2))
        m1 = min_norm_over_fillings(alpha, nu, window)
        yield "min_norm_agreement", m1 == norm, f"fillings give {m1}, algorithm gives {norm}"
        m2 = min_norm_over_fillings(alpha, nu, window + 2)
        detail = f"window {window} gives {m1}, window {window + 2} gives {m2}"
        yield "window_stability", m1 == m2, detail
        found = distinguished_fillings(alpha, nu, window)
        yield "uniqueness", len(found) == 1, f"found {len(found)} distinguished diagrams"
        yield "matches_algorithm", found == [alg_W(alpha.parts, nu, -1).left], ""

    return _sweep(f"oracle sweep n<={n_max}, |nu_i|<={entry_bound}", ("alpha", "nu"),
                  omega_pairs(n_max, entry_bound), checks)
