"""Correctness checks that the program does not compute for itself.

Each function returns a list of problems, empty when the result is right.
Closed forms and diagram readouts are written out here from their
definitions, so a fault in the program's own helpers (`eta`, `kappa`,
`e_map`, `shape_class`) cannot hide a fault in the maps.  Nothing here is a
stored copy of the program's output.
"""

Rows = tuple[tuple[int, ...], ...]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def zero_orbit(nu) -> tuple[int, ...]:
    """gamma(1^l, nu) = nu + 2rho, with 2rho = (l-1, l-3, ..., 1-l)."""
    ell = len(nu)
    return tuple(v + ell - 1 - 2 * i for i, v in enumerate(nu))


def regular_orbit(n: int, v: int) -> tuple[int, ...]:
    """gamma((n), (v)) is the balanced split of v into n parts, larger parts first."""
    q, r = divmod(v, n)
    return (q + 1,) * r + (q,) * (n - r)


def hook_orbit(v1: int, v2: int) -> tuple[int, ...]:
    """gamma((2,1), (v1, v2)), the 3-box hook; (2) and (1,1) are regular and zero orbits."""
    if v1 >= 2 * v2:
        return (_ceil_div(v1 + 1, 2), (v1 + 1) // 2, v2 - 1)
    return (v2 + 1, _ceil_div(v1 - 1, 2), (v1 - 1) // 2)


def closed_form(alpha, nu) -> tuple[int, ...] | None:
    """The expected image when alpha is a zero orbit, a regular orbit or the hook (2,1)."""
    if all(a == 1 for a in alpha):
        return zero_orbit(nu)
    if len(alpha) == 1:
        return regular_orbit(alpha[0], nu[0])
    if tuple(alpha) == (2, 1):
        return hook_orbit(*nu)
    return None


def sweep_problems(label: str, report, expected_cases: int) -> list[str]:
    """A sweep must pass all of its own checks and visit exactly the expected inputs."""
    problems = []
    if report.cases != expected_cases:
        problems.append(f"{label}: {report.cases} cases, expected {expected_cases}")
    if not report.ok:
        problems.append(f"{label}: {report.format_text()}")
    return problems


def eta(rows: Rows) -> tuple[int, ...]:
    return tuple(sorted((v for row in rows for v in row), reverse=True))


def kappa(rows: Rows) -> tuple[int, ...]:
    """Row sums, longest rows first, each group of equal length in decreasing order."""
    by_length: dict[int, list[int]] = {}
    for row in rows:
        by_length.setdefault(len(row), []).append(sum(row))
    return tuple(s for length in sorted(by_length, reverse=True) for s in sorted(by_length[length], reverse=True))


def e_map(rows: Rows) -> Rows:
    """Add (column height) - 2*(position in column) + 1 to every entry."""
    width = max(len(row) for row in rows)
    heights = [sum(1 for row in rows if len(row) > j) for j in range(width)]
    seen = [0] * width
    out = []
    for row in rows:
        shifted = []
        for j, v in enumerate(row):
            seen[j] += 1
            shifted.append(v + heights[j] - 2 * seen[j] + 1)
        out.append(tuple(shifted))
    return tuple(out)


def image_problems(alpha, nu, lam) -> list[str]:
    """The image of (alpha, nu) is weakly decreasing, has n entries and keeps the sum of nu."""
    problems = []
    lam = tuple(lam)
    if len(lam) != sum(alpha):
        problems.append(f"length {len(lam)}, expected {sum(alpha)}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        problems.append("image is not weakly decreasing")
    if sum(lam) != sum(nu):
        problems.append(f"image sums to {sum(lam)}, nu to {sum(nu)}")
    expected = closed_form(alpha, nu)
    if expected is not None and lam != expected:
        problems.append("image differs from the closed form")
    return problems


def diagram_problems(alpha, nu, lam, left: Rows, right: Rows) -> list[str]:
    """Y = e_map(X), eta(Y) is the image (when known), kappa(X) is nu and
    shape-class(X) is dom(alpha)."""
    problems = []
    if e_map(left) != right:
        problems.append("right diagram is not e_map of the left")
    if lam is not None and eta(right) != tuple(lam):
        problems.append("eta of the right diagram differs from the image")
    if kappa(left) != tuple(nu):
        problems.append("kappa of the left diagram differs from nu")
    if tuple(sorted((len(row) for row in left), reverse=True)) != tuple(sorted(alpha, reverse=True)):
        problems.append("shape-class of the left diagram differs from dom(alpha)")
    return problems


def roundtrip_problems(alpha, nu, omega) -> list[str]:
    back_alpha, back_nu = omega
    if (tuple(back_alpha), tuple(back_nu)) != (tuple(alpha), tuple(nu)):
        return ["the inverse of the image is not the input"]
    return []


def preimage_problems(lam, omega, lam_back) -> list[str]:
    """The preimage of lam is a partition of len(lam) with a dominant nu of the same sum,
    and the forward map sends it back to lam."""
    alpha, nu = tuple(omega[0]), tuple(omega[1])
    problems = []
    if any(a < 1 for a in alpha) or any(a < b for a, b in zip(alpha, alpha[1:])):
        problems.append("alpha is not a partition")
    if sum(alpha) != len(lam) or len(nu) != len(alpha):
        problems.append("alpha and nu do not match the length of lambda")
    elif any(alpha[i] == alpha[i + 1] and nu[i] < nu[i + 1] for i in range(len(alpha) - 1)):
        problems.append("nu is not dominant for alpha")
    if sum(nu) != sum(lam):
        problems.append(f"nu sums to {sum(nu)}, lambda to {sum(lam)}")
    if tuple(lam_back) != tuple(lam):
        problems.append("the forward map does not send the preimage back to lambda")
    return problems
