"""Per-layer spans for the traced run, recorded around the program's public functions.

`Tracer.installed(package)` replaces each function named in `LAYERS` by a
wrapper, under its own name and under every name another module of the
package imported it as (so `diagram_algorithm.ranking` and
`oracle.is_distinguished` are wrapped too), and puts the originals back on
exit.  A span's self time is its duration minus the durations of the spans
opened inside it.  A function that no longer exists is skipped and named in
`skipped`.
"""

import functools
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = {
    "core": ("validate_omega_pair", "two_rho", "dom", "norm_sq"),
    "seq_algorithm": ("ranking", "column_seq", "alg_A", "gamma_forward"),
    "diagram_algorithm": ("branch_plan", "row_survival", "alg_W"),
    "inverse_algorithm": ("clumps", "majuscule_extract", "alg_B", "gamma_inverse"),
    "diagrams": ("e_map", "e_inverse", "is_distinguished", "kappa", "h_weight", "eta",
                 "shape_class", "concat"),
    "oracle": ("min_norm_over_fillings", "distinguished_fillings"),
}

# distinguished diagrams found per is_distinguished call made by the oracle's search
HIT_RATIO = "oracle.distinguished_hit_ratio"
_SEARCH = "oracle.distinguished_fillings"
_PREDICATE = "diagrams.is_distinguished"


def layer_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    """Counts calls and accumulates self time per wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.skipped: list[str] = []
        self.search_checks = 0  # is_distinguished calls whose caller is the oracle's search
        self.search_found = 0
        self._stack: list[list] = []  # per open span: [name, child nanoseconds]

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.calls, 0)
        self.self_ns = dict.fromkeys(self.self_ns, 0)
        self.search_checks = self.search_found = 0

    def _wrap(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == _PREDICATE and stack and stack[-1][0] == _SEARCH:
                self.search_checks += 1
            span = [key, 0]
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[key] += 1
                self.self_ns[key] += elapsed - span[1]
            if key == _SEARCH:
                self.search_found += len(result)
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap the layer functions of an imported `lvbij` package for the duration."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        restore = []
        skipped = []
        for module, names in LAYERS.items():
            home = sys.modules.get(f"{package.__name__}.{module}")
            for name in names:
                key = f"{module}.{name}"
                fn = getattr(home, name, None)
                if not callable(fn):
                    skipped.append(key)
                    continue
                wrapper = self._wrap(key, fn)
                self.calls.setdefault(key, 0)
                self.self_ns.setdefault(key, 0)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            restore.append((m, attr, fn))
        self.skipped = skipped
        try:
            yield self
        finally:
            for m, attr, fn in reversed(restore):
                setattr(m, attr, fn)

    def hit_ratio(self) -> float:
        return self.search_found / self.search_checks if self.search_checks else 0.0
