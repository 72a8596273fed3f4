"""Layer tracing from outside the package.

`Tracer` replaces each traced library function, at every module attribute
of `agtaut` that is bound to it, by a wrapper that measures the call.  A
span's self time is its duration minus the time its child spans cover, so
recursion through a module global (as in `bernoulli`) and calls between
layers are attributed to the innermost traced function.  Only aggregates
(self time, calls, and a work count for a few functions) are kept in
memory; individual spans are never stored, because the eisenstein suite
makes millions of traced calls.

Root spans (`Tracer.root`) mark the benchmark's own units of work, such as
one verification suite.  The self times of every layer inside a root plus
the root's own self time add up to the root's duration.  That holds by
construction, because every child's time is taken off its parent's self
time, so it is not a check; what can be checked is that the roots cover
the whole timed region.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Traced functions as (layer, module, function, work), where work is None
# or (name, count of one call's work computed from its arguments).
TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("arith", "agtaut.arith", "bernoulli", None),
    ("arith", "agtaut.arith", "sigma", None),
    ("arith", "agtaut.arith", "factorize", None),
    ("arith", "agtaut.arith", "jacobi_totient", None),
    ("arith", "agtaut.arith", "dirichlet_convolve", None),
    ("arith", "agtaut.arith", "divisors", None),
    ("ring", "agtaut.ring", "reduce", None),
    ("ring", "agtaut.ring", "multiply", None),
    ("ring", "agtaut.ring", "socle_pair", None),
    ("ring", "agtaut.ring", "pairing_matrix", None),
    ("ring", "agtaut.ring", "oracle_reduce", None),
    ("linalg", "agtaut.linalg", "rref", ("cells", lambda rows: len(rows) * len(rows[0]) if rows else 0)),
    ("linalg", "agtaut.linalg", "mat_mul", ("mults", lambda a, b: len(a) * len(b) * len(b[0]))),
    ("linalg", "agtaut.linalg", "invert", None),
    ("linalg", "agtaut.linalg", "is_nonsingular", None),
    ("nl", "agtaut.nl", "eisenstein_series", None),
    ("nl", "agtaut.nl", "taut_nl", None),
    ("nl", "agtaut.nl", "taut_nl_tilde", None),
    ("nl", "agtaut.nl", "taut_product_cycle", None),
    ("nl", "agtaut.nl", "tilde_to_plain", None),
    ("nl", "agtaut.nl", "plain_to_tilde", None),
    ("degrees", "agtaut.degrees", "deg_phi", None),
    ("degrees", "agtaut.degrees", "deg_phi_crt", None),
    ("degrees", "agtaut.degrees", "deg_pi", None),
    ("degrees", "agtaut.degrees", "oracle_index", None),
    ("degrees", "agtaut.degrees", "sp_order", None),
    ("gw", "agtaut.gw", "conjecture_prediction", None),
    ("gw", "agtaut.gw", "gw_tau1_lambda", None),
    ("cli", "agtaut.cli", "run", None),
)

# Cached functions whose cache_info() is reported, as (metric prefix, module, attribute).
CACHES = (
    ("arith.bernoulli", "agtaut.arith", "bernoulli"),
    ("arith.sigma", "agtaut.arith", "sigma"),
    ("arith.factorize", "agtaut.arith", "factorize"),
    ("arith.jacobi_totient", "agtaut.arith", "jacobi_totient"),
    ("ring.reduce_monomial", "agtaut.ring", "_reduce_monomial"),
)


def cache_stats() -> Dict[str, dict]:
    """cache_info() of every function in CACHES, with its hit ratio."""
    stats = {}
    for prefix, module, attr in CACHES:
        fn = getattr(sys.modules[module], attr)
        if not hasattr(fn, "cache_info"):  # replaced by a Tracer wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        lookups = info.hits + info.misses
        stats[prefix] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "hit_ratio": info.hits / lookups if lookups else 0.0,
        }
    return stats


class Tracer:
    """Wraps the TARGETS for the lifetime of a `with` block."""

    def __init__(self):
        # stats[name] = [self seconds, calls, work count or 0]
        self.stats: Dict[str, List[float]] = {}
        # Child-time accumulators of the open spans; the base entry
        # collects time outside any root.
        self._stack: List[float] = [0.0]
        self._restore: List[Tuple[object, str, object]] = []
        # roots[i] = (name, duration, self seconds, {span: self seconds inside})
        self.roots: List[Tuple[str, float, float, Dict[str, float]]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "agtaut" or n.startswith("agtaut.")]
        for layer, module, func, work in TARGETS:
            name = f"{layer}.{func}"
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(name, original, work[1] if work else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        stat = self.stats.setdefault(name, [0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += elapsed - stack.pop()
                stat[1] += 1
                stack[-1] += elapsed
                if count is not None:
                    stat[2] += count(*args)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name: str):
        """A top-level span; records how its time splits over the layers."""
        before = {k: v[0] for k, v in self.stats.items()}
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()
            inside = {
                k: v[0] - before[k] for k, v in self.stats.items() if v[0] != before[k]
            }
            self.roots.append((name, elapsed, elapsed - children, inside))
