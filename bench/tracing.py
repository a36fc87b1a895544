"""Spans around sievesum's module-level functions, recorded from outside.

Each wrapped function is replaced on its module, so calls made through
``module.function`` and bare-name calls inside the defining module are both
caught; nothing in the package changes.  A span is (name, start, end,
parent) and stays in memory until ``summary`` reduces the spans to per-layer
figures.  Self time is a span's duration minus the time its child spans
cover; children run on the parent's thread, so that is the sum of their
durations.
"""

import functools
import importlib
import threading
import time

import numpy as np

# Layers are the package's modules.  A leading underscore is dropped from
# the module name in metric names, so _dfs reports as dfs.
LAYERS = {
    "primes": ("generate_primes", "factor_support"),
    "_dfs": ("msum_float", "msum_exact_m0"),
    "multfun": ("builtin_spec", "m_sum", "m_sum_smooth", "singular_series", "euler_log_taylor"),
    "verify": ("main_term", "buchstab_defect"),
    "dde": ("solve_f_exponent", "solve_f_log", "eval_f_many", "eval_log_f_many"),
    "quadchev": ("bary_matrix", "cheb_eval", "lobatto_to_cheb_coeffs"),
    "iterints": ("make_kernel", "build_table", "i_eval_signed_log"),
    "zhang": ("zhang_coefficient", "scan"),
    "cli": ("main",),
}


def _table_ladder(args, kwargs, table):
    """(marches, t nodes marched, t nodes of the final rung) of one build_table.

    build_table marches the half-size grid (n+1)//2 first, then n, 2n-1, ...
    until the estimate meets tol; every rung covers all the table's t panels.
    """
    from sievesum import iterints

    n = int(args[3] if len(args) > 3 else kwargs.get("n_per", iterints.N_PER_START))
    rungs = [(n + 1) // 2, n]
    while rungs[-1] < table.grid.n_per:
        rungs.append(2 * rungs[-1] - 1)
    t_panels = len(table.grid.breaks) - 1
    return {
        "iterints.marches": len(rungs),
        "iterints.t_nodes_marched": sum(rungs) * t_panels,
        "iterints.t_nodes_final": table.grid.n_per * t_panels,
    }


# Counts taken from a wrapped call's arguments and return value.
COUNTERS = {
    "primes.generate_primes": lambda a, k, r: {"primes.primes_sieved": len(r.primes)},
    "dfs.msum_float": lambda a, k, r: {"dfs.terms": int(r[1])},
    "dde.solve_f_exponent": lambda a, k, r: {"dde.panels": len(r.coeffs)},
    "dde.solve_f_log": lambda a, k, r: {"dde.panels": len(r.coeffs)},
    "dde.eval_f_many": lambda a, k, r: {"dde.eval_f_many.points": int(np.size(r))},
    "dde.eval_log_f_many": lambda a, k, r: {"dde.eval_log_f_many.points": int(np.size(r))},
    "quadchev.bary_matrix": lambda a, k, r: {"quadchev.bary_matrix.rows": int(r.shape[0])},
    "iterints.build_table": _table_ladder,
}


def span_names():
    return [f"{mod.lstrip('_')}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records one span per wrapped call, with a parent stack per thread."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None, child seconds]
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()  # counts are shared by scan's worker threads
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, counts, clock = self.spans, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent is not None:
                    parent[4] += span[2] - span[1]
            if counter is not None:
                with self._lock:
                    for key, val in counter(args, kwargs, result).items():
                        counts[key] = counts.get(key, 0) + val
            return result

        return traced

    def install(self):
        """Replace every function of LAYERS on its module with a traced one."""
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"sievesum.{mod_name}")
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(orig, f"{mod_name.lstrip('_')}.{fn}"))

    def uninstall(self):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()

    def summary(self):
        """{'calls': {name: n}, 'self_s': {name: s}, 'counts': {key: n}}."""
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for name, start, end, _parent, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts)}
