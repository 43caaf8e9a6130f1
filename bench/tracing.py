"""In-memory spans around the public functions of ``pdc_entanglement``.

The benchmark never edits the package.  For a traced pass it replaces each
wrapped function at every module attribute bound to it (the defining
module, the modules that imported it by name such as ``analysis`` for the
``pdc_dynamics`` closed forms, and the package namespace), so every caller
that looks the name up at call time goes through the wrapper.  The
originals are put back when the pass ends.

A span is ``[name, start, end, parent, failed]`` with perf_counter times
and the index of the enclosing span (-1 at top level).  Calls are single
threaded and strictly nested, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, function) pairs whose calls are traced
WRAPPED = (
    ("pdc_dynamics", "thermal_occupation"),
    ("pdc_dynamics", "covariance_matrix"),
    ("pdc_dynamics", "mean_photon_numbers"),
    ("pdc_dynamics", "det_gamma_closed_form"),
    ("gaussian_core", "symplectic_invariants"),
    ("gaussian_core", "log_negativity"),
    ("gaussian_core", "entanglement_report"),
    ("gaussian_core", "physicality_check"),
    ("analysis", "birth_time"),
    ("analysis", "critical_temperature"),
    ("analysis", "phase_boundary"),
    ("analysis", "witness"),
    ("fock_oracle", "evolve_moments_ode"),
    ("fock_oracle", "evolve_fock"),
    ("fock_oracle", "fock_log_negativity"),
    ("fock_oracle", "moments_from_fock"),
    ("cli", "main"),
)

# birth_time is reported per route, since the two differ by ~50x in cost
BIRTH_TIME_ROUTES = ("closed_form", "bisection")


def span_names() -> list[str]:
    names = []
    for module, func in WRAPPED:
        if (module, func) == ("analysis", "birth_time"):
            names.extend(f"analysis.birth_time.{route}" for route in BIRTH_TIME_ROUTES)
        else:
            names.append(f"{module}.{func}")
    return names


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = failed
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; an exception marks the span failed."""
        idx = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(idx, failed=True)
            raise
        self.end(idx)
        return result

    def write(self, path) -> None:
        """Write the spans as tab-separated lines (name, start_ns, end_ns,
        parent, failed), times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tfailed\n")
            fh.writelines(
                f"{name}\t{round((start - t0) * 1e9)}\t{round((end - t0) * 1e9)}\t{parent}\t{int(failed)}\n"
                for name, start, end, parent, failed in self.spans
            )


def _wrapper(tracer: Tracer, module: str, func: str, fn):
    name = f"{module}.{func}"
    if (module, func) == ("analysis", "birth_time"):

        def wrapped(*args, **kwargs):
            method = kwargs.get("method", args[2] if len(args) > 2 else "closed_form")
            return tracer.call(f"{name}.{method}", fn, *args, **kwargs)

    elif (module, func) == ("analysis", "critical_temperature"):

        def wrapped(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            tracer.counts["critical_temperature.roots"] += result is not None
            return result

    else:

        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _modules(package) -> list:
    return [package] + [getattr(package, m) for m in sorted({m for m, _ in WRAPPED})]


def rebind(package, original, replacement) -> list[tuple]:
    """Bind `replacement` at every module attribute bound to `original`.

    Returns the (module, attribute, original) triples that ``restore``
    puts back.
    """
    patched = []
    for mod in _modules(package):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def install(tracer: Tracer, package) -> list[tuple]:
    """Wrap every traced function at every name bound to it."""
    patched = []
    for module_name, func in WRAPPED:
        original = getattr(getattr(package, module_name), func)
        patched += rebind(package, original, _wrapper(tracer, module_name, func, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def _nearest(spans, idx: int, names: frozenset):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def summarize(tracer: Tracer, points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    ``points`` is the number of (y, tau, T) states the pass evaluated, the
    base of ``thermal_occupation.per_point``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    failed: Counter = Counter()
    self_s: Counter = Counter()
    for idx, (name, start, end, _, fail) in enumerate(spans):
        calls[name] += 1
        failed[name] += fail
        self_s[name] += (end - start) - child[idx]

    evals: Counter = Counter()
    solvers = frozenset({"analysis.critical_temperature", "analysis.birth_time.bisection"})
    for idx, span in enumerate(spans):
        if span[0] == "pdc_dynamics.det_gamma_closed_form":
            owner = _nearest(spans, idx, solvers)
            if owner is not None:
                evals[owner] += 1

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.failed"] = (failed[name], "count")
    crit = "analysis.critical_temperature"
    bisect = "analysis.birth_time.bisection"
    out["pdc_dynamics.thermal_occupation.per_point"] = (
        ratio(calls["pdc_dynamics.thermal_occupation"], points), "count/point")
    out[f"{crit}.evals_per_call"] = (ratio(evals[crit], calls[crit]), "count/call")
    out[f"{crit}.root_frac"] = (
        ratio(tracer.counts["critical_temperature.roots"], calls[crit]), "ratio")
    out[f"{bisect}.evals_per_call"] = (ratio(evals[bisect], calls[bisect]), "count/call")
    out["bench.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("bench.")), "s")
    return out
