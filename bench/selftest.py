"""Quick self-test of the benchmark (about a minute):

    python3 bench/selftest.py

For each workload it runs one tiny round untraced and traced, checks that
every metric BENCHMARK.json names is reported with its unit, that the
traced spans account for the traced wall time, and that a wrong result
injected into the package raises the failed count and marks the run
incorrect.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

package = run.load_package()

import tracing  # noqa: E402  (needs the package on the path)
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """A workload of the given kind whose cycle is one round of a few items."""
    wl = workloads.WORKLOADS[name](0)
    full = wl.cycle[0]
    if name == "oracle":
        fock = [c for c in full if isinstance(c, workloads.FockCase) and c.n_cut == 20]
        full = fock + [c for c in full if isinstance(c, workloads.OdeCase)][:2]
    elif name == "figures":
        full = [i for i in full if getattr(i, "name", "fig4") == "fig4"][:4]
    wl.cycle = [full]
    return wl


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def expect(cond: bool, what: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def wrong_results(name: str):
    """(original, faulty replacement) of a package function the workload checks."""
    if name == "phase_map":
        real = package.gaussian_core.entanglement_report

        def faulty(cm):
            rep = real(cm)
            return type(rep)(rep.log_negativity + 0.1, rep.s, rep.entangled, rep.nu_minus_pt)

        return package.gaussian_core.entanglement_report, faulty
    if name == "figures":
        real = package.analysis.critical_temperature
        return real, lambda *a, **k: (lambda t: None if t is None else t * 1.001)(real(*a, **k))
    real = package.fock_oracle.fock_log_negativity
    return real, lambda state: real(state) + 0.01


def failures_of_first_round(wl) -> run.Tally:
    tally = run.Tally()
    for item in wl.next_round():
        run.run_item(item, tally)
    return tally


def main() -> int:
    problems: list[str] = []
    run.SETUP_REPEATS = 1
    run.OUT_DIR.mkdir(exist_ok=True)
    want_e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    expect({w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload", problems)
    for name in workloads.WORKLOADS:
        tally, metrics, _ = run.end_to_end(name, 0, 0.0, tiny(name))
        expect(units(metrics) == want_e2e, f"{name}: end-to-end metrics and units", problems)
        expect(all(v > 0 for v, _ in metrics.values()), f"{name}: end-to-end metrics nonzero", problems)
        expect(tally.unexpected == 0, f"{name}: no unexpected failures", problems)

        spans = run.OUT_DIR / f"selftest-{name}.spans.tsv"
        tally, metrics, extra = run.per_layer(tiny(name), 0.0, package, spans)
        expect(extra["spans"] > 0 and spans.stat().st_size > 0, f"{name}: spans written", problems)
        expect(units(metrics) == want_layer, f"{name}: per-layer metrics and units", problems)
        expect(abs(metrics["trace.unaccounted_frac"][0]) < 0.05,
               f"{name}: self times account for the traced wall time "
               f"(unaccounted {metrics['trace.unaccounted_frac'][0]:.3%})", problems)

        clean = failures_of_first_round(tiny(name))
        original, faulty = wrong_results(name)
        patched = tracing.rebind(package, original, faulty)
        try:
            broken = failures_of_first_round(tiny(name))
        finally:
            tracing.restore(patched)
        expect(broken.failed > clean.failed and broken.unexpected > 0,
               f"{name}: injected wrong result fails {broken.failed} items (clean: {clean.failed})",
               problems)
    print("selftest:", "PASS" if not problems else f"FAIL ({len(problems)})")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
