"""E5 — Section 5.1: forecast speedup over detailed routing.

"The speedup is measured using the magnitude of routing runtime divided by
inference time" — the paper reports ~0.09 s inference against minutes-scale
routing.  Here both run on the same CPU, so the ratio is the honest
substrate-relative speedup.
"""

from conftest import write_result
from reporting import benchmark_entry, entry, write_bench_json

from repro.flows import measure_speedup


def test_speedup(benchmark, scale, ode_bundle, ode_trainer, quality_checks):
    sample = ode_bundle.dataset[0]

    def infer():
        return ode_trainer.forecast(sample)

    benchmark(infer)
    report = measure_speedup(ode_bundle, ode_trainer, repeats=5)

    lines = [
        f"Section 5.1 speedup (design ode, scale={scale.name})",
        f"  mean routing runtime:   {report.mean_route_seconds * 1e3:8.1f} ms",
        f"  mean inference runtime: {report.mean_infer_seconds * 1e3:8.1f} ms",
        f"  speedup: {report.speedup:.0f}x",
    ]
    write_result("speedup", lines)

    write_bench_json("speedup", [
        benchmark_entry("forecast_ode_trained", benchmark,
                        shape=sample.x.shape),
        entry("routing_pass", wall_time_s=report.mean_route_seconds,
              throughput=1.0 / report.mean_route_seconds),
        entry("route_vs_infer_speedup", speedup_over_routing=report.speedup),
    ], scale.name)

    # The paper's claim shape: inference is orders of magnitude faster than
    # routing.  At reduced scale we still require a clear win (at smoke
    # scale routing is itself trivial, so only positivity is checked).
    assert report.speedup > (3.0 if quality_checks else 0.0)
