"""S1 — substrate micro-benchmark: the placer.

Not a paper artifact; it keeps the annealer's throughput visible.  The
router, renderer and model are measured end to end by ``perfbench/``.
"""

from conftest import write_result
from reporting import benchmark_entry, write_bench_json

from repro.fpga import PlacerOptions, SimulatedAnnealingPlacer


def test_placer_throughput(benchmark, scale, suite_bundles):
    bundle = suite_bundles["OR1200"]
    options = PlacerOptions(seed=11, alpha_t=0.6, inner_num=0.5)

    def anneal():
        return SimulatedAnnealingPlacer(
            bundle.netlist, bundle.arch, options).place()

    result = benchmark(anneal)
    write_result("substrate_placer", [
        f"placer: {result.num_moves} moves, "
        f"improvement {result.improvement:.1%}",
    ])
    write_bench_json("substrate_placer", [
        benchmark_entry("placer_anneal", benchmark,
                        items_per_round=result.num_moves),
    ], scale.name)
    assert result.improvement > 0.1
