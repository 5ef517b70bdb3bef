"""Seeded synthetic benchmark designs.

The paper evaluates on eight VTR designs whose published statistics are the
#LUTs / #FF / #Nets columns of Table 2.  The netlists themselves are not
shippable here, so :func:`generate_design` synthesizes a design with the same
statistics and with the property the experiments actually rely on: nets have
*spatial locality structure* (Rent's-rule-flavoured clustering plus a power-law
fanout distribution), so that good placements genuinely reduce routing
congestion and bad ones increase it.

Blocks are assigned latent positions on a unit square; a net drawn from a
cluster connects its driver to sinks sampled mostly from the driver's latent
neighborhood, with a small long-range fraction.  The latent positions are
discarded afterwards — the placer never sees them.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentScale
from repro.fpga.arch import BlockType
from repro.fpga.netlist import Block, DesignStats, Net, Netlist


@dataclass(frozen=True)
class DesignSpec:
    """Published statistics of one benchmark design (Table 2)."""

    name: str
    num_luts: int
    num_ffs: int
    num_nets: int


#: The eight designs of Table 2 with their published statistics.
PAPER_SUITE: tuple[DesignSpec, ...] = (
    DesignSpec("diffeq1", 563, 193, 2_059),
    DesignSpec("diffeq2", 419, 96, 1_560),
    DesignSpec("raygentop", 1_920, 1_047, 5_023),
    DesignSpec("SHA", 2_501, 911, 10_910),
    DesignSpec("OR1200", 2_823, 670, 12_336),
    DesignSpec("ode", 5_488, 1_316, 20_981),
    DesignSpec("dcsg", 9_088, 1_618, 36_912),
    DesignSpec("bfly", 9_503, 1_748, 38_582),
)


def paper_suite() -> tuple[DesignSpec, ...]:
    """The Table 2 designs at their published sizes."""
    return PAPER_SUITE


def scaled_suite(scale: ExperimentScale) -> tuple[DesignSpec, ...]:
    """The Table 2 designs scaled into a CPU budget, ordering preserved.

    LUT counts map through :meth:`ExperimentScale.scaled_luts`; FF and net
    counts keep their published ratios to the LUT count.
    """
    specs = []
    for spec in PAPER_SUITE:
        luts = scale.scaled_luts(spec.num_luts)
        ratio = luts / spec.num_luts
        specs.append(DesignSpec(
            name=spec.name,
            num_luts=luts,
            num_ffs=max(1, int(round(spec.num_ffs * ratio))),
            num_nets=max(luts + 8, int(round(spec.num_nets * ratio))),
        ))
    return tuple(specs)


def _sample_fanout(rng: np.random.Generator, max_fanout: int) -> int:
    """Power-law-ish fanout: mostly 1-3, occasional high-fanout nets."""
    u = rng.random()
    if u < 0.45:
        return 1
    if u < 0.75:
        return 2
    if u < 0.90:
        return 3
    # Heavy tail, truncated.
    fanout = 4 + int(rng.exponential(3.0))
    return min(fanout, max_fanout)


def generate_design(
    spec: DesignSpec,
    cluster_size: int = 10,
    seed: int = 0,
    io_fraction: float = 0.08,
    mem_per_clbs: int = 24,
    mul_per_clbs: int = 30,
    locality: float = 0.9,
    neighborhood: int = 24,
    absorption: float = 0.62,
) -> Netlist:
    """Synthesize a packed netlist with the statistics of ``spec``.

    Parameters
    ----------
    spec:
        Target statistics (#LUTs, #FF, #Nets).
    cluster_size:
        LUTs packed per CLB (VTR's k6_N10 architecture packs 10).
    seed:
        Generator seed; the same (spec, seed) always yields the same netlist.
    io_fraction:
        I/O pads as a fraction of CLB count (clamped to at least 4).
    mem_per_clbs, mul_per_clbs:
        One memory (multiplier) block per this many CLBs.
    locality:
        Fraction of sink choices drawn from the driver's latent neighborhood;
        the remainder are uniform long-range connections.
    neighborhood:
        Number of latent nearest neighbors considered local.
    absorption:
        Fraction of ``spec.num_nets`` absorbed *inside* clusters by packing
        and therefore invisible to placement and routing.  VTR packing with
        large CLBs typically absorbs 50-70% of nets; only the remainder
        become inter-block nets here.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    if not 0.0 <= absorption < 1.0:
        raise ValueError(f"absorption must be in [0, 1), got {absorption}")
    # Stable name hash: Python's hash() is salted per process and would
    # make "same (spec, seed)" produce different netlists across runs.
    rng = np.random.default_rng(seed ^ zlib.crc32(spec.name.encode()))

    num_clbs = max(1, math.ceil(spec.num_luts / cluster_size))
    num_ios = max(4, int(round(num_clbs * io_fraction)) * 2)
    num_mems = max(1, num_clbs // mem_per_clbs)
    num_muls = max(1, num_clbs // mul_per_clbs)

    blocks: list[Block] = []

    def add_blocks(count: int, block_type: BlockType, prefix: str) -> list[int]:
        ids = []
        for index in range(count):
            block_id = len(blocks)
            blocks.append(Block(block_id, f"{prefix}{index}", block_type))
            ids.append(block_id)
        return ids

    clb_ids = add_blocks(num_clbs, BlockType.CLB, "clb")
    io_ids = add_blocks(num_ios, BlockType.IO, "io")
    mem_ids = add_blocks(num_mems, BlockType.MEM, "mem")
    mul_ids = add_blocks(num_muls, BlockType.MUL, "mul")

    # Latent geometry: logic blocks clustered on a unit square, I/Os on the rim.
    positions = np.empty((len(blocks), 2))
    num_clusters = max(1, num_clbs // 12)
    centers = rng.random((num_clusters, 2))
    for block_id in (*clb_ids, *mem_ids, *mul_ids):
        center = centers[rng.integers(num_clusters)]
        positions[block_id] = np.clip(
            center + rng.normal(scale=0.08, size=2), 0.0, 1.0)
    for block_id in io_ids:
        edge = rng.integers(4)
        t = rng.random()
        positions[block_id] = [
            (t, 0.0), (t, 1.0), (0.0, t), (1.0, t)][edge]

    from scipy.spatial import cKDTree

    tree = cKDTree(positions)
    k_neighbors = min(neighborhood + 1, len(blocks))

    driver_pool = np.array(clb_ids + io_ids[: num_ios // 2] + mem_ids + mul_ids)
    sink_pool = np.array(clb_ids + io_ids[num_ios // 2:] + mem_ids + mul_ids)
    max_fanout = max(2, len(blocks) // 4)

    num_external = max(num_clbs + 4, int(round(spec.num_nets * (1 - absorption))))
    nets: list[Net] = []
    for net_index in range(num_external):
        driver = int(driver_pool[rng.integers(len(driver_pool))])
        fanout = _sample_fanout(rng, max_fanout)
        _, neighbor_ids = tree.query(positions[driver], k=k_neighbors)
        neighbor_ids = np.atleast_1d(neighbor_ids)
        sinks: list[int] = []
        attempts = 0
        while len(sinks) < fanout and attempts < 8 * fanout + 16:
            attempts += 1
            if rng.random() < locality and len(neighbor_ids) > 1:
                candidate = int(neighbor_ids[1 + rng.integers(len(neighbor_ids) - 1)])
            else:
                candidate = int(sink_pool[rng.integers(len(sink_pool))])
            if candidate != driver and candidate not in sinks:
                sinks.append(candidate)
        if not sinks:
            fallback = int(sink_pool[rng.integers(len(sink_pool))])
            if fallback == driver:
                fallback = clb_ids[0] if driver != clb_ids[0] else io_ids[0]
            sinks.append(fallback)
        nets.append(Net(net_index, f"net{net_index}", driver, tuple(sinks)))

    stats = DesignStats(num_luts=spec.num_luts, num_ffs=spec.num_ffs)
    return Netlist(spec.name, blocks, nets, stats)


def minimum_architecture_size(netlist: Netlist,
                              utilization: float = 0.6) -> int:
    """Smallest square grid width that fits the netlist.

    Sized so CLBs occupy at most ``utilization`` of the CLB sites, with the
    paper-style column pattern (memory at x=3(+10k), multipliers at x=7(+10k))
    and the I/O ring taken into account.
    """
    from repro.fpga.arch import paper_architecture

    width = 4
    while width < 200:
        arch = paper_architecture(width)
        fits = (
            netlist.count_type(BlockType.CLB)
            <= int(arch.capacity(BlockType.CLB) * utilization)
            and netlist.count_type(BlockType.IO) <= arch.capacity(BlockType.IO)
            and netlist.count_type(BlockType.MEM) <= arch.capacity(BlockType.MEM)
            and netlist.count_type(BlockType.MUL) <= arch.capacity(BlockType.MUL)
        )
        if fits:
            return width
        width += 1
    raise ValueError(f"netlist {netlist.name} too large for supported grids")
