"""Packed netlist representation: Graph(V, E) of the paper's Section 2.2.

A :class:`Netlist` is a hypergraph — blocks (cluster-based logic blocks,
I/O pads, memory and multiplier blocks) connected by multi-terminal nets,
each driven by one block and fanning out to one or more sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import networkx as nx
import numpy as np

from repro.fpga.arch import BlockType


@dataclass(frozen=True)
class Block:
    """A placeable element of the packed netlist."""

    id: int
    name: str
    type: BlockType


@dataclass(frozen=True)
class Net:
    """A multi-terminal net: one driver block, one or more sink blocks."""

    id: int
    name: str
    driver: int
    sinks: tuple[int, ...]

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    @property
    def terminals(self) -> tuple[int, ...]:
        return (self.driver, *self.sinks)


@dataclass
class DesignStats:
    """Pre-packing statistics, carried for reporting (Table 2 columns)."""

    num_luts: int = 0
    num_ffs: int = 0


class Netlist:
    """A packed design: blocks plus nets, with derived indexes.

    The class validates its invariants on construction: net terminals
    reference existing blocks, drivers do not appear among their own sinks,
    and every net has at least one sink.
    """

    def __init__(self, name: str, blocks: list[Block], nets: list[Net],
                 stats: DesignStats | None = None):
        self.name = name
        self.blocks = list(blocks)
        self.nets = list(nets)
        self.stats = stats if stats is not None else DesignStats()
        self._validate()
        self._block_nets: dict[int, tuple[int, ...]] = self._index_block_nets()

    def _validate(self) -> None:
        ids = [block.id for block in self.blocks]
        if ids != list(range(len(ids))):
            raise ValueError("block ids must be dense 0..n-1 in order")
        net_ids = [net.id for net in self.nets]
        if net_ids != list(range(len(net_ids))):
            raise ValueError("net ids must be dense 0..n-1 in order")
        num_blocks = len(self.blocks)
        for net in self.nets:
            if not net.sinks:
                raise ValueError(f"net {net.name} has no sinks")
            for terminal in net.terminals:
                if not 0 <= terminal < num_blocks:
                    raise ValueError(
                        f"net {net.name} references unknown block {terminal}")
            if net.driver in net.sinks:
                raise ValueError(f"net {net.name} drives itself")

    def _index_block_nets(self) -> dict[int, tuple[int, ...]]:
        index: dict[int, list[int]] = {block.id: [] for block in self.blocks}
        for net in self.nets:
            seen = set()
            for terminal in net.terminals:
                if terminal not in seen:
                    index[terminal].append(net.id)
                    seen.add(terminal)
        return {block_id: tuple(nets) for block_id, nets in index.items()}

    # -- queries ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def blocks_of_type(self, block_type: BlockType) -> list[Block]:
        return [block for block in self.blocks if block.type is block_type]

    def count_type(self, block_type: BlockType) -> int:
        return sum(1 for block in self.blocks if block.type is block_type)

    def nets_of_block(self, block_id: int) -> tuple[int, ...]:
        """Ids of nets incident to a block (used for incremental cost)."""
        return self._block_nets[block_id]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(drivers, sinks)``: the block ids at the two ends of every
        driver-to-sink edge (E' of the paper's Graph(V, E')), net by net."""
        drivers = [net.driver for net in self.nets for _ in net.sinks]
        sinks = [sink for net in self.nets for sink in net.sinks]
        return (np.array(drivers, dtype=np.intp),
                np.array(sinks, dtype=np.intp))

    @cached_property
    def type_index(self) -> np.ndarray:
        """Each block's type as its position in ``BlockType``, for
        vectorized per-type lookups such as block heights."""
        order = list(BlockType)
        return np.array([order.index(block.type) for block in self.blocks],
                        dtype=np.intp)

    def average_fanout(self) -> float:
        if not self.nets:
            return 0.0
        return sum(net.fanout for net in self.nets) / len(self.nets)

    # -- conversions -----------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Directed graph view: driver -> sink edges, block attrs on nodes."""
        graph = nx.DiGraph(name=self.name)
        for block in self.blocks:
            graph.add_node(block.id, name=block.name, type=block.type.value)
        for net in self.nets:
            for sink in net.sinks:
                if graph.has_edge(net.driver, sink):
                    graph[net.driver][sink]["weight"] += 1
                else:
                    graph.add_edge(net.driver, sink, weight=1, net=net.id)
        return graph

    def levelize(self) -> dict[int, int]:
        """Topological level per block (combinational depth proxy).

        Cycles (from sequential feedback) are broken by ignoring back edges
        discovered on the fly; levels feed the criticality placement mode.
        """
        graph = self.to_networkx()
        levels = {block.id: 0 for block in self.blocks}
        try:
            order = list(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible:
            cycle_edges = list(nx.selfloop_edges(graph))
            graph.remove_edges_from(cycle_edges)
            while True:
                try:
                    order = list(nx.topological_sort(graph))
                    break
                except nx.NetworkXUnfeasible:
                    cycle = nx.find_cycle(graph)
                    graph.remove_edge(*cycle[0][:2])
        for node in order:
            for successor in graph.successors(node):
                levels[successor] = max(levels[successor], levels[node] + 1)
        return levels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Netlist({self.name!r}, blocks={self.num_blocks}, "
                f"nets={self.num_nets})")
