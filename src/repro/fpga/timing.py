"""Static timing analysis over placed (and optionally routed) designs.

A lightweight STA: the netlist's driver-to-sink edges form a timing graph
(sequential feedback broken as in :meth:`Netlist.levelize`); each edge's
delay is a logic delay plus a wire delay taken either from placement
geometry (Manhattan distance) or, when a routing result is supplied, from
the actual routed tree size.  Used to validate the ``criticality``
placement mode (the ``path_timing_driven`` stand-in): timing-driven
placements should carry shorter critical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement
from repro.fpga.router import RoutingResult

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class TimingReport:
    """Critical-path summary."""

    critical_delay: float
    critical_path: tuple[int, ...]   # block ids, source to endpoint
    mean_arrival: float

    @property
    def depth(self) -> int:
        return len(self.critical_path)


class TimingAnalyzer:
    """Arrival-time propagation over the design's timing graph."""

    def __init__(self, netlist: Netlist, placement: Placement,
                 routing: RoutingResult | None = None,
                 logic_delay: float = 1.0, wire_delay: float = 0.1):
        self.netlist = netlist
        self.placement = placement
        self.routing = routing
        self.logic_delay = logic_delay
        self.wire_delay = wire_delay
        self._graph = self._build_graph()

    def _edge_delay(self, net_id: int, driver: int, sink: int) -> float:
        if self.routing is not None:
            tree = self.routing.net_trees.get(net_id)
            if tree:
                # Routed wire delay: proportional to the tree's segment
                # count (a linear-delay interconnect model).
                return self.logic_delay + self.wire_delay * len(tree)
        dx = abs(int(self.placement.xs[driver]) - int(self.placement.xs[sink]))
        dy = abs(int(self.placement.ys[driver]) - int(self.placement.ys[sink]))
        return self.logic_delay + self.wire_delay * (dx + dy)

    def _build_graph(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(block.id for block in self.netlist.blocks)
        for net in self.netlist.nets:
            for sink in net.sinks:
                delay = self._edge_delay(net.id, net.driver, sink)
                existing = graph.get_edge_data(net.driver, sink)
                if existing is None or existing["delay"] < delay:
                    graph.add_edge(net.driver, sink, delay=delay)
        # Break sequential feedback so arrival propagation terminates.
        graph.remove_edges_from(nx.selfloop_edges(graph))
        while True:
            try:
                nx.find_cycle(graph)
            except nx.NetworkXNoCycle:
                break
            cycle = nx.find_cycle(graph)
            graph.remove_edge(*cycle[0][:2])
        return graph

    def arrival_times(self) -> dict[int, float]:
        """Latest arrival time at every block (sources arrive at 0)."""
        import networkx as nx

        arrivals = {node: 0.0 for node in self._graph.nodes}
        for node in nx.topological_sort(self._graph):
            for _, successor, data in self._graph.out_edges(node, data=True):
                candidate = arrivals[node] + data["delay"]
                if candidate > arrivals[successor]:
                    arrivals[successor] = candidate
        return arrivals

    def report(self) -> TimingReport:
        """Critical path: the endpoint with the latest arrival, traced back."""
        arrivals = self.arrival_times()
        endpoint = max(arrivals, key=arrivals.get)
        path = [endpoint]
        node = endpoint
        while True:
            predecessors = [
                (pred, data) for pred, _, data
                in self._graph.in_edges(node, data=True)
                if abs(arrivals[pred] + data["delay"] - arrivals[node]) < 1e-9
            ]
            if not predecessors:
                break
            node = predecessors[0][0]
            path.append(node)
        path.reverse()
        values = list(arrivals.values())
        return TimingReport(
            critical_delay=arrivals[endpoint],
            critical_path=tuple(path),
            mean_arrival=sum(values) / len(values) if values else 0.0,
        )
