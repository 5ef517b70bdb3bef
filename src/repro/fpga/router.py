"""PathFinder negotiated-congestion router over a channel-segment graph.

The routing fabric is modelled at the granularity the paper's heat maps are
painted at: one node per *channel segment* — the stretch of horizontal channel
above each tile and of vertical channel to the right of each tile (plus the
ring segments between the I/O pads and the outermost tile rows/columns).
Each segment holds ``channel_width`` wires.

Nets are routed as Steiner-ish trees grown sink-by-sink with A* searches,
under the classic PathFinder cost

    cost(n) = (1 + hist(n)) * (1 + pres_fac * max(0, occ(n) + 1 - cap(n)))

with history updates and present-factor escalation per iteration until no
segment is overused.  Per-segment ``occupancy / capacity`` at convergence is
the routing *utilization* the cGAN learns to forecast.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fpga.arch import BlockType, FpgaArchitecture, Site
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement


class ChannelGraph:
    """Channel-segment adjacency for an architecture.

    Horizontal segments ``H(x, y)`` for ``x in 1..W, y in 0..H`` sit in the
    channel between row ``y`` and row ``y+1`` (``y=0`` borders the I/O ring).
    Vertical segments ``V(x, y)`` for ``x in 0..W, y in 1..H`` sit between
    column ``x`` and column ``x+1``.  Segments meet at switchboxes on shared
    channel corners.
    """

    def __init__(self, arch: FpgaArchitecture):
        self.arch = arch
        width, height = arch.width, arch.height
        self.num_h = width * (height + 1)
        self.num_v = (width + 1) * height
        self.num_nodes = self.num_h + self.num_v

        coords = np.empty((self.num_nodes, 2), dtype=np.float64)
        for x in range(1, width + 1):
            for y in range(0, height + 1):
                coords[self.h_index(x, y)] = (x, y + 0.5)
        for x in range(0, width + 1):
            for y in range(1, height + 1):
                coords[self.v_index(x, y)] = (x + 0.5, y)
        self.coords = coords

        adjacency: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for x in range(1, width + 1):
            for y in range(0, height + 1):
                node = self.h_index(x, y)
                if x > 1:
                    adjacency[node].append(self.h_index(x - 1, y))
                if x < width:
                    adjacency[node].append(self.h_index(x + 1, y))
                # Corners (x-1, y) and (x, y) connect to vertical segments.
                for cx in (x - 1, x):
                    for vy in (y, y + 1):
                        if 0 <= cx <= width and 1 <= vy <= height:
                            adjacency[node].append(self.v_index(cx, vy))
        for x in range(0, width + 1):
            for y in range(1, height + 1):
                node = self.v_index(x, y)
                if y > 1:
                    adjacency[node].append(self.v_index(x, y - 1))
                if y < height:
                    adjacency[node].append(self.v_index(x, y + 1))
                # Corners (x, y-1) and (x, y) connect to horizontal segments.
                for cy in (y - 1, y):
                    for hx in (x, x + 1):
                        if 1 <= hx <= width and 0 <= cy <= height:
                            adjacency[node].append(self.h_index(hx, cy))
        # Plain-python lists: the A* inner loop indexes them.
        self.adjacency_lists = [sorted(set(n)) for n in adjacency]
        # Read-only: every router on the architecture shares this graph.
        self.capacity = np.full(self.num_nodes, arch.channel_width,
                                dtype=np.int32)
        self.capacity.flags.writeable = False

    def h_index(self, x: int, y: int) -> int:
        """Node id of horizontal segment H(x, y)."""
        if not (1 <= x <= self.arch.width and 0 <= y <= self.arch.height):
            raise ValueError(f"H({x},{y}) out of range")
        return y * self.arch.width + (x - 1)

    def v_index(self, x: int, y: int) -> int:
        """Node id of vertical segment V(x, y)."""
        if not (0 <= x <= self.arch.width and 1 <= y <= self.arch.height):
            raise ValueError(f"V({x},{y}) out of range")
        return self.num_h + x * self.arch.height + (y - 1)

    def tile_access(self, x: int, y: int) -> list[int]:
        """Segments a pin on interior tile (x, y) can directly reach."""
        arch = self.arch
        if not (1 <= x <= arch.width and 1 <= y <= arch.height):
            raise ValueError(f"tile ({x},{y}) not interior")
        return [
            self.h_index(x, y - 1),   # channel below
            self.h_index(x, y),       # channel above
            self.v_index(x - 1, y),   # channel left
            self.v_index(x, y),       # channel right
        ]

    def block_access(self, site: Site, block_type: BlockType) -> list[int]:
        """Segments adjacent to a block anchored at ``site``."""
        arch = self.arch
        if block_type is BlockType.IO:
            x, y = site.x, site.y
            if x == 0:
                return [self.v_index(0, y)]
            if x == arch.width + 1:
                return [self.v_index(arch.width, y)]
            if y == 0:
                return [self.h_index(x, 0)]
            if y == arch.height + 1:
                return [self.h_index(x, arch.height)]
            raise ValueError(f"I/O site {site} not on the ring")
        height = arch.block_height(block_type)
        access: list[int] = []
        for row in range(site.y, site.y + height):
            access.extend(self.tile_access(site.x, row))
        return sorted(set(access))


@dataclass(frozen=True)
class RouterOptions:
    """PathFinder knobs (defaults follow common VPR settings)."""

    max_iterations: int = 12
    pres_fac_initial: float = 0.6
    pres_fac_mult: float = 1.7
    history_increment: float = 0.4
    astar_weight: float = 1.0  # heuristic multiplier (1.0 = admissible-ish)


@dataclass
class RoutingResult:
    """Routed design: per-segment occupancy and utilization."""

    graph: ChannelGraph
    occupancy: np.ndarray
    converged: bool
    iterations: int
    wirelength: int
    route_seconds: float
    net_trees: dict[int, frozenset[int]] = field(repr=False,
                                                 default_factory=dict)

    @property
    def utilization(self) -> np.ndarray:
        """Per-segment occupancy / capacity (may exceed 1 if unresolved)."""
        return self.occupancy / self.graph.capacity

    @property
    def overuse(self) -> int:
        return int(np.maximum(
            self.occupancy - self.graph.capacity, 0).sum())

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean())

    @property
    def max_utilization(self) -> float:
        return float(self.utilization.max())

    def h_utilization(self) -> np.ndarray:
        """Horizontal-channel utilization, shape (width, height+1)."""
        arch = self.graph.arch
        util = self.utilization[: self.graph.num_h]
        return util.reshape(arch.height + 1, arch.width).T

    def v_utilization(self) -> np.ndarray:
        """Vertical-channel utilization, shape (width+1, height)."""
        arch = self.graph.arch
        util = self.utilization[self.graph.num_h:]
        return util.reshape(arch.width + 1, arch.height)


class PathFinderRouter:
    """Negotiated-congestion router for a placed netlist."""

    def __init__(self, netlist: Netlist, arch: FpgaArchitecture,
                 placement: Placement,
                 options: RouterOptions | None = None):
        self.netlist = netlist
        self.arch = arch
        self.placement = placement
        self.options = options if options is not None else RouterOptions()
        self.graph = arch.channel_graph
        self._access_cache: dict[int, list[int]] = {}
        # A* heuristic tables, one per distinct target list (see
        # :meth:`_heuristic`); they live and die with the router.
        self._heuristics: dict[tuple[int, ...], list[float]] = {}

    # -- public API --------------------------------------------------------------

    def route(self) -> RoutingResult:
        """Run PathFinder until no overuse or the iteration cap."""
        start = time.perf_counter()
        graph = self.graph
        options = self.options
        occupancy = np.zeros(graph.num_nodes, dtype=np.int32)
        history = np.zeros(graph.num_nodes, dtype=np.float64)
        trees: dict[int, frozenset[int]] = {}

        # Longest nets first: they have the fewest detour options.
        order = sorted(
            self.netlist.nets,
            key=lambda net: -self._net_span(net.id))

        pres_fac = options.pres_fac_initial
        iterations = 0
        converged = False
        capacity = graph.capacity
        for iteration in range(options.max_iterations):
            iterations = iteration + 1
            if iteration == 0:
                to_route = [net.id for net in order]
            else:
                overused = occupancy > capacity
                to_route = [net_id for net_id, tree in trees.items()
                            if any(overused[node] for node in tree)]
                for net_id in to_route:
                    for node in trees[net_id]:
                        occupancy[node] -= 1
                    del trees[net_id]

            # PathFinder node cost, vectorized once per iteration and patched
            # per node as occupancy evolves (python list: the A* inner loop
            # indexes it millions of times).
            cost_vec = ((1.0 + history)
                        * (1.0 + pres_fac
                           * np.maximum(occupancy + 1 - capacity, 0)))
            self._cost_list = cost_vec.tolist()
            self._history_list = history.tolist()
            self._occ_list = occupancy.tolist()
            self._cap_list = capacity.tolist()
            self._pres_fac = pres_fac

            for net_id in to_route:
                tree = self._route_net(net_id)
                trees[net_id] = tree
                for node in tree:
                    occupancy[node] += 1
                    self._occ_list[node] += 1
                    self._refresh_node_cost(node)

            over = occupancy - capacity
            if not np.any(over > 0):
                converged = True
                break
            history += options.history_increment * np.maximum(over, 0)
            pres_fac *= options.pres_fac_mult

        wirelength = int(sum(len(tree) for tree in trees.values()))
        return RoutingResult(
            graph=graph,
            occupancy=occupancy,
            converged=converged,
            iterations=iterations,
            wirelength=wirelength,
            route_seconds=time.perf_counter() - start,
            net_trees=trees,
        )

    # -- internals -----------------------------------------------------------------

    def _block_access(self, block_id: int) -> list[int]:
        cached = self._access_cache.get(block_id)
        if cached is None:
            block = self.netlist.blocks[block_id]
            site = self.placement.site_of[block_id]
            cached = self.graph.block_access(site, block.type)
            self._access_cache[block_id] = cached
        return cached

    def _net_span(self, net_id: int) -> int:
        net = self.netlist.nets[net_id]
        xs = self.placement.xs[list(net.terminals)]
        ys = self.placement.ys[list(net.terminals)]
        return int((xs.max() - xs.min()) + (ys.max() - ys.min()))

    def _refresh_node_cost(self, node: int) -> None:
        """Patch the cached cost list after an occupancy change at ``node``."""
        over = self._occ_list[node] + 1 - self._cap_list[node]
        congestion = 1.0 + (self._pres_fac * over if over > 0 else 0.0)
        self._cost_list[node] = (1.0 + self._history_list[node]) * congestion

    def _route_net(self, net_id: int) -> frozenset[int]:
        """Grow the net's routing tree sink by sink (nearest first)."""
        net = self.netlist.nets[net_id]
        driver_access = self._block_access(net.driver)
        tree: set[int] = set()

        dx = self.placement.xs[list(net.sinks)] - self.placement.xs[net.driver]
        dy = self.placement.ys[list(net.sinks)] - self.placement.ys[net.driver]
        sink_order = np.argsort(np.abs(dx) + np.abs(dy))

        for sink_pos in sink_order:
            sink = net.sinks[int(sink_pos)]
            targets = self._block_access(sink)
            sources = driver_access if not tree else list(tree) + driver_access
            path = self._shortest_path(sources, targets)
            tree.update(path)
        return frozenset(tree)

    def _heuristic(self, targets: list[int]) -> list[float]:
        """Per node: ``astar_weight`` times the least Manhattan distance to
        any target segment.

        Coordinates are half-integers, so these float64 values are exactly
        what a per-node ``min`` over the targets gives.
        """
        key = tuple(targets)
        table = self._heuristics.get(key)
        if table is None:
            coords = self.graph.coords
            target_xy = coords[targets]
            distance = (np.abs(coords[:, None, 0] - target_xy[None, :, 0])
                        + np.abs(coords[:, None, 1] - target_xy[None, :, 1]))
            table = (self.options.astar_weight
                     * distance.min(axis=1)).tolist()
            self._heuristics[key] = table
        return table

    def _shortest_path(self, sources: list[int],
                       targets: list[int]) -> list[int]:
        """A* over segments from any source to any target.

        Node costs come from the per-iteration cached cost list; the
        heuristic is the minimum Manhattan distance to any target segment.
        """
        graph = self.graph
        target_set = set(targets)
        shared = target_set.intersection(sources)
        if shared:
            return [next(iter(shared))]

        cost_list = self._cost_list
        adjacency = graph.adjacency_lists
        heuristic = self._heuristic(targets)
        dist = [float("inf")] * graph.num_nodes
        parent: dict[int, int] = {}
        frontier: list[tuple[float, float, int]] = []
        for source in set(sources):
            cost = cost_list[source]
            dist[source] = cost
            parent[source] = -1
            heapq.heappush(frontier, (cost + heuristic[source], cost, source))

        while frontier:
            _, cost, node = heapq.heappop(frontier)
            if cost > dist[node]:
                continue
            if node in target_set:
                path = [node]
                while parent[node] != -1:
                    node = parent[node]
                    path.append(node)
                return path
            for neighbor in adjacency[node]:
                next_cost = cost + cost_list[neighbor]
                if next_cost < dist[neighbor]:
                    dist[neighbor] = next_cost
                    parent[neighbor] = node
                    heapq.heappush(
                        frontier,
                        (next_cost + heuristic[neighbor], next_cost, neighbor))
        raise RuntimeError("disconnected routing graph (should not happen)")


def estimate_channel_width(netlist: Netlist, arch: FpgaArchitecture,
                           placement: Placement,
                           margin: float = 1.25) -> int:
    """VPR-style channel-width sizing.

    Routes the placement once on a copy of the architecture with effectively
    unbounded channels (so the router takes shortest paths) and returns
    ``margin`` times the peak segment occupancy.  VPR evaluates designs at
    ~1.2-1.3x the minimum routable channel width; datasets built at this width
    show meaningful utilization contrast without mass routing failures.
    """
    relaxed = FpgaArchitecture(
        width=arch.width,
        height=arch.height,
        io_capacity=arch.io_capacity,
        mem_columns=arch.mem_columns,
        mul_columns=arch.mul_columns,
        mem_height=arch.mem_height,
        mul_height=arch.mul_height,
        channel_width=10_000,
    )
    router = PathFinderRouter(
        netlist, relaxed, placement,
        options=RouterOptions(max_iterations=1))
    result = router.route()
    peak = int(result.occupancy.max())
    return max(4, int(np.ceil(margin * peak)))
