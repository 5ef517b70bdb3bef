"""The slow reference A*: a dict of distances and a heuristic closure.

``PathFinderRouter._shortest_path`` reads its heuristic from one table
per target list and keeps its distances in a list; routes must stay
bitwise equal to this search, which recomputes the minimum Manhattan
distance to the targets node by node (``tests/test_route_reference.py``).
Substituted for ``repro.fpga.router.PathFinderRouter``, it also gives the
reference ``estimate_channel_width``.
"""

import heapq

from repro.fpga import PathFinderRouter


class ReferenceRouter(PathFinderRouter):
    """``PathFinderRouter`` with the per-call heuristic closure."""

    def _shortest_path(self, sources: list[int],
                       targets: list[int]) -> list[int]:
        graph = self.graph
        target_set = set(targets)
        shared = target_set.intersection(sources)
        if shared:
            return [next(iter(shared))]

        cost_list = self._cost_list
        adjacency = graph.adjacency_lists
        cx = graph.coords[:, 0].tolist()
        cy = graph.coords[:, 1].tolist()
        weight = self.options.astar_weight
        target_xy = [(cx[t], cy[t]) for t in target_set]

        h_cache: dict[int, float] = {}

        def heuristic(node: int) -> float:
            value = h_cache.get(node)
            if value is None:
                nx_, ny_ = cx[node], cy[node]
                value = weight * min(
                    abs(nx_ - tx) + abs(ny_ - ty) for tx, ty in target_xy)
                h_cache[node] = value
            return value

        dist: dict[int, float] = {}
        parent: dict[int, int] = {}
        frontier: list[tuple[float, float, int]] = []
        inf = float("inf")
        for source in set(sources):
            cost = cost_list[source]
            dist[source] = cost
            parent[source] = -1
            heapq.heappush(frontier, (cost + heuristic(source), cost, source))

        while frontier:
            _, cost, node = heapq.heappop(frontier)
            if cost > dist.get(node, inf):
                continue
            if node in target_set:
                path = [node]
                while parent[node] != -1:
                    node = parent[node]
                    path.append(node)
                return path
            for neighbor in adjacency[node]:
                next_cost = cost + cost_list[neighbor]
                if next_cost < dist.get(neighbor, inf):
                    dist[neighbor] = next_cost
                    parent[neighbor] = node
                    heapq.heappush(
                        frontier,
                        (next_cost + heuristic(neighbor), next_cost, neighbor))
        raise RuntimeError("disconnected routing graph (should not happen)")

