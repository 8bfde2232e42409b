"""Tiled mesh interconnect (the paper's baseline, Figure 2).

Each grid coordinate has one 5-port router (N/S/E/W plus local); a hop
costs a two-stage router pipeline plus a single-cycle link, i.e. three
cycles at zero load, exactly as in Table 1.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.buffer import InputPort
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.topology import GridGeometry, tiled_grid_geometry

Coordinate = Tuple[int, int]

_DIRECTIONS = {
    "E": (1, 0),
    "W": (-1, 0),
    "S": (0, 1),
    "N": (0, -1),
}


class MeshNetwork(Network):
    """2-D mesh with XY dimension-order routing."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        node_coords: Dict[int, Coordinate],
        name: str = "mesh",
        geometry: Optional[GridGeometry] = None,
    ) -> None:
        super().__init__(sim, config, name, node_coords.keys())
        self.node_coords = dict(node_coords)
        # Concentrated variants pass their own (smaller, coarser) router
        # grid; the plain mesh derives one router per core tile.
        self.geometry: GridGeometry = geometry or tiled_grid_geometry(config)
        self._router_at: Dict[Coordinate, Router] = {}
        self._direction_port: Dict[Tuple[Coordinate, str], int] = {}
        self._eject_port: Dict[Tuple[Coordinate, int], int] = {}

        self._build_routers()
        self._build_mesh_links()
        self._attach_interfaces()
        self._build_routing_tables()

    # ------------------------------------------------------------------ #
    def _new_input_port(self, label: str) -> InputPort:
        return InputPort(
            num_vcs=self.noc.mesh_vcs_per_port,
            vc_depth_flits=self.noc.mesh_vc_depth_flits,
            name=label,
        )

    def _build_routers(self) -> None:
        for coord in self.geometry.all_coords():
            router = Router(
                self.sim,
                f"{self.name}.r{coord[0]}_{coord[1]}",
                pipeline_latency=self.noc.mesh_router_pipeline,
            )
            self._router_at[coord] = router
            self.routers.append(router)

    def _build_mesh_links(self) -> None:
        tile_mm = self.geometry.tile_width_mm
        for coord, router in self._router_at.items():
            for direction, (dx, dy) in _DIRECTIONS.items():
                neighbor_coord = (coord[0] + dx, coord[1] + dy)
                if neighbor_coord not in self._router_at:
                    continue
                neighbor = self._router_at[neighbor_coord]
                in_port = neighbor.add_input_port(
                    self._new_input_port(f"{neighbor.name}.in_{_opposite(direction)}")
                )
                out_port = router.add_output_port(
                    f"{direction}",
                    neighbor,
                    in_port,
                    link_latency=self.noc.mesh_link_latency,
                    link_length_mm=tile_mm,
                )
                self._direction_port[(coord, direction)] = out_port

    def _attach_interfaces(self) -> None:
        for node_id, coord in self.node_coords.items():
            router = self._router_at[coord]
            interface = self.interfaces[node_id]
            in_port = router.add_input_port(
                self._new_input_port(f"{router.name}.in_local{node_id}"), is_local=True
            )
            interface.attach_router(router, in_port)
            out_port = router.add_output_port(
                f"eject{node_id}", interface, 0, link_latency=0, link_length_mm=0.0
            )
            self._eject_port[(coord, node_id)] = out_port

    def _build_routing_tables(self) -> None:
        for coord, router in self._router_at.items():
            for node_id, dst_coord in self.node_coords.items():
                router.set_route(node_id, self._next_port(coord, dst_coord, node_id))

    def _next_port(self, coord: Coordinate, dst_coord: Coordinate, node_id: int) -> int:
        """XY routing: correct the column first, then the row."""
        if coord == dst_coord:
            return self._eject_port[(coord, node_id)]
        if dst_coord[0] > coord[0]:
            return self._direction_port[(coord, "E")]
        if dst_coord[0] < coord[0]:
            return self._direction_port[(coord, "W")]
        if dst_coord[1] > coord[1]:
            return self._direction_port[(coord, "S")]
        return self._direction_port[(coord, "N")]

    # ------------------------------------------------------------------ #
    def router_at(self, coord: Coordinate) -> Router:
        """The router at grid coordinate ``coord`` (used by tests)."""
        return self._router_at[coord]


def _opposite(direction: str) -> str:
    return {"E": "W", "W": "E", "N": "S", "S": "N"}[direction]
