"""Chiplet / network-on-interposer fabric: the 1024-2048-core design point.

A flat mesh's diameter grows with the square root of the core count, so the
paper's scale-out argument (Sections 2 and 7.1) gets most interesting
exactly where a monolithic die stops being buildable.  This plugin models
the contemporary answer: several identical CPU chiplets, each with its own
small NoC mesh, bridged by a network-on-interposer (NoI).  The two gem5
exemplars in SNIPPETS.md are the direct models:

* ``SimpleChiplet`` — per-chiplet NoC routers concentrated onto NoI
  routers (the ``concentration`` knob here: how many tiles funnel through
  one boundary router's uplink);
* ``Mesh_IO_Center`` — AMD-Zen-3-style organisation where crossing links
  pay ``chiplet_latency_increase`` extra cycles and the memory controllers
  live on a central IO die instead of the CPU chiplets.

Structure built by :class:`ChipletNetwork`:

* one 5-port mesh router per tile (core + LLC slice), XY-routed inside the
  chiplet, exactly like the baseline mesh;
* every group of ``concentration`` consecutive tiles shares one *boundary
  router* (the group's first tile) holding an uplink to the chiplet's NoI
  router; remote-bound traffic is spread over the boundary routers by a
  destination-keyed hash so every router in a chiplet agrees on the exit
  (pure XY toward one coordinate — loop- and deadlock-free);
* the NoI routers form a near-square mesh over the chiplet grid; NoI links
  and up/down links are *crossing* links and pay the extra latency;
* with ``chiplet_io_die=True`` (the default) a central IO-die router is
  star-connected to every NoI router and hosts all memory controllers;
  otherwise MC ``i`` attaches to NoI router ``i % chiplet_count``.

Like :mod:`repro.fabrics.cmesh`, the module is self-contained and wires in
purely through ``@register_topology`` — no dispatch site changes.  The
four knobs live on :class:`~repro.config.noc.NocConfig` as optional fields
(``None`` means "fabric default" and is canonically omitted, so adding the
fabric invalidated no cache key), which also makes each knob a sweepable
axis for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chip.system_map import SystemMap, TiledSystemMap
from repro.config.noc import NocConfig
from repro.config.system import SystemConfig, default_mesh_dimensions
from repro.noc.buffer import InputPort
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.topology import (
    GridGeometry,
    LinkSpec,
    RouterSpec,
    TopologyDescriptor,
)
from repro.scenarios.registry import register_topology
from repro.sim.kernel import Simulator

Coordinate = Tuple[int, int]

#: Registry name (and the string stored in ``NocConfig.topology``).
CHIPLET_NAME = "chiplet"
#: Default number of CPU chiplets (a 2x2 NoI mesh).
DEFAULT_CHIPLET_COUNT = 4
#: Default tiles per boundary router (SimpleChiplet's ``conc_factor``).
DEFAULT_CONCENTRATION = 16
#: Default extra cycles on every chiplet-crossing link
#: (Mesh_IO_Center's ``chiplet_latency_increase``).
DEFAULT_LATENCY_INCREASE = 4

_DIRECTIONS = {
    "E": (1, 0),
    "W": (-1, 0),
    "S": (0, 1),
    "N": (0, -1),
}


@dataclass(frozen=True)
class ChipletParams:
    """Validated geometry of one chiplet configuration."""

    count: int  #: number of CPU chiplets
    ccols: int  #: NoI (chiplet-grid) columns
    crows: int  #: NoI (chiplet-grid) rows
    cores_per_chiplet: int
    lcols: int  #: per-chiplet mesh columns
    lrows: int  #: per-chiplet mesh rows
    concentration: int  #: tiles per boundary router
    groups: int  #: boundary routers (uplinks) per chiplet
    latency_increase: int  #: extra cycles on crossing links
    io_die: bool  #: memory controllers on a central IO die


def chiplet_params(config: SystemConfig) -> ChipletParams:
    """Resolve and validate the chiplet knobs of ``config``.

    ``None`` knobs take the fabric defaults; every degenerate combination
    raises a one-line ``ValueError`` naming the offending numbers.
    """
    noc = config.noc
    count = noc.chiplet_count if noc.chiplet_count is not None else DEFAULT_CHIPLET_COUNT
    concentration = (
        noc.chiplet_concentration
        if noc.chiplet_concentration is not None
        else DEFAULT_CONCENTRATION
    )
    latency_increase = (
        noc.chiplet_latency_increase
        if noc.chiplet_latency_increase is not None
        else DEFAULT_LATENCY_INCREASE
    )
    io_die = noc.chiplet_io_die if noc.chiplet_io_die is not None else True
    if count < 1:
        raise ValueError(f"{CHIPLET_NAME}: chiplet count must be >= 1, got {count}")
    if config.num_cores % count:
        raise ValueError(
            f"{CHIPLET_NAME}: {config.num_cores} cores do not divide evenly "
            f"over {count} chiplets"
        )
    cores_per_chiplet = config.num_cores // count
    ccols, crows = default_mesh_dimensions(count)
    lcols, lrows = default_mesh_dimensions(cores_per_chiplet)
    if concentration < 1:
        raise ValueError(
            f"{CHIPLET_NAME}: concentration must be >= 1, got {concentration}"
        )
    if concentration > cores_per_chiplet:
        raise ValueError(
            f"{CHIPLET_NAME}: concentration {concentration} exceeds the "
            f"{cores_per_chiplet} cores per chiplet"
        )
    if cores_per_chiplet % concentration:
        raise ValueError(
            f"{CHIPLET_NAME}: {cores_per_chiplet} cores per chiplet do not "
            f"divide evenly over the concentration {concentration}"
        )
    if latency_increase < 0:
        raise ValueError(
            f"{CHIPLET_NAME}: latency increase must be >= 0, got {latency_increase}"
        )
    return ChipletParams(
        count=count,
        ccols=ccols,
        crows=crows,
        cores_per_chiplet=cores_per_chiplet,
        lcols=lcols,
        lrows=lrows,
        concentration=concentration,
        groups=cores_per_chiplet // concentration,
        latency_increase=latency_increase,
        io_die=io_die,
    )


class ChipletSystemMap(TiledSystemMap):
    """Two-level tiled layout: tile -> chiplet -> NoI.

    Logical node structure is identical to :class:`TiledSystemMap` (node
    ``i`` holds core ``i`` plus LLC slice ``i``; memory controllers follow
    the tiles) — only placement and distance accounting are chiplet-aware.
    Chiplets tile the global grid: chiplet ``k`` sits at chiplet-grid
    coordinate ``(k % ccols, k // ccols)`` and its tiles fill an
    ``lcols x lrows`` sub-grid.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.params = chiplet_params(config)
        p = self.params
        super().__init__(config, grid=(p.ccols * p.lcols, p.crows * p.lrows))

    # --- two-level placement ------------------------------------------- #
    def chiplet_of(self, node_id: int) -> int:
        """Which chiplet a tile node lives on."""
        self._check_core(node_id)
        return node_id // self.params.cores_per_chiplet

    def chiplet_coord(self, chiplet: int) -> Coordinate:
        """Chiplet-grid (NoI) coordinate of chiplet ``chiplet``."""
        if not 0 <= chiplet < self.params.count:
            raise ValueError(f"chiplet index {chiplet} out of range")
        return (chiplet % self.params.ccols, chiplet // self.params.ccols)

    def local_index(self, node_id: int) -> int:
        self._check_core(node_id)
        return node_id % self.params.cores_per_chiplet

    def local_coord(self, node_id: int) -> Coordinate:
        """Coordinate of a tile inside its own chiplet's mesh."""
        local = self.local_index(node_id)
        return (local % self.params.lcols, local // self.params.lcols)

    def tile_coord(self, node_id: int) -> Coordinate:
        cx, cy = self.chiplet_coord(self.chiplet_of(node_id))
        lx, ly = self.local_coord(node_id)
        return (cx * self.params.lcols + lx, cy * self.params.lrows + ly)

    # --- boundary routers ---------------------------------------------- #
    def boundary_group(self, node_id: int) -> int:
        """Which boundary-router group a tile belongs to (for descending)."""
        return self.local_index(node_id) // self.params.concentration

    def boundary_node(self, chiplet: int, group: int) -> int:
        """The tile whose router holds group ``group``'s uplink."""
        if not 0 <= group < self.params.groups:
            raise ValueError(f"boundary group {group} out of range")
        return (
            chiplet * self.params.cores_per_chiplet
            + group * self.params.concentration
        )

    def uplink_node_for(self, node_id: int, dst: int) -> int:
        """Boundary tile ``node_id``'s chiplet exits through to reach ``dst``.

        Destination-keyed (``dst % groups``) so every router in the chiplet
        agrees on one exit coordinate: the ascending path is plain XY toward
        a single target, which keeps the two-level routing loop-free.
        """
        return self.boundary_node(self.chiplet_of(node_id), dst % self.params.groups)

    def mc_host_chiplet(self, index: int) -> int:
        """NoI router hosting MC ``index`` when there is no IO die."""
        if not 0 <= index < self.num_memory_controllers:
            raise ValueError(f"memory controller index {index} out of range")
        return index % self.params.count

    # --- distance / hop accounting ------------------------------------- #
    def crosses_chiplet(self, a: int, b: int) -> bool:
        """Whether a message between nodes ``a`` and ``b`` leaves its die.

        Memory controllers live on the interposer (IO die or NoI routers),
        so any tile<->MC path crosses; MC<->MC traffic never enters a CPU
        chiplet.
        """
        a_tile = a < self.num_cores
        b_tile = b < self.num_cores
        if a_tile and b_tile:
            return self.chiplet_of(a) != self.chiplet_of(b)
        return a_tile != b_tile

    def hop_distance(self, a: int, b: int) -> int:
        """Routers a packet from ``a`` to ``b`` traverses (= ``packet.hops``).

        Every router on the path forwards the packet once (the last one into
        the ejection interface), so the count is link traversals plus one;
        same-node traffic never enters the network and scores 0.
        """
        if a == b:
            return 0
        p = self.params
        if a < self.num_cores and b < self.num_cores:
            if self.chiplet_of(a) == self.chiplet_of(b):
                return self._local_manhattan(a, b) + 1
            up = self.uplink_node_for(a, b)
            down = self.boundary_node(self.chiplet_of(b), self.boundary_group(b))
            noi = self._noi_manhattan(self.chiplet_of(a), self.chiplet_of(b))
            ascend = self._local_manhattan(a, up) + 1
            descend = self._local_manhattan(down, b) + 1
            return ascend + noi + descend + 1
        if a < self.num_cores:  # tile -> memory controller
            up = self.uplink_node_for(a, b)
            ascend = self._local_manhattan(a, up) + 1
            if p.io_die:
                return ascend + 2  # NoI router, IO-die router
            host = self.mc_host_chiplet(b - self.num_cores)
            return ascend + self._noi_manhattan(self.chiplet_of(a), host) + 1
        if b < self.num_cores:  # memory controller -> tile
            down = self.boundary_node(self.chiplet_of(b), self.boundary_group(b))
            descend = 1 + self._local_manhattan(down, b) + 1
            if p.io_die:
                return 1 + 1 + descend - 1  # IO die, NoI router, then descend
            host = self.mc_host_chiplet(a - self.num_cores)
            return 1 + self._noi_manhattan(host, self.chiplet_of(b)) + descend - 1
        # MC -> MC: one IO-die hop, or across the NoI between host routers.
        if p.io_die:
            return 1
        hosts = (
            self.mc_host_chiplet(a - self.num_cores),
            self.mc_host_chiplet(b - self.num_cores),
        )
        return self._noi_manhattan(*hosts) + 1

    def _local_manhattan(self, a: int, b: int) -> int:
        (ax, ay), (bx, by) = self.local_coord(a), self.local_coord(b)
        return abs(ax - bx) + abs(ay - by)

    def _noi_manhattan(self, chiplet_a: int, chiplet_b: int) -> int:
        (ax, ay), (bx, by) = self.chiplet_coord(chiplet_a), self.chiplet_coord(chiplet_b)
        return abs(ax - bx) + abs(ay - by)


class ChipletNetwork(Network):
    """Per-chiplet XY meshes bridged by an interposer mesh (plus IO die)."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        system_map: ChipletSystemMap,
        name: str = CHIPLET_NAME,
    ) -> None:
        self.map = system_map
        p = system_map.params
        super().__init__(
            sim,
            config,
            name,
            list(range(config.num_cores)) + system_map.mc_node_ids,
        )
        self.params = p
        self.tile_mm = config.tile_width_mm
        #: Interposer hop length: the width of one chiplet die.
        self.chiplet_mm = p.lcols * self.tile_mm
        self.crossing_latency = self.noc.mesh_link_latency + p.latency_increase

        self._tile_router: List[Router] = []
        self._noi_router: List[Router] = []
        self.io_router: Router = None
        self._dir_port: Dict[Tuple[int, str], int] = {}  # (tile node, direction)
        self._noi_dir_port: Dict[Tuple[int, str], int] = {}  # (chiplet, direction)
        self._eject_port: Dict[int, int] = {}  # tile node -> its router's port
        self._up_port: Dict[int, int] = {}  # boundary node -> up port
        self._down_port: Dict[Tuple[int, int], int] = {}  # (chiplet, group)
        self._noi_io_port: Dict[int, int] = {}  # chiplet -> port toward IO die
        self._io_to_noi_port: Dict[int, int] = {}  # chiplet -> IO-die port
        self._mc_eject: Dict[int, int] = {}  # mc node -> eject port on its host
        #: Crossing output ports by kind, exposed for tests and diagnostics.
        self.uplink_ports: List = []
        self.downlink_ports: List = []
        self.noi_mesh_ports: List = []
        self.io_ports: List = []

        self._build_tile_routers()
        self._build_noi_routers()
        self._build_uplinks()
        self._build_io_die()
        self._attach_interfaces()
        self._build_routing_tables()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _new_input_port(self, label: str) -> InputPort:
        return InputPort(
            num_vcs=self.noc.mesh_vcs_per_port,
            vc_depth_flits=self.noc.mesh_vc_depth_flits,
            name=label,
        )

    def _build_tile_routers(self) -> None:
        p = self.params
        for node in range(self.system.num_cores):
            chiplet = node // p.cores_per_chiplet
            lx, ly = self.map.local_coord(node)
            router = Router(
                self.sim,
                f"{self.name}.c{chiplet}.r{lx}_{ly}",
                pipeline_latency=self.noc.mesh_router_pipeline,
            )
            self._tile_router.append(router)
            self.routers.append(router)
        # Intra-chiplet mesh links (never crossing).
        for node in range(self.system.num_cores):
            chiplet = node // p.cores_per_chiplet
            lx, ly = self.map.local_coord(node)
            router = self._tile_router[node]
            for direction, (dx, dy) in _DIRECTIONS.items():
                nx, ny = lx + dx, ly + dy
                if not (0 <= nx < p.lcols and 0 <= ny < p.lrows):
                    continue
                neighbor_node = (
                    chiplet * p.cores_per_chiplet + ny * p.lcols + nx
                )
                neighbor = self._tile_router[neighbor_node]
                in_port = neighbor.add_input_port(
                    self._new_input_port(f"{neighbor.name}.in_{_opposite(direction)}")
                )
                out_port = router.add_output_port(
                    direction,
                    neighbor,
                    in_port,
                    link_latency=self.noc.mesh_link_latency,
                    link_length_mm=self.tile_mm,
                )
                self._dir_port[(node, direction)] = out_port

    def _build_noi_routers(self) -> None:
        p = self.params
        for chiplet in range(p.count):
            cx, cy = self.map.chiplet_coord(chiplet)
            router = Router(
                self.sim,
                f"{self.name}.noi{cx}_{cy}",
                pipeline_latency=self.noc.mesh_router_pipeline,
            )
            self._noi_router.append(router)
            self.routers.append(router)
        # NoI mesh links: chiplet-to-chiplet across the interposer.
        for chiplet in range(p.count):
            cx, cy = self.map.chiplet_coord(chiplet)
            router = self._noi_router[chiplet]
            for direction, (dx, dy) in _DIRECTIONS.items():
                nx, ny = cx + dx, cy + dy
                if not (0 <= nx < p.ccols and 0 <= ny < p.crows):
                    continue
                neighbor = self._noi_router[ny * p.ccols + nx]
                in_port = neighbor.add_input_port(
                    self._new_input_port(f"{neighbor.name}.in_{_opposite(direction)}")
                )
                out_port = router.add_output_port(
                    direction,
                    neighbor,
                    in_port,
                    link_latency=self.crossing_latency,
                    link_length_mm=self.chiplet_mm,
                )
                self._noi_dir_port[(chiplet, direction)] = out_port
                self.noi_mesh_ports.append(router.output_ports[out_port])

    def _build_uplinks(self) -> None:
        p = self.params
        for chiplet in range(p.count):
            noi = self._noi_router[chiplet]
            for group in range(p.groups):
                boundary_node = self.map.boundary_node(chiplet, group)
                boundary = self._tile_router[boundary_node]
                noi_in = noi.add_input_port(
                    self._new_input_port(f"{noi.name}.in_up{group}")
                )
                up = boundary.add_output_port(
                    "up",
                    noi,
                    noi_in,
                    link_latency=self.crossing_latency,
                    link_length_mm=self.tile_mm,
                )
                self._up_port[boundary_node] = up
                self.uplink_ports.append(boundary.output_ports[up])
                boundary_in = boundary.add_input_port(
                    self._new_input_port(f"{boundary.name}.in_down")
                )
                down = noi.add_output_port(
                    f"down{group}",
                    boundary,
                    boundary_in,
                    link_latency=self.crossing_latency,
                    link_length_mm=self.tile_mm,
                )
                self._down_port[(chiplet, group)] = down
                self.downlink_ports.append(noi.output_ports[down])

    def _build_io_die(self) -> None:
        p = self.params
        if not p.io_die:
            return
        self.io_router = Router(
            self.sim,
            f"{self.name}.io",
            pipeline_latency=self.noc.mesh_router_pipeline,
        )
        self.routers.append(self.io_router)
        for chiplet in range(p.count):
            noi = self._noi_router[chiplet]
            io_in = noi.add_input_port(self._new_input_port(f"{noi.name}.in_io"))
            to_noi = self.io_router.add_output_port(
                f"to_c{chiplet}",
                noi,
                io_in,
                link_latency=self.crossing_latency,
                link_length_mm=self.chiplet_mm,
            )
            self._io_to_noi_port[chiplet] = to_noi
            self.io_ports.append(self.io_router.output_ports[to_noi])
            noi_in = self.io_router.add_input_port(
                self._new_input_port(f"{self.name}.io.in_c{chiplet}")
            )
            to_io = noi.add_output_port(
                "io",
                self.io_router,
                noi_in,
                link_latency=self.crossing_latency,
                link_length_mm=self.chiplet_mm,
            )
            self._noi_io_port[chiplet] = to_io
            self.io_ports.append(noi.output_ports[to_io])

    def _attach_interfaces(self) -> None:
        p = self.params
        for node in range(self.system.num_cores):
            router = self._tile_router[node]
            interface = self.interfaces[node]
            in_port = router.add_input_port(
                self._new_input_port(f"{router.name}.in_local{node}"), is_local=True
            )
            interface.attach_router(router, in_port)
            self._eject_port[node] = router.add_output_port(
                f"eject{node}", interface, 0, link_latency=0, link_length_mm=0.0
            )
        for index in range(self.map.num_memory_controllers):
            node = self.map.mc_node(index)
            host = (
                self.io_router
                if p.io_die
                else self._noi_router[self.map.mc_host_chiplet(index)]
            )
            interface = self.interfaces[node]
            in_port = host.add_input_port(
                self._new_input_port(f"{host.name}.in_mc{index}"), is_local=True
            )
            interface.attach_router(host, in_port)
            self._mc_eject[node] = host.add_output_port(
                f"eject{node}", interface, 0, link_latency=0, link_length_mm=0.0
            )

    # ------------------------------------------------------------------ #
    # Routing tables
    # ------------------------------------------------------------------ #
    def _build_routing_tables(self) -> None:
        p = self.params
        num_cores = self.system.num_cores
        # Tile routers: per chiplet, every destination reduces to one local
        # target coordinate (the destination's own tile, or the exit
        # boundary router) plus the action once there.
        for chiplet in range(p.count):
            base = chiplet * p.cores_per_chiplet
            for local in range(p.cores_per_chiplet):
                node = base + local
                router = self._tile_router[node]
                coord = self.map.local_coord(node)
                for dst in self.node_ids:
                    if dst < num_cores and dst // p.cores_per_chiplet == chiplet:
                        target = self.map.local_coord(dst)
                        terminal = self._eject_port[dst]
                    else:
                        exit_node = self.map.boundary_node(chiplet, dst % p.groups)
                        target = self.map.local_coord(exit_node)
                        terminal = self._up_port[exit_node]
                    if coord == target:
                        router.set_route(dst, terminal)
                    else:
                        router.set_route(dst, self._xy_port(node, coord, target))
        # NoI routers: descend into the home chiplet, traverse the
        # interposer mesh, or hand off to the IO die / host router.
        for chiplet in range(p.count):
            router = self._noi_router[chiplet]
            coord = self.map.chiplet_coord(chiplet)
            for dst in self.node_ids:
                if dst < num_cores:
                    dst_chiplet = dst // p.cores_per_chiplet
                    if dst_chiplet == chiplet:
                        group = self.map.boundary_group(dst)
                        router.set_route(dst, self._down_port[(chiplet, group)])
                    else:
                        target = self.map.chiplet_coord(dst_chiplet)
                        router.set_route(dst, self._noi_xy_port(chiplet, coord, target))
                elif p.io_die:
                    router.set_route(dst, self._noi_io_port[chiplet])
                else:
                    host = self.map.mc_host_chiplet(dst - num_cores)
                    if host == chiplet:
                        router.set_route(dst, self._mc_eject[dst])
                    else:
                        target = self.map.chiplet_coord(host)
                        router.set_route(dst, self._noi_xy_port(chiplet, coord, target))
        # IO die: every chiplet one hop away, MCs eject locally.
        if self.io_router is not None:
            for dst in self.node_ids:
                if dst < num_cores:
                    self.io_router.set_route(
                        dst, self._io_to_noi_port[dst // p.cores_per_chiplet]
                    )
                else:
                    self.io_router.set_route(dst, self._mc_eject[dst])

    def _xy_port(self, node: int, coord: Coordinate, target: Coordinate) -> int:
        """XY inside a chiplet: correct the column first, then the row."""
        if target[0] > coord[0]:
            return self._dir_port[(node, "E")]
        if target[0] < coord[0]:
            return self._dir_port[(node, "W")]
        if target[1] > coord[1]:
            return self._dir_port[(node, "S")]
        return self._dir_port[(node, "N")]

    def _noi_xy_port(self, chiplet: int, coord: Coordinate, target: Coordinate) -> int:
        """XY across the interposer mesh."""
        if target[0] > coord[0]:
            return self._noi_dir_port[(chiplet, "E")]
        if target[0] < coord[0]:
            return self._noi_dir_port[(chiplet, "W")]
        if target[1] > coord[1]:
            return self._noi_dir_port[(chiplet, "S")]
        return self._noi_dir_port[(chiplet, "N")]

    # ------------------------------------------------------------------ #
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------ #
    def tile_router(self, node_id: int) -> Router:
        return self._tile_router[node_id]

    def noi_router(self, chiplet: int) -> Router:
        return self._noi_router[chiplet]

    def crossing_ports(self) -> List:
        """Every output port whose link crosses a die boundary."""
        return (
            self.uplink_ports
            + self.downlink_ports
            + self.noi_mesh_ports
            + self.io_ports
        )


# --------------------------------------------------------------------------- #
# Static description for the area/power models
# --------------------------------------------------------------------------- #
def chiplet_grid_geometry(config: SystemConfig) -> GridGeometry:
    """Geometry of the global tile grid (chiplets tiled edge to edge)."""
    p = chiplet_params(config)
    return GridGeometry(p.ccols * p.lcols, p.crows * p.lrows, config.tile_width_mm)


def describe_chiplet(config: SystemConfig) -> TopologyDescriptor:
    """Static inventory: tile meshes, boundary uplinks, NoI mesh, IO die."""
    noc = config.noc
    p = chiplet_params(config)
    tile_mm = config.tile_width_mm
    chiplet_mm = p.lcols * tile_mm
    boundary_count = p.count * p.groups
    routers = [
        RouterSpec(
            count=p.count * p.cores_per_chiplet - boundary_count,
            ports=5,  # N/S/E/W + local
            vcs_per_port=noc.mesh_vcs_per_port,
            vc_depth_flits=noc.mesh_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=False,
            label="chiplet tile router",
        ),
        RouterSpec(
            count=boundary_count,
            ports=6,  # mesh ports + local + uplink
            vcs_per_port=noc.mesh_vcs_per_port,
            vc_depth_flits=noc.mesh_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=False,
            label="chiplet boundary router",
        ),
        RouterSpec(
            count=p.count,
            ports=4 + p.groups + 1,  # NoI mesh + downlinks + IO/MC side
            vcs_per_port=noc.mesh_vcs_per_port,
            vc_depth_flits=noc.mesh_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=True,
            label="interposer (NoI) router",
        ),
    ]
    if p.io_die:
        routers.append(
            RouterSpec(
                count=1,
                ports=p.count + config.num_memory_controllers,
                vcs_per_port=noc.mesh_vcs_per_port,
                vc_depth_flits=noc.mesh_vc_depth_flits,
                flit_width_bits=noc.link_width_bits,
                uses_sram_buffers=True,
                label="IO-die router",
            )
        )
    routers = [spec for spec in routers if spec.count > 0]
    horizontal = (p.lcols - 1) * p.lrows
    vertical = p.lcols * (p.lrows - 1)
    links = [
        LinkSpec(
            count=p.count * 2 * (horizontal + vertical),
            length_mm=tile_mm,
            width_bits=noc.link_width_bits,
            label="chiplet mesh link",
        ),
        LinkSpec(
            count=2 * boundary_count,
            length_mm=tile_mm,
            width_bits=noc.link_width_bits,
            label="interposer via (up/down) link",
        ),
    ]
    noi_horizontal = (p.ccols - 1) * p.crows
    noi_vertical = p.ccols * (p.crows - 1)
    if noi_horizontal + noi_vertical:
        links.append(
            LinkSpec(
                count=2 * (noi_horizontal + noi_vertical),
                length_mm=chiplet_mm,
                width_bits=noc.link_width_bits,
                label="interposer (NoI) link",
            )
        )
    if p.io_die:
        links.append(
            LinkSpec(
                count=2 * p.count,
                length_mm=chiplet_mm,
                width_bits=noc.link_width_bits,
                label="IO-die link",
            )
        )
    return TopologyDescriptor(CHIPLET_NAME, routers, links)


# --------------------------------------------------------------------------- #
# System preset + plugin registration
# --------------------------------------------------------------------------- #
def chiplet_system(
    num_cores: int = 1024,
    link_width_bits: int = 128,
    seed: int = 42,
    chiplet_count: int = DEFAULT_CHIPLET_COUNT,
    concentration: int = DEFAULT_CONCENTRATION,
    latency_increase: int = DEFAULT_LATENCY_INCREASE,
    io_die: bool = True,
) -> SystemConfig:
    """Chiplet CMP preset (Table 1 chip, chiplet/NoI interconnect)."""
    noc = NocConfig(
        topology=CHIPLET_NAME,
        link_width_bits=link_width_bits,
        chiplet_count=chiplet_count,
        chiplet_concentration=concentration,
        chiplet_latency_increase=latency_increase,
        chiplet_io_die=io_die,
    )
    config = SystemConfig(num_cores=num_cores, noc=noc, seed=seed)
    chiplet_params(config)  # validate the whole geometry up front
    return config


@register_topology(CHIPLET_NAME)
class ChipletFabric:
    """Hierarchical chiplet + network-on-interposer fabric."""

    name = CHIPLET_NAME

    def build_system(self, num_cores: int = 1024, **kwargs) -> SystemConfig:
        return chiplet_system(num_cores=num_cores, **kwargs)

    def build_system_map(self, config: SystemConfig) -> ChipletSystemMap:
        return ChipletSystemMap(config)

    def build_network(
        self, sim: Simulator, config: SystemConfig, system_map: SystemMap
    ) -> ChipletNetwork:
        if not isinstance(system_map, ChipletSystemMap):
            raise TypeError(f"{self.name} requires a ChipletSystemMap")
        return ChipletNetwork(sim, config, system_map, name=CHIPLET_NAME)

    def describe(self, config: SystemConfig) -> TopologyDescriptor:
        return describe_chiplet(config)


def _opposite(direction: str) -> str:
    return {"E": "W", "W": "E", "N": "S", "S": "N"}[direction]
