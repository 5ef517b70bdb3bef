"""Island-style heterogeneous FPGA architecture model.

The model mirrors the floorplan in Figure 2 of the paper: a W x H grid of
logic tiles ringed by I/O pads (eight ports per pad), with dedicated memory
and multiplier columns among the CLB columns, and routing channels running
between all rows and columns.

Grid coordinates: interior tiles occupy ``x in 1..width``, ``y in 1..height``;
the I/O ring sits at ``x in {0, width+1}`` and ``y in {0, height+1}`` (corners
are empty).  ``y`` grows upward; image rendering flips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # import at runtime would cycle: the router imports this
    from repro.fpga.router import ChannelGraph


class BlockType(str, Enum):
    """Block categories, one per color in the paper's Table 1 scheme."""

    CLB = "clb"
    IO = "io"
    MEM = "mem"
    MUL = "mul"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Site(object):
    """A legal anchor location: grid tile plus subtile slot.

    I/O pads hold up to ``io_capacity`` blocks (``subtile`` selects the port);
    all other sites hold one block at ``subtile=0``.  Memory and multiplier
    blocks anchor at ``(x, y)`` and span ``height`` rows upward.
    """

    x: int
    y: int
    subtile: int = 0


class FpgaArchitecture:
    """Heterogeneous FPGA floorplan and site compatibility oracle."""

    def __init__(
        self,
        width: int,
        height: int | None = None,
        io_capacity: int = 8,
        mem_columns: tuple[int, ...] = (),
        mul_columns: tuple[int, ...] = (),
        mem_height: int = 2,
        mul_height: int = 2,
        channel_width: int = 24,
    ):
        height = width if height is None else height
        if width < 3 or height < 3:
            raise ValueError(f"grid must be at least 3x3, got {width}x{height}")
        if io_capacity < 1:
            raise ValueError("io_capacity must be >= 1")
        for col in (*mem_columns, *mul_columns):
            if not 1 <= col <= width:
                raise ValueError(f"special column {col} outside 1..{width}")
        if set(mem_columns) & set(mul_columns):
            raise ValueError("a column cannot be both memory and multiplier")
        if mem_height < 1 or mul_height < 1:
            raise ValueError("block heights must be >= 1")
        if channel_width < 1:
            raise ValueError("channel_width must be >= 1")

        self.width = width
        self.height = height
        self.io_capacity = io_capacity
        self.mem_columns = tuple(sorted(mem_columns))
        self.mul_columns = tuple(sorted(mul_columns))
        self.mem_height = mem_height
        self.mul_height = mul_height
        self.channel_width = channel_width

    # -- column / tile classification ---------------------------------------

    def column_type(self, x: int) -> BlockType:
        """Block type hosted by interior column ``x``."""
        if not 1 <= x <= self.width:
            raise ValueError(f"column {x} outside interior 1..{self.width}")
        if x in self.mem_columns:
            return BlockType.MEM
        if x in self.mul_columns:
            return BlockType.MUL
        return BlockType.CLB

    def block_height(self, block_type: BlockType) -> int:
        """Rows spanned by a block of the given type."""
        if block_type is BlockType.MEM:
            return self.mem_height
        if block_type is BlockType.MUL:
            return self.mul_height
        return 1

    def is_io_tile(self, x: int, y: int) -> bool:
        """True for perimeter (non-corner) pad locations."""
        on_x_edge = x in (0, self.width + 1)
        on_y_edge = y in (0, self.height + 1)
        if on_x_edge and on_y_edge:
            return False  # corners hold no pads
        if on_x_edge:
            return 1 <= y <= self.height
        if on_y_edge:
            return 1 <= x <= self.width
        return False

    # -- site enumeration -----------------------------------------------------

    @cached_property
    def io_sites(self) -> tuple[Site, ...]:
        sites = []
        for x in range(1, self.width + 1):
            for y in (0, self.height + 1):
                sites.extend(Site(x, y, sub) for sub in range(self.io_capacity))
        for y in range(1, self.height + 1):
            for x in (0, self.width + 1):
                sites.extend(Site(x, y, sub) for sub in range(self.io_capacity))
        return tuple(sites)

    @cached_property
    def clb_sites(self) -> tuple[Site, ...]:
        return tuple(
            Site(x, y)
            for x in range(1, self.width + 1)
            if self.column_type(x) is BlockType.CLB
            for y in range(1, self.height + 1)
        )

    @cached_property
    def mem_sites(self) -> tuple[Site, ...]:
        return self._macro_sites(self.mem_columns, self.mem_height)

    @cached_property
    def mul_sites(self) -> tuple[Site, ...]:
        return self._macro_sites(self.mul_columns, self.mul_height)

    @cached_property
    def channel_graph(self) -> ChannelGraph:
        """The routing-channel graph, built once and shared by every router
        on this architecture (:class:`repro.fpga.router.ChannelGraph`).

        It holds the channel width as of its first read: route another
        width on a new architecture, as ``estimate_channel_width`` does.
        """
        from repro.fpga.router import ChannelGraph

        return ChannelGraph(self)

    def _macro_sites(self, columns: tuple[int, ...], block_height: int
                     ) -> tuple[Site, ...]:
        """Anchors for multi-row blocks, quantized so slots never overlap."""
        sites = []
        for x in columns:
            y = 1
            while y + block_height - 1 <= self.height:
                sites.append(Site(x, y))
                y += block_height
        return tuple(sites)

    def sites_for(self, block_type: BlockType) -> tuple[Site, ...]:
        """All anchor sites able to host blocks of ``block_type``."""
        return {
            BlockType.IO: self.io_sites,
            BlockType.CLB: self.clb_sites,
            BlockType.MEM: self.mem_sites,
            BlockType.MUL: self.mul_sites,
        }[block_type]

    def capacity(self, block_type: BlockType) -> int:
        """Total number of blocks of a type the architecture can host."""
        return len(self.sites_for(block_type))

    def site_block_type(self, site: Site) -> BlockType:
        """Block type hosted at a site (IO ring or interior column type)."""
        if self.is_io_tile(site.x, site.y):
            return BlockType.IO
        return self.column_type(site.x)

    def compatible(self, block_type: BlockType, site: Site) -> bool:
        """True when a block of ``block_type`` may anchor at ``site``."""
        if self.is_io_tile(site.x, site.y):
            return (block_type is BlockType.IO
                    and 0 <= site.subtile < self.io_capacity)
        if site.subtile != 0:
            return False
        if not (1 <= site.x <= self.width and 1 <= site.y <= self.height):
            return False
        if self.column_type(site.x) is not block_type:
            return False
        span = self.block_height(block_type)
        return (site.y - 1) % span == 0 and site.y + span - 1 <= self.height


def paper_architecture(width: int, height: int | None = None,
                       io_capacity: int = 8,
                       channel_width: int = 24) -> FpgaArchitecture:
    """Architecture in the style of the paper's Figure 2 floorplan.

    For an 8-wide grid this yields a memory column at x=3 and a multiplier
    column at x=7, exactly the motivating example; wider grids repeat the
    pattern with period 10.
    """
    height = width if height is None else height
    mem_columns = tuple(x for x in range(3, width + 1, 10))
    mul_columns = tuple(x for x in range(7, width + 1, 10) if x not in mem_columns)
    return FpgaArchitecture(
        width=width,
        height=height,
        io_capacity=io_capacity,
        mem_columns=mem_columns,
        mul_columns=mul_columns,
        mem_height=2,
        mul_height=2,
        channel_width=channel_width,
    )
