"""Virtual memory layout of a unikernel context.

Every UC built from the same runtime uses an *identical* virtual layout
— that uniformity (identical IP/MAC, identical addresses) is what makes
snapshots deployable anywhere and pages shareable across thousands of
instances.  The layout names the extents each lifecycle stage writes;
region sizes are the calibration knobs that reproduce Table 1's
snapshot sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import ConfigError
from repro.units import pages_to_mb

#: Regions are aligned to 2 MiB boundaries (512 pages), like the large
#: extents rumprun's allocator hands out.
REGION_ALIGN_PAGES = 512


@dataclass(frozen=True)
class Region:
    """A named extent of virtual pages ``[start, start + npages)``."""

    name: str
    start: int
    npages: int

    @property
    def stop(self) -> int:
        return self.start + self.npages

    @property
    def size_mb(self) -> float:
        return pages_to_mb(self.npages)

    def span(self) -> Tuple[int, int]:
        return (self.start, self.stop)


class MemoryLayout:
    """Sequentially allocated, aligned, named regions."""

    def __init__(self) -> None:
        #: The regions by name, in layout order.  Read-only once the
        #: layout is built; index it where the name is known to exist
        #: (:meth:`region` raises ``ConfigError`` for an unknown one).
        self.regions: Dict[str, Region] = {}
        self._cursor = 0

    def add(self, name: str, npages: int) -> Region:
        """Append a region of ``npages`` pages at the next aligned slot."""
        if name in self.regions:
            raise ConfigError(f"duplicate region {name!r}")
        if npages <= 0:
            raise ConfigError(f"region {name!r} must have positive size")
        start = self._cursor
        region = Region(name=name, start=start, npages=npages)
        self.regions[name] = region
        end = start + npages
        # Round the cursor up to the next alignment boundary.
        self._cursor = -(-end // REGION_ALIGN_PAGES) * REGION_ALIGN_PAGES
        return region

    def region(self, name: str) -> Region:
        try:
            return self.regions[name]
        except KeyError:
            raise ConfigError(f"unknown region {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.regions

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions.values())

    @property
    def total_pages(self) -> int:
        """Pages covered by regions (excluding alignment gaps)."""
        return sum(region.npages for region in self.regions.values())

    @property
    def span_pages(self) -> int:
        """Total virtual span including alignment gaps."""
        return self._cursor

    def __repr__(self) -> str:
        names = ", ".join(self.regions)
        return f"MemoryLayout({names})"
