"""Address decomposition: line offset, set index and slice hash.

Intel caches are physically indexed: a physical address is split into

``| tag | set index | line offset |``

and, for the sliced last-level cache, an undocumented hash of the high
address bits selects the slice.  This module provides the
:class:`AddressMapper`, which performs the decomposition for a configurable
geometry, and :func:`slice_hash`, a parity-based hash in the style recovered
by Maurice et al. (RAID'15) and Irazoqui et al. for 2/4/8-slice CPUs.

The mapping is deliberately simple but structurally faithful: congruent
addresses (same set, same slice) exist for every set, the hash mixes high
bits, and two addresses with the same set index can land in different slices
— which is exactly the complexity CacheQuery hides from its users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import AddressingError

#: Number of bits covered by a 64-byte cache line.
LINE_OFFSET_BITS = 6
LINE_SIZE = 1 << LINE_OFFSET_BITS


def _parity(value: int) -> int:
    """Return the parity (XOR of all bits) of ``value``."""
    parity = 0
    while value:
        parity ^= value & 1
        value >>= 1
    return parity


# Slice-hash masks in the spirit of the reverse-engineered Intel functions.
# Each mask selects the physical-address bits XORed together to produce one
# bit of the slice id.  The exact constants differ across CPUs; what matters
# for the simulation is that the function spreads congruent set indexes
# across slices, which these masks do.
_SLICE_HASH_MASKS: Tuple[int, ...] = (
    0x1B5F575440,
    0x2EB5FAA880,
    0x3CCCC93100,
)


def slice_hash(physical_address: int, slices: int) -> int:
    """Return the slice id of ``physical_address`` for a cache with ``slices`` slices."""
    if slices < 1:
        raise AddressingError(f"slice count must be >= 1, got {slices}")
    if slices == 1:
        return 0
    bits_needed = (slices - 1).bit_length()
    if slices & (slices - 1) != 0:
        raise AddressingError(f"slice count must be a power of two, got {slices}")
    slice_id = 0
    for bit in range(bits_needed):
        mask = _SLICE_HASH_MASKS[bit % len(_SLICE_HASH_MASKS)]
        slice_id |= _parity(physical_address & mask) << bit
    return slice_id % slices


@dataclass(frozen=True)
class AddressMapper:
    """Decomposes physical addresses for one cache level.

    Parameters
    ----------
    sets_per_slice:
        Number of sets in each slice (power of two).
    slices:
        Number of slices (power of two; 1 for L1/L2 on the CPUs of Table 3).
    line_offset_bits:
        log2 of the line size; 6 for all modern Intel CPUs.

    :meth:`locate` memoizes its answer per address.  Cache levels keep their
    own per-address route (see :class:`~repro.cache.cache.SetAssociativeCache`),
    so loads no longer reach this memo; it serves each route's first lookup
    and the CacheQuery backend's eviction-set search.  The memo takes no part
    in equality, hashing or ``repr``.
    """

    sets_per_slice: int
    slices: int = 1
    line_offset_bits: int = LINE_OFFSET_BITS
    _locations: Dict[int, Tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.sets_per_slice < 1 or self.sets_per_slice & (self.sets_per_slice - 1) != 0:
            raise AddressingError(
                f"sets_per_slice must be a power of two, got {self.sets_per_slice}"
            )
        if self.slices < 1 or self.slices & (self.slices - 1) != 0:
            raise AddressingError(f"slices must be a power of two, got {self.slices}")

    @property
    def total_sets(self) -> int:
        """Total number of sets across all slices."""
        return self.sets_per_slice * self.slices

    def set_index(self, physical_address: int) -> int:
        """Return the set index (within a slice) of ``physical_address``."""
        return (physical_address >> self.line_offset_bits) % self.sets_per_slice

    def slice_index(self, physical_address: int) -> int:
        """Return the slice id of ``physical_address``."""
        return slice_hash(physical_address, self.slices)

    def locate(self, physical_address: int) -> Tuple[int, int]:
        """Return ``(slice, set_index)`` for ``physical_address``."""
        location = self._locations.get(physical_address)
        if location is None:
            location = self._locations[physical_address] = (
                self.slice_index(physical_address),
                self.set_index(physical_address),
            )
        return location

    def block_id(self, physical_address: int) -> int:
        """Return the memory-block id (the address with the line offset stripped)."""
        return physical_address >> self.line_offset_bits

    def congruent_addresses(
        self,
        set_index: int,
        slice_index: int,
        count: int,
        *,
        start: int = 0,
        stride_sets: int | None = None,
    ) -> List[int]:
        """Return ``count`` distinct physical addresses mapping to the given set and slice.

        Candidate addresses are generated by sweeping the tag bits and
        filtering by the slice hash; because the hash is balanced this finds
        congruent addresses quickly.  ``start`` allows callers to skip the
        first candidates (to obtain disjoint pools).
        """
        if not 0 <= set_index < self.sets_per_slice:
            raise AddressingError(
                f"set index {set_index} out of range [0, {self.sets_per_slice})"
            )
        if not 0 <= slice_index < self.slices:
            raise AddressingError(f"slice {slice_index} out of range [0, {self.slices})")
        stride = (stride_sets or self.sets_per_slice) << self.line_offset_bits
        base = set_index << self.line_offset_bits
        found: List[int] = []
        tag = 0
        skipped = 0
        # The scan is bounded generously: with a balanced hash roughly a
        # 1/slices fraction of candidates match.
        limit = (count + start + 4) * self.slices * 8 + 1024
        while len(found) < count and tag < limit:
            address = base + tag * stride
            if self.slice_index(address) == slice_index:
                if skipped < start:
                    skipped += 1
                else:
                    found.append(address)
            tag += 1
        if len(found) < count:
            raise AddressingError(
                f"could not find {count} congruent addresses for set {set_index}, "
                f"slice {slice_index}"
            )
        return found
