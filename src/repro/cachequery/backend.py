"""CacheQuery backend: the kernel-module stand-in (Section 4.2, 4.3).

The backend owns everything that requires privileged, low-level control on
real hardware:

* **address selection** — it builds a pool of physical addresses that are
  congruent in the targeted (level, slice, set); abstract MBL blocks
  ``A, B, C, ...`` map to pool entries;
* **cache filtering** — before an access aimed at L2/L3, the block is evicted
  from every closer level by touching per-level eviction sets (addresses
  congruent with the block in the closer level but not in the target level),
  so the access really exercises — and is served by — the target level;
* **code generation** — queries are "compiled" into a pseudo-assembly
  listing (``movabs`` loads serialised by fences plus ``rdtsc`` profiling),
  mirroring the real module's generated code;
* **profiling and noise suppression** — profiled accesses are timed, the
  whole query is executed several times, and per-position majority voting
  removes measurement outliers;
* **interference control** — the hardware prefetcher is disabled for the
  duration of a query.

On real hardware the tool validates its eviction sets by timing; here the
validation loop uses the simulator's ``probe_level`` peek, which plays the
same role (retry until the block has left the closer levels) without
changing what the measured query observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.cacheset import HIT, MISS
from repro.cachequery.classification import HitMissClassifier
from repro.errors import CacheQueryError
from repro.hardware.cpu import SimulatedCPU
from repro.mbl.ast import FLUSH_TAG, PROFILE_TAG, Query
from repro.polca.interfaces import default_block_names

#: Blocks beyond the target's associativity in each target's address pool.
POOL_EXTRA_BLOCKS = 8


@dataclass
class BackendConfig:
    """Tunables of the backend measurement procedure."""

    repetitions: int = 3
    eviction_extra_ways: int = 2
    eviction_rounds: int = 4
    profile_with_counters: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise CacheQueryError("repetitions must be >= 1")
        if self.eviction_extra_ways < 0:
            raise CacheQueryError("eviction_extra_ways must be >= 0")
        if self.eviction_rounds < 1:
            raise CacheQueryError("eviction_rounds must be >= 1")


@dataclass
class _TargetContext:
    """Everything the backend resolved for the currently selected cache set."""

    level: str
    set_index: int
    slice_index: int
    associativity: int
    closer_levels: Tuple[str, ...]
    pool: Dict[str, int] = field(default_factory=dict)
    eviction_sets: Dict[Tuple[int, str], List[int]] = field(default_factory=dict)


class CacheQueryBackend:
    """Executes concrete MBL queries against one cache set of a simulated CPU."""

    def __init__(self, cpu: SimulatedCPU, config: Optional[BackendConfig] = None) -> None:
        self.cpu = cpu
        self.config = config or BackendConfig()
        self._context: Optional[_TargetContext] = None
        self._classifier: Optional[HitMissClassifier] = None
        self.executed_queries = 0
        self.executed_loads = 0

    # ------------------------------------------------------------- targeting

    def configure_target(self, level: str, set_index: int, slice_index: int = 0) -> None:
        """Select the cache set all subsequent queries are aimed at."""
        cache = self.cpu.hierarchy.level(level)
        mapper = cache.mapper
        if not 0 <= set_index < mapper.sets_per_slice:
            raise CacheQueryError(
                f"set index {set_index} out of range for {level} "
                f"(0..{mapper.sets_per_slice - 1})"
            )
        if not 0 <= slice_index < mapper.slices:
            raise CacheQueryError(
                f"slice {slice_index} out of range for {level} (0..{mapper.slices - 1})"
            )
        associativity = cache.effective_associativity
        pool_size = associativity + POOL_EXTRA_BLOCKS
        addresses = mapper.congruent_addresses(set_index, slice_index, pool_size)
        names = default_block_names(pool_size)
        levels = self.cpu.hierarchy.level_names()
        context = _TargetContext(
            level=level,
            set_index=set_index,
            slice_index=slice_index,
            associativity=associativity,
            closer_levels=levels[: levels.index(level)],
            pool=dict(zip(names, addresses)),
        )
        self._context = context
        self._classifier = HitMissClassifier(self.cpu.timing.hit_threshold(level))

    def _require_context(self) -> _TargetContext:
        if self._context is None:
            raise CacheQueryError("no target configured; call configure_target() first")
        return self._context

    @property
    def target_level(self) -> str:
        """Name of the currently targeted cache level."""
        return self._require_context().level

    @property
    def associativity(self) -> int:
        """Effective associativity (after CAT) of the targeted set."""
        return self._require_context().associativity

    def pool_blocks(self) -> Tuple[str, ...]:
        """Abstract block names available for queries against the current target."""
        return tuple(self._require_context().pool)

    def block_address(self, block: str) -> int:
        """Physical address backing an abstract block of the current pool."""
        context = self._require_context()
        try:
            return context.pool[block]
        except KeyError:
            raise CacheQueryError(
                f"block {block!r} is not part of the pool for {context.level} "
                f"set {context.set_index}"
            ) from None

    # ------------------------------------------------------- cache filtering

    def _eviction_addresses(self, block_address: int, closer_level: str) -> List[int]:
        context = self._require_context()
        key = (block_address, closer_level)
        cached = context.eviction_sets.get(key)
        if cached is not None:
            return cached
        closer_cache = self.cpu.hierarchy.level(closer_level)
        closer_mapper = closer_cache.mapper
        target_mapper = self.cpu.hierarchy.level(context.level).mapper
        target_location = (context.slice_index, context.set_index)
        own_slice, own_set = closer_mapper.locate(block_address)
        wanted = closer_cache.nominal_associativity + self.config.eviction_extra_ways
        pool_addresses = set(context.pool.values())
        candidates = closer_mapper.congruent_addresses(own_set, own_slice, wanted * 4)
        selected: List[int] = []
        for candidate in candidates:
            if candidate == block_address or candidate in pool_addresses:
                continue
            if target_mapper.locate(candidate) == target_location:
                continue
            selected.append(candidate)
            if len(selected) >= wanted:
                break
        if len(selected) < wanted:
            raise CacheQueryError(
                f"could not build a non-interfering {closer_level} eviction set"
            )
        context.eviction_sets[key] = selected
        return selected

    def _filter_closer_levels(self, context: _TargetContext, block_address: int) -> None:
        """Evict the block from every level closer to the core than the target.

        Each round loads the eviction set of the closest level still holding
        the block; the block is checked again after every round, the last
        one included, and only a block still held after ``eviction_rounds``
        rounds is an error.
        """
        rounds = self.config.eviction_rounds
        holder = self.cpu.hierarchy.peek(block_address)
        while holder in context.closer_levels:
            if rounds == 0:
                raise CacheQueryError(
                    f"failed to evict block {block_address:#x} from the levels above "
                    f"{context.level}"
                )
            rounds -= 1
            for address in self._eviction_addresses(block_address, holder):
                self.cpu.load_physical(address)
                self.executed_loads += 1
            holder = self.cpu.hierarchy.peek(block_address)

    # -------------------------------------------------------------- execution

    def generate_code(self, query: Query) -> str:
        """Return the pseudo-assembly the real backend would emit for ``query``."""
        context = self._require_context()
        lines = ["; CacheQuery generated code", "xor r10, r10  ; hit/miss bitmask"]
        bit = 0
        for operation in query:
            address = self.block_address(operation.block)
            if operation.flush:
                lines.append(f"clflush [{address:#x}]  ; {operation.block}!")
                continue
            if operation.profiled:
                lines.append("mfence")
                lines.append("rdtsc")
                lines.append("mov r8, rax")
            lines.append(f"movabs rax, qword [{address:#x}]  ; {operation.block}")
            lines.append("mfence")
            if operation.profiled:
                lines.append("rdtsc")
                lines.append("sub rax, r8")
                lines.append(f"mov r11, {1 << bit:#x}  ; mask for bit {bit}")
                lines.append("xor r9, r9")
                lines.append(f"cmp rax, {int(self.cpu.timing.hit_threshold(context.level))}")
                lines.append(f"cmovb r9, r11  ; r9 = mask when bit {bit} is a hit")
                lines.append("or r10, r9  ; accumulate into the hit/miss bitmask")
                bit += 1
        lines.append("ret")
        return "\n".join(lines)

    def _execute_once(self, query: Query) -> List[str]:
        context = self._require_context()
        pool = context.pool
        cpu = self.cpu
        counters = self.config.profile_with_counters
        outcomes: List[str] = []
        for operation in query:
            tag = operation.tag
            address = pool.get(operation.block)
            if address is None:
                self.block_address(operation.block)  # raises, naming the block
            if tag == FLUSH_TAG:
                cpu.clflush_physical(address)
                continue
            if context.closer_levels:
                self._filter_closer_levels(context, address)
            if tag != PROFILE_TAG:
                cpu.load_physical(address)
            elif counters:
                holder_before = cpu.hierarchy.peek(address)
                cpu.load_physical(address)
                outcomes.append(HIT if holder_before == context.level else MISS)
            else:
                outcomes.append(self._classifier.classify(cpu.load_physical(address)))
            self.executed_loads += 1
        return outcomes

    def execute(self, query: Query) -> Tuple[str, ...]:
        """Execute one concrete query; return one Hit/Miss verdict per ``?`` block.

        The query is run ``repetitions`` times and each profiled position is
        decided by majority vote, which suppresses timing outliers.
        """
        if not query:
            raise CacheQueryError("cannot execute an empty query")
        self._require_context()
        previous_prefetcher = self.cpu.prefetcher.enabled
        self.cpu.set_prefetcher(False)
        try:
            runs = [self._execute_once(query) for _ in range(self.config.repetitions)]
        finally:
            self.cpu.set_prefetcher(previous_prefetcher)
        self.executed_queries += 1
        lengths = {len(run) for run in runs}
        if len(lengths) != 1:
            raise CacheQueryError("inconsistent profile lengths across repetitions")
        verdicts: List[str] = []
        for position in range(lengths.pop()):
            votes = [run[position] for run in runs]
            verdicts.append(HIT if votes.count(HIT) * 2 > len(votes) else MISS)
        return tuple(verdicts)
