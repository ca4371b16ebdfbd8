"""Cache substrates: single sets, whole caches, and multi-level hierarchies.

``repro.cache.cacheset`` implements the cache model of Definition 2.3 (a
labelled transition system induced by a replacement policy) and is the
substrate behind both the software-simulated caches of Section 6 and the
per-set storage of the simulated CPUs of Section 7.

The remaining modules provide the pieces a real memory hierarchy adds on
top of a single set: set indexing and slice hashing
(:mod:`repro.cache.addressing`), full set-associative caches
(:mod:`repro.cache.cache`), inclusive multi-level hierarchies
(:mod:`repro.cache.hierarchy`), Intel CAT way masking (:mod:`repro.cache.cat`)
and the set-dueling adaptive policies of Appendix B
(:mod:`repro.cache.adaptive`).
"""

from repro.cache.cacheset import HIT, MISS, CacheSet
from repro.cache.addressing import AddressMapper, slice_hash
from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, CacheLevelConfig
from repro.cache.adaptive import AdaptiveSetSelector, SetDuelingController
from repro.cache.cat import CATConfig

__all__ = [
    "HIT",
    "MISS",
    "CacheSet",
    "AddressMapper",
    "slice_hash",
    "SetAssociativeCache",
    "CacheHierarchy",
    "CacheLevelConfig",
    "AdaptiveSetSelector",
    "SetDuelingController",
    "CATConfig",
]
