"""The tabulated simulator kernel: flat-array policy execution for the hot loop.

The simulated oracle used to answer every policy symbol by stepping a
pure-Python :class:`~repro.cache.cacheset.CacheSet` one block at a time —
the inner loop that dominates every Table 2 wall clock.  This subsystem
replaces that loop for bounded policies:

* :mod:`~repro.simkernel.tables` compiles any registered policy into dense
  ``next_state`` / ``output`` transition arrays via the existing
  ``to_mealy`` enumeration;
* :mod:`~repro.simkernel.batch` holds the :class:`BatchSimulator`, which
  owns one such table and steps whole chunks of policy words through its
  flat tuples.

Consumers choose between this tabulated path and the scalar stepper with
the ``kernel=`` knob threaded through
:class:`~repro.polca.algorithm.PolcaMembershipOracle`,
:func:`~repro.polca.pipeline.learn_policy_from_cache` and the experiment
CLI (``--kernel``, choices :data:`~repro.polca.algorithm.POLCA_KERNELS`);
a :class:`~repro.learning.parallel.WorkerPool` ships Polca to its workers
with the kernel already bound.  Answers and statistics are bit-identical
across both by construction, a property ``tests/test_property_fuzz.py``
enforces.
"""

from repro.simkernel.batch import BatchSimulator
from repro.simkernel.tables import (
    DEFAULT_STATE_BOUND,
    TabulatedPolicy,
    tabulate_policy,
)

__all__ = [
    "BatchSimulator",
    "DEFAULT_STATE_BOUND",
    "TabulatedPolicy",
    "tabulate_policy",
]
