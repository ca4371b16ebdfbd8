"""Process-parallel query execution: oracle factories, pool workers, and the
shared :class:`WorkerPool`.

Membership queries dominate every learning run the paper reports: the
observation-table fill stages one batch of ``(prefix, suffix)`` words per
stabilisation round, and conformance testing executes a Wp-suite that grows
with ``|H|`` and exponentially with the test depth ``k``.  Both sides'
words are independent of each other — the classic embarrassingly parallel
shape.  The missing piece for a
:class:`concurrent.futures.ProcessPoolExecutor` is that worker processes
cannot share the live system under learning: a simulator oracle holds
mutable state and (for the hardware path) a whole simulated CPU.

This module closes that gap with *oracle factories*: small picklable
descriptions of how to rebuild a fresh membership oracle inside a worker
process.  The pool is created with the factory as its initializer argument,
so every worker builds its system under test exactly once and then executes
the word chunks it is shipped — exactly those words, nothing deduped.

:class:`WorkerPool` bundles the executor, the factory and the per-worker
accounting.  It is handed to the query engine
(:class:`~repro.learning.oracles.CachedMembershipOracle`, ``pool=``), which
decides what to ship: its batches (the L* table fill, the TTT sift rounds)
and the chunks of the in-flight window of
:class:`~repro.learning.equivalence.ConformanceEquivalenceOracle` all pass
through the engine's ``submit``/``collect`` halves, which ship via
:meth:`WorkerPool.submit` and merge back, in submission order, into the
shared :class:`~repro.learning.query_engine.ResponseTrie` —
parallel answers still feed the shared cache and still trip the
non-determinism detection of Section 7.1.

Because every factory rebuilds a *deterministic* system from the same
description, a parallel run answers every word identically to a serial
run; chunk results are always merged in chunk-index order, so the learned
machines are bit-identical — the property
``tests/test_differential_learning.py`` and ``tests/test_property_fuzz.py``
check across the policy registry and generated instances.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.query_engine import execute_words

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Output, ...]


class OracleFactory(Protocol):
    """A picklable recipe for building a membership oracle in a worker.

    Implementations must be picklable (the factory is shipped to every pool
    worker once, as the pool initializer argument) and calling them must
    return a *fresh* oracle whose answers are identical to the parent
    process' system under learning.
    """

    def __call__(self):
        """Build and return a fresh membership oracle."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SimulatedPolicyOracleFactory:
    """Rebuild Polca over a software-simulated cache from a registry name.

    This is the factory behind every Table 2 style run: the worker looks
    ``policy_name`` up in the policy registry, instantiates it at
    ``associativity`` and wraps it in the same
    ``SimulatedCacheInterface`` → ``PolcaMembershipOracle`` stack the
    parent uses, so worker answers are bit-identical to serial ones.
    """

    policy_name: str
    associativity: int
    extra_blocks: int = 2
    #: Execution kernel for the worker's Polca oracle.  ``"auto"`` means
    #: each worker compiles the policy into a transition table once, at
    #: pool init, and steps its chunks through the tabulated kernel.
    kernel: Optional[str] = "auto"

    def __call__(self):
        from repro.polca.algorithm import PolcaMembershipOracle
        from repro.polca.interfaces import SimulatedCacheInterface
        from repro.policies.registry import make_policy

        policy = make_policy(self.policy_name, self.associativity)
        interface = SimulatedCacheInterface(policy, extra_blocks=self.extra_blocks)
        return PolcaMembershipOracle(interface, kernel=self.kernel)


@dataclass(frozen=True)
class CacheInterfaceOracleFactory:
    """Rebuild Polca over a pickled copy of an arbitrary cache interface.

    The generic fallback for cache interfaces that are not registry-backed
    simulated caches — e.g. the CacheQuery-on-simulated-hardware path of
    Table 4.  Polca's probes always replay from the reset state, so a
    pickled snapshot of the interface behaves identically to the original
    no matter what state it was captured in.
    """

    cache: object
    #: Execution kernel for the worker's Polca oracle; interfaces without
    #: policy-exact semantics (no ``kernel_policy`` hook — e.g. CacheQuery)
    #: silently keep the scalar path under ``"auto"``.
    kernel: Optional[str] = "auto"

    def __call__(self):
        from repro.polca.algorithm import PolcaMembershipOracle

        return PolcaMembershipOracle(self.cache, kernel=self.kernel)


@dataclass(frozen=True)
class MealyMachineOracleFactory:
    """Rebuild a :class:`~repro.learning.oracles.MealyMachineOracle` from its machine."""

    machine: MealyMachine

    def __call__(self):
        from repro.learning.oracles import MealyMachineOracle

        return MealyMachineOracle(self.machine)


@dataclass(frozen=True)
class FunctionOracleFactory:
    """Rebuild a :class:`~repro.learning.oracles.FunctionOracle` from a picklable callable.

    ``function`` must be importable from the worker (a module-level
    function, not a lambda or closure) — the usual pickling rule.
    """

    function: Callable[[Word], OutputWord]

    def __call__(self):
        from repro.learning.oracles import FunctionOracle

        return FunctionOracle(self.function)


def _is_registry_default(policy) -> bool:
    """True when ``policy`` equals what the registry builds for its name.

    Matching on the name alone is not enough: e.g. ``SRRIPPolicy(2,
    variant="HP", bits=3)`` carries the registry name ``SRRIP-HP`` but a
    non-default ``bits`` — a worker rebuilding it from the name would
    simulate a *different* policy and the divergence would surface as a
    spurious non-determinism error.  Policies are pure (all mutable state
    lives outside them), so comparing type and configured attributes
    against a freshly built registry instance decides it.
    """
    from repro.policies.registry import available_policies, make_policy

    name = getattr(policy, "name", "")
    if not name or name.upper() not in available_policies():
        return False
    try:
        default = make_policy(name, policy.associativity)
    except Exception:
        return False
    return type(default) is type(policy) and default.__dict__ == policy.__dict__


def oracle_factory_for_cache(cache, *, kernel: Optional[str] = "auto") -> OracleFactory:
    """Derive an :class:`OracleFactory` for a Polca cache interface.

    Simulated caches whose policy *is* the registry default for its name
    are described by (policy name, associativity) so workers rebuild them
    from scratch; any other interface — including registry policies with
    non-default parameters — is shipped as a pickled snapshot.  Raises
    :class:`~repro.errors.LearningError` when neither works.  ``kernel``
    is forwarded to each worker's Polca oracle so serial and parallel runs
    answer through the same execution strategy.
    """
    from repro.polca.interfaces import SimulatedCacheInterface

    if isinstance(cache, SimulatedCacheInterface) and _is_registry_default(cache.policy):
        extra = len(cache.block_universe()) - cache.associativity
        return SimulatedPolicyOracleFactory(
            cache.policy.name.upper(), cache.associativity, extra, kernel
        )
    try:
        pickle.dumps(cache)
    except Exception as exc:
        raise LearningError(
            f"cache interface {cache!r} cannot be shipped to worker processes; "
            "build the WorkerPool with an explicit oracle_factory"
        ) from exc
    return CacheInterfaceOracleFactory(cache, kernel)


# ------------------------------------------------------------- worker side

#: The per-process oracle, built once by :func:`initialize_worker`.
_WORKER_ORACLE = None


def initialize_worker(factory: OracleFactory) -> None:
    """Pool initializer: build this worker's oracle from the factory."""
    global _WORKER_ORACLE
    _WORKER_ORACLE = factory()


def statistics_snapshot(oracle) -> Dict[str, float]:
    """Numeric counters describing everything ``oracle`` has executed so far.

    Collects every numeric field of the oracle's ``statistics`` dataclass
    (:class:`~repro.learning.oracles.QueryStatistics` for machine-backed
    oracles, ``PolcaStatistics`` for Polca) plus, when the oracle wraps a
    cache interface, the interface-level probe/access counters and — for
    the CacheQuery hardware path — the frontend response-cache hit/miss and
    backend execution counters.  Two snapshots bracket a chunk execution
    and their difference (:func:`statistics_delta`) travels back to the
    parent, so reports can merge the *full* worker-side cost — probes,
    block accesses, frontend cache hits — not just query/symbol counts.
    """
    snapshot: Dict[str, float] = {}
    statistics = getattr(oracle, "statistics", None)
    if statistics is not None and is_dataclass(statistics):
        for field in fields(statistics):
            value = getattr(statistics, field.name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                snapshot[field.name] = value
    cache = getattr(oracle, "cache", None)
    if cache is not None:
        for name in ("probe_count", "access_count", "sessions_opened", "session_accesses"):
            value = getattr(cache, name, None)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                snapshot[f"interface_{name}"] = value
        frontend = getattr(cache, "frontend", None)
        if frontend is not None:
            response_cache = getattr(frontend, "cache", None)
            if response_cache is not None:
                snapshot["frontend_cache_hits"] = response_cache.hits
                snapshot["frontend_cache_misses"] = response_cache.misses
            backend = getattr(frontend, "backend", None)
            if backend is not None:
                snapshot["backend_executed_queries"] = backend.executed_queries
                snapshot["backend_executed_loads"] = backend.executed_loads
    return snapshot


def statistics_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-counter difference of two snapshots (zero entries dropped)."""
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }


def answer_words_in_worker(
    words: Sequence[Word],
) -> Tuple[int, List[OutputWord], Dict[str, float]]:
    """Execute a shipped chunk against this worker's oracle.

    Returns ``(worker_id, answers, statistics_delta)`` where the delta
    covers only this chunk (per-worker totals are kept by the parent).  The
    chunk holds distinct, prefix-free misses the engine already
    partitioned, so every word executes as shipped.
    """
    oracle = _WORKER_ORACLE
    if oracle is None:  # pragma: no cover - initializer always runs first
        raise LearningError("pool worker was not initialized with an oracle factory")
    before = statistics_snapshot(oracle)
    answers = execute_words(oracle, words)
    delta = statistics_delta(before, statistics_snapshot(oracle))
    return (os.getpid(), [tuple(outputs) for outputs in answers], delta)


# ------------------------------------------------------------- the shared pool


class WorkerPool:
    """A process pool shared by the membership and equivalence oracle sides.

    The pool owns the :class:`~concurrent.futures.ProcessPoolExecutor`
    (created lazily on first submit, with :func:`initialize_worker` building
    each worker's oracle from ``oracle_factory``) and the per-worker
    accounting.  It is handed to the query engine
    (:class:`~repro.learning.oracles.CachedMembershipOracle`, ``pool=``),
    which ships the misses of its batches — conformance's suite chunks
    included — via :meth:`submit` and merges them via :meth:`collect`, so
    both sides' counts land in the same ``worker_query_counts`` /
    ``worker_symbol_counts`` dictionaries.

    ``workers=1`` is a valid serial configuration: :attr:`parallel` is
    False, no executor is ever created, and the engine executes in
    process.  Call :meth:`close` (or use the pool as a context manager) to
    shut the executor down.
    """

    def __init__(self, oracle_factory: Optional[OracleFactory], workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and oracle_factory is None:
            raise LearningError(
                "workers > 1 needs an oracle_factory so pool workers can "
                "rebuild the system under test (see repro.learning.parallel)"
            )
        self.oracle_factory = oracle_factory
        self.workers = workers
        #: Executed queries per pool worker, keyed by worker PID.
        self.worker_query_counts: Dict[int, int] = {}
        #: Executed symbols per pool worker, keyed by worker PID.
        self.worker_symbol_counts: Dict[int, int] = {}
        #: Full cumulative statistics delta per pool worker, keyed by PID —
        #: every counter of :func:`statistics_snapshot` (Polca probes/block
        #: accesses, frontend cache hits, backend loads, ...).
        self.worker_statistics: Dict[int, Dict[str, float]] = {}
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def parallel(self) -> bool:
        """True when this pool actually fans out (more than one worker)."""
        return self.workers > 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=initialize_worker,
                initargs=(self.oracle_factory,),
            )
        return self._executor

    def close(self) -> None:
        """Shut down the executor (idempotent; a no-op when never used)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- chunk API

    def submit(self, words: Sequence[Word]) -> Future:
        """Ship one chunk of words to a pool worker; returns its future."""
        return self._ensure_executor().submit(
            answer_words_in_worker, [tuple(word) for word in words]
        )

    def collect(
        self, future: Future, words: Sequence[Word]
    ) -> Tuple[List[OutputWord], Dict[str, float]]:
        """Wait for a submitted chunk and record its per-worker accounting.

        Returns the worker's answers and the chunk's statistics delta.  The
        worker executed exactly ``words``, so they are its executed queries
        and symbols.
        """
        worker_id, answers, delta = future.result()
        self.worker_query_counts[worker_id] = (
            self.worker_query_counts.get(worker_id, 0) + len(words)
        )
        self.worker_symbol_counts[worker_id] = self.worker_symbol_counts.get(
            worker_id, 0
        ) + sum(len(word) for word in words)
        accumulated = self.worker_statistics.setdefault(worker_id, {})
        for name, value in delta.items():
            accumulated[name] = accumulated.get(name, 0) + value
        return answers, delta
