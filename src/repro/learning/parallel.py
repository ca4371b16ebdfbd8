"""Process-parallel query execution: :class:`WorkerPool`, a membership oracle
that wraps the system under learning.

Membership queries dominate every learning run the paper reports: the
observation-table fill stages one batch of ``(prefix, suffix)`` words per
stabilisation round, and conformance testing executes a Wp-suite that grows
with ``|H|`` and exponentially with the test depth ``k``.  The words of one
batch are independent of each other — the classic embarrassingly parallel
shape.

The paper's Figure 1 chains abstractions so that the learner sees a plain
membership oracle and never how its queries execute.  The pool keeps that
layering: ``WorkerPool(sul, workers)`` *is* a membership oracle over
``sul``, and the query engine
(:class:`~repro.learning.oracles.CachedMembershipOracle`) takes it as its
delegate exactly as it would take ``sul`` itself::

    engine → WorkerPool → SUL   (instead of engine → SUL)

The engine still partitions, dedupes and prefix-subsumes every batch, so
the pool only ever receives the distinct, prefix-free misses it must
execute.  Single queries run in the parent, on ``sul``.  A batch is split
into ``workers`` contiguous chunks, each run by a worker process holding
its own copy of ``sul`` — pickled once, when the pool is built, so a
simulated target ships with its tabulated kernel already bound.  Chunk
answers are concatenated in chunk order, and each chunk's statistics delta
folds into ``sul.statistics``, so answers, learned machines and every
statistics column are identical to a serial run — the property
``tests/test_differential_learning.py`` and ``tests/test_property_fuzz.py``
check across the policy registry and generated instances.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, is_dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import LearningError
from repro.learning.query_engine import execute_words

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Output, ...]

#: How often one batch may restart a broken executor and re-ship the
#: chunks a dead worker left unanswered before the pool gives up.
RESPAWNS_PER_BATCH = 1


# ------------------------------------------------------------- worker side

#: The per-process copy of the system under learning, unpickled once by
#: :func:`initialize_worker`.
_WORKER_SUL = None


def initialize_worker(payload: bytes) -> None:
    """Pool initializer: unpickle this worker's copy of the SUL."""
    global _WORKER_SUL
    _WORKER_SUL = pickle.loads(payload)


def statistics_snapshot(oracle) -> Dict[str, float]:
    """Numeric counters describing everything ``oracle`` has executed so far.

    Collects every numeric field of the oracle's ``statistics`` dataclass
    (:class:`~repro.learning.oracles.QueryStatistics` for machine-backed
    oracles, ``PolcaStatistics`` for Polca, the one ledger of probes and
    block accesses) plus, for the CacheQuery hardware path, the frontend
    response-cache hit/miss and backend execution counters.  Two snapshots
    bracket a chunk execution and their difference
    (:func:`statistics_delta`) travels back to the parent, so reports can
    merge the *full* worker-side cost — probes, block accesses, frontend
    cache hits — not just query/symbol counts.
    """
    snapshot: Dict[str, float] = {}
    statistics = getattr(oracle, "statistics", None)
    if statistics is not None and is_dataclass(statistics):
        for field in fields(statistics):
            value = getattr(statistics, field.name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                snapshot[field.name] = value
    frontend = getattr(getattr(oracle, "cache", None), "frontend", None)
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
    """Execute a shipped chunk against this worker's copy of the SUL.

    Returns ``(worker_id, answers, statistics_delta)`` where the delta
    covers only this chunk (per-worker totals are kept by the parent).
    """
    sul = _WORKER_SUL
    before = statistics_snapshot(sul)
    answers = execute_words(sul, words)
    delta = statistics_delta(before, statistics_snapshot(sul))
    return (os.getpid(), [tuple(outputs) for outputs in answers], delta)


# ------------------------------------------------------------- the pool


class WorkerPool:
    """A membership oracle that runs each batch of ``sul`` on worker processes.

    :meth:`output_query` answers in the parent, on ``sul`` itself.
    :meth:`output_query_batch` splits the batch into ``workers`` contiguous
    chunks, ships them to a :class:`~concurrent.futures.ProcessPoolExecutor`
    (created lazily on the first batch) whose workers each hold a copy of
    ``sul``, and returns the answers in batch order.  The words are executed
    exactly as handed: the query engine in front of the pool has already
    deduped them.

    ``sul`` is pickled once, here, so a SUL that cannot be pickled raises
    :class:`~repro.errors.LearningError` at once.  Each chunk's statistics
    delta folds into ``sul.statistics`` (field by field), so its counters
    read as if ``sul`` had executed every word in process.  The pool also
    keeps its own accounting: :attr:`shipped_chunks`, :attr:`shipped_words`
    and per-worker query, symbol and full statistics counts.

    A worker that dies (killed, crashed, exited) breaks the executor: the
    pool shuts it down, starts a fresh one and re-ships the batch's
    unanswered chunks, at most :data:`RESPAWNS_PER_BATCH` times per batch;
    after that it raises :class:`~repro.errors.LearningError` naming the
    chunk.  Only answered chunks fold their statistics, so the counts of a
    recovered batch still equal a serial run's.  Call :meth:`close` (or use
    the pool as a context manager) to shut the executor down.
    """

    def __init__(self, sul, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        try:
            self._payload = pickle.dumps(sul)
        except Exception as exc:
            raise LearningError(
                f"system under learning {sul!r} cannot be shipped to worker "
                "processes (it does not pickle); learn serially with --workers 0"
            ) from exc
        self.sul = sul
        self.workers = workers
        #: Word chunks shipped to workers and answered.
        self.shipped_chunks = 0
        #: Words answered by workers.
        self.shipped_words = 0
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

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=initialize_worker,
                initargs=(self._payload,),
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

    # ------------------------------------------------------- oracle protocol

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        """Answer one word in the parent, on the wrapped SUL."""
        return self.sul.output_query(word)

    def output_query_batch(self, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
        """Answer a batch on the workers, one contiguous chunk per worker."""
        words = [tuple(word) for word in words]
        if not words:
            return []
        size = -(-len(words) // self.workers)
        pending = list(range(0, len(words), size))
        answers: Dict[int, List[OutputWord]] = {}
        for attempt in range(RESPAWNS_PER_BATCH + 1):
            if attempt:
                self.close()  # a broken executor never runs anything again
            executor = self._ensure_executor()
            futures = {}
            try:
                for start in pending:
                    chunk = words[start : start + size]
                    futures[start] = executor.submit(answer_words_in_worker, chunk)
            except BrokenProcessPool:
                pass  # a worker died between batches; the rest stay pending
            for start, future in futures.items():
                try:
                    worker_id, chunk_answers, delta = future.result()
                except BrokenProcessPool:
                    continue
                self._record(words[start : start + size], worker_id, delta)
                answers[start] = chunk_answers
            pending = [start for start in pending if start not in answers]
            if not pending:
                return [
                    outputs for start in sorted(answers) for outputs in answers[start]
                ]
        self.close()
        chunk = words[pending[0] : pending[0] + size]
        raise LearningError(
            f"a pool worker died while executing a chunk of {len(chunk)} words "
            f"(first word {chunk[0]!r}), again after the pool restarted; its "
            "answers are lost and the pool is shut down — rerun with "
            "--workers 0 to learn serially"
        )

    def _record(
        self, chunk: Sequence[Word], worker_id: int, delta: Dict[str, float]
    ) -> None:
        """Account one answered chunk and fold its delta into ``sul.statistics``."""
        self.shipped_chunks += 1
        self.shipped_words += len(chunk)
        self.worker_query_counts[worker_id] = (
            self.worker_query_counts.get(worker_id, 0) + len(chunk)
        )
        self.worker_symbol_counts[worker_id] = self.worker_symbol_counts.get(
            worker_id, 0
        ) + sum(len(word) for word in chunk)
        accumulated = self.worker_statistics.setdefault(worker_id, {})
        for name, value in delta.items():
            accumulated[name] = accumulated.get(name, 0) + value
        statistics = getattr(self.sul, "statistics", None)
        if is_dataclass(statistics):
            for field in fields(statistics):
                if field.name in delta:
                    setattr(
                        statistics,
                        field.name,
                        getattr(statistics, field.name) + delta[field.name],
                    )
