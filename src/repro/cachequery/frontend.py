"""CacheQuery frontend: MBL expansion, response caching, and the Polca adapter.

The frontend is what users (and Polca) talk to.  It takes either
MemBlockLang text, which it expands into concrete queries, or a concrete
query (a tuple of :class:`~repro.mbl.ast.Operation`) that it runs as it is.
Queries go to the backend targeting the currently selected cache set, and
responses are memoised (the LevelDB stand-in) under their canonical MBL
text.  MBL is the public query language: the interactive REPL and the batch
mode that sweeps many sets with the same expressions (used for the
leader-set detection of Appendix B) speak it.

:class:`CacheQuerySetInterface` adapts a configured frontend to the
:class:`~repro.polca.interfaces.CacheProbeInterface` protocol so the whole
learning pipeline can run against the simulated hardware unchanged.  Every
Polca probe is already one concrete query, so the interface hands the
frontend concrete queries and expands only its reset sequence, once.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cachequery.backend import BackendConfig, CacheQueryBackend
from repro.cachequery.querycache import QueryCache, operation_symbol
from repro.errors import CacheQueryError, NonDeterminismError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.mbl.ast import PROFILE_TAG, Operation, Query
from repro.mbl.expansion import expand, query_to_text
from repro.polca.reset import FlushRefillReset, ResetStrategy


@dataclass
class CacheQueryConfig:
    """User-facing configuration of a CacheQuery session."""

    level: str = "L2"
    set_index: int = 0
    slice_index: int = 0
    use_cache: bool = True
    backend: BackendConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.backend is None:
            self.backend = BackendConfig()


class _MeasurementSession:
    """State of one open measurement session (see :meth:`CacheQuery.open_session`).

    ``operations``/``symbols`` is the logical operation path accumulated so
    far; ``payloads`` carries one measurement (or ``None``) per position;
    ``executed`` is the watermark of operations that actually ran on the
    CPU — everything before it was either executed or served from the
    response cache and will be (re)played lazily the first time an
    un-cached extension needs the real state.
    """

    __slots__ = ("operations", "symbols", "payloads", "executed")

    def __init__(self) -> None:
        self.operations: List = []
        self.symbols: List[str] = []
        self.payloads: List[Optional[str]] = []
        self.executed = 0


class CacheQuery:
    """The frontend: expand MBL, run queries on one cache set, cache the answers."""

    def __init__(
        self,
        cpu: SimulatedCPU,
        config: Optional[CacheQueryConfig] = None,
        *,
        backend: Optional[CacheQueryBackend] = None,
        store=None,
    ) -> None:
        self.cpu = cpu
        self.config = config or CacheQueryConfig()
        self.backend = backend or CacheQueryBackend(cpu, self.config.backend)
        # ``store`` (a repro.store.PrefixStore) lets the response cache live
        # in a shared store — e.g. the same instance backing the learning
        # trie — so one file persists the whole measurement state; without
        # one the cache is in memory only.  The scope keys cached
        # measurements by CPU and effective geometry, so different machines
        # (or CAT-reduced profiles) sharing one store file never collide.
        scope = (cpu.profile.name,) + tuple(
            f"{name}:{cpu.hierarchy.level(name).effective_associativity}"
            for name in cpu.hierarchy.level_names()
        )
        self.cache = QueryCache(store, scope=scope)
        self._session: Optional[_MeasurementSession] = None
        self.configure(
            level=self.config.level,
            set_index=self.config.set_index,
            slice_index=self.config.slice_index,
        )

    # ---------------------------------------------------------- configuration

    def configure(
        self,
        *,
        level: Optional[str] = None,
        set_index: Optional[int] = None,
        slice_index: Optional[int] = None,
    ) -> None:
        """Re-target the session (the interactive mode's ``set``/``level`` commands).

        The backend validates the new target first: a rejected one raises
        and leaves the current target, its session and ``config`` as they
        were.
        """
        level = self.config.level if level is None else level
        set_index = self.config.set_index if set_index is None else set_index
        slice_index = self.config.slice_index if slice_index is None else slice_index
        self.backend.configure_target(level, set_index, slice_index)
        self.config.level = level
        self.config.set_index = set_index
        self.config.slice_index = slice_index
        self._session = None  # a session is bound to one target

    @property
    def associativity(self) -> int:
        """Effective associativity (after CAT) of the targeted set."""
        return self.backend.associativity

    @property
    def blocks(self) -> Tuple[str, ...]:
        """Abstract block names available for queries."""
        return self.backend.pool_blocks()

    # -------------------------------------------------------------- execution

    def query(self, expression: Union[str, Query]) -> List[Tuple[str, ...]]:
        """Execute ``expression``: MBL text, expanded, or one concrete query.

        Returns one tuple of Hit/Miss verdicts (one per ``?``-tagged access)
        per expanded query, in expansion order; a concrete query yields
        exactly one.
        """
        return [
            self._execute_concrete(query_to_text(c), c)
            for c in self._concrete(expression)
        ]

    def _concrete(self, expression: Union[str, Query]) -> List[Query]:
        """The concrete queries ``expression`` denotes on the current target."""
        if isinstance(expression, str):
            return expand(expression, self.associativity, self.blocks)
        return [tuple(expression)]

    def _execute_concrete(self, text, concrete) -> Tuple[str, ...]:
        """Execute one concrete query through the response cache."""
        cached = (
            self.cache.get(
                self.config.level, self.config.slice_index, self.config.set_index, text
            )
            if self.config.use_cache
            else None
        )
        if cached is not None:
            return cached
        outcome = self.backend.execute(concrete)
        if self.config.use_cache:
            self.cache.put(
                self.config.level,
                self.config.slice_index,
                self.config.set_index,
                text,
                outcome,
            )
        return outcome

    def query_batch(
        self, expressions: Sequence[Union[str, Query]]
    ) -> List[List[Tuple[str, ...]]]:
        """Expand and execute many expressions, deduplicating concrete queries.

        The expansions of all expressions are collected first; each distinct
        concrete query (by its canonical text) is executed at most once for
        the current target, whether the repetition comes from one expression
        expanding to overlapping queries or from duplicate expressions in
        the batch.  Results are returned per expression, in input order —
        the batched counterpart of :meth:`query`, used by consumers that
        stage many queries per round (e.g. the learning hot path).

        When the response cache is disabled (``use_cache=False``, set to
        force fresh measurements) no intra-batch memoisation happens either:
        every concrete query reaches the backend, exactly like repeated
        :meth:`query` calls.
        """
        expanded = [self._concrete(expression) for expression in expressions]
        answered: Dict[str, Tuple[str, ...]] = {}
        results: List[List[Tuple[str, ...]]] = []
        for queries in expanded:
            outcomes: List[Tuple[str, ...]] = []
            for concrete in queries:
                text = query_to_text(concrete)
                if not self.config.use_cache:
                    outcomes.append(self._execute_concrete(text, concrete))
                    continue
                if text not in answered:
                    answered[text] = self._execute_concrete(text, concrete)
                outcomes.append(answered[text])
            results.append(outcomes)
        return results

    def cache_statistics(self) -> Dict[str, float]:
        """Hit/miss/size counters of the response cache (for overhead reports)."""
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "entries": len(self.cache),
            "nodes": self.cache.node_count,
            "hit_ratio": self.cache.hit_ratio,
        }

    # ----------------------------------------------------- measurement session

    @property
    def session_active(self) -> bool:
        """True while a measurement session is open on the current target."""
        return self._session is not None

    def open_session(self) -> None:
        """Open a stateful measurement session on the current target.

        A session accumulates one *operation path*: repeated :meth:`extend`
        calls append operations and return the new operations' outcomes,
        executing **only what the response cache cannot already answer** —
        the resume protocol of the learning stack, pushed down to the
        hardware frontend.  Execution is lazy: cached extensions cost
        nothing, and the first un-cached extension replays the pending
        suffix (never the whole session) to bring the CPU to the session's
        state.  Session operations run once each (no majority voting): the
        path itself must start with a reset sequence to be reproducible,
        exactly like a standalone query.  Because single-shot measurements
        forgo the repetition-based outlier suppression of :meth:`query`, a
        noisy timing source can misclassify one access — the session's
        cross-check against cached measurements then raises
        :class:`~repro.errors.NonDeterminismError` (the Section 7.1
        signal) rather than caching a wrong outcome.
        """
        self._session = _MeasurementSession()

    def reset_session(self) -> None:
        """Restart the open session's operation path from scratch."""
        self._require_session()
        self._session = _MeasurementSession()

    def close_session(self) -> None:
        """End the measurement session (idempotent)."""
        self._session = None

    def _require_session(self) -> _MeasurementSession:
        if self._session is None:
            raise CacheQueryError("no measurement session open; call open_session() first")
        return self._session

    def extend(self, expression: Union[str, Query]) -> Tuple[str, ...]:
        """Append ``expression`` to the open session; return its profiled outcomes.

        The expression is a concrete query fragment, or MBL text that must
        expand to exactly one for the current target.  Outcomes cover only
        the *new* operations' profiled accesses; earlier outcomes were
        already returned by the extends that appended them.
        """
        session = self._require_session()
        fragments = self._concrete(expression)
        if len(fragments) != 1:
            raise CacheQueryError(
                f"a session extension must expand to exactly one query, "
                f"got {len(fragments)}"
            )
        return self._extend_operations(session, fragments[0])

    def _extend_operations(self, session: _MeasurementSession, operations) -> Tuple[str, ...]:
        start = len(session.operations)
        session.operations.extend(operations)
        session.symbols.extend(operation_symbol(operation) for operation in operations)
        session.payloads.extend(None for _ in operations)
        new_profiled = [
            position
            for position in range(start, len(session.operations))
            if session.operations[position].profiled
        ]
        target = (self.config.level, self.config.slice_index, self.config.set_index)
        if self.config.use_cache:
            known, payloads = self.cache.known_prefix(*target, session.symbols)
            if known == len(session.symbols) and all(
                payloads[position] is not None for position in new_profiled
            ):
                # Fully cached: serve without touching the CPU.  The session
                # keeps the cached payloads so a later executed replay can
                # cross-check them against fresh measurements.
                for position in range(start, len(session.symbols)):
                    if session.payloads[position] is None:
                        session.payloads[position] = payloads[position]
                return tuple(session.payloads[position] for position in new_profiled)
        # Execute the pending suffix (everything after the watermark — the
        # un-cached part of the path plus any lazily skipped operations).
        pending = session.operations[session.executed :]
        outcomes = iter(self.backend.execute_operations(pending))
        for position in range(session.executed, len(session.operations)):
            if session.operations[position].profiled:
                measured = next(outcomes)
                cached = session.payloads[position]
                if cached is not None and cached != measured:
                    raise NonDeterminismError(
                        tuple(session.symbols[: position + 1]),
                        (cached,),
                        (measured,),
                    )
                session.payloads[position] = measured
        session.executed = len(session.operations)
        if self.config.use_cache:
            self.cache.record_path(
                *target, session.symbols, session.payloads, terminal=False
            )
        return tuple(session.payloads[position] for position in new_profiled)

    def batch(
        self,
        expression: str,
        set_indexes: Sequence[int],
        *,
        slice_index: Optional[int] = None,
    ) -> Dict[int, List[Tuple[str, ...]]]:
        """Run one expression against many sets (the batch mode of Section 4.2)."""
        original = (self.config.level, self.config.set_index, self.config.slice_index)
        results: Dict[int, List[Tuple[str, ...]]] = {}
        try:
            for set_index in set_indexes:
                self.configure(set_index=set_index, slice_index=slice_index)
                results[set_index] = self.query(expression)
        finally:
            self.configure(level=original[0], set_index=original[1], slice_index=original[2])
        return results

    # ------------------------------------------------------------ interactive

    def interactive(self, input_fn=input, output_fn=print) -> None:
        """A small REPL: ``level L2``, ``set 63``, ``slice 1``, MBL queries, ``quit``."""
        output_fn(
            f"CacheQuery on {self.cpu.profile.name}: level {self.config.level}, "
            f"set {self.config.set_index}, slice {self.config.slice_index}"
        )
        while True:
            try:
                line = input_fn("cachequery> ").strip()
            except EOFError:
                return
            if not line:
                continue
            if line in ("quit", "exit"):
                return
            try:
                if line.startswith("level "):
                    self.configure(level=line.split(maxsplit=1)[1])
                elif line.startswith("set "):
                    self.configure(set_index=int(line.split(maxsplit=1)[1]))
                elif line.startswith("slice "):
                    self.configure(slice_index=int(line.split(maxsplit=1)[1]))
                elif line == "blocks":
                    output_fn(" ".join(self.blocks))
                else:
                    for outcome in self.query(line):
                        output_fn(" ".join(outcome) if outcome else "(no profiled access)")
            except Exception as error:  # surface errors, keep the REPL alive
                output_fn(f"error: {error}")


class CacheQuerySetInterface:
    """Polca's view of one hardware cache set, through a CacheQuery session.

    Every :meth:`probe` prepends the configured reset sequence and profiles
    every block of the probe, so Polca sees exactly the reset-and-probe
    semantics it expects.  The interface also implements the *measurement
    session* extension (``supports_sessions``): :meth:`open_session` starts
    a reset-anchored session and :meth:`extend` profiles additional blocks
    incrementally, so a resuming consumer (Polca with ``resume=True``)
    executes only the un-cached suffix of a growing access chain instead of
    replaying the whole chain per step.

    Probes and session extensions reach the frontend as concrete queries,
    never as MBL text.  The reset sequence's MBL text is expanded once, on
    first use, and must denote exactly one query; otherwise
    :class:`~repro.errors.CacheQueryError` is raised before anything
    executes.  Each probe appends one profiled
    :class:`~repro.mbl.ast.Operation` per block to that query.  Responses
    stay cached under the query's canonical MBL text, so a probe and its
    text spelling share one cache entry.
    """

    supports_sessions = True

    def __init__(
        self,
        frontend: CacheQuery,
        *,
        reset: Optional[ResetStrategy] = None,
    ) -> None:
        self.frontend = frontend
        self.reset = reset if reset is not None else FlushRefillReset()
        self.associativity = frontend.associativity
        universe = frontend.blocks
        if len(universe) <= self.associativity:
            raise CacheQueryError("the CacheQuery pool is too small for Polca")
        self._universe = universe
        self._initial = universe[: self.associativity]
        self._prefix: Optional[Query] = None
        self.probe_count = 0
        self.access_count = 0
        self.sessions_opened = 0
        self.session_accesses = 0

    def initial_blocks(self) -> Tuple[str, ...]:
        return self._initial

    def block_universe(self) -> Tuple[str, ...]:
        return self._universe

    def store_namespace(self) -> Tuple[object, ...]:
        """Namespace key identifying this target inside a shared prefix store."""
        config = self.frontend.config
        return (
            "cachequery",
            self.frontend.cpu.profile.name,
            config.level,
            config.slice_index,
            config.set_index,
            self.associativity,
            self.reset.describe(),
        )

    def _reset_prefix(self) -> Query:
        """The reset sequence as one concrete query, expanded on first use."""
        if self._prefix is None:
            text = self.reset.mbl_prefix(self.associativity, self._universe)
            queries = expand(text, self.associativity, self._universe) if text else [()]
            if len(queries) != 1:
                raise CacheQueryError(
                    f"the reset sequence {text!r} must expand to exactly one "
                    f"query, got {len(queries)}"
                )
            self._prefix = queries[0]
        return self._prefix

    @staticmethod
    def _profiled(blocks: Sequence[str]) -> Query:
        return tuple(Operation(block, PROFILE_TAG) for block in blocks)

    # ----------------------------------------------------- measurement session

    def open_session(self) -> None:
        """Start a measurement session anchored at the reset state."""
        prefix = self._reset_prefix()
        self.frontend.open_session()
        if prefix:
            self.frontend.extend(prefix)
        self.sessions_opened += 1

    def extend(self, blocks: Sequence[str]) -> Tuple[str, ...]:
        """Profile ``blocks`` as an extension of the session's access chain."""
        if not blocks:
            return ()
        outcomes = self.frontend.extend(self._profiled(blocks))
        self.session_accesses += len(blocks)
        return outcomes

    def close_session(self) -> None:
        """End the measurement session (idempotent)."""
        self.frontend.close_session()

    def probe(self, blocks: Sequence[str]) -> Tuple[str, ...]:
        if not blocks:
            return ()
        (outcome,) = self.frontend.query(self._reset_prefix() + self._profiled(blocks))
        self.probe_count += 1
        self.access_count += len(blocks)
        return outcome

    def probe_batch(
        self, block_sequences: Sequence[Sequence[str]]
    ) -> List[Tuple[str, ...]]:
        """Run many probes through the frontend's deduplicating batch entry point.

        Identical probe sequences collapse to a single hardware query; the
        response cache handles cross-batch repeats.  Empty sequences yield
        empty outcome tuples, matching :meth:`probe`.
        """
        queries = [
            self._reset_prefix() + self._profiled(blocks)
            for blocks in block_sequences
            if blocks
        ]
        answered = iter(self.frontend.query_batch(queries))
        results: List[Tuple[str, ...]] = []
        for blocks in block_sequences:
            if not blocks:
                results.append(())
                continue
            (outcome,) = next(answered)
            self.probe_count += 1
            self.access_count += len(blocks)
            results.append(outcome)
        return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: an interactive CacheQuery shell on a simulated CPU."""
    parser = argparse.ArgumentParser(description="CacheQuery interactive shell")
    parser.add_argument("--cpu", default="skylake", help="CPU profile (haswell/skylake/kabylake)")
    parser.add_argument("--level", default="L2", help="target cache level")
    parser.add_argument("--set", dest="set_index", type=int, default=0, help="target set index")
    parser.add_argument("--slice", dest="slice_index", type=int, default=0, help="target slice")
    parser.add_argument("--cat-ways", type=int, default=0, help="reduce L3 ways via CAT")
    arguments = parser.parse_args(argv)
    cpu = SimulatedCPU(cpu_profile(arguments.cpu))
    if arguments.cat_ways:
        cpu.configure_cat("L3", arguments.cat_ways)
    session = CacheQuery(
        cpu,
        CacheQueryConfig(
            level=arguments.level,
            set_index=arguments.set_index,
            slice_index=arguments.slice_index,
        ),
    )
    session.interactive()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
