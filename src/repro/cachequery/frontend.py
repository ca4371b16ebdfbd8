"""CacheQuery frontend: MBL expansion, response caching, and the Polca adapter.

The frontend is what users (and Polca) talk to.  It takes either
MemBlockLang text, which it expands into concrete queries, or a concrete
query (a tuple of :class:`~repro.mbl.ast.Operation`) that it runs as it is.
Queries go to the backend targeting the currently selected cache set, and
responses are memoised (the LevelDB stand-in) under each concrete query's
operation path (:func:`~repro.cachequery.querycache.operation_path`), never
its rendered text; a query whose path is a prefix of an answered one is
served without executing.  MBL is the public query language: the
interactive REPL and the batch mode that sweeps many sets with the same
expressions (used for the leader-set detection of Appendix B) speak it.

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
from repro.cachequery.querycache import OperationPath, QueryCache, operation_path
from repro.errors import CacheQueryError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.mbl.ast import PROFILE_TAG, Operation, Query
from repro.mbl.expansion import expand
from repro.polca.reset import FlushRefillReset, ResetStrategy


@dataclass
class CacheQueryConfig:
    """User-facing configuration of a CacheQuery frontend: its target set,
    whether responses are cached, and the backend settings."""

    level: str = "L2"
    set_index: int = 0
    slice_index: int = 0
    use_cache: bool = True
    backend: BackendConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.backend is None:
            self.backend = BackendConfig()


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
        """Re-target the frontend (the interactive mode's ``set``/``level`` commands).

        The backend validates the new target first: a rejected one raises
        and leaves the current target and ``config`` as they were.
        """
        level = self.config.level if level is None else level
        set_index = self.config.set_index if set_index is None else set_index
        slice_index = self.config.slice_index if slice_index is None else slice_index
        self.backend.configure_target(level, set_index, slice_index)
        self.config.level = level
        self.config.set_index = set_index
        self.config.slice_index = slice_index

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
        return [self._execute_concrete(c) for c in self._concrete(expression)]

    def _concrete(self, expression: Union[str, Query]) -> List[Query]:
        """The concrete queries ``expression`` denotes on the current target."""
        if isinstance(expression, str):
            return expand(expression, self.associativity, self.blocks)
        return [tuple(expression)]

    def _execute_concrete(
        self, concrete: Query, path: Optional[OperationPath] = None
    ) -> Tuple[str, ...]:
        """Execute one concrete query through the response cache, keyed by
        its operation ``path`` (computed here when not given)."""
        if not self.config.use_cache:
            return self.backend.execute(concrete)
        target = (self.config.level, self.config.slice_index, self.config.set_index)
        symbols, profiled = path if path is not None else operation_path(concrete)
        cached = self.cache.get_path(*target, symbols, profiled)
        if cached is not None:
            return cached
        outcome = self.backend.execute(concrete)
        self.cache.put_path(*target, symbols, profiled, outcome)
        return outcome

    def query_batch(
        self, expressions: Sequence[Union[str, Query]]
    ) -> List[List[Tuple[str, ...]]]:
        """Expand and execute many expressions, deduplicating concrete queries.

        The expansions of all expressions are collected first; each distinct
        concrete query (by its operation path) is executed at most once for
        the current target, whether the repetition comes from one expression
        expanding to overlapping queries or from duplicate expressions in
        the batch.  Results are returned per expression, in input order —
        the batched counterpart of :meth:`query`.  The learning pipeline does
        not call it: Polca probes one concrete query at a time through
        :meth:`query`.

        When the response cache is disabled (``use_cache=False``, set to
        force fresh measurements) no intra-batch memoisation happens either:
        every concrete query reaches the backend, exactly like repeated
        :meth:`query` calls.
        """
        expanded = [self._concrete(expression) for expression in expressions]
        answered: Dict[OperationPath, Tuple[str, ...]] = {}
        results: List[List[Tuple[str, ...]]] = []
        for queries in expanded:
            outcomes: List[Tuple[str, ...]] = []
            for concrete in queries:
                if not self.config.use_cache:
                    outcomes.append(self._execute_concrete(concrete))
                    continue
                path = operation_path(concrete)
                if path not in answered:
                    answered[path] = self._execute_concrete(concrete, path)
                outcomes.append(answered[path])
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
    """Polca's view of one hardware cache set, through a CacheQuery frontend.

    Every :meth:`probe` prepends the configured reset sequence and profiles
    every block of the probe, so Polca sees exactly the reset-and-probe
    semantics it expects.  Each probe is one query, which the backend runs
    ``repetitions`` times, majority-voting every outcome.

    Probes reach the frontend as concrete queries, never as MBL text.  The
    reset sequence's MBL text is expanded once, on first use, and must
    denote exactly one query; otherwise
    :class:`~repro.errors.CacheQueryError` is raised before anything
    executes.  Each probe appends one profiled
    :class:`~repro.mbl.ast.Operation` per block to that query, built once
    per pool block.  Responses are cached under the query's operation path,
    the same trie symbols its MBL text tokenizes to, so a probe and its
    text spelling share one cache entry.
    """

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
        self._operations = {block: Operation(block, PROFILE_TAG) for block in universe}

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

    def _profiled(self, blocks: Sequence[str]) -> Query:
        """One profiled access per block, built once per pool block; a block
        outside the pool gets a fresh one, which the backend rejects."""
        try:
            return tuple([self._operations[block] for block in blocks])
        except KeyError:
            return tuple([Operation(block, PROFILE_TAG) for block in blocks])

    def probe(self, blocks: Sequence[str]) -> Tuple[str, ...]:
        if not blocks:
            return ()
        (outcome,) = self.frontend.query(self._reset_prefix() + self._profiled(blocks))
        return outcome


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
    frontend = CacheQuery(
        cpu,
        CacheQueryConfig(
            level=arguments.level,
            set_index=arguments.set_index,
            slice_index=arguments.slice_index,
        ),
    )
    frontend.interactive()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
