"""Span recorder and the layer patches of the traced run.

The traced run wraps the public calls into each layer from the benchmark's
own files; nothing in ``src/`` knows it is being traced.  Every wrapped call
records one span (layer name, start, end, parent span, learn id) in flat
arrays that stay in memory and are written once, at exit.  A layer's self
time is the sum of its spans' durations minus the part covered by their
child spans, so the self times of all layers add up exactly to the traced
wall clock.

Trie lookups and records inside the query engine stay counters (read from
``QueryStatistics``), not spans: a span per trie walk would cost more than
the walk and distort every self time around it.

Deliberately unpatched, because the benchmark never loads them: worker IPC
(``repro.learning.parallel``; a pool would put three busy processes on two
vCPUs) and store I/O (``PrefixStore.save``, the codec, the store server;
fsync would time the VM's disk, not the program).
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "setup": "setup.self_s",
    "harness": "harness.self_s",
    "query_engine": "query_engine.self_s",
    "learner.table": "learner.table_s",
    "learner.hypothesis": "learner.hypothesis_s",
    "learner": "learner.self_s",
    "wpmethod": "wpmethod.gen_s",
    "equivalence": "equivalence.self_s",
    "mealy": "mealy.run_s",
    "polca": "polca.self_s",
    "polca.identify": "polca.identify_s",
    "simkernel.tabulate": "simkernel.tabulate_s",
    "simkernel.step": "simkernel.step_s",
    "cachequery.backend": "cachequery.backend_s",
    "cachequery.frontend": "cachequery.frontend_s",
    "mbl.expand": "mbl.expand_s",
}


class Tracer:
    """In-memory span recorder with counters, plus the patches that feed it."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.learn_ids = array("i")
        self._stack: List[int] = []
        self.learn_id = -1
        self.counters: Dict[str, int] = defaultdict(int)
        self._engines: Dict[int, object] = {}
        self._patches: List[tuple] = []

    # ----------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.learn_ids.append(self.learn_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def begin_learn(self, learn_id: int) -> None:
        self.learn_id = learn_id
        self._engines.clear()

    def end_learn(self) -> None:
        """Read the trie size of every engine the learn used, then forget them."""
        self.counters["store.trie_nodes"] += sum(
            engine.size for engine in self._engines.values()
        )
        self._engines.clear()
        self.learn_id = -1

    # --------------------------------------------------------------- patches

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        *,
        probe: Optional[Callable[[object], tuple]] = None,
        probe_names: tuple = (),
        count: Optional[Callable[[tuple], Dict[str, int]]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``probe(instance)`` returns counter readings taken before and after
        the call; their differences accumulate under ``probe_names``.
        ``count(args)`` returns counters to add once per call.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = probe(args[0]) if probe is not None else None
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
                if before is not None:
                    after = probe(args[0])
                    for key, old, new in zip(probe_names, before, after):
                        tracer.counters[key] += new - old
                if count is not None:
                    for key, value in count(args).items():
                        tracer.counters[key] += value

        self._install(owner, attribute, traced)

    def wrap_iterator(self, owner, attribute: str, name: str) -> None:
        """Time a generator factory's call and every ``next`` on its result."""
        original = getattr(owner, attribute)
        tracer = self

        def timed(iterator):
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                iterator = iter(original(*args, **kwargs))
            finally:
                tracer.close(index)
            return timed(iterator)

        self._install(owner, attribute, traced)

    def _install(self, owner, attribute: str, replacement) -> None:
        inherited = isinstance(owner, type) and attribute not in vars(owner)
        self._patches.append((owner, attribute, getattr(owner, attribute), inherited))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def install_layer_patches(self) -> None:
        """Wrap the public call into every loaded layer (see the module doc)."""
        import repro.cachequery.frontend as frontend_module
        import repro.learning.equivalence as equivalence_module
        import repro.polca.pipeline as pipeline_module
        import repro.simkernel.batch as batch_module
        from repro.cachequery.backend import CacheQueryBackend
        from repro.core.mealy import MealyMachine
        from repro.learning.kv import ClassificationTree
        from repro.learning.learner import ActiveLearner
        from repro.learning.observation_table import ObservationTable
        from repro.learning.oracles import CachedMembershipOracle
        from repro.learning.ttt import TTTTree
        from repro.polca.algorithm import PolcaMembershipOracle
        from repro.simkernel.batch import BatchSimulator

        engines = self._engines

        def engine_probe(engine):
            engines[id(engine)] = engine
            statistics = engine.statistics
            return (statistics.cache_hits, statistics.subsumed_words, statistics.batches)

        engine_names = (
            "query_engine.cache_hits",
            "query_engine.subsumed_words",
            "query_engine.batches",
        )
        self.wrap(
            CachedMembershipOracle,
            "output_query_batch",
            "query_engine",
            probe=engine_probe,
            probe_names=engine_names,
            count=lambda args: {"query_engine.words_requested": len(args[1])},
        )
        self.wrap(
            CachedMembershipOracle,
            "output_query",
            "query_engine",
            probe=engine_probe,
            probe_names=engine_names,
            count=lambda args: {"query_engine.words_requested": 1},
        )
        self.wrap(ObservationTable, "fill", "learner.table")
        self.wrap(ObservationTable, "make_closed_and_consistent", "learner.table")
        for owner in (ObservationTable, ClassificationTree, TTTTree):
            self.wrap(owner, "hypothesis", "learner.hypothesis")
        self.wrap(ActiveLearner, "learn", "learner")
        self.wrap_iterator(equivalence_module, "iter_wp_method_suite", "wpmethod")

        def suite_probe(oracle):
            engine = oracle.oracle.statistics
            return (
                engine.membership_queries,
                engine.membership_symbols,
                oracle.statistics.test_words,
                oracle.statistics.equivalence_queries,
            )

        self.wrap(
            equivalence_module.ConformanceEquivalenceOracle,
            "find_counterexample",
            "equivalence",
            probe=suite_probe,
            probe_names=(
                "suite.queries",
                "suite.symbols",
                "equivalence.test_words",
                "learner.rounds",
            ),
        )
        self.wrap(MealyMachine, "run", "mealy")
        self.wrap(PolcaMembershipOracle, "output_query", "polca")
        self.wrap(PolcaMembershipOracle, "output_query_batch", "polca")
        self.wrap(pipeline_module, "identify_policy", "polca.identify")
        self.wrap(batch_module, "tabulate_policy", "simkernel.tabulate")
        self.wrap(
            BatchSimulator,
            "answer_words",
            "simkernel.step",
            count=lambda args: {"simkernel.symbols": sum(len(word) for word in args[1])},
        )
        self.wrap(
            CacheQueryBackend,
            "execute",
            "cachequery.backend",
            probe=lambda backend: (backend.executed_queries, backend.executed_loads),
            probe_names=("cachequery.executed_queries", "cachequery.executed_loads"),
        )
        for attribute in ("query", "query_batch"):
            self.wrap(
                frontend_module.CacheQuery,
                attribute,
                "cachequery.frontend",
                probe=lambda frontend: (frontend.cache.hits, frontend.cache.misses),
                probe_names=("cachequery.response_hits", "cachequery.response_misses"),
            )
        self.wrap(frontend_module, "expand", "mbl.expand")

    # -------------------------------------------------------------- analysis

    def layer_summary(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and self time over spans ``start:stop``
        (a range that holds whole subtrees)."""
        stop = len(self.starts) if stop is None else stop
        durations = [self.ends[i] - self.starts[i] for i in range(stop)]
        children = [0.0] * stop
        for index in range(start, stop):
            parent = self.parents[index]
            if parent >= 0:
                children[parent] += durations[index]
        summary: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self._names
        }
        for index in range(start, stop):
            entry = summary[self._names[self.name_ids[index]]]
            entry["calls"] += 1
            entry["self_s"] += durations[index] - children[index]
        return summary

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (name, start, end, parent, learn)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tlearn\n")
            names = self._names
            for index in range(len(self.starts)):
                handle.write(
                    f"{names[self.name_ids[index]]}\t{self.starts[index]:.9f}\t"
                    f"{self.ends[index]:.9f}\t{self.parents[index]}\t"
                    f"{self.learn_ids[index]}\n"
                )
