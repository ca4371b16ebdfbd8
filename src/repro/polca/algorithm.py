"""Polca — Algorithm 1 of the paper.

Polca answers policy-level queries by driving a cache-level interface:

* an ``Ln(i)`` input is mapped to the block Polca believes is stored in line
  ``i`` (``mapInput``);
* an ``Evct`` input is mapped to some block that is *not* in the cache,
  which forces a miss;
* after every access the cache is probed (``probeCache``) by replaying the
  whole block sequence from the reset state — the cache interface has no
  persistent session, exactly like the hardware tool;
* a miss is translated back to the evicted line (``mapOutput`` /
  ``findEvicted``) by re-probing the prefix extended with each block Polca
  believes is cached and seeing which one now misses.

Polca issues Algorithm 1's probes in one other order.  Hits never change
its belief about the cache content, so the blocks of a maximal run of
``Ln(i)`` symbols, and of the ``Evct`` that closes the run (the first
universe block not cached), are all known before the run executes.  The
run's longest probe is issued first: ``findEvicted``'s line-0 probe (the
run's accesses extended with the block in line 0) when an ``Evct`` closes
the run, else the probe of its last symbol.  The run's other probes
follow in Algorithm 1's order; each is a prefix of the first, so a cache
interface with a response cache (CacheQuery's) answers them without
executing anything.  ``findEvicted`` reuses line 0's outcome and probes
the other lines after the run.  On a well-formed target the probes, their number and their lengths, and
so the statistics ledger, are those of Algorithm 1; only their order
changes.  When a run's ``Ln(i)`` misses or its ``Evct`` hits, Polca
raises :class:`~repro.errors.NonDeterminismError`, and may by then have
booked ``findEvicted``'s line-0 probe.

Two entry points are provided: :meth:`PolcaMembershipOracle.output_query`,
the output-query form used by the learner, and :func:`polca_check_trace`,
the boolean membership form that matches Algorithm 1 literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cache.cacheset import HIT, MISS
from repro.core.alphabet import (
    MISS_OUTPUT,
    Evict,
    Line,
    PolicyInput,
    PolicyOutput,
    policy_input_alphabet,
)
from repro.core.trace import Trace
from repro.errors import LearningError, NonDeterminismError, PolicyError
from repro.polca.interfaces import CacheProbeInterface
from repro.simkernel.batch import BatchSimulator

Block = Hashable

#: Kernel names accepted by the ``kernel=`` knob.
POLCA_KERNELS = ("auto", "scalar")

#: Most kernel answers whose :func:`scalar_probe_cost` one oracle keeps;
#: past it the cost of a new answer is computed for every word again.
PROBE_COST_MEMO_BOUND = 1 << 14


def scalar_probe_cost(
    word: Sequence[PolicyInput], associativity: int
) -> Tuple[int, int]:
    """Return ``(probes, block_accesses)`` the scalar path would issue for ``word``.

    Derived from :meth:`PolcaMembershipOracle._run_symbols` run from the
    initial state: the symbol at 0-based position ``k``
    always costs one replay probe of ``k + 1`` accesses, and every ``Evct``
    symbol additionally runs ``findEvicted`` — exactly ``associativity``
    probes of ``k + 2`` accesses each (the loop never breaks early, by
    design: a second missing line must raise ``NonDeterminismError``).
    Over a full simulated cache only ``Evct`` symbols miss, so the cost is
    a pure function of the input word.  The kernel fast path books this
    cost in :class:`PolcaStatistics`, so the probe/access counters are
    execution-strategy-independent.
    """
    length = len(word)
    probes = length
    accesses = length * (length + 1) // 2
    for position, symbol in enumerate(word):
        if isinstance(symbol, Evict):
            probes += associativity
            accesses += associativity * (position + 2)
    return probes, accesses


@dataclass
class PolcaStatistics:
    """Cost counters for Polca's interaction with the cache interface.

    This is the one ledger of probes and block accesses: interfaces count
    nothing themselves, and every report column is read from here.
    """

    policy_queries: int = 0
    policy_symbols: int = 0
    cache_probes: int = 0
    block_accesses: int = 0

    def record_probe(self, length: int) -> None:
        """Record one probe of ``length`` block accesses."""
        self.cache_probes += 1
        self.block_accesses += length


class PolcaMembershipOracle:
    """A policy-level membership/output oracle built on a cache interface.

    Every word is answered from the initial state, each step by a probe
    that replays the access chain from the reset state (see
    :meth:`_run_symbols`).

    ``kernel`` selects the execution strategy for *simulated* targets.
    Under ``"auto"``, when the interface exposes ``kernel_policy`` (it
    guarantees policy-exact probe semantics — the simulated cache starts
    full), the oracle compiles the policy into a flat transition table and
    answers whole batches through a
    :class:`~repro.simkernel.batch.BatchSimulator` instead of probing
    symbol by symbol.  Answers are bit-identical to the scalar path and
    the probe/access counters are kept identical too, via
    :func:`scalar_probe_cost` accounting.  ``"auto"`` runs the scalar path
    when there is no ``kernel_policy`` or the policy does not tabulate;
    ``"scalar"`` (the default) always does.
    :attr:`kernel_in_use` reports what actually runs.
    """

    def __init__(
        self,
        cache: CacheProbeInterface,
        *,
        kernel: str = "scalar",
    ) -> None:
        self.cache = cache
        self.associativity = cache.associativity
        if self.associativity < 1:
            raise PolicyError("cache interface reports a non-positive associativity")
        self._initial_content: Tuple[Block, ...] = tuple(cache.initial_blocks())
        if len(self._initial_content) != self.associativity:
            raise PolicyError(
                "cache interface must report exactly associativity initial blocks"
            )
        self._universe: Tuple[Block, ...] = tuple(cache.block_universe())
        if len(set(self._universe)) <= self.associativity:
            raise PolicyError(
                "the block universe must contain more blocks than the associativity"
            )
        self.statistics = PolcaStatistics()
        if kernel not in POLCA_KERNELS:
            raise PolicyError(
                f"unknown simulator kernel {kernel!r}; choose one of {POLCA_KERNELS}"
            )
        self._simulator = self._build_simulator() if kernel == "auto" else None
        #: ``scalar_probe_cost`` per kernel answer (see ``_answer_kernel_words``).
        self._probe_costs: Dict[Tuple[PolicyOutput, ...], Tuple[int, int]] = {}
        #: Execution strategy actually answering queries: ``"scalar"`` or
        #: ``"python"`` (the tabulated kernel).
        self.kernel_in_use = (
            "scalar" if self._simulator is None else self._simulator.kernel
        )

    def _build_simulator(self) -> Optional[BatchSimulator]:
        """Try to bind the tabulated fast path; ``None`` means scalar fallback."""
        kernel_policy = getattr(self.cache, "kernel_policy", None)
        if not callable(kernel_policy):
            return None
        try:
            return BatchSimulator(kernel_policy())
        except PolicyError:
            return None

    # ------------------------------------------------------------ primitives

    def alphabet(self) -> Tuple[PolicyInput, ...]:
        """Return the policy input alphabet for the cache's associativity."""
        return policy_input_alphabet(self.associativity)

    def _probe_last(self, blocks: Sequence[Block]) -> str:
        """``probeCache``: access ``blocks`` from the reset state, return the last outcome."""
        outputs = self.cache.probe(blocks)
        self.statistics.record_probe(len(blocks))
        if len(outputs) != len(blocks):
            raise LearningError("cache interface returned a truncated output trace")
        return outputs[-1]

    def _map_input(self, symbol: PolicyInput, content: Sequence[Block]) -> Block:
        """``mapInput``: translate a policy input into a memory block."""
        if isinstance(symbol, Line):
            if not 0 <= symbol.index < self.associativity:
                raise PolicyError(f"line index {symbol.index} out of range")
            return content[symbol.index]
        if isinstance(symbol, Evict):
            for block in self._universe:
                if block not in content:
                    return block
            raise PolicyError("block universe exhausted: no block outside the cache")
        raise PolicyError(f"unknown policy input {symbol!r}")

    def _find_evicted(
        self,
        accesses: Sequence[Block],
        content: Sequence[Block],
        first: Optional[str] = None,
    ) -> int:
        """``findEvicted``: identify which line the last miss replaced.

        ``first`` is the outcome of line 0's probe when the caller already
        issued it (the replay loop does, before the run it extends); the
        other lines are probed here, in order.
        """
        evicted: Optional[int] = None
        for line in range(self.associativity):
            if line == 0 and first is not None:
                outcome = first
            else:
                outcome = self._probe_last(tuple(accesses) + (content[line],))
            if outcome == MISS:
                if evicted is not None:
                    raise NonDeterminismError(
                        tuple(accesses),
                        (f"line {evicted} evicted",),
                        (f"line {line} also evicted",),
                    )
                evicted = line
        if evicted is None:
            raise NonDeterminismError(
                tuple(accesses),
                ("some line evicted",),
                ("no previously cached block misses",),
            )
        return evicted

    # --------------------------------------------------------------- queries

    def output_query(self, word: Sequence[PolicyInput]) -> Tuple[PolicyOutput, ...]:
        """Return the policy outputs for ``word`` (the learner's output query).

        This is Algorithm 1 with the comparison against an expected trace
        removed: instead of checking outputs it *computes* them.
        """
        word = tuple(word)
        if self._simulator is not None:
            return self._answer_kernel_words([word])[0]
        self.statistics.policy_queries += 1
        self.statistics.policy_symbols += len(word)
        return self._run_symbols(word, list(self._initial_content), [])

    def _answer_kernel_words(
        self, words: Sequence[Tuple[PolicyInput, ...]]
    ) -> List[Tuple[PolicyOutput, ...]]:
        """Answer executed (maximal) words through the kernel, with the same
        counter increments the scalar path would have produced."""
        answers = self._simulator.answer_words(words)
        # An answer fixes its word's cost: it has the word's length, and a
        # victim index exactly where the word has Evct (Ln(i) always hits).
        costs = self._probe_costs
        probes = accesses = 0
        for word, answer in zip(words, answers):
            cost = costs.get(answer)
            if cost is None:
                cost = scalar_probe_cost(word, self.associativity)
                if len(costs) < PROBE_COST_MEMO_BOUND:
                    costs[answer] = cost
            probes += cost[0]
            accesses += cost[1]
        statistics = self.statistics
        statistics.policy_queries += len(words)
        statistics.policy_symbols += sum(map(len, words))
        statistics.cache_probes += probes
        statistics.block_accesses += accesses
        return answers

    def _run_symbols(
        self,
        symbols: Sequence[PolicyInput],
        content: List[Block],
        accesses: List[Block],
    ) -> Tuple[PolicyOutput, ...]:
        """The main loop of Algorithm 1, from the state ``content`` and
        ``accesses`` describe.

        Each step's outcome comes from a full replay probe of the access
        chain, and the probes of each maximal ``Ln(i)`` run
        (with the ``Evct`` closing it) are issued longest first: a run's
        blocks are all known before it executes, because hits never change
        ``content``, so the shorter probes that follow are prefixes of the
        one just issued.  The longest is ``findEvicted``'s line-0 probe when
        an ``Evct`` closes the run; its outcome is handed to
        :meth:`_find_evicted` rather than probed again, so the ledger books
        Algorithm 1's probes unless the run raises before ``findEvicted``
        runs.
        """
        outputs: List[PolicyOutput] = []
        start = 0
        while start < len(symbols):
            stop = start
            while stop < len(symbols) - 1 and isinstance(symbols[stop], Line):
                stop += 1
            run = symbols[start : stop + 1]
            blocks = [self._map_input(symbol, content) for symbol in run]
            first = None
            if isinstance(run[-1], Evict):
                first = self._probe_last(accesses + blocks + [content[0]])
            last = self._probe_last(accesses + blocks)
            for symbol, block in zip(run[:-1], blocks):
                accesses.append(block)
                outcome = self._probe_last(accesses)
                self._observe(symbol, outcome, accesses, content, outputs)
            accesses.append(blocks[-1])
            self._observe(run[-1], last, accesses, content, outputs, first)
            start = stop + 1
        return tuple(outputs)

    def _observe(
        self,
        symbol: PolicyInput,
        outcome: str,
        accesses: List[Block],
        content: List[Block],
        outputs: List[PolicyOutput],
        first: Optional[str] = None,
    ) -> None:
        """Turn the outcome of ``symbol``'s access (the last of ``accesses``)
        into its output, running ``findEvicted`` on a miss.

        ``first`` is ``findEvicted``'s line-0 outcome, if already probed.
        """
        expected = HIT if isinstance(symbol, Line) else MISS
        if outcome != expected:
            # Polca believes the block is cached (``Ln(i)``) or not cached
            # (``Evct``), the cache disagrees: the reset sequence is broken
            # or the cache is not deterministic.
            raise NonDeterminismError(tuple(accesses), (expected,), (outcome,))
        if outcome == HIT:
            outputs.append(MISS_OUTPUT)
        else:
            evicted = self._find_evicted(accesses, content, first)
            content[evicted] = accesses[-1]
            outputs.append(evicted)

    def output_query_batch(
        self, words: Sequence[Sequence[PolicyInput]]
    ) -> List[Tuple[PolicyOutput, ...]]:
        """Answer a batch of policy words, executing every one of them.

        The query engine hands Polca only distinct, prefix-free misses (see
        :mod:`repro.learning.query_engine`), so nothing is deduped here.
        With a kernel bound the words go through the tabulated simulator as
        one lockstep chunk; otherwise each runs through :meth:`output_query`.
        """
        words = [tuple(word) for word in words]
        if self._simulator is None:
            return [self.output_query(word) for word in words]
        return self._answer_kernel_words(words)

    def check_trace(self, trace: Trace) -> bool:
        """Decide whether ``trace`` belongs to the policy semantics ``[[P]]``.

        Faithful to Algorithm 1: the expected outputs are compared step by
        step and the first mismatch returns ``False``.
        """
        expected = trace.outputs
        word = trace.inputs
        produced = self.output_query(word[: len(expected)])
        return produced == tuple(expected)


def polca_check_trace(cache: CacheProbeInterface, trace: Trace) -> bool:
    """Convenience wrapper: run Algorithm 1 once against ``cache``."""
    return PolcaMembershipOracle(cache).check_trace(trace)
