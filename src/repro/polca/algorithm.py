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

Two entry points are provided: :meth:`PolcaMembershipOracle.output_query`,
the output-query form used by the learner, and :func:`polca_check_trace`,
the boolean membership form that matches Algorithm 1 literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.cache.cacheset import HIT, MISS
from repro.core.alphabet import (
    EVICT,
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


def scalar_probe_cost(
    word: Sequence[PolicyInput], associativity: int
) -> Tuple[int, int]:
    """Return ``(probes, block_accesses)`` the scalar path would issue for ``word``.

    Derived from :meth:`PolcaMembershipOracle._run_symbols` with sessions
    off and an empty resumed prefix: the symbol at 0-based position ``k``
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
    #: Measurement sessions opened on the cache interface (``resume=True``).
    sessions_opened: int = 0
    #: Incremental session extensions (each replaces a full replay probe).
    session_extends: int = 0
    #: Policy symbols answered from cached prefixes without re-executing them.
    resumed_symbols: int = 0

    def record_probe(self, length: int) -> None:
        """Record one probe of ``length`` block accesses."""
        self.cache_probes += 1
        self.block_accesses += length

    def record_extend(self, length: int) -> None:
        """Record one session extension of ``length`` block accesses."""
        self.session_extends += 1
        self.block_accesses += length


def supports_sessions(cache) -> bool:
    """True when ``cache`` implements the measurement-session extension."""
    return bool(getattr(cache, "supports_sessions", False)) and all(
        callable(getattr(cache, name, None))
        for name in ("open_session", "extend", "close_session")
    )


class PolcaMembershipOracle:
    """A policy-level membership/output oracle built on a cache interface.

    With ``resume=True`` the oracle advertises the learning stack's resume
    protocol (``supports_resume`` / :meth:`output_query_resume`): the query
    engine then executes only the un-cached *suffix* of each word,
    reconstructing Polca's state after the cached prefix purely from the
    prefix's recorded outputs — no probe ever re-derives what the cache
    already answered.  When the interface additionally implements
    measurement sessions (``supports_sessions`` — both the simulated
    interface and CacheQuery do), the Hit-chain of Algorithm 1 runs
    incrementally through one open session instead of replaying the whole
    access chain per symbol; ``findEvicted``'s diverging probes still
    replay, and the session is re-anchored afterwards.

    ``resume`` changes which measurements execute (strictly fewer), so
    serial and process-parallel runs only report identical probe counters
    when both use the same setting; the pipeline keeps it off for parallel
    runs (a session is inherently a serial, stateful object).

    ``kernel`` selects the execution strategy for *simulated* targets.
    Under ``"auto"``, when the interface exposes ``kernel_policy`` (it
    guarantees policy-exact probe semantics — the simulated cache starts
    full), the oracle compiles the policy into a flat transition table and
    answers whole batches through a
    :class:`~repro.simkernel.batch.BatchSimulator` instead of probing
    symbol by symbol.  Answers are bit-identical to the scalar path and
    the probe/access counters are kept identical too, via
    :func:`scalar_probe_cost` accounting.  ``"auto"`` runs the scalar path
    when there is no ``kernel_policy``, when the policy does not tabulate
    and under ``resume=True``; ``"scalar"`` (the default) always does.
    :attr:`kernel_in_use` reports what actually runs.
    """

    def __init__(
        self,
        cache: CacheProbeInterface,
        *,
        resume: bool = False,
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
        self.resume = bool(resume)
        self._use_sessions = self.resume and supports_sessions(cache)
        self.statistics = PolcaStatistics()
        if kernel not in POLCA_KERNELS:
            raise PolicyError(
                f"unknown simulator kernel {kernel!r}; choose one of {POLCA_KERNELS}"
            )
        self._simulator = self._build_simulator() if kernel == "auto" else None
        #: Execution strategy actually answering queries: ``"scalar"`` or
        #: ``"python"`` (the tabulated kernel).
        self.kernel_in_use = (
            "scalar" if self._simulator is None else self._simulator.kernel
        )

    def _build_simulator(self) -> Optional[BatchSimulator]:
        """Try to bind the tabulated fast path; ``None`` means scalar fallback."""
        kernel_policy = getattr(self.cache, "kernel_policy", None)
        if not callable(kernel_policy) or self.resume:
            # The resume protocol reconstructs Polca state from cached prefix
            # outputs and drives measurement sessions — an inherently scalar,
            # stateful execution; the kernel answers from the initial state.
            return None
        try:
            return BatchSimulator(kernel_policy())
        except PolicyError:
            return None

    @property
    def supports_resume(self) -> bool:
        """Advertised to the query engine (see :mod:`repro.learning.query_engine`)."""
        return self.resume

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

    def _find_evicted(self, accesses: Sequence[Block], content: Sequence[Block]) -> int:
        """``findEvicted``: identify which line the last miss replaced."""
        evicted: Optional[int] = None
        for line in range(self.associativity):
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
        for word in words:
            self.statistics.policy_queries += 1
            self.statistics.policy_symbols += len(word)
            probes, accesses = scalar_probe_cost(word, self.associativity)
            self.statistics.cache_probes += probes
            self.statistics.block_accesses += accesses
        return answers

    def output_query_resume(
        self,
        prefix: Sequence[PolicyInput],
        suffix: Sequence[PolicyInput],
        prefix_outputs: Optional[Sequence[PolicyOutput]] = None,
    ) -> Tuple[PolicyOutput, ...]:
        """Answer ``prefix + suffix`` executing only ``suffix``'s measurements.

        ``prefix_outputs`` — the caller's cached answer for ``prefix`` —
        lets Polca reconstruct its state (cache content and access chain)
        after the prefix *symbolically*: each output says which line the
        access filled, so no probe touches the system for the resumed part.
        The query engine always provides it; calling without it is an error
        because Polca, unlike a machine-backed oracle, cannot re-derive the
        state without re-measuring the prefix.
        """
        prefix = tuple(prefix)
        suffix = tuple(suffix)
        if prefix_outputs is None:
            raise LearningError(
                "Polca resume needs the cached prefix outputs to reconstruct "
                "its state (pass prefix_outputs)"
            )
        prefix_outputs = tuple(prefix_outputs)
        if len(prefix_outputs) != len(prefix):
            raise LearningError(
                f"resume prefix of length {len(prefix)} needs exactly "
                f"{len(prefix)} outputs, got {len(prefix_outputs)}"
            )
        content: List[Block] = list(self._initial_content)
        accesses: List[Block] = []
        for symbol, output in zip(prefix, prefix_outputs):
            block = self._map_input(symbol, content)
            accesses.append(block)
            if output != MISS_OUTPUT:
                content[output] = block
        self.statistics.policy_queries += 1
        self.statistics.policy_symbols += len(suffix)
        self.statistics.resumed_symbols += len(prefix)
        return self._run_symbols(suffix, content, accesses)

    def _run_symbols(
        self,
        symbols: Sequence[PolicyInput],
        content: List[Block],
        accesses: List[Block],
    ) -> Tuple[PolicyOutput, ...]:
        """The main loop of Algorithm 1, from an arbitrary reconstructed state.

        Without sessions each step's outcome comes from a full replay probe
        of the access chain; with sessions the Hit-chain extends one open
        session incrementally, and only ``findEvicted``'s diverging probes
        (which trash the live state, on hardware and simulator alike) force
        a re-anchoring replay.
        """
        outputs: List[PolicyOutput] = []
        session_live = self._use_sessions and self._session_anchor(accesses)
        try:
            for symbol in symbols:
                block = self._map_input(symbol, content)
                accesses.append(block)
                if session_live:
                    extended = self.cache.extend((block,))
                    if len(extended) != 1:
                        raise LearningError(
                            "cache interface returned a truncated session extension"
                        )
                    self.statistics.record_extend(1)
                    outcome = extended[0]
                else:
                    outcome = self._probe_last(accesses)
                if isinstance(symbol, Line) and outcome != HIT:
                    # Polca believes the block is cached, the cache disagrees:
                    # the reset sequence is broken or the cache is not
                    # deterministic.
                    raise NonDeterminismError(tuple(accesses), (HIT,), (outcome,))
                if outcome == HIT:
                    outputs.append(MISS_OUTPUT)
                    continue
                evicted = self._find_evicted(accesses, content)
                content[evicted] = block
                outputs.append(evicted)
                if session_live:
                    # findEvicted's probes reset the underlying set, so the
                    # open session no longer reflects the access chain.
                    session_live = self._session_anchor(accesses)
        finally:
            if self._use_sessions:
                self.cache.close_session()
        return tuple(outputs)

    def _session_anchor(self, accesses: Sequence[Block]) -> bool:
        """(Re-)open a measurement session and replay the access chain into it."""
        self.cache.open_session()
        self.statistics.sessions_opened += 1
        if accesses:
            outcomes = self.cache.extend(tuple(accesses))
            self.statistics.record_extend(len(accesses))
            if len(outcomes) != len(accesses):
                raise LearningError(
                    "cache interface returned a truncated session replay"
                )
        return True

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
