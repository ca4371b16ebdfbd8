"""Base classes for replacement policies.

A replacement policy (Definition 2.1) is a Mealy machine over the alphabet
``{Ln(0), ..., Ln(n-1), Evct}``.  Rather than writing transition tables by
hand, concrete policies implement two pure functions over an opaque, hashable
control state:

* ``on_hit(state, line)`` — the update performed when the block in ``line``
  is accessed (the policy outputs ``⊥``);
* ``on_miss(state)`` — the update performed when a block must be evicted;
  it returns the new state *and* the index of the victim line.

:meth:`ReplacementPolicy.step` adapts these to the policy alphabet, and
:meth:`ReplacementPolicy.to_mealy` enumerates the reachable control states
into an explicit :class:`~repro.core.mealy.MealyMachine`.
"""

from __future__ import annotations

import abc
from typing import Hashable, Optional, Tuple

from repro.core.alphabet import (
    EVICT,
    MISS_OUTPUT,
    Evict,
    Line,
    PolicyInput,
    PolicyOutput,
    policy_input_alphabet,
)
from repro.core.mealy import MealyMachine, mealy_from_step_function
from repro.errors import PolicyError

PolicyState = Hashable


class ReplacementPolicy(abc.ABC):
    """Abstract deterministic replacement policy of a fixed associativity.

    :meth:`initial_state`, :meth:`on_hit`, :meth:`on_fill` and
    :meth:`on_miss` must be pure functions of their arguments: the same
    state and line always give the same result, and nothing outside the
    returned state may change.  A policy with a counter or other history
    keeps it in its state (BRRIP's throttle counter).  The cache model
    relies on this: each :class:`~repro.cache.cacheset.CacheSet` memoizes
    ``on_hit``, ``on_fill`` and ``on_miss`` and calls the policy only for a
    transition it has not taken before.
    """

    #: Short, human-readable policy name (e.g. ``"LRU"``); set by subclasses.
    name: str = "policy"

    #: Whether this policy may be compiled into a flat transition table
    #: (:meth:`tabulate`).  Policies whose control state space is unbounded
    #: or data-dependent set this to ``False``; ``kernel="auto"`` consumers
    #: then fall back to the scalar stepper.
    supports_tabulation: bool = True

    #: Reachable-state budget for :meth:`tabulate`.  ``None`` defers to
    #: :data:`repro.simkernel.tables.DEFAULT_STATE_BOUND`; policies with a
    #: known large-but-bounded state space can raise it.
    tabulation_state_bound: Optional[int] = None

    def __init__(self, associativity: int) -> None:
        if associativity < 1:
            raise PolicyError(f"associativity must be >= 1, got {associativity}")
        self.associativity = associativity

    # ------------------------------------------------------------- interface

    @abc.abstractmethod
    def initial_state(self) -> PolicyState:
        """Return the initial control state (after a cache reset)."""

    @abc.abstractmethod
    def on_hit(self, state: PolicyState, line: int) -> PolicyState:
        """Return the control state after a hit on ``line``."""

    @abc.abstractmethod
    def on_miss(self, state: PolicyState) -> Tuple[PolicyState, int]:
        """Return ``(new_state, victim_line)`` for a miss."""

    def on_fill(self, state: PolicyState, line: int) -> PolicyState:
        """Return the control state after a miss is served by filling an *invalid* line.

        Real caches allocate invalid ways before evicting valid ones; the
        replacement metadata of the filled way is then updated with the
        policy's *insertion* rule.  The default treats the fill like an
        access to that line, which is correct for recency-style policies
        (LRU, PLRU, MRU); age-based policies override it to apply their
        insertion age.  This hook is only used by the hardware cache model
        (:mod:`repro.cache.cacheset`); the abstract cache of Definition 2.3
        always starts full and never calls it.
        """
        return self.on_hit(state, line)

    # ------------------------------------------------------------- derived

    def step(self, state: PolicyState, symbol: PolicyInput) -> Tuple[PolicyState, PolicyOutput]:
        """Advance the policy by one input symbol of the policy alphabet."""
        if isinstance(symbol, Line):
            if not 0 <= symbol.index < self.associativity:
                raise PolicyError(
                    f"{self.name}: line {symbol.index} out of range for associativity "
                    f"{self.associativity}"
                )
            return self.on_hit(state, symbol.index), MISS_OUTPUT
        if isinstance(symbol, Evict):
            new_state, victim = self.on_miss(state)
            if not 0 <= victim < self.associativity:
                raise PolicyError(
                    f"{self.name}: on_miss returned invalid victim line {victim}"
                )
            return new_state, victim
        raise PolicyError(f"{self.name}: unknown policy input {symbol!r}")

    def input_alphabet(self) -> Tuple[PolicyInput, ...]:
        """Return the policy's input alphabet ``Ln(0)..Ln(n-1), Evct``."""
        return policy_input_alphabet(self.associativity)

    def to_mealy(self, *, max_states: int = 1_000_000) -> MealyMachine:
        """Enumerate the policy into an explicit Mealy machine.

        The result is the reachable fragment from the initial state; call
        ``.minimize()`` on it to obtain the canonical state count (the numbers
        reported in Table 2 of the paper).
        """
        return mealy_from_step_function(
            self.initial_state(),
            self.input_alphabet(),
            self.step,
            max_states=max_states,
            name=f"{self.name}-{self.associativity}",
        )

    def state_count(self, *, max_states: int = 1_000_000) -> int:
        """Return the number of states of the minimal machine for this policy."""
        return self.to_mealy(max_states=max_states).minimize().size

    def stepper(self) -> "PolicyStepper":
        """Return a mutable cursor over this policy, starting at the initial state."""
        return PolicyStepper(self)

    def tabulate(self, *, max_states: Optional[int] = None):
        """Compile this policy into a flat transition table.

        Returns a :class:`~repro.simkernel.tables.TabulatedPolicy` for the
        execution kernels in :mod:`repro.simkernel`.  The state bound is
        ``max_states`` if given, else :attr:`tabulation_state_bound`, else
        the subsystem default; exceeding it, or
        ``supports_tabulation = False``, raises a clean
        :class:`~repro.errors.PolicyError`.
        """
        from repro.simkernel.tables import tabulate_policy

        return tabulate_policy(self, max_states=max_states)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(associativity={self.associativity})"


class PolicyStepper:
    """A mutable cursor over a policy's control state.

    The policy object itself stays immutable and can be shared; the cursor
    holds the state.  (Cache sets do not use steppers: a
    :class:`~repro.cache.cacheset.CacheSet` holds its own state and memoizes
    the policy's transitions.)
    """

    def __init__(self, policy: ReplacementPolicy) -> None:
        self.policy = policy
        self.state: PolicyState = policy.initial_state()

    def hit(self, line: int) -> None:
        """Record a hit on ``line``."""
        self.state = self.policy.on_hit(self.state, line)

    def miss(self) -> int:
        """Record a miss; return the victim line chosen by the policy."""
        self.state, victim = self.policy.on_miss(self.state)
        return victim

    def evict_output(self) -> int:
        """Peek at the victim the policy would choose now, without stepping."""
        _, victim = self.policy.on_miss(self.state)
        return victim

    def reset(self) -> None:
        """Return to the policy's initial state."""
        self.state = self.policy.initial_state()

    def apply(self, symbol: PolicyInput) -> PolicyOutput:
        """Apply one policy-alphabet symbol and return its output."""
        self.state, output = self.policy.step(self.state, symbol)
        return output

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PolicyStepper({self.policy.name}, state={self.state!r})"


def evict_alphabet_symbol() -> PolicyInput:
    """Return the eviction-request symbol (convenience re-export)."""
    return EVICT
