"""Conformance-test suite generation: W-method and Wp-method.

The paper approximates equivalence queries by conformance testing
(Section 3.3): a test suite that is *m-complete* for the hypothesis ``H``
guarantees that any policy with fewer than ``m`` states that agrees with
``H`` on the suite is trace-equivalent to it (Theorem 3.3).  The classic
constructions are:

* the **W-method** (Chow): ``P · Σ^{≤k+1} · W`` where ``P`` is a transition
  cover of ``H``, ``W`` a characterization set, and ``k`` the *depth* — the
  number of extra states beyond ``|H|`` the suite can expose;
* the **Wp-method** (Fujiwara et al., the method named in the paper): the
  same first phase with the state cover, and a cheaper second phase that
  uses per-state identification sets instead of the full ``W``.

Both constructions are provided; the equivalence oracle always runs the
Wp-method, at depth ``k = 1`` in the paper's experiments.

Streaming
---------

At depth ≥ 2 the suites grow into the hundreds of thousands of words
(PLRU-8: ~350k), and materialising them in the parent process used to take
noticeable time before the first test word could be executed.
:func:`iter_w_method_suite` / :func:`iter_wp_method_suite` generate the
**same words in the same order** lazily: the covers and
characterization machinery are built eagerly (so a non-minimal machine
still fails fast with :class:`~repro.errors.LearningError`), but the
cross-product enumeration is a generator the conformance tester can drain
chunk by chunk.  The list-returning :func:`w_method_suite` /
:func:`wp_method_suite` are thin wrappers kept for callers that genuinely
need the whole suite (suite-size accounting, tests).

The only per-word state the generators keep is the deduplication set —
O(distinct words) keys, unavoidable for exact parity with the materialised
suites — but words are *yielded* one at a time, so execution overlaps
generation and the parent's queued-word footprint is bounded by the
consumer's chunk size instead of the full suite.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import (
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.mealy import MealyMachine
from repro.errors import LearningError

Input = Hashable
Word = Tuple[Input, ...]


# --------------------------------------------------------------------- covers

def state_cover(machine: MealyMachine) -> Dict[Hashable, Word]:
    """Return a shortest access word for every state (BFS from the initial state)."""
    rows = machine.rows
    cover: Dict[Hashable, Word] = {machine.initial_state: ()}
    frontier: List[Hashable] = [machine.initial_state]
    while frontier:
        next_frontier: List[Hashable] = []
        for state in frontier:
            for symbol, (successor, _) in rows[state].items():
                if successor not in cover:
                    cover[successor] = cover[state] + (symbol,)
                    next_frontier.append(successor)
        frontier = next_frontier
    return cover


def transition_cover(machine: MealyMachine) -> List[Word]:
    """Return the transition cover: every state's access word extended by every input."""
    cover = state_cover(machine)
    words: List[Word] = []
    for state in machine.states:
        access = cover.get(state)
        if access is None:
            continue
        for symbol in machine.inputs:
            words.append(access + (symbol,))
    return words


# --------------------------------------------------- characterization machinery

def _distinguishing_suffix(
    machine: MealyMachine,
    state_a: Hashable,
    state_b: Hashable,
    cache: Optional[Dict[frozenset, Word]] = None,
) -> Word:
    """Return a shortest input word on which ``state_a`` and ``state_b`` differ.

    The search is symmetric in its two states (swapping them swaps both
    roles everywhere in the BFS), so an optional ``cache`` keyed by the
    unordered pair lets one suite generation reuse the suffix the
    characterization pass already found when the identification pass asks
    about the same pair — same word either way, just computed once.
    """
    if state_a == state_b:
        raise LearningError("cannot distinguish a state from itself")
    if cache is not None:
        pair_key = frozenset((state_a, state_b))
        hit = cache.get(pair_key)
        if hit is not None:
            return hit
    rows = machine.rows
    visited: Set[Tuple[Hashable, Hashable]] = {(state_a, state_b)}
    queue: Deque[Tuple[Hashable, Hashable, Word]] = deque([(state_a, state_b, ())])
    while queue:
        current_a, current_b, word = queue.popleft()
        row_b = rows[current_b]
        for symbol, (next_a, out_a) in rows[current_a].items():
            next_b, out_b = row_b[symbol]
            if out_a != out_b:
                extended = word + (symbol,)
                if cache is not None:
                    cache[pair_key] = extended
                return extended
            pair = (next_a, next_b)
            if pair not in visited:
                visited.add(pair)
                queue.append((next_a, next_b, word + (symbol,)))
    raise LearningError(
        "states are equivalent; the machine is not minimal"
    )


def characterization_set(
    machine: MealyMachine, *, _suffix_cache: Optional[Dict[frozenset, Word]] = None
) -> List[Word]:
    """Return a characterization set ``W``: suffixes separating every state pair.

    The machine must be minimal (the learner's hypotheses are by
    construction).  The set is built greedily: for every pair of states
    ``(a, b)``, in state order, that the current ``W`` does not separate, a
    shortest distinguishing suffix is added.

    The pairs are not visited one by one.  The states after ``a`` are kept
    in blocks of equal signature (their outputs on ``W``), so the next
    unseparated partner of ``a`` is the first state of ``a``'s block, and
    only a new suffix re-splits the blocks.  That costs O(|S|·|W|) steps
    instead of O(|S|²), and the suffixes are the pair scan's, in its order.
    A signature is extended only as far as the pair scan would have
    extended it (through the last pair its state takes part in), so
    ``machine.run`` fires exactly as often too.
    """
    states = list(machine.states)
    if len(states) <= 1:
        # Any single-symbol word works as a placeholder so product sets are
        # non-empty.
        return [(machine.inputs[0],)]
    run = machine.run
    last = len(states) - 1
    w_set: List[Word] = []
    signatures: List[Tuple] = [()] * len(states)
    # Signature -> indices of the states after the current ``a``, ascending.
    blocks: Dict[Tuple, Deque[int]] = {(): deque(range(len(states)))}
    for index, state_a in enumerate(states):
        block = blocks[signatures[index]]
        block.popleft()  # state_a: the first of the states still in blocks
        while block:
            partner = block[0]
            suffix = _distinguishing_suffix(machine, state_a, states[partner], _suffix_cache)
            w_set.append(suffix)
            if index < last - 1:
                # Every later state takes part in a later pair, which would
                # extend its signature: extend it now and re-split the blocks.
                blocks = {}
                for later in range(index + 1, len(states)):
                    signature = signatures[later] + (run(suffix, states[later]),)
                    signatures[later] = signature
                    blocks.setdefault(signature, deque()).append(later)
            if partner == last:
                break  # a's last pair: its signature stops here
            signatures[index] += (run(suffix, state_a),)
            block = blocks.get(signatures[index], ())
    return w_set


def identification_sets(
    machine: MealyMachine, *, _suffix_cache: Optional[Dict[frozenset, Word]] = None
) -> Dict[Hashable, List[Word]]:
    """Return per-state identification sets ``W_s`` (for the Wp-method phase 2).

    ``W_s`` distinguishes ``s`` from every other state of the machine.  It
    is built greedily, as a scan over the other states in state order that
    adds a shortest distinguishing suffix for each state the suffixes so
    far do not separate from ``s``.

    The scan is not run pair by pair.  Each state keeps the ordered list of
    the states it has not separated yet; the first of them gets the next
    suffix, and the list is filtered once by that suffix.  Output tails are
    memoised per ``(suffix, state)`` across the whole construction, so each
    is run at most once.  The sets are the pair scan's, in its order.
    """
    states = list(machine.states)
    run = machine.run
    sets: Dict[Hashable, List[Word]] = {}
    tails: Dict[Word, Dict[Hashable, Tuple]] = {}
    for state in states:
        suffixes: List[Word] = []
        unseparated = [other for other in states if other != state]
        while unseparated:
            suffix = _distinguishing_suffix(machine, state, unseparated[0], _suffix_cache)
            suffixes.append(suffix)
            # The suffix separates the state it was found for by construction.
            rest = unseparated[1:]
            if not rest:
                break
            column = tails.get(suffix)
            if column is None:
                column = tails[suffix] = {}
            own = column.get(state)
            if own is None:
                own = column[state] = run(suffix, state)
            unseparated = []
            for other in rest:
                tail = column.get(other)
                if tail is None:
                    tail = column[other] = run(suffix, other)
                if tail == own:
                    unseparated.append(other)
        if not suffixes:
            suffixes.append((machine.inputs[0],))
        sets[state] = suffixes
    return sets


# ----------------------------------------------------------------- test suites

def _middle_words(alphabet: Sequence[Input], depth: int) -> List[Word]:
    """Return all words over ``alphabet`` of length 0..depth, shortest first."""
    return [word for length in range(depth + 1) for word in product(alphabet, repeat=length)]


def iter_w_method_suite(machine: MealyMachine, depth: int = 1) -> Iterator[Word]:
    """Yield the W-method suite ``P · Σ^{≤depth} · W`` lazily (deduplicated).

    Validation and the cover/characterization constructions run eagerly —
    a negative depth or a non-minimal machine raises before the first word
    — but the cross-product enumeration is lazy, in exactly the order the
    materialised :func:`w_method_suite` returns.
    """
    if depth < 0:
        raise LearningError(f"depth must be >= 0, got {depth}")
    prefixes = transition_cover(machine)
    w_set = characterization_set(machine, _suffix_cache={})

    def generate() -> Iterator[Word]:
        seen: Set[Word] = set()
        middles = _middle_words(machine.inputs, depth)
        for prefix in prefixes:
            for middle in middles:
                stem = prefix + middle
                for suffix in w_set:
                    word = stem + suffix
                    if word and word not in seen:
                        seen.add(word)
                        yield word

    return generate()


def w_method_suite(machine: MealyMachine, depth: int = 1) -> List[Word]:
    """Return the W-method test suite ``P · Σ^{≤depth} · W`` (deduplicated)."""
    return list(iter_w_method_suite(machine, depth))


def iter_wp_method_suite(machine: MealyMachine, depth: int = 1) -> Iterator[Word]:
    """Yield the Wp-method suite lazily, in the materialised suite's order.

    Phase 1 checks every state of the hypothesis with the full
    characterization set; phase 2 checks every transition (extended by up to
    ``depth`` extra symbols) with the identification set of the state it is
    supposed to reach.  As with :func:`iter_w_method_suite`, validation and
    the characterization machinery run eagerly; enumeration is lazy.
    """
    if depth < 0:
        raise LearningError(f"depth must be >= 0, got {depth}")
    access = state_cover(machine)
    suffix_cache: Dict[frozenset, Word] = {}
    w_set = characterization_set(machine, _suffix_cache=suffix_cache)

    def generate() -> Iterator[Word]:
        # A word is new when adding it grows the set: one hash per word.
        seen: Set[Word] = set()
        add = seen.add
        count = 0
        middles = _middle_words(machine.inputs, depth)

        # Phase 1: state cover x Sigma^{<=depth} x W.
        for base in access.values():
            for middle in middles:
                stem = base + middle
                for suffix in w_set:
                    word = stem + suffix
                    if word:
                        add(word)
                        if len(seen) > count:
                            count += 1
                            yield word

        # Phase 2: transition cover x Sigma^{<=depth} x W_{target state}.
        # The identification sets are built only when phase 2 actually
        # starts: a conformance round whose counterexample surfaces in
        # phase 1 never pays for them (the fail-fast minimality guarantee
        # is unchanged — ``characterization_set`` above already raises on a
        # non-minimal machine, and a machine it accepts cannot make
        # ``identification_sets`` fail).
        ident = identification_sets(machine, _suffix_cache=suffix_cache)
        for state in machine.states:
            base = access.get(state)
            if base is None:
                continue
            for symbol in machine.inputs:
                prefix = base + (symbol,)
                reached, _ = machine.step(state, symbol)
                for middle in middles:
                    stem = prefix + middle
                    target = machine.state_after(middle, reached)
                    for suffix in ident[target]:
                        word = stem + suffix
                        if word:
                            add(word)
                            if len(seen) > count:
                                count += 1
                                yield word

    return generate()


def wp_method_suite(machine: MealyMachine, depth: int = 1) -> List[Word]:
    """Return the Wp-method test suite for ``machine`` with the given depth."""
    return list(iter_wp_method_suite(machine, depth))


def suite_total_symbols(suite: Iterable[Word]) -> int:
    """Return the total number of input symbols in a test suite (cost metric)."""
    return sum(len(word) for word in suite)
