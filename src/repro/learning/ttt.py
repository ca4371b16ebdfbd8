"""TTT classification-tree learner for Mealy machines.

Where L* (:class:`~repro.learning.learner.MealyLearner`) refills an
O(|S×Σ|·|E|) observation table on every stabilisation round, this learner
maintains a Kearns–Vazirani *classification tree*: inner nodes carry
distinguishing suffixes, leaves carry access words — one leaf per
discovered state.  A word is classified by *sifting* it down the tree: at
each inner node the oracle answers ``word + suffix`` and the output tail
selects the child to descend into; a tail with no child yet discovers a
new state on the spot.  Each equivalence counterexample is decomposed with
the Rivest–Schapire binary search and adds exactly one leaf (state) plus
one discriminator.

On top of that tree it applies the two ideas of Isberner et al.'s TTT
algorithm (the successor of KV that AALpy ships — see SNIPPETS.md
snippet 1):

* **Discriminator finalization** — a split's Rivest–Schapire suffix is
  marked *temporary* and immediately challenged: single-symbol candidates
  are verified with one batched probe round (the probe words are the
  split leaves' output words, which the next hypothesis build needs
  anyway, so the verification is almost free), and one-symbol extensions
  of already-final discriminators are accepted when the response trie can
  decide them without executing anything.  A candidate replaces the
  temporary suffix only when real target answers prove it separates the
  two split leaves, so the tree invariant — the target separates the
  leaves at every inner node — survives every re-keying.

* **Incremental sifting** — the tree keeps a residency map from each leaf
  to the transition words parked on it plus a persistent transition and
  output table.  After a split only the words resident on the split leaf
  re-sift (they descend exactly one level, through the — ideally just
  finalized — new discriminator); everything else keeps its entry, so
  :meth:`TTTTree.hypothesis` costs O(new evidence), not O(all
  transitions).

The tree has no seeded discriminators: the root is one single-symbol
suffix, and every other inner node was created by a split.

The learner plugs in behind the :class:`~repro.learning.learner.ActiveLearner`
interface, so it transparently reuses the batched query engine (every sift
level is one deduped / prefix-subsumed batch, whose misses run on worker
processes when the engine's delegate is a worker pool), the simkernel
``--kernel`` path and ``--cache-path`` stores, which live below the
membership oracle and never see which learner is asking.

Mealy-specific subtlety: intermediate tree hypotheses need not be minimal
(two leaves can be merged behaviourally until a discriminator separates
them *in the hypothesis*), but the Wp-method suite generator requires
minimal machines (see :func:`~repro.learning.wpmethod.characterization_set`).
:meth:`TTTLearner._stable_hypothesis` therefore repairs minimality
internally: any equivalent state pair yields an internal counterexample
from the pair's lowest common ancestor suffix, which refines the tree
without spending an equivalence query.

The learned machines equal L*'s: every learner converges on the canonical
minimal machine of the target, whatever refinement trajectory it takes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.counterexample import rivest_schapire_split
from repro.learning.learner import ActiveLearner
from repro.learning.oracles import MembershipOracle
from repro.learning.query_engine import output_query_batch

Input = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Hashable, ...]


class _Leaf:
    """A leaf of the classification tree: one discovered state.

    ``access`` is the state's access word; ``state`` its index in creation
    order (the hypothesis state id).  ``parent``/``key`` locate the leaf in
    its parent's child map so a split can replace it in O(1).
    """

    __slots__ = ("access", "state", "parent", "key")

    def __init__(
        self,
        access: Word,
        state: int,
        parent: Optional["_Inner"],
        key: Optional[OutputWord],
    ) -> None:
        self.access = access
        self.state = state
        self.parent = parent
        self.key = key


class _Inner:
    """An inner node: a distinguishing suffix with output-tail children.

    ``temporary`` marks a discriminator taken verbatim from a
    Rivest–Schapire decomposition (so its length tracks the
    counterexample, not the tree) that finalization has not yet replaced
    by a verified shorter one.
    """

    __slots__ = ("suffix", "children", "parent", "key", "temporary")

    def __init__(
        self,
        suffix: Word,
        parent: Optional["_Inner"],
        key: Optional[OutputWord],
    ) -> None:
        self.suffix = suffix
        self.children: Dict[OutputWord, _Node] = {}
        self.parent = parent
        self.key = key
        self.temporary = False


_Node = Union[_Leaf, _Inner]


class TTTTree:
    """The classification tree of the TTT learner.

    The tree starts as a single inner node (the root discriminator, one
    input symbol) with no leaves.  Two operations grow it:

    * :meth:`hypothesis` sifts every transition word and creates a leaf
      whenever a word's output tail has no child yet — sift-based state
      discovery;
    * :meth:`split` replaces a leaf by an inner node with two children —
      the Rivest–Schapire decomposition of a counterexample.

    Access words are prefix-closed by construction (every new access word
    extends an existing one by a single symbol), which keeps the key
    invariant that the hypothesis agrees with the target on every access
    word — the foundation of the binary-search soundness argument in
    :meth:`refine`.
    """

    def __init__(self, alphabet: Sequence[Input], oracle: MembershipOracle) -> None:
        if not alphabet:
            raise LearningError("cannot learn over an empty input alphabet")
        self.alphabet = tuple(alphabet)
        self.oracle = oracle
        self._access: List[Word] = []
        self._leaves: Dict[Word, _Leaf] = {}
        #: Growth accounting, reported by the pipeline: how many states each
        #: discovery mechanism contributed and how many internal minimality
        #: repairs ran.
        self.leaves_from_sifting = 0
        self.leaves_from_splits = 0
        self.internal_refinements = 0
        # The root is the one unavoidable Mealy discriminator — some single
        # symbol.  The initial state's leaf is created lazily by the first
        # :meth:`hypothesis` call, where ε's root probe batches together with
        # the transition probes that prefix-subsume it.
        self.root = _Inner((self.alphabet[0],), None, None)
        # Persistent hypothesis state: the transition/output tables survive
        # across rebuilds, and ``_pending`` holds the sift entries that still
        # have to descend ([state, symbol, word, node]).  ``_residents`` maps
        # each leaf to the transition words currently parked on it, so a
        # split knows the *only* words its new discriminator can re-route.
        self._transitions: Dict[Tuple[int, Input], int] = {}
        self._outputs: Dict[Tuple[int, Input], Hashable] = {}
        self._pending: List[List] = []
        self._residents: Dict[_Leaf, List[Tuple[int, Input]]] = {}
        self._scheduled_states = 0
        self._temporaries: List[_Inner] = []
        #: Temporary discriminators replaced by a verified shortest candidate
        #: (length-1 Rivest–Schapire suffixes count: they are already optimal).
        self.discriminators_finalized = 0
        #: ``(temporary length, finalized length)`` per finalization, in
        #: finalization order — the "finalized never longer" pin.
        self.finalization_shrinkage: List[Tuple[int, int]] = []
        #: Transition words re-enqueued per split, in split order; each entry
        #: is bounded by the split leaf's fan-in, not the transition table.
        self.words_resifted_per_split: List[int] = []
        #: Probe words submitted (mostly trie hits) while verifying
        #: finalization candidates.
        self.finalization_probe_words = 0

    # ------------------------------------------------------------- inspection

    @property
    def num_states(self) -> int:
        return len(self._access)

    def access_words(self) -> Tuple[Word, ...]:
        """Access words in state order (state ``i`` → ``access_words()[i]``)."""
        return tuple(self._access)

    def access_word(self, state: int) -> Word:
        return self._access[state]

    def discriminators(self) -> Tuple[Word, ...]:
        """All distinguishing suffixes currently in the tree (preorder)."""
        suffixes: List[Word] = []
        stack: List[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                suffixes.append(node.suffix)
                stack.extend(node.children.values())
        return tuple(suffixes)

    def discriminator_lengths(self) -> Dict[int, int]:
        """Histogram ``{suffix length: count}`` over the tree's discriminators.

        Only discriminators with at least one leaf below them count — a
        bare root that never sifted a word is not a discriminator the
        learner ever paid for.
        """
        histogram: Dict[int, int] = {}
        stack: List[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner) and node.children:
                histogram[len(node.suffix)] = histogram.get(len(node.suffix), 0) + 1
                stack.extend(node.children.values())
        return histogram

    @property
    def max_discriminator_length(self) -> int:
        """Longest discriminator a sift can currently pay for (0 for a bare tree)."""
        histogram = self.discriminator_lengths()
        return max(histogram) if histogram else 0

    @property
    def temporary_discriminators(self) -> int:
        """Temporary discriminators still awaiting finalization."""
        return sum(1 for node in self._temporaries if node.temporary)

    # -------------------------------------------------------------- internals

    def _create_leaf(
        self,
        access: Word,
        parent: _Inner,
        key: OutputWord,
        *,
        origin: str,
    ) -> _Leaf:
        leaf = _Leaf(access, len(self._access), parent, key)
        self._access.append(access)
        self._leaves[access] = leaf
        parent.children[key] = leaf
        if origin == "sift":
            self.leaves_from_sifting += 1
        else:
            self.leaves_from_splits += 1
        return leaf

    # ------------------------------------------------------------- hypothesis

    def hypothesis(self) -> MealyMachine:
        """Build the hypothesis by sifting only what moved.

        The sifts run level-synchronously: each iteration gathers the
        ``word + suffix`` probes of *all* entries still descending and
        answers them in one deduped / prefix-subsumed engine batch.  New states
        discovered mid-sift enqueue their own outgoing transitions, so the
        loop runs until the transition table closes over the discovered
        state set.  The entry list persists across calls: a call after a
        split advances only the re-enqueued residents (plus the new state's
        fresh transitions), and a call with nothing pending builds the
        machine straight from the persistent tables without a single probe.
        """
        if not self._access and not self._pending:
            # The first build bootstraps ε's sift (state None: creates the
            # initial state's leaf, records no transition) alongside state
            # 0's transition sifts, so ε's bare root probe is prefix-subsumed
            # by the length-2 transition probes in the same batch and never
            # executes on its own.
            self._pending.append([None, None, (), self.root])
            for symbol in self.alphabet:
                self._pending.append([0, symbol, (symbol,), self.root])
            self._scheduled_states = 1

        while True:
            while self._scheduled_states < len(self._access):
                source = self._scheduled_states
                base = self._access[source]
                for symbol in self.alphabet:
                    self._pending.append([source, symbol, base + (symbol,), self.root])
                self._scheduled_states += 1

            still_sifting: List[List] = []
            for entry in self._pending:
                node = entry[3]
                if isinstance(node, _Leaf):
                    if entry[0] is not None:  # ε's bootstrap entry: no edge
                        self._transitions[(entry[0], entry[1])] = node.state
                        self._residents.setdefault(node, []).append(
                            (entry[0], entry[1])
                        )
                else:
                    still_sifting.append(entry)
            self._pending = still_sifting
            if not self._pending:
                if self._scheduled_states == len(self._access):
                    break
                continue

            probes = [entry[2] + entry[3].suffix for entry in self._pending]
            answers = output_query_batch(self.oracle, probes)
            for entry, answer in zip(self._pending, answers):
                word, node = entry[2], entry[3]
                key = tuple(answer)[len(word):]
                child = node.children.get(key)
                if child is None:
                    # A genuinely new output signature: the word is a state.
                    child = self._create_leaf(word, node, key, origin="sift")
                entry[3] = child

        # Output rows are keyed by (source state, symbol) and source access
        # words never change, so only rows of newly discovered states are
        # asked for.
        missing = [
            (state, symbol)
            for state in range(len(self._access))
            for symbol in self.alphabet
            if (state, symbol) not in self._outputs
        ]
        if missing:
            words = [self._access[state] + (symbol,) for state, symbol in missing]
            answers = output_query_batch(self.oracle, words)
            for (state, symbol), answer in zip(missing, answers):
                self._outputs[(state, symbol)] = answer[-1]

        return MealyMachine(
            states=list(range(len(self._access))),
            initial_state=0,
            inputs=list(self.alphabet),
            transitions=dict(self._transitions),
            outputs=dict(self._outputs),
        )

    # ------------------------------------------------------------- refinement

    def refine(self, hypothesis: MealyMachine, counterexample: Word) -> None:
        """Rivest–Schapire decomposition of a counterexample into one split.

        The binary search over patched words
        (:func:`~repro.learning.counterexample.rivest_schapire_split`, run
        against the tree's access words) yields a distinguishing suffix and
        the pair of access words it separates; :meth:`split` then turns the
        confused leaf into an inner node.
        """
        word = tuple(counterexample)
        if not word:
            raise LearningError("counterexample must be a non-empty word")
        access = self._access
        low = rivest_schapire_split(word, hypothesis, access, self.oracle)
        if low is None:
            # Impossible while access words are prefix-closed: the hypothesis
            # agrees with the target on every access word by construction.
            raise LearningError(
                "classification tree is inconsistent: hypothesis disagrees "
                "with the target on an access word"
            )

        suffix = word[low + 1 :]
        source = hypothesis.state_after(word[:low])
        symbol = word[low]
        new_access = access[source] + (symbol,)
        confused_state = hypothesis.transitions[(source, symbol)]
        self.split(self._leaves[access[confused_state]], new_access, suffix)

    def split(self, leaf: _Leaf, new_access: Word, suffix: Word) -> _Leaf:
        """Replace ``leaf`` by an inner node distinguishing it from a new state.

        ``suffix`` must produce different output tails after ``leaf.access``
        and ``new_access``; the old leaf and a fresh leaf for ``new_access``
        become the inner node's two children, keyed by those tails.  The
        node starts temporary and is finalized at once; then exactly the
        old leaf's residents are re-enqueued for sifting.
        """
        suffix = tuple(suffix)
        new_access = tuple(new_access)
        if not suffix:
            raise LearningError("a Mealy split needs a non-empty distinguishing suffix")
        answers = output_query_batch(self.oracle, [leaf.access + suffix, new_access + suffix])
        old_tail = tuple(answers[0])[len(leaf.access):]
        new_tail = tuple(answers[1])[len(new_access):]
        if old_tail == new_tail:
            raise LearningError(
                f"suffix {list(suffix)} does not distinguish access words "
                f"{list(leaf.access)} and {list(new_access)}"
            )
        inner = _Inner(suffix, leaf.parent, leaf.key)
        leaf.parent.children[leaf.key] = inner
        leaf.parent = inner
        leaf.key = old_tail
        inner.children[old_tail] = leaf
        new_leaf = self._create_leaf(new_access, inner, new_tail, origin="split")

        inner.temporary = True
        self._temporaries.append(inner)
        # Finalize *before* re-sifting the old leaf's residents, so their
        # probes pay the finalized (short) suffix instead of the verbatim
        # Rivest–Schapire one.  This is the only finalization window: right
        # now the node holds exactly the two split leaves and no parked
        # residents (the old leaf's re-sift through ``inner`` with fresh
        # probes below), so checking the two access words is exhaustive and
        # re-keying is sound.
        self._finalize(inner, leaf, new_leaf)

        residents = self._residents.pop(leaf, [])
        requeued = 0
        for state, symbol in residents:
            word = self._access[state] + (symbol,)
            if word == new_access:
                # The transition whose target the counterexample disproved:
                # its word *is* the new access word, so it lands on the new
                # leaf by construction — no probe needed.
                self._transitions[(state, symbol)] = new_leaf.state
                self._residents.setdefault(new_leaf, []).append((state, symbol))
            else:
                self._pending.append([state, symbol, word, inner])
                requeued += 1
        self.words_resifted_per_split.append(requeued)
        return new_leaf

    def lca_suffix(self, state_a: int, state_b: int) -> Word:
        """Distinguishing suffix at the lowest common ancestor of two leaves.

        By tree construction the target produces different output tails on
        ``access(a) + suffix`` and ``access(b) + suffix`` — that is why the
        two leaves sit in different subtrees of the LCA.
        """
        if state_a == state_b:
            raise LearningError("states are identical; no suffix separates them")
        path: set = set()
        node: Optional[_Node] = self._leaves[self._access[state_a]]
        while node is not None:
            path.add(node)
            node = node.parent
        node = self._leaves[self._access[state_b]].parent
        while node is not None:
            if node in path:
                return node.suffix
            node = node.parent
        raise LearningError("classification-tree leaves share no ancestor")

    # ----------------------------------------------------------- finalization

    def _final_discriminators(self, shorter_than: int) -> List[Word]:
        """Distinct final discriminators usable as extension bases, i.e.
        those whose one-symbol extension would still shrink the suffix."""
        suffixes: List[Word] = []
        seen = set()
        stack: List[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                if (
                    not node.temporary
                    and node.children
                    and len(node.suffix) + 1 < shorter_than
                    and node.suffix not in seen
                ):
                    seen.add(node.suffix)
                    suffixes.append(node.suffix)
                stack.extend(node.children.values())
        suffixes.sort(key=lambda s: (len(s), tuple(repr(symbol) for symbol in s)))
        return suffixes

    def _finalize(self, node: _Inner, old_leaf: _Leaf, new_leaf: _Leaf) -> None:
        """Try to replace a fresh split node's temporary suffix with a shorter one.

        Single-symbol candidates are verified with one real batched probe
        round; one-symbol extensions of final discriminators are then tried
        from the response trie alone, so a stubborn node never costs
        executions twice.  The first candidate that gives the two leaves
        different output tails is adopted.
        """
        length = len(node.suffix)
        if length <= 1:
            # A one-symbol Rivest–Schapire suffix is already as short as a
            # Mealy discriminator can be.
            node.temporary = False
            self.discriminators_finalized += 1
            self.finalization_shrinkage.append((length, length))
            return
        words = (old_leaf.access, new_leaf.access)

        def separating(candidates, answer_for):
            """First candidate whose answers are known and split the two
            leaves, with their tails; None if there is none."""
            for candidate in candidates:
                tails = []
                for word in words:
                    answer = answer_for(word + candidate)
                    if answer is None:
                        break
                    tails.append(tuple(answer)[len(word):])
                else:
                    if tails[0] != tails[1]:
                        return candidate, tails
            return None

        singles = [(symbol,) for symbol in self.alphabet]
        # One deduped/prefix-subsumed batch: the probe words are output
        # words the next hypothesis build needs anyway, so this verification
        # costs (almost) nothing beyond moving those executions earlier.
        probes = [word + candidate for candidate in singles for word in words]
        self.finalization_probe_words += len(probes)
        answers = dict(zip(probes, output_query_batch(self.oracle, probes)))
        found = separating(singles, answers.get)
        cached_answer = getattr(self.oracle, "cached_answer", None)
        if found is None and cached_answer is not None:
            # One-symbol extensions of already-final discriminators, shortest
            # first, decided purely from the response trie — no executions.
            extensions = (
                (symbol,) + base
                for base in self._final_discriminators(shorter_than=length)
                for symbol in self.alphabet
            )
            found = separating(extensions, cached_answer)
        if found is None:
            return
        candidate, tails = found
        self.finalization_shrinkage.append((length, len(candidate)))
        node.suffix = candidate
        node.temporary = False
        node.children = {tails[0]: old_leaf, tails[1]: new_leaf}
        old_leaf.key, new_leaf.key = tails
        self.discriminators_finalized += 1


def equivalent_state_pair(machine: MealyMachine) -> Optional[Tuple[int, int]]:
    """First pair of behaviourally equivalent states, or None if minimal.

    Partitions every state, reachable or not
    (:meth:`~repro.core.mealy.MealyMachine.equivalence_blocks`), and returns
    the two smallest state ids of the non-singleton block with the smallest
    state, for deterministic repair order.
    """
    block_of = machine.equivalence_blocks()
    blocks: Dict[int, List[int]] = {}
    for state in sorted(machine.states):
        blocks.setdefault(block_of[state], []).append(state)
    for block in sorted(blocks.values()):
        if len(block) > 1:
            return block[0], block[1]
    return None


class TTTLearner(ActiveLearner):
    """The classification-tree learner behind the
    :class:`~repro.learning.learner.ActiveLearner` interface.

    Constructor, engine wrapping and result shape match
    :class:`~repro.learning.learner.MealyLearner`; only the hypothesis
    data structure differs.  Rivest–Schapire is the only supported
    counterexample strategy — the global prefix strategy is meaningless
    for a tree that refines via single splits, so requesting
    ``counterexample_strategy="prefixes"`` raises
    :class:`~repro.errors.LearningError` at construction time.
    """

    name = "ttt"
    counterexample_strategies = ("rivest-schapire",)

    #: The classification tree of the current/most recent run (None before
    #: :meth:`learn`); exposed so budget-interrupted runs stay inspectable.
    tree: Optional[TTTTree] = None

    @property
    def states_discovered(self) -> int:
        """Leaves created so far — exact state count, readable mid-run."""
        return self.tree.num_states if self.tree is not None else 0

    def _stable_hypothesis(self, tree: TTTTree) -> MealyMachine:
        """Build a hypothesis and repair it to minimality without
        spending equivalence queries.

        An intermediate tree hypothesis can merge two discovered states
        behaviourally even though the tree distinguishes their access words.
        For any equivalent pair, the LCA discriminator yields an internal
        counterexample (the target disagrees with the hypothesis on at least
        one of ``access(q) + suffix``), which :meth:`TTTTree.refine` turns
        into a split.  Each repair adds a state, so the loop is bounded by
        the target's state count.
        """
        hypothesis = tree.hypothesis()
        while True:
            pair = equivalent_state_pair(hypothesis)
            if pair is None:
                return hypothesis
            suffix = tree.lca_suffix(*pair)
            for state in pair:
                probe = tree.access_word(state) + suffix
                if tuple(self.membership_oracle.output_query(probe)) != hypothesis.run(probe):
                    tree.internal_refinements += 1
                    tree.refine(hypothesis, probe)
                    break
            else:
                # Unreachable: equivalent hypothesis states answer the suffix
                # identically, but the target separates the two access words.
                raise LearningError(
                    "classification tree separates states "
                    f"{pair[0]} and {pair[1]} but no internal counterexample "
                    "distinguishes them"
                )
            hypothesis = tree.hypothesis()

    def _initial_hypothesis(self) -> MealyMachine:
        self.tree = TTTTree(self.alphabet, self.membership_oracle)
        return self._stable_hypothesis(self.tree)

    def _refine(self, hypothesis: MealyMachine, counterexample: Word) -> MealyMachine:
        """Exhaust the counterexample: a single split often leaves the word
        disagreeing with the refined hypothesis, and re-checking it is a
        trie cache hit — so the tree keeps splitting on the same evidence
        instead of spending a fresh equivalence round (and its newly
        executed suite words) per discovered state."""
        tree = self.tree
        while hypothesis.run(counterexample) != tuple(
            self.membership_oracle.output_query(counterexample)
        ):
            previous_size = hypothesis.size
            tree.refine(hypothesis, counterexample)
            hypothesis = self._stable_hypothesis(tree)
            if hypothesis.size <= previous_size:
                # Every split adds a leaf and hypothesis states are leaves,
                # so a non-growing hypothesis means the tree is corrupted.
                raise LearningError(
                    "classification-tree refinement failed to add a state "
                    f"for counterexample {list(counterexample)}"
                )
        return hypothesis
