"""The observation table of L* for Mealy machines.

The table is indexed by a prefix-closed set of access words ``S`` (rows),
their one-symbol extensions ``S·Σ`` (the "long" rows), and a set of
distinguishing suffixes ``E`` (columns, initialised to the single-symbol
suffixes so outputs are observable immediately).  A cell ``T[u][e]`` holds
the outputs the system produces for the suffix ``e`` after the access word
``u`` — i.e. the last ``|e|`` symbols of the answer to the output query
``u · e``.

Two rows with equal content are assumed to reach the same state of the
system; the table is *closed* when every long row equals some short row, and
*consistent* when equal short rows stay equal under every one-symbol
extension.  A closed and consistent table induces a hypothesis Mealy machine
(:meth:`ObservationTable.hypothesis`).

Suffix-closedness of ``E``
--------------------------

The classic minimality argument — a closed, consistent table induces a
hypothesis whose behaviour from state ``row(u)`` on any suffix ``e ∈ E``
equals the observed cell ``T[u][e]``, so distinct rows are inequivalent
states — holds only when ``E`` is *suffix-closed* (the inductive step peels
one symbol off ``e`` and needs the tail to be a column too).  The
single-symbol initial columns are trivially closed and the inconsistency
repair prepends a symbol to an existing column, but Rivest–Schapire
counterexample processing adds one *arbitrary* distinguishing suffix; a
lone suffix whose tails are missing silently broke the argument and
produced hypotheses with equivalent states on deep BRRIP runs (the
non-minimal-hypothesis ROADMAP item).  :meth:`ObservationTable.add_suffix`
therefore restores the invariant by inserting every missing tail of a new
suffix, and :meth:`ObservationTable.hypothesis` guards it with an
assertion.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.oracles import MembershipOracle
from repro.learning.query_engine import output_query_batch

#: Closedness/consistency repairs after which the table is declared unstable.
MAX_REPAIR_ROUNDS = 100_000

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]

EMPTY: Word = ()


class ObservationTable:
    """An L* observation table over a fixed input alphabet.

    Cell queries go through the batched query engine: :meth:`fill` collects
    every missing ``(prefix, suffix)`` cell and issues **one** batch per
    stabilisation round, letting the oracle dedupe and prefix-subsume before
    a single word reaches the system under learning (or the worker pool
    wrapping it, which splits the misses across processes).

    Suffixes are only ever appended, so a row over the first ``n`` columns
    stays valid when columns are added: :meth:`row` memoises each prefix's
    row and extends it by the columns added since it was built, instead of
    rebuilding every row after each new column.
    """

    def __init__(self, alphabet: Sequence[Input], oracle: MembershipOracle) -> None:
        if not alphabet:
            raise LearningError("the input alphabet must not be empty")
        self.alphabet: Tuple[Input, ...] = tuple(alphabet)
        self.oracle = oracle
        # Short prefixes (access words); prefix-closed, starts with epsilon.
        self.short_prefixes: List[Word] = [EMPTY]
        # Distinguishing suffixes; starts with every single input symbol so
        # the hypothesis outputs are defined from the first round.
        self.suffixes: List[Word] = [(symbol,) for symbol in self.alphabet]
        # Cell storage: (prefix, suffix) -> outputs of the suffix part.
        self._cells: Dict[Tuple[Word, Word], Tuple[Output, ...]] = {}
        # Memoised row contents, keyed by prefix: the cells of the first
        # len(row) suffixes, extended by row() when columns were added.
        self._row_cache: Dict[Word, Tuple[Tuple[Output, ...], ...]] = {}
        # Per prefix, how many leading suffixes are known to have a cell:
        # set when a fill completes.  Suffixes are only ever appended, so
        # missing_cells scans each row from there and sees only new long
        # rows and new columns.
        self._filled: Dict[Word, int] = {}
        # (short prefixes, suffixes) when the last fill completed.  Both
        # lists only grow, so while their lengths stay put every cell of
        # the table is known and a fill has nothing to do.
        self._filled_shape = (0, 0)
        #: Access word of each state of the last :meth:`hypothesis`, in state
        #: order: the first short prefix with that state's row.
        self.access_words: List[Word] = []
        self.fill()

    # ------------------------------------------------------------------ cells

    def _query_cell(self, prefix: Word, suffix: Word) -> Tuple[Output, ...]:
        key = (prefix, suffix)
        cell = self._cells.get(key)
        if cell is None:
            outputs = self.oracle.output_query(prefix + suffix)
            cell = self._cells[key] = tuple(outputs[len(prefix):])
        return cell

    def row(self, prefix: Word) -> Tuple[Tuple[Output, ...], ...]:
        """Return the row contents of ``prefix`` over the current suffixes.

        The memoised row is extended by the cells of the columns added
        since it was built.
        """
        row = self._row_cache.get(prefix, ())
        suffixes = self.suffixes
        if len(row) < len(suffixes):
            query_cell = self._query_cell
            row += tuple([query_cell(prefix, suffix) for suffix in suffixes[len(row):]])
            self._row_cache[prefix] = row
        return row

    def missing_cells(self) -> List[Tuple[Word, Word]]:
        """Return every (prefix, suffix) cell that has not been queried yet."""
        return self._missing_cells(self.all_prefixes())

    def _missing_cells(self, prefixes: List[Word]) -> List[Tuple[Word, Word]]:
        cells = self._cells
        suffixes = self.suffixes
        filled = self._filled
        return [
            (prefix, suffix)
            for prefix in prefixes
            for suffix in suffixes[filled.get(prefix, 0):]
            if (prefix, suffix) not in cells
        ]

    def fill(self) -> None:
        """Ensure every (short and long) row has a value for every suffix.

        All missing cells are collected and answered by a single batched
        query, so the oracle sees the whole round at once and can dedupe,
        prefix-subsume and (for caches) reuse earlier answers.
        """
        shape = (len(self.short_prefixes), len(self.suffixes))
        if shape == self._filled_shape:
            return
        prefixes = self.all_prefixes()
        missing = self._missing_cells(prefixes)
        if missing:
            words = [prefix + suffix for prefix, suffix in missing]
            answers = output_query_batch(self.oracle, words)
            for (prefix, suffix), outputs in zip(missing, answers):
                self._cells[(prefix, suffix)] = tuple(outputs[len(prefix):])
        self._filled.update(dict.fromkeys(prefixes, len(self.suffixes)))
        self._filled_shape = shape

    def all_prefixes(self) -> List[Word]:
        """Return short prefixes followed by their one-symbol extensions."""
        prefixes = list(self.short_prefixes)
        short = set(self.short_prefixes)
        for prefix in self.short_prefixes:
            for symbol in self.alphabet:
                extended = prefix + (symbol,)
                if extended not in short:
                    prefixes.append(extended)
        return prefixes

    # ------------------------------------------------------- closed/consistent

    def find_unclosed(self) -> Optional[Word]:
        """Return a long prefix whose row matches no short row, or ``None``."""
        self.fill()
        short_rows = {self.row(prefix) for prefix in self.short_prefixes}
        for prefix in self.short_prefixes:
            for symbol in self.alphabet:
                extended = prefix + (symbol,)
                if self.row(extended) not in short_rows:
                    return extended
        return None

    def find_inconsistency(self) -> Optional[Word]:
        """Return a new suffix witnessing an inconsistency, or ``None``.

        An inconsistency is a pair of short prefixes with equal rows whose
        one-symbol extensions differ for some suffix; the returned suffix is
        the extension symbol prepended to the distinguishing suffix.
        """
        self.fill()
        by_row: Dict[Tuple, List[Word]] = {}
        for prefix in self.short_prefixes:
            by_row.setdefault(self.row(prefix), []).append(prefix)
        for prefixes in by_row.values():
            if len(prefixes) < 2:
                continue
            base = prefixes[0]
            for other in prefixes[1:]:
                for symbol in self.alphabet:
                    for suffix in self.suffixes:
                        left = self._query_cell(base + (symbol,), suffix)
                        right = self._query_cell(other + (symbol,), suffix)
                        if left != right:
                            return (symbol,) + suffix
        return None

    # -------------------------------------------------------------- mutation

    def add_short_prefix(self, prefix: Word) -> bool:
        """Add ``prefix`` (and, implicitly, its extensions) as a short row."""
        prefix = tuple(prefix)
        if prefix in self.short_prefixes:
            return False
        self.short_prefixes.append(prefix)
        self.fill()
        return True

    def add_suffix(self, suffix: Word) -> bool:
        """Add a distinguishing suffix (column), keeping ``E`` suffix-closed.

        Every missing tail of ``suffix`` is added too (shortest first):
        without them the correspondence between table rows and hypothesis
        states breaks and a "consistent" table can emit hypotheses with
        equivalent states.  Returns True when ``suffix`` itself was new —
        the signal Rivest–Schapire processing uses to detect that its
        distinguishing suffix brought no new column.
        """
        suffix = tuple(suffix)
        if not suffix:
            raise LearningError("the empty suffix carries no information for Mealy machines")
        added_full = False
        added_any = False
        for start in range(len(suffix) - 1, -1, -1):
            tail = suffix[start:]
            if tail in self.suffixes:
                continue
            self.suffixes.append(tail)
            added_any = True
            if tail == suffix:
                added_full = True
        if added_any:
            # Memoised rows stay valid: row() extends them by the new columns.
            self.fill()
        return added_full

    def _assert_suffix_closed(self) -> None:
        """Debug guard: every tail of every column must itself be a column."""
        present = frozenset(self.suffixes)
        for suffix in self.suffixes:
            for start in range(1, len(suffix)):
                assert suffix[start:] in present, (
                    f"suffix set lost closure: {suffix[start:]!r} (tail of "
                    f"{suffix!r}) is not a column — hypotheses may be non-minimal"
                )

    def make_closed_and_consistent(self) -> None:
        """Repeatedly repair closedness and consistency until both hold."""
        for _ in range(MAX_REPAIR_ROUNDS):
            unclosed = self.find_unclosed()
            if unclosed is not None:
                self.add_short_prefix(unclosed)
                continue
            new_suffix = self.find_inconsistency()
            if new_suffix is not None:
                self.add_suffix(new_suffix)
                continue
            return
        raise LearningError("observation table failed to stabilise")  # pragma: no cover

    # ------------------------------------------------------------- hypothesis

    def hypothesis(self) -> MealyMachine:
        """Build the hypothesis Mealy machine from a closed, consistent table.

        With a suffix-closed column set (maintained by :meth:`add_suffix`)
        the hypothesis is minimal: distinct rows differ on some column
        ``e``, and the machine's behaviour from the corresponding states on
        ``e`` reproduces the differing cells.  State ``i``'s access word is
        recorded in :attr:`access_words`; on a closed, consistent,
        prefix-closed table every short prefix ``u`` reaches the state of
        ``row(u)``, so it is also the first short prefix reaching state ``i``.
        """
        if __debug__:
            self._assert_suffix_closed()
        row_to_state: Dict[Tuple, int] = {}
        state_access: List[Word] = []
        for prefix in self.short_prefixes:
            row = self.row(prefix)
            if row not in row_to_state:
                row_to_state[row] = len(state_access)
                state_access.append(prefix)

        rows: Dict[int, Dict[Input, Tuple[int, Output]]] = {}
        suffix_index = {suffix: position for position, suffix in enumerate(self.suffixes)}

        for state, access in enumerate(state_access):
            row = rows[state] = {}
            for symbol in self.alphabet:
                extended = access + (symbol,)
                target_row = self.row(extended)
                if target_row not in row_to_state:
                    raise LearningError(
                        "hypothesis construction on a non-closed table"
                    )  # pragma: no cover - guarded by make_closed_and_consistent
                row[symbol] = (
                    row_to_state[target_row],
                    self._query_cell(access, (symbol,))[0],
                )
                # The single-symbol suffix is guaranteed to exist because the
                # suffix set is initialised with the full alphabet.
                assert (symbol,) in suffix_index
        initial_state = row_to_state[self.row(EMPTY)]
        self.access_words = state_access
        return MealyMachine.from_rows(
            range(len(state_access)), initial_state, self.alphabet, rows
        )

    # ------------------------------------------------------------- inspection

    @property
    def num_short_rows(self) -> int:
        """Number of access words (short rows)."""
        return len(self.short_prefixes)

    @property
    def num_suffixes(self) -> int:
        """Number of distinguishing suffixes (columns)."""
        return len(self.suffixes)

    def to_text(self) -> str:
        """Render the table for debugging and documentation."""
        lines = []
        header = "prefix".ljust(24) + " | " + " | ".join(str(s) for s in self.suffixes)
        lines.append(header)
        lines.append("-" * len(header))
        for prefix in self.all_prefixes():
            marker = "*" if prefix in self.short_prefixes else " "
            cells = " | ".join(str(self._query_cell(prefix, s)) for s in self.suffixes)
            lines.append(f"{marker}{str(prefix):23s} | {cells}")
        return "\n".join(lines)
