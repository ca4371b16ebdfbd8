"""Set-dueling adaptive replacement (Appendix B).

Modern Intel L3 caches do not run a single fixed policy: a small group of
*leader* sets runs policy A, another group runs policy B, and a saturating
counter (PSEL) tracks which group misses less; all remaining *follower* sets
dynamically imitate the winning policy (Qureshi et al., "Adaptive Insertion
Policies", ISCA'07).  From the point of view of a learning tool this makes
follower sets look non-deterministic — which is why the paper only learns
the policies of the leader sets.

:class:`AdaptiveSetSelector` encodes the leader-set index formulas the paper
reports for Skylake / Kaby Lake (Appendix B) and the fixed ranges it reports
for Haswell.  :class:`SetDuelingController` implements the PSEL counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

SetRole = Literal["leader_a", "leader_b", "follower"]


@dataclass(frozen=True)
class AdaptiveSetSelector:
    """Classifies set indexes into leader groups and followers.

    Two selection schemes are supported, matching the paper's findings:

    * ``"skylake"`` — leader group A (thrash-vulnerable, fixed policy, the
      paper's New2 sets) are the sets with
      ``(((set & 0x3e0) >> 5) ^ (set & 0x1f)) == 0x00 and (set & 0x2) == 0x0``;
      leader group B are the sets with
      ``(((set & 0x3e0) >> 5) ^ (set & 0x1f)) == 0x1f and (set & 0x2) == 0x2``.
    * ``"haswell"`` — group A is the index range 512-575 and group B the
      range 768-831 (leader sets live in slice 0 only).
    """

    scheme: str = "skylake"
    haswell_leader_a: range = field(default=range(512, 576))
    haswell_leader_b: range = field(default=range(768, 832))

    def role(self, set_index: int, slice_index: int = 0) -> SetRole:
        """Return the role of ``set_index`` (in ``slice_index``)."""
        if self.scheme == "skylake":
            folded = ((set_index & 0x3E0) >> 5) ^ (set_index & 0x1F)
            if folded == 0x00 and (set_index & 0x2) == 0x0:
                return "leader_a"
            if folded == 0x1F and (set_index & 0x2) == 0x2:
                return "leader_b"
            return "follower"
        if self.scheme == "haswell":
            if slice_index == 0 and set_index in self.haswell_leader_a:
                return "leader_a"
            if slice_index == 0 and set_index in self.haswell_leader_b:
                return "leader_b"
            return "follower"
        raise ValueError(f"unknown adaptive scheme {self.scheme!r}")

    def leader_a_sets(self, total_sets: int) -> list:
        """Return the group-A leader set indexes among ``0..total_sets-1``."""
        return [s for s in range(total_sets) if self.role(s) == "leader_a"]


@dataclass
class SetDuelingController:
    """A saturating PSEL counter arbitrating between the two leader groups.

    Misses in group A increment the counter, misses in group B decrement it.
    Followers imitate group A while the counter is below the midpoint
    (group A is "winning", i.e. missing less) and group B otherwise.
    """

    bits: int = 10
    value: int = 0

    def __post_init__(self) -> None:
        self.max_value = (1 << self.bits) - 1
        if self.value == 0:
            self.value = self.max_value // 2

    def record_leader_miss(self, role: SetRole) -> None:
        """Update the counter after a miss in a leader set."""
        if role == "leader_a":
            self.value = min(self.max_value, self.value + 1)
        elif role == "leader_b":
            self.value = max(0, self.value - 1)

    def follower_choice(self) -> SetRole:
        """Return which leader group the followers currently imitate."""
        return "leader_a" if self.value <= self.max_value // 2 else "leader_b"

    def reset(self) -> None:
        """Return the counter to its neutral midpoint."""
        self.value = self.max_value // 2
