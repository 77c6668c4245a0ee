"""Global nonce ledger: the "no nonce reuse, ever" witness.

The channel layer makes nonce reuse impossible *by construction*
(monotonic send counters, per-epoch per-direction keys, a replay window
on the receive side).  The ledger is the independent check of that
construction: the chaos harness threads one :class:`NonceLedger` through
every session, epoch and rekey of a sweep, and every sealed record and
every accepted (successfully opened) record registers its
``(key_id, direction, sequence)`` triple here.  Any duplicate -- a seal
counter that repeated, or a receiver that accepted the same nonce twice
(e.g. a broken replay window) -- is recorded as a :class:`NonceReuse` and
trips the ``no-nonce-reuse-ever`` invariant.

Witnessed sequences are stored as sorted disjoint *interval runs* per
``(key_id, direction)``, not one set entry per record: honest traffic is
monotonic, so a session that seals a million records holds one run of
length one million -- O(gaps) state, not O(records).  Extending the
current run is O(1); an out-of-order sequence costs one bisect.  The
duplicate-detection contract is unchanged: a sequence inside any
existing run is a reuse.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class NonceReuse:
    """One observed duplicate use of a ``(key, direction, sequence)`` nonce.

    Attributes:
        key_id: Public identifier of the traffic key involved.
        direction: The record-layer direction code.
        sequence: The repeated sequence number.
        kind: ``"seal"`` when a sender reused a counter, ``"accept"``
            when a receiver accepted the same nonce twice.
    """

    key_id: str
    direction: int
    sequence: int
    kind: str


class _SequenceRuns:
    """Sorted disjoint inclusive ``[start, end]`` runs of sequences."""

    __slots__ = ("_starts", "_ends")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []

    def __len__(self) -> int:
        """The number of disjoint runs currently held."""
        return len(self._starts)

    def __contains__(self, sequence: int) -> bool:
        index = bisect_right(self._starts, sequence) - 1
        return index >= 0 and sequence <= self._ends[index]

    def high_water(self) -> int:
        """The highest witnessed sequence (``-1`` when empty)."""
        return self._ends[-1] if self._ends else -1

    def add(self, sequence: int) -> bool:
        """Witness one sequence; ``False`` if it was already present."""
        starts, ends = self._starts, self._ends
        if ends and sequence > ends[-1]:
            # The monotonic-sender fast path: extend or append the tail run.
            if sequence == ends[-1] + 1:
                ends[-1] = sequence
            else:
                starts.append(sequence)
                ends.append(sequence)
            return True
        index = bisect_right(starts, sequence) - 1
        if index >= 0 and sequence <= ends[index]:
            return False
        joins_left = index >= 0 and ends[index] == sequence - 1
        joins_right = index + 1 < len(starts) and starts[index + 1] == sequence + 1
        if joins_left and joins_right:
            ends[index] = ends[index + 1]
            del starts[index + 1]
            del ends[index + 1]
        elif joins_left:
            ends[index] = sequence
        elif joins_right:
            starts[index + 1] = sequence
        else:
            starts.insert(index + 1, sequence)
            ends.insert(index + 1, sequence)
        return True

    def add_run(self, start: int, count: int) -> List[int]:
        """Witness ``count`` consecutive sequences; returns duplicates.

        O(1) when the whole run lies beyond every witnessed sequence --
        the shape every honest batched sender produces -- and falls back
        to per-sequence insertion otherwise.
        """
        ends = self._ends
        if not ends or start > ends[-1]:
            if ends and start == ends[-1] + 1:
                ends[-1] = start + count - 1
            else:
                self._starts.append(start)
                ends.append(start + count - 1)
            return []
        return [
            sequence
            for sequence in range(start, start + count)
            if not self.add(sequence)
        ]


@dataclass
class NonceLedger:
    """Append-only registry of every nonce sealed and accepted under watch.

    Attributes:
        total_seals: Records sealed while this ledger was attached.
        total_accepts: Records successfully opened while attached.
        reuses: Every duplicate observed, in discovery order; an empty
            list is the ``no-nonce-reuse-ever`` verdict.
        on_seal_advance: Durability hook: called with
            ``(key_id, direction, high_water)`` whenever a seal raises a
            key's high-water sequence.  The session server's journal
            subscribes here so the floor survives a crash.
        on_reuse: Witness hook: called with each :class:`NonceReuse` as
            it is recorded (the restart chaos child journals these as
            invariant violations the parent can read post-mortem).
    """

    total_seals: int = 0
    total_accepts: int = 0
    reuses: List[NonceReuse] = field(default_factory=list)
    on_seal_advance: Optional[Callable[[str, int, int], None]] = field(
        default=None, repr=False
    )
    on_reuse: Optional[Callable[[NonceReuse], None]] = field(
        default=None, repr=False
    )
    _sealed: Dict[Tuple[str, int], _SequenceRuns] = field(
        default_factory=dict, repr=False
    )
    _accepted: Dict[Tuple[str, int], _SequenceRuns] = field(
        default_factory=dict, repr=False
    )

    def _runs(
        self, table: Dict[Tuple[str, int], _SequenceRuns], key_id: str, direction: int
    ) -> _SequenceRuns:
        key = (key_id, direction)
        runs = table.get(key)
        if runs is None:
            runs = table[key] = _SequenceRuns()
        return runs

    def _reuse(self, reuse: NonceReuse) -> None:
        self.reuses.append(reuse)
        if self.on_reuse is not None:
            self.on_reuse(reuse)

    def _seal_advanced(self, key_id: str, direction: int, high: int) -> None:
        if self.on_seal_advance is not None:
            runs = self._sealed.get((key_id, direction))
            if runs is not None and high == runs.high_water():
                self.on_seal_advance(key_id, direction, high)

    def record_seal(self, key_id: str, direction: int, sequence: int) -> bool:
        """Register one sealed nonce; returns False on a duplicate."""
        self.total_seals += 1
        if self._runs(self._sealed, key_id, direction).add(sequence):
            self._seal_advanced(key_id, direction, sequence)
            return True
        self._reuse(NonceReuse(key_id, direction, sequence, "seal"))
        return False

    def record_seal_run(
        self, key_id: str, direction: int, start: int, count: int
    ) -> bool:
        """Register ``count`` consecutive seals from ``start`` in one call.

        Equivalent to ``count`` :meth:`record_seal` calls (every
        duplicate is still recorded individually); the batched seal path
        uses it to witness a whole burst at O(1) ledger cost.
        """
        if count <= 0:
            return True
        self.total_seals += count
        duplicates = self._runs(self._sealed, key_id, direction).add_run(
            start, count
        )
        for sequence in duplicates:
            self._reuse(NonceReuse(key_id, direction, sequence, "seal"))
        self._seal_advanced(key_id, direction, start + count - 1)
        return not duplicates

    def record_accept(self, key_id: str, direction: int, sequence: int) -> bool:
        """Register one accepted nonce; returns False on a duplicate."""
        self.total_accepts += 1
        if self._runs(self._accepted, key_id, direction).add(sequence):
            return True
        self._reuse(NonceReuse(key_id, direction, sequence, "accept"))
        return False

    def high_water(self) -> Dict[Tuple[str, int], int]:
        """Highest witnessed *seal* sequence per ``(key_id, direction)``."""
        return {
            key: runs.high_water()
            for key, runs in self._sealed.items()
            if len(runs)
        }

    def restore_floor(self, key_id: str, direction: int, high: int) -> None:
        """Mark ``0..high`` as already sealed for a key (crash recovery).

        A restarted server calls this with each journaled high-water mark
        before serving traffic: any sequence at or below the floor that a
        post-restart sender re-issues is then witnessed as a reuse rather
        than silently accepted as fresh.  Does not count toward
        ``total_seals`` and never fires the durability hook (restoring a
        floor is not new traffic).
        """
        if high < 0:
            return
        runs = self._runs(self._sealed, key_id, direction)
        if high > runs.high_water():
            runs.add_run(0, high + 1)

    @property
    def seal_runs(self) -> int:
        """Disjoint witnessed seal runs across all keys (O(gaps) state)."""
        return sum(len(runs) for runs in self._sealed.values())

    @property
    def accept_runs(self) -> int:
        """Disjoint witnessed accept runs across all keys."""
        return sum(len(runs) for runs in self._accepted.values())

    @property
    def ok(self) -> bool:
        """Whether no nonce was ever reused under this ledger's watch."""
        return not self.reuses
