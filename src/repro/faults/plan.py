"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` answers one question at every transport/engine
injection point: *what goes wrong for operation ``op`` on rank ``rank``?*
Decisions are pure functions of ``(plan.seed, kind, rank, op)`` — each
query seeds its own private :class:`random.Random` from a stable hash — so
a plan injects the identical fault schedule no matter how the rank threads
interleave, and a chaos-run failure reproduces from its seed alone.

Two sources feed a decision:

* **probabilistic knobs** (``p_drop``, ``p_delay``, ...) — evaluated only
  while ``op < ops`` so every schedule has a bounded fault horizon and a
  faulty run still terminates;
* **scripted events** (:class:`FaultSpec`) — exact injections for tests
  and reproductions, matched on ``(kind, rank)`` plus an optional op index
  and optional message tag (tags let a test target e.g. one specific
  in-transit frame without counting ops).

This module must stay import-light (stdlib only): it is pulled in by the
transport hot path via ``repro.faults.injector`` and must not create an
import cycle with ``repro.mpisim``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

#: Fault kinds (also the ``FaultSpec.kind`` vocabulary).
KIND_DELAY = "delay"
KIND_DROP = "drop"
KIND_SEND = "send"  # transient send failure
KIND_RECV = "recv"  # transient recv failure
KIND_CORRUPT = "corrupt"
KIND_ROUND = "round"  # exchange-round entry failure
KIND_CRASH = "crash"
KIND_ALLOC = "alloc"  # staging-allocation failure (memory pressure)

FAULT_KINDS = (
    KIND_DELAY, KIND_DROP, KIND_SEND, KIND_RECV, KIND_CORRUPT, KIND_ROUND, KIND_CRASH,
    KIND_ALLOC,
)

#: The per-operation probability knobs of a :class:`FaultPlan`.
_PROBABILITIES = ("p_delay", "p_drop", "p_transient_send", "p_transient_recv",
                  "p_corrupt", "p_round", "p_alloc")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``op`` is the per-rank operation index for transport kinds (``None``
    matches any op) and the *round index* for ``kind="round"``.  ``tag``
    narrows transport faults to messages with that tag (``None`` matches
    any).  ``count`` is how many consecutive attempts/occurrences fail:
    for ``send``/``recv``/``round`` it is the number of failing attempts
    before the operation succeeds (use a large value for a permanent
    fault); for ``drop`` it caps how many matching messages are dropped.
    """

    kind: str
    rank: int
    op: Optional[int] = None
    tag: Optional[int] = None
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def matches(self, rank: int, op: Optional[int], tag: Optional[int]) -> bool:
        if rank != self.rank:
            return False
        if self.op is not None and op != self.op:
            return False
        if self.tag is not None and tag != self.tag:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults for one SPMD execution.

    ``ops`` bounds the probabilistic fault horizon: operations past it see
    no randomized faults (scripted events still apply), so every plan
    eventually lets the run drain.  ``crash_rank``/``crash_at_op`` kill one
    rank with :class:`~repro.mpisim.errors.RankCrashError` the moment its
    op counter reaches the index.  Probabilities are per-operation.
    """

    seed: int
    nranks: int
    ops: int = 200
    p_delay: float = 0.0
    delay_max_s: float = 0.01
    p_drop: float = 0.0
    p_transient_send: float = 0.0
    p_transient_recv: float = 0.0
    p_corrupt: float = 0.0
    p_round: float = 0.0
    p_alloc: float = 0.0
    crash_rank: Optional[int] = None
    crash_at_op: Optional[int] = None
    events: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a probability, got {value}")
        if (self.crash_rank is None) != (self.crash_at_op is None):
            raise ValueError("crash_rank and crash_at_op must be set together")
        object.__setattr__(self, "events", tuple(self.events))

    # -- deterministic draws -------------------------------------------------

    def _rng(self, kind: str, rank: int, op: int) -> random.Random:
        key = zlib.crc32(f"{self.seed}:{kind}:{rank}:{op}".encode())
        return random.Random((self.seed << 32) ^ key)

    def _scripted(self, kind: str, rank: int, op: Optional[int],
                  tag: Optional[int]) -> Optional[FaultSpec]:
        for spec in self.events:
            if spec.kind == kind and spec.matches(rank, op, tag):
                return spec
        return None

    def _fires(self, kind: str, rank: int, op: int, prob: float) -> Optional[random.Random]:
        """The seeded half of every query: the ``(kind, rank, op)`` RNG —
        its first draw already spent on the hit — if a probabilistic fault
        fires there, ``None`` on a miss or past the ``ops`` horizon."""
        if prob and op < self.ops:
            rng = self._rng(kind, rank, op)
            if rng.random() < prob:
                return rng
        return None

    def _failures(self, kind: str, rank: int, op: int, prob: float) -> int:
        """Failing attempts before ``op`` succeeds: a scripted spec's
        ``count``, else a seeded 1 (2 a quarter of the time), else 0."""
        spec = self._scripted(kind, rank, op, None)
        if spec is not None:
            return spec.count
        rng = self._fires(kind, rank, op, prob)
        return 0 if rng is None else 1 + (1 if rng.random() < 0.25 else 0)

    # -- queries (one per injection point; a scripted spec wins) -------------

    def delay_s(self, rank: int, op: int) -> float:
        """Seconds to stall this operation (0.0 = no delay)."""
        spec = self._scripted(KIND_DELAY, rank, op, None)
        if spec is not None:
            return spec.delay_s
        rng = self._fires(KIND_DELAY, rank, op, self.p_delay)
        return 0.0 if rng is None else rng.uniform(0.0, self.delay_max_s)

    def drop(self, rank: int, op: int, tag: Optional[int], seen_drops: int) -> bool:
        """Whether to silently discard this outgoing message."""
        spec = self._scripted(KIND_DROP, rank, op, tag)
        if spec is not None:
            return seen_drops < spec.count
        return self._fires(KIND_DROP, rank, op, self.p_drop) is not None

    def transient_failures(self, point: str, rank: int, op: int) -> int:
        """Failing attempts before a send/recv succeeds (``point`` in
        ``send``/``recv``)."""
        prob = self.p_transient_send if point == KIND_SEND else self.p_transient_recv
        return self._failures(point, rank, op, prob)

    def corrupt(self, rank: int, op: int, tag: Optional[int]) -> bool:
        """Whether to flip bytes of this message's staged payload."""
        if self._scripted(KIND_CORRUPT, rank, op, tag) is not None:
            return True
        return self._fires(KIND_CORRUPT, rank, op, self.p_corrupt) is not None

    def round_failures(self, rank: int, round_index: int) -> int:
        """Failing attempts before round ``round_index`` starts on ``rank``."""
        return self._failures(KIND_ROUND, rank, round_index, self.p_round)

    def alloc_failures(self, rank: int, op: int) -> int:
        """Failing attempts before staging allocation ``op`` succeeds.

        ``op`` here is the rank's *allocation* counter, not its transport
        op counter — staging allocations keep their own sequence so adding
        memory chaos never perturbs the op indices existing scripted plans
        target.
        """
        return self._failures(KIND_ALLOC, rank, op, self.p_alloc)

    def crashes(self, rank: int, op: int) -> bool:
        """Whether ``rank`` dies at operation ``op`` (inclusive threshold)."""
        if self.crash_rank is not None and rank == self.crash_rank:
            assert self.crash_at_op is not None
            return op >= self.crash_at_op
        return bool(self._scripted(KIND_CRASH, rank, op, None))

    # -- construction / reporting --------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        nranks: int,
        ops: int = 200,
        allow_crash: bool = True,
        allow_drop: bool = True,
        allow_alloc: bool = False,
    ) -> "FaultPlan":
        """A randomized-but-reproducible plan for chaos runs.

        A meta-RNG seeded with ``seed`` picks which fault families are
        active and how aggressive each is; the same seed always yields the
        same plan, and the plan then makes the same per-op decisions.
        """
        meta = random.Random(seed)
        kwargs: dict = {}
        if meta.random() < 0.6:
            kwargs["p_delay"] = meta.uniform(0.005, 0.05)
            kwargs["delay_max_s"] = meta.uniform(0.001, 0.02)
        if meta.random() < 0.7:
            kwargs["p_transient_send"] = meta.uniform(0.005, 0.08)
        if meta.random() < 0.7:
            kwargs["p_transient_recv"] = meta.uniform(0.005, 0.08)
        if meta.random() < 0.5:
            kwargs["p_corrupt"] = meta.uniform(0.005, 0.06)
        if meta.random() < 0.4:
            kwargs["p_round"] = meta.uniform(0.01, 0.1)
        if allow_drop and meta.random() < 0.25:
            kwargs["p_drop"] = meta.uniform(0.002, 0.02)
        if allow_crash and meta.random() < 0.2:
            kwargs["crash_rank"] = meta.randrange(nranks)
            kwargs["crash_at_op"] = meta.randrange(1, max(2, ops))
        # Appended after every prior draw so plans generated without
        # ``allow_alloc`` stay bit-identical to their pre-memory-chaos
        # selves (same seed, same schedule).
        if allow_alloc and meta.random() < 0.6:
            kwargs["p_alloc"] = meta.uniform(0.01, 0.1)
        return cls(seed=seed, nranks=nranks, ops=ops, **kwargs)

    def summary(self) -> str:
        """One line naming the active fault families (for diagnostics)."""
        parts = [f"seed={self.seed}", f"ops={self.ops}"]
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:.3f}")
        if self.crash_rank is not None:
            parts.append(f"crash=rank{self.crash_rank}@op{self.crash_at_op}")
        if self.events:
            parts.append(f"events={len(self.events)}")
        return f"FaultPlan({', '.join(parts)})"
