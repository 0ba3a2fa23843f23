"""Flush history: the planner's observed-cost feedback loop.

Every executed flush leaves a :class:`~repro.core.pipeline.FlushReport`
with per-stage wall time, item counts and scatter width — but until
this module nothing *consumed* it: the planner re-derived the same
static plan per flush regardless of what the last hundred flushes
actually cost.  :class:`FlushHistory` closes the loop.  Lane engines
(:class:`~repro.serve.sharded.ShardedEngine`) record every report into
a small ring buffer keyed by the flush's :class:`FlushSignature` —
``(mode, scatter_width)``, the two coordinates that change a flush's
cost profile — and the planner
consults :meth:`FlushHistory.observe` per flush to decide, from
*measured* per-item stage costs, whether dispatching work to the lanes
can possibly pay for its round-trip (e.g. keep the search fan-out
in-process when the last flushes' searches were sub-millisecond).  Every
such decision is surfaced by ``QueryPlan.explain()`` with an
``observed`` rationale; a cold engine (fewer than
``MIN_OBSERVED_FLUSHES`` recorded flushes at the signature) falls back
to the static plan and says so.

The history is deliberately *not* a result cache: it stores only
aggregate timings (no query content), is bounded per signature, and
feeds planning, never answers.  Exact-result reuse lives in
:mod:`repro.core.cache`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import FlushReport
    from .planner import QueryPlan

__all__ = [
    "FlushSignature",
    "FlushRecord",
    "ObservedCosts",
    "FlushHistory",
    "signature_of",
]


@dataclass(frozen=True, slots=True)
class FlushSignature:
    """The cost-profile coordinates one history cell aggregates over.

    Two flushes with the same signature are comparable: same pipeline
    (``mode``), same scatter layout (``scatter_width`` — the lane
    count).
    Batch size varies *within* a cell; the per-item normalization in
    :class:`ObservedCosts` absorbs it.
    """

    mode: str
    scatter_width: int


def signature_of(plan: "QueryPlan") -> FlushSignature:
    """The history cell a planned flush records into / reads from."""
    return FlushSignature(
        mode=plan.mode.value,
        scatter_width=plan.shard.num_shards if plan.shard is not None else 1,
    )


@dataclass(slots=True)
class FlushRecord:
    """One flush's accounting, reduced to what the cost model needs."""

    batch_size: int
    #: Per-stage work-item counts (queries or ks the stage covered).
    stage_items: Dict[str, int]
    #: Per-stage wall time in seconds.
    stage_time_s: Dict[str, float]


@dataclass(slots=True)
class ObservedCosts:
    """Aggregate view over one signature's ring buffer.

    ``per_item_ms(stage)`` is total stage wall time over total stage
    items across the recorded flushes — milliseconds of work one item
    costs, the number the planner compares against the pool-dispatch
    bar.
    """

    flushes: int
    mean_batch: float
    stage_ms_per_item: Dict[str, float] = field(default_factory=dict)

    def per_item_ms(self, stage: str) -> Optional[float]:
        return self.stage_ms_per_item.get(stage)


class FlushHistory:
    """Bounded per-signature ring buffers of executed-flush accounting.

    ``capacity`` bounds each signature's buffer (old flushes age out,
    so the observed model tracks the *recent* cost profile — a dataset
    epoch bump or kernel warm-up shifts the numbers within one window).
    Recording is O(stages); observing is O(capacity x stages) over a
    handful of floats, cheap enough to run per flush.
    """

    def __init__(self, capacity: int = 32) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int) \
                or capacity < 1:
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self.capacity = capacity
        self._by_signature: Dict[FlushSignature, Deque[FlushRecord]] = {}

    def record(self, signature: FlushSignature, report: "FlushReport") -> None:
        """Fold one executed flush's report into the signature's buffer."""
        buf = self._by_signature.get(signature)
        if buf is None:
            buf = self._by_signature[signature] = deque(maxlen=self.capacity)
        buf.append(
            FlushRecord(
                batch_size=report.batch_size,
                stage_items={st.stage: st.items for st in report.stages},
                stage_time_s={st.stage: st.time_s for st in report.stages},
            )
        )

    def observe(self, signature: FlushSignature) -> Optional[ObservedCosts]:
        """Aggregate costs at ``signature``, or ``None`` when unseen."""
        buf = self._by_signature.get(signature)
        if not buf:
            return None
        time_by_stage: Dict[str, float] = {}
        items_by_stage: Dict[str, int] = {}
        total_batch = 0
        for rec in buf:
            total_batch += rec.batch_size
            for stage, items in rec.stage_items.items():
                items_by_stage[stage] = items_by_stage.get(stage, 0) + items
                time_by_stage[stage] = (
                    time_by_stage.get(stage, 0.0) + rec.stage_time_s[stage]
                )
        per_item = {
            stage: 1000.0 * time_by_stage[stage] / items
            for stage, items in items_by_stage.items()
            if items > 0
        }
        return ObservedCosts(
            flushes=len(buf),
            mean_batch=total_batch / len(buf),
            stage_ms_per_item=per_item,
        )

    def flushes(self, signature: FlushSignature) -> int:
        buf = self._by_signature.get(signature)
        return len(buf) if buf else 0

    def __len__(self) -> int:
        """Total recorded flushes across every signature."""
        return sum(len(buf) for buf in self._by_signature.values())

    def clear(self) -> None:
        self._by_signature.clear()

    def snapshot(self) -> dict:
        """Plain-dict view per signature (CLI / logging friendly)."""
        out = {}
        for sig in self._by_signature:
            obs = self.observe(sig)
            key = f"{sig.mode}/x{sig.scatter_width}"
            out[key] = {
                "flushes": obs.flushes,
                "mean_batch": round(obs.mean_batch, 2),
                "stage_ms_per_item": {
                    stage: round(ms, 4)
                    for stage, ms in sorted(obs.stage_ms_per_item.items())
                },
            }
        return out
