"""Typed configuration for the layered query API.

Two frozen dataclasses carry every knob of the query surface:

* :class:`EngineConfig` — how indexes are built (fanout, buffer
  pages) and served (lanes, shm); one value per engine lifetime.
* :class:`QueryOptions` — how one query (or batch) is answered
  (the keyword selector, a :class:`enum.Enum`); validated on
  construction, shared by every entry point, with **one** default:
  :meth:`QueryOptions.default`.

Parallelism is not a query option: it belongs to the lanes of a
:class:`~repro.serve.sharded.ShardedEngine`
(``make_engine(dataset, EngineConfig(num_shards=N))`` then
``start_pools()`` / ``connect_hosts()``).
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..spatial.rtree import DEFAULT_FANOUT

__all__ = [
    "Method",
    "CachePolicy",
    "EngineConfig",
    "QueryOptions",
    "coerce_options",
]


def _require_int(name: str, value, minimum: int) -> None:
    """Reject non-ints *including* ``bool`` (``True`` is an ``int``).

    ``isinstance(x, int)`` alone accepts booleans — ``max_batch=True``
    used to validate and silently serve batches of one — so every
    integer knob across the config surface routes through this check.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int (not bool), got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


class Method(str, enum.Enum):
    """Keyword-selection method (Section 6); accepts its values as
    strings, case-insensitively."""

    APPROX = "approx"  # Section 6.2.1: greedy max coverage, 1 - 1/e
    EXACT = "exact"    # Section 6.2.2, Algorithm 4: every set up to ws

    @classmethod
    def coerce(cls, value: Union[str, "Method"]) -> "Method":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                return cls(value.lower())
        valid = ", ".join(repr(m.value) for m in cls)
        raise ValueError(f"unknown method {value!r}; expected one of {valid}")

    def __str__(self) -> str:  # "exact", not "Method.EXACT", in messages
        return self.value


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """How a :class:`MaxBRSTkNNEngine` builds its indexes.

    Attributes
    ----------
    fanout:
        R-tree fanout of the MIR-tree over the objects.
    buffer_pages:
        LRU buffer capacity in pages; 0 = cold queries (paper setting).
    num_shards:
        Fleet size: how many full-dataset shard hosts a
        :class:`~repro.serve.sharded.ShardedEngine`'s ``start_pools``
        forks.  Each host is a lane: the cold refine is dealt as one
        user-row range per lane and the selections by query, with
        results identical to a single range.  ``1`` is the default;
        :func:`repro.serve.sharded.make_engine` builds a
        ``ShardedEngine`` for more.  A plain engine has no fleet and
        ignores it, as it ignores ``use_shm``: it refines in one range,
        in-process.
    use_shm:
        Ship scatter payload blocks through a named
        :class:`~repro.storage.shm.ShmArena` with the binary arena codec
        (:mod:`repro.core.payload`) instead of pickling them into the
        frame.  The arena exists only while a fleet is up, so a plain
        engine never creates one.  Results are bitwise identical either
        way.
    """

    fanout: int = DEFAULT_FANOUT
    buffer_pages: int = 0
    num_shards: int = 1
    use_shm: bool = False

    def __post_init__(self) -> None:
        _require_int("fanout", self.fanout, minimum=2)
        _require_int("buffer_pages", self.buffer_pages, minimum=0)
        _require_int("num_shards", self.num_shards, minimum=1)
        if not isinstance(self.use_shm, bool):
            raise ValueError(f"use_shm must be a bool, got {self.use_shm!r}")

    def with_(self, **kwargs) -> "EngineConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


@dataclass(frozen=True, slots=True)
class CachePolicy:
    """Knobs of the cross-flush result cache (:mod:`repro.core.cache`).

    Attributes
    ----------
    max_entries:
        LRU capacity in cached results.  A cached
        :class:`~repro.core.query.MaxBRSTkNNResult` is small (a
        location, two frozensets, stats), so the default keeps a few
        thousand hot queries without meaningful memory pressure.
    track_thresholds:
        Also count the warm tier: queries that *miss* the exact-result
        cache but land on a ``k`` the engine's memoized
        ``SharedTopK`` pools have already walked —
        they skip the tree walk and threshold derivation even though
        the full selection re-runs.  Surfaced as
        ``cache_threshold_hits`` in :class:`~repro.serve.config.ServerStats`.
    """

    max_entries: int = 4096
    track_thresholds: bool = True

    def __post_init__(self) -> None:
        _require_int("max_entries", self.max_entries, minimum=1)
        if not isinstance(self.track_thresholds, bool):
            raise ValueError(
                f"track_thresholds must be a bool, got {self.track_thresholds!r}"
            )

    def with_(self, **kwargs) -> "CachePolicy":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


@dataclass(frozen=True, slots=True)
class QueryOptions:
    """How one query (or one batch of queries) is answered.

    Attributes
    ----------
    method:
        Keyword selector; strings are coerced (``"exact"`` works).

    Every query runs the one pipeline (joint top-k, then Algorithm 3);
    Section 4's exhaustive baseline is reference code,
    :func:`repro.core.baseline.baseline_maxbrstknn`.  The single shared
    default (:meth:`default`) serves ``query`` and ``query_batch``
    alike.
    """

    method: Method = Method.APPROX

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method.coerce(self.method))

    @classmethod
    def default(cls) -> "QueryOptions":
        """The one shared default for every entry point."""
        return _DEFAULT_OPTIONS

    def with_(self, **kwargs) -> "QueryOptions":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


_DEFAULT_OPTIONS = QueryOptions()


def coerce_options(
    options: Optional[QueryOptions] = None, *, api: str = "query"
) -> QueryOptions:
    """``options``, or the shared default when ``None``.

    Anything but a :class:`QueryOptions` is a ``TypeError`` naming
    ``api`` — a method string or a dict is refused, not interpreted.
    """
    if options is None:
        return QueryOptions.default()
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"{api}() options must be a QueryOptions, got {type(options).__name__}"
        )
    return options
