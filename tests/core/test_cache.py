"""ResultCache: keying, LRU eviction, epoch invalidation."""

import pytest

from repro import MaxBRSTkNNQuery, QueryOptions
from repro.core.cache import ResultCache, canonical_signature
from repro.core.config import CachePolicy
from repro.model.objects import STObject
from repro.spatial.geometry import Point

OPTS = QueryOptions()


def make_query(item_id=-1, x=1.0, terms=None, locations=((2.0, 2.0),),
               keywords=(0, 1), ws=1, k=2):
    return MaxBRSTkNNQuery(
        ox=STObject(
            item_id=item_id, location=Point(x, 1.0), terms=dict(terms or {})
        ),
        locations=[Point(px, py) for px, py in locations],
        keywords=list(keywords),
        ws=ws,
        k=k,
    )


class TestCanonicalSignature:
    def test_equal_content_distinct_objects_share_a_signature(self):
        assert canonical_signature(make_query()) == canonical_signature(
            make_query()
        )

    def test_term_order_does_not_matter(self):
        a = make_query(terms={3: 1, 7: 2})
        b = make_query(terms={7: 2, 3: 1})
        assert canonical_signature(a) == canonical_signature(b)

    @pytest.mark.parametrize("change", [
        dict(item_id=-2),
        dict(x=1.5),
        dict(terms={3: 1}),
        dict(locations=((2.0, 2.0), (3.0, 3.0))),
        dict(locations=((3.0, 3.0),)),
        dict(keywords=(1, 0)),  # keyword order is answer-relevant
        dict(ws=2),
        dict(k=3),
    ])
    def test_answer_relevant_changes_change_the_signature(self, change):
        assert canonical_signature(make_query()) != canonical_signature(
            make_query(**change)
        )


class TestResultCache:
    def test_miss_then_hit_roundtrip(self):
        cache = ResultCache()
        query, result = make_query(), object()
        assert cache.lookup(query, OPTS, epoch=0) is None
        assert cache.store(query, OPTS, 0, result) == 0
        assert cache.lookup(make_query(), OPTS, epoch=0) is result
        assert len(cache) == 1

    def test_options_separate_entries(self):
        cache = ResultCache()
        cache.store(make_query(), OPTS, 0, object())
        exact = QueryOptions(method="exact")
        assert cache.lookup(make_query(), exact, epoch=0) is None

    def test_epoch_bump_invalidates(self):
        cache = ResultCache()
        cache.store(make_query(), OPTS, 0, object())
        assert cache.lookup(make_query(), OPTS, epoch=1) is None
        # The stale generation ages out of the LRU instead of matching.
        assert cache.lookup(make_query(), OPTS, epoch=0) is not None

    def test_lru_eviction_counts_and_order(self):
        cache = ResultCache(CachePolicy(max_entries=2))
        a, b, c = (make_query(item_id=-i) for i in (1, 2, 3))
        assert cache.store(a, OPTS, 0, "ra") == 0
        assert cache.store(b, OPTS, 0, "rb") == 0
        # Touch a so b is now least-recently-used.
        assert cache.lookup(a, OPTS, epoch=0) == "ra"
        assert cache.store(c, OPTS, 0, "rc") == 1
        assert cache.lookup(b, OPTS, epoch=0) is None
        assert cache.lookup(a, OPTS, epoch=0) == "ra"
        assert cache.lookup(c, OPTS, epoch=0) == "rc"

    def test_restore_refreshes_instead_of_growing(self):
        cache = ResultCache(CachePolicy(max_entries=2))
        cache.store(make_query(), OPTS, 0, "old")
        assert cache.store(make_query(), OPTS, 0, "new") == 0
        assert len(cache) == 1
        assert cache.lookup(make_query(), OPTS, epoch=0) == "new"

    def test_clear(self):
        cache = ResultCache()
        cache.store(make_query(), OPTS, 0, object())
        cache.clear()
        assert len(cache) == 0

    def test_rejects_non_policy(self):
        with pytest.raises(TypeError):
            ResultCache(policy=4096)


class TestCachePolicy:
    @pytest.mark.parametrize("entries", [0, -1, 1.5, "8", True])
    def test_invalid_max_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            CachePolicy(max_entries=entries)

    def test_invalid_track_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CachePolicy(track_thresholds=1)

    def test_with_(self):
        policy = CachePolicy().with_(max_entries=8)
        assert policy.max_entries == 8
        assert CachePolicy().max_entries == 4096
