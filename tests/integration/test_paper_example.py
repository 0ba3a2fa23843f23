"""Integration test reconstructing the paper's Figure 1 scenario.

Four users, two existing restaurants, three candidate locations, three
candidate menu items, ws = 1, k = 1.  The paper's narrative: placing the
new restaurant ox at l1 with menu 'sushi' makes it the top-1 relevant
restaurant of u1, u2 and u3 — the maximum achievable (3 users).

We lay out coordinates so the spatial relationships of Figure 1 hold
(u1, u2, u3 near l1; u4 near o2) and check that the engine reaches the
same optimum with every mode and method.
"""

import pytest

from repro import (
    Dataset,
    MaxBRSTkNNEngine,
    MaxBRSTkNNQuery,
    Point,
    STObject,
    User,
)
from repro.core.config import QueryOptions
from repro.text.vocabulary import Vocabulary


@pytest.fixture(scope="module")
def figure1():
    vocab = Vocabulary()
    sushi = vocab.add("sushi")
    seafood = vocab.add("seafood")
    noodles = vocab.add("noodles")

    # Existing restaurants: o1 serves sushi (far right), o2 noodles.
    objects = [
        STObject(0, Point(8.0, 6.0), {sushi: 1}),
        STObject(1, Point(6.0, 1.0), {noodles: 1}),
    ]
    # Users u1..u3 cluster on the left (sushi crowd), u4 near o2.
    users = [
        User(0, Point(1.0, 6.0), {sushi: 1, seafood: 1}),
        User(1, Point(2.0, 5.0), {sushi: 1}),
        User(2, Point(1.5, 3.5), {sushi: 1, noodles: 1}),
        User(3, Point(5.5, 1.5), {noodles: 1}),
    ]
    dataset = Dataset(objects, users, relevance="KO", alpha=0.5, vocabulary=vocab)
    locations = [Point(1.5, 5.0), Point(7.0, 5.0), Point(4.0, 0.5)]  # l1, l2, l3
    keywords = [sushi, seafood, noodles]
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=99, location=locations[0], terms={}),
        locations=locations,
        keywords=keywords,
        ws=1,
        k=1,
    )
    return dataset, query, locations, {"sushi": sushi, "noodles": noodles}


class TestFigure1:
    @pytest.mark.parametrize("mode", ["baseline", "joint", "indexed"])
    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_optimum_is_l1_sushi_with_three_users(self, figure1, mode, method):
        dataset, query, locations, kw = figure1
        engine = MaxBRSTkNNEngine(dataset, fanout=4, index_users=True)
        if mode == "baseline" and method == "approx":
            pytest.skip("baseline has no approximate variant")
        result = engine.query(query, QueryOptions(method=method, mode=mode))
        assert result.cardinality == 3
        # The narrative's optimum: menu 'sushi', winning u1, u2, u3.
        # (In this coordinate layout more than one location achieves the
        # optimum, so the location itself is not asserted — only that
        # the returned placement actually wins those three users.)
        assert result.keywords == frozenset({kw["sushi"]})
        assert result.brstknn == frozenset({0, 1, 2})  # u1, u2, u3
        assert result.location in locations

    def test_wrong_menu_wins_fewer_users(self, figure1):
        """Placing noodles at l1 cannot beat sushi's 3 users."""
        from repro.core.joint_topk import joint_topk
        from repro.core.keyword_selection import compute_brstknn
        from repro.index.irtree import MIRTree

        dataset, query, locations, kw = figure1
        tree = MIRTree(dataset.objects, dataset.relevance, fanout=4)
        topk = joint_topk(tree, dataset, 1)
        rsk = {uid: r.kth_score for uid, r in topk.items()}
        winners = compute_brstknn(
            dataset, query.ox, locations[0], {kw["noodles"]}, dataset.users, rsk
        )
        assert len(winners) < 3
