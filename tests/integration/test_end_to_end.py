"""Cross-module integration tests on generated workloads.

These are the highest-level gold tests: the whole optimized pipeline
(joint top-k + Algorithm 3 + Algorithm 4 / greedy) against the whole
baseline pipeline, on both dataset flavours and all three measures.
"""

import pytest

from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.datagen import candidate_locations, flickr_like, generate_users, yelp_like


def build_workload(kind, seed, measure="LM", alpha=0.5, n_obj=200, n_users=25):
    if kind == "flickr":
        objects, vocab = flickr_like(num_objects=n_obj, vocab_size=150, seed=seed)
    else:
        objects, vocab = yelp_like(num_objects=max(60, n_obj // 3), seed=seed)
    wl = generate_users(
        objects, num_users=n_users, keywords_per_user=3, unique_keywords=12, seed=seed
    )
    candidate_locations(wl, num_locations=4, seed=seed)
    ds = Dataset(objects, wl.users, relevance=measure, alpha=alpha, vocabulary=vocab)
    query = MaxBRSTkNNQuery(
        ox=wl.query_object(),
        locations=list(wl.locations),
        keywords=list(wl.candidate_keywords),
        ws=2,
        k=5,
    )
    return ds, query


class TestOptimizedEqualsBaseline:
    @pytest.mark.parametrize("kind", ["flickr", "yelp"])
    @pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
    def test_exact_joint_equals_baseline(self, kind, measure):
        ds, query = build_workload(kind, seed=31, measure=measure)
        engine = MaxBRSTkNNEngine(ds, index_users=True)
        joint = engine.query(query, QueryOptions(method="exact", mode="joint"))
        base = engine.query(query, QueryOptions(method="exact", mode="baseline"))
        indexed = engine.query(query, QueryOptions(method="exact", mode="indexed"))
        assert joint.cardinality == base.cardinality == indexed.cardinality

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_seeds(self, seed):
        ds, query = build_workload("flickr", seed=seed)
        engine = MaxBRSTkNNEngine(ds)
        joint = engine.query(query, QueryOptions(method="exact", mode="joint"))
        base = engine.query(query, QueryOptions(method="exact", mode="baseline"))
        assert joint.cardinality == base.cardinality

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_alpha_extremes(self, alpha):
        ds, query = build_workload("flickr", seed=44, alpha=alpha)
        engine = MaxBRSTkNNEngine(ds)
        joint = engine.query(query, QueryOptions(method="exact", mode="joint"))
        base = engine.query(query, QueryOptions(method="exact", mode="baseline"))
        assert joint.cardinality == base.cardinality


class TestPerformanceShape:
    """Sanity-level shape assertions the paper's figures depend on."""

    def test_joint_topk_io_beats_baseline(self):
        ds, query = build_workload("flickr", seed=51, n_obj=400, n_users=40)
        engine = MaxBRSTkNNEngine(ds)
        engine.topk_baseline(5)
        io_baseline = engine.io.total
        engine.reset_io()
        engine.topk_joint(5)
        io_joint = engine.io.total
        assert io_joint < io_baseline

    def test_approx_evaluations_scale_linearly_in_ws(self):
        """The greedy's evaluation count is ~linear in ws while exact
        enumeration is combinatorial — the scaling the paper's Figure 11
        rests on.  (At tiny ws the two are comparable, so the assertion
        targets growth, not a single point.)"""
        ds, query = build_workload("flickr", seed=52)
        engine = MaxBRSTkNNEngine(ds)

        def combos(method, ws):
            
            q = MaxBRSTkNNQuery(
                ox=query.ox,
                locations=list(query.locations),
                keywords=list(query.keywords),
                ws=ws,
                k=query.k,
            )
            return engine.query(q, QueryOptions(method=method)).stats.keyword_combinations_scored

        growth_exact = combos("exact", 4) / max(1, combos("exact", 1))
        growth_approx = combos("approx", 4) / max(1, combos("approx", 1))
        assert growth_exact > growth_approx

    def test_approximation_ratio_reasonable(self):
        ratios = []
        for seed in (61, 62, 63):
            ds, query = build_workload("flickr", seed=seed)
            engine = MaxBRSTkNNEngine(ds)
            exact = engine.query(query, QueryOptions(method="exact", mode="joint"))
            approx = engine.query(query, QueryOptions(method="approx", mode="joint"))
            if exact.cardinality:
                ratios.append(approx.cardinality / exact.cardinality)
        assert ratios and min(ratios) >= 0.6  # paper reports 0.6–1.0
