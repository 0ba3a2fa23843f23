"""The paper's motivating Example 1: social-media advertisement targeting.

Each user of a platform is shown only the k advertisements most
relevant to their location and interests.  An advertiser must choose
(a) which city region to geo-target and (b) which <= ws interest tags
to attach to the ad, so it surfaces in the ad slots of the maximum
number of users, against a large inventory of competing ads.

This example also runs Section 7's indexed-users search: with many
platform users, the MIUR-tree avoids even computing the threshold of
users no placement can win.  It is the scalar reference
(``repro.oracle``), not an engine mode: the engine's flat JOINT
pipeline answered every measured cell faster and with less I/O.

Run:  python examples/ad_placement.py
"""

import time

from repro import (
    Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, QueryOptions, oracle,
)
from repro.datagen import candidate_locations, flickr_like, generate_users
from repro.index.miurtree import MIURTree


def main() -> None:
    # Competing ad inventory: ~3000 ads with tags, clustered downtown.
    ads, vocab = flickr_like(num_objects=3000, vocab_size=1500, seed=42)

    # Platform users, spread over a wide metro area (sparse).
    workload = generate_users(
        ads,
        num_users=800,
        keywords_per_user=3,
        unique_keywords=25,
        area_side=40.0,
        seed=42,
    )
    candidate_locations(workload, num_locations=10, seed=42)

    # Spatially dominated ranking: geo-targeting matters most (alpha .9),
    # each user sees their top-5 ads.
    dataset = Dataset(ads, workload.users, relevance="LM", alpha=0.9,
                      vocabulary=vocab)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=8))
    user_tree = MIURTree(dataset.users, dataset.relevance, fanout=8)

    query = MaxBRSTkNNQuery(
        ox=workload.query_object(),
        locations=workload.locations,
        keywords=workload.candidate_keywords,
        ws=3,
        k=5,
    )

    t0 = time.perf_counter()
    flat = engine.query(query, QueryOptions(method="approx"))
    t_flat = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexed = oracle.indexed_users_maxbrstknn(
        engine.object_tree, user_tree, dataset, query, method="approx",
        store=engine.store,
    )
    t_indexed = time.perf_counter() - t0

    print(f"Users on platform: {len(dataset.users)}, competing ads: {len(ads)}")
    print()
    print(f"Flat mode    ({t_flat * 1000:7.1f} ms): {flat.summary()}")
    print(f"Section 7    ({t_indexed * 1000:7.1f} ms): {indexed.summary()}")
    print()
    pruned = indexed.stats.users_pruned
    print(
        f"MIUR-tree pruning: top-k thresholds were never computed for "
        f"{pruned} of {indexed.stats.users_total} users "
        f"({indexed.stats.users_pruned_pct:.1f}% pruned)"
    )
    tags = [vocab.term_of(t) for t in sorted(indexed.keywords)]
    print(f"Ad copy should carry the tags: {tags}")
    print(
        f"The ad then appears in the top-{query.k} slots of "
        f"{indexed.cardinality} users."
    )


if __name__ == "__main__":
    main()
