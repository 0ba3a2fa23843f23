"""Serve concurrent MaxBRSTkNN queries through the micro-batching server.

Simulates 32 independent clients hitting the service at once — e.g. an
ad-placement dashboard where every advertiser asks "where should my ad
go?" simultaneously.  Each client just awaits ``server.submit(query)``;
the server transparently collects the burst into micro-batches, shares
the expensive query-independent top-k phase across them through
``query_batch``, and resolves every client's future with a result
identical to a standalone ``engine.query`` call.

Run:  python examples/async_serving.py
"""

import asyncio
import sys
import time
from os.path import abspath, dirname, join

sys.path.insert(0, join(dirname(dirname(abspath(__file__))), "src"))

from repro import Dataset, MaxBRSTkNNEngine, QueryOptions
from repro.datagen import flickr_like, generate_users, query_pool
from repro.serve import MaxBRSTkNNServer, ServerConfig

NUM_CLIENTS = 32


def build_world():
    objects, vocab = flickr_like(num_objects=1500, seed=3)
    workload = generate_users(objects, num_users=150, unique_keywords=15, seed=3)
    dataset = Dataset(objects, workload.users, relevance="LM", alpha=0.5,
                      vocabulary=vocab)
    queries = query_pool(
        workload, NUM_CLIENTS, num_locations=10, ws=2, k=10, seed=100
    )
    return dataset, queries


async def client(server, i, query):
    t0 = time.perf_counter()
    result = await server.submit(query)
    latency = 1000 * (time.perf_counter() - t0)
    return f"client {i:2d}: |BRSTkNN|={result.cardinality:2d}  ({latency:6.1f} ms)"


async def main():
    dataset, queries = build_world()
    engine = MaxBRSTkNNEngine(dataset)
    config = ServerConfig(
        max_batch=NUM_CLIENTS,
        max_wait_ms=2.0,
        options=QueryOptions(method="approx"),
    )
    t0 = time.perf_counter()
    async with MaxBRSTkNNServer(engine, config) as server:
        lines = await asyncio.gather(
            *(client(server, i, q) for i, q in enumerate(queries))
        )
        stats = server.stats.snapshot()
    elapsed = time.perf_counter() - t0

    for line in lines[:8]:
        print(line)
    print(f"... and {NUM_CLIENTS - 8} more clients")
    print()
    print(f"{NUM_CLIENTS} concurrent clients served in {1000 * elapsed:.1f} ms "
          f"({NUM_CLIENTS / elapsed:.0f} queries/sec)")
    print(f"server stats: {stats}")


if __name__ == "__main__":
    asyncio.run(main())
