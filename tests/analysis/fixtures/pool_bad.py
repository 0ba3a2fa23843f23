"""Fixture: unpicklable / COW-only state crossing the pool boundary.

Analyzed by path only — never imported (names like ``Dataset`` and
``pool`` are free variables on purpose).
"""


def lambda_into_map(pool, items):
    return pool.map(lambda x: x + 1, items)  # PB201 (lambda)


def closure_into_map(pool, items):
    def helper(x):  # a closure: unpicklable
        return x + 1

    return pool.map(helper, items)  # PB201 (local function)


def dataset_into_payload(pool, queries):
    dataset = Dataset.synthetic()  # noqa: F821
    payload = ("refine", dataset, queries)  # PB202 (tainted name)
    return pool.map(run_payload, [payload])  # noqa: F821


def arrays_constructed_inline(pool, queries):
    return pool.map(
        run_payload,  # noqa: F821
        [("select", DatasetArrays(None), queries)],  # noqa: F821  PB202
    )


class Submitter:
    def submit(self, pool, items):
        return pool.map(self.process, items)  # PB203 (bound method)

    def process(self, item):
        return item


def bad_initializer(ctx, dataset):
    tree = TreeArrays(dataset)  # noqa: F821
    return ctx.Pool(
        4,
        initializer=lambda: None,  # PB201 (lambda initializer)
        initargs=(tree,),  # PB202 (tainted initargs)
    )


def payload_tuple_outside_submit(queries):
    store = PageStore("pages.bin")  # noqa: F821
    work = ("indexed_search", queries, store)  # PB202 (payload tuple)
    return work
