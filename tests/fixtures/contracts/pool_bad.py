"""Fixture: COW-only state riding a scatter payload.

Analyzed by path only — never imported (names like ``Dataset`` are free
variables on purpose).
"""


def dataset_into_payload(registry, queries):
    dataset = Dataset.synthetic()  # noqa: F821
    payload = ("refine", dataset, queries)  # PB202 (tainted name)
    return registry.dispatch([payload])


def arrays_constructed_inline(registry, queries):
    return registry.dispatch(
        [("select", DatasetArrays(None), queries)],  # noqa: F821  PB202
    )


def payload_tuple_outside_dispatch(queries):
    store = PageStore("pages.bin")  # noqa: F821
    work = ("select", queries, store)  # PB202 (payload tuple)
    return work
