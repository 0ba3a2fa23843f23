"""Fixture: scatter payloads that carry only small plain data."""


def token_payloads(registry, queries, method, mode):
    # Payload tuples carry only small plain data, never arrays.
    payloads = [("refine", list(queries), method, mode)]
    return registry.dispatch(payloads)


def dataset_stays_home(queries):
    # Constructing COW-only types is fine when they never reach a
    # payload tuple.
    dataset = Dataset.synthetic()  # noqa: F821
    return dataset.stats(), list(queries)
