"""Fixture: the PR 3 token-registry discipline, done right."""

_REGISTRY = {}


def _init_worker(token):
    _REGISTRY["current"] = token


def _run_payload(payload):
    return payload


def start_pool(ctx, token, payloads):
    # Module-level initializer + small int token: picklable and tiny.
    pool = ctx.Pool(2, initializer=_init_worker, initargs=(token,))
    return pool.map(_run_payload, list(payloads))


def token_payloads(pool, queries, method, mode):
    # Payload tuples carry only small plain data, never arrays.
    payloads = [("refine", list(queries), method, mode)]
    return pool.map(_run_payload, payloads)


def dataset_stays_home(queries):
    # Constructing COW-only types is fine when they never reach a
    # boundary site.
    dataset = Dataset.synthetic()  # noqa: F821
    return dataset.stats(), list(queries)
