"""Patterns FT501 must stay silent on."""


class PersistentWorkerPool:
    # The supervisor itself may touch the raw pool: that is its job.
    def dispatch(self, payloads):
        return self._pool.map_async(self._fn, payloads)


def supervised(pool, payloads):
    # The sanctioned path: deadline + retry apply.
    return pool.run_supervised(payloads)


def ticketed(pool, payloads):
    ticket = pool.dispatch(payloads)
    return pool.collect(ticket)


def ephemeral_sync_map(fork_pool, fn, chunks):
    # Synchronous map returns no handle to wait on: out of scope.
    return fork_pool.map(fn, chunks)


def not_a_pool(executor, fn, items):
    # Async dispatch on a non-pool receiver is someone else's API.
    return executor.map_async(fn, items)


def iterator_helper(data, fn):
    return data.imap(fn)
