"""FT501 violations: bare pool dispatches that bypass the supervisor."""


def bare_map_async(worker_pool, fn, items):
    return worker_pool.map_async(fn, items)


def bare_apply(self, fn):
    return self._pool.apply_async(fn)


def bare_imap(lane_pool, fn, items):
    return list(lane_pool.imap(fn, items))


class ShardRunner:
    def scatter(self, fn, plans):
        return self.pool.starmap_async(fn, plans)
