"""Fixture: identity kernels that keep the scalar association order."""

import math

import numpy as np


def weights_of(user, weights):
    # Allowlisted name, clean body: builtin sum accumulates strictly
    # left to right — the scalar reference's own order.
    total = sum(weights[t] for t in sorted(user))
    return total


def frontier_bounds(dx, dy):
    # The exact scalar spelling of the metric: sqrt(dx*dx + dy*dy).
    return np.sqrt(dx * dx + dy * dy)


def guard_banded_scores(terms, w):
    # NOT an identity kernel (not allowlisted, no marker): reductions
    # and single precision are allowed under the guard-band contract.
    return terms.astype(np.float32) @ w + math.fsum(w)


def sts_pairs(user_term_cols, obj_weights, obj_rows, user_rows):
    # Allowlisted name, clean body: one elementwise add per term slot,
    # strictly left to right (a padding slot adds an exact + 0.0).
    total = np.zeros(len(obj_rows))
    for cols in user_term_cols[user_rows].T:
        total += obj_weights[obj_rows, cols]
    return total
