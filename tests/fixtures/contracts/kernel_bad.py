"""Fixture: identity kernels breaking the bitwise-exactness bans."""

import math

import numpy as np


def node_lower_bounds(dx, dy, weights, starts):
    # Allowlisted name: every banned op below must fire.
    dist = np.hypot(dx, dy)  # KI301 (hypot)
    total = math.fsum(weights)  # KI301 (fsum)
    pairwise = weights.sum()  # KI302 (.sum reduction)
    segmented = np.add.reduceat(weights, starts)  # KI302 (reduceat)
    return dist, total, pairwise, segmented


def helper_outside_allowlist(weights):
    # Not an identity kernel: the same ops are fine here.
    return np.hypot(weights, weights), weights.sum()


def marked_kernel(a, b):  # repro: identity-kernel
    scores = np.einsum("ij,j->i", a, b)  # KI302 (einsum)
    return scores


def matmul_kernel(terms, w):  # repro: identity-kernel
    def inner_step(block):
        # Nested helpers run inside the kernel's contract too.
        return block @ w  # KI302 (matrix product)

    return [inner_step(t) for t in terms]


def sts_pairs(user_terms, obj_weights, obj_rows, user_rows):
    # Allowlisted name (Algorithm 2's pair kernel): the text sums
    # smuggled in as one product instead of left-to-right adds.
    return np.matmul(user_terms[user_rows], obj_weights[obj_rows].T)  # KI302


def group_spatial_bounds(gap_x, gap_y, dmax):
    # Allowlisted name (the group bounds' spatial halves): libm hypot
    # where the scalar metric writes sqrt(dx*dx + dy*dy).
    return 1.0 - np.hypot(gap_x, gap_y) / dmax  # KI301 (hypot)
