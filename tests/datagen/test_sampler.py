"""``ExactChoice`` replays ``Generator.choice(n, size, replace=False, p=p)``.

The reference is numpy's own call: same indices, same dtype, and the
generator left at the same stream position, over Zipf, flat and
zero-holding ``p`` and several draws in a row from one sampler.  A
mutant that skips numpy's redraw round must be caught.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.synthetic import ExactChoice, zipf_term_sampler


def make_p(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "flat":
        return np.full(n, 1.0 / n)
    p = zipf_term_sampler(rng, n, exponent=float(rng.uniform(0.5, 1.5)))
    if kind == "zeros" and n > 1:
        p = p.copy()
        p[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        p /= p.sum()
    return p


def agrees(sampler_cls, p, sizes, seed) -> bool:
    """Draw ``sizes`` in turn from numpy and from the sampler (one
    instance for all draws); equal indices and generator state?"""
    ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler = sampler_cls(p)
    for size in sizes:
        want = ref.choice(len(p), size=size, replace=False, p=p)
        got = sampler(ours, size)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return False
        if ours.bit_generator.state != ref.bit_generator.state:
            return False
    return True


@given(
    kind=st.sampled_from(["zipf", "flat", "zeros"]),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_matches_generator_choice(kind, n, seed, data):
    p = make_p(kind, n, seed)
    nonzero = int(np.count_nonzero(p))
    sizes = data.draw(
        st.lists(st.integers(min_value=0, max_value=nonzero), min_size=1, max_size=4)
    )
    assert agrees(ExactChoice, p, sizes, seed)


def test_refuses_what_numpy_refuses():
    p = make_p("zeros", 10, 3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ExactChoice(p)(rng, int(np.count_nonzero(p)) + 1)
    with pytest.raises(ValueError):
        ExactChoice(p)(rng, 11)
    with pytest.raises(ValueError):
        ExactChoice([0.5, 0.6])


class NoRedraw(ExactChoice):
    """Seeded mutant: a repeat is dropped, the shortfall never drawn."""

    def _redraw(self, rng, drawn, size):
        return np.array(list(dict.fromkeys(drawn)), dtype=np.int64)


def test_mutant_without_the_redraw_round_is_caught():
    cases = [("zipf", 50, seed, [30]) for seed in range(5)]
    assert not all(agrees(NoRedraw, make_p(k, n, s), sizes, s) for k, n, s, sizes in cases)
    # ...while the real sampler agrees on the very same cases.
    assert all(agrees(ExactChoice, make_p(k, n, s), sizes, s) for k, n, s, sizes in cases)
