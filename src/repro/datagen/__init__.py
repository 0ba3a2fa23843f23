"""Synthetic workload generation (stand-ins for Flickr and Yelp).

The object generators emit columns — an
:class:`~repro.model.columns.ObjectTable` of x, y and a CSR of (term id,
tf) in generation order — and :func:`generate_users` reads them as
columns; no object is built on the way.  :class:`ExactChoice` draws the
documents: it replays ``Generator.choice`` without the per-call set-up,
so a seed still gives the same bits.
"""

from .synthetic import ExactChoice, SpaceConfig, flickr_like, yelp_like, zipf_term_sampler
from .users import UserWorkload, candidate_locations, generate_users, query_pool

__all__ = [
    "ExactChoice",
    "SpaceConfig",
    "UserWorkload",
    "candidate_locations",
    "flickr_like",
    "generate_users",
    "query_pool",
    "yelp_like",
    "zipf_term_sampler",
]
