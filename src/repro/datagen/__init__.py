"""Synthetic workload generation (stand-ins for Flickr and Yelp)."""

from .synthetic import SpaceConfig, flickr_like, yelp_like, zipf_term_sampler
from .users import UserWorkload, candidate_locations, generate_users, query_pool

__all__ = [
    "SpaceConfig",
    "UserWorkload",
    "candidate_locations",
    "flickr_like",
    "generate_users",
    "query_pool",
    "yelp_like",
    "zipf_term_sampler",
]
