"""The paper's primary contribution: MaxBRSTkNN query processing."""

from .baseline import baseline_maxbrstknn, baseline_select_candidate
from .batch import SharedTopK, SharedTraversalPool, query_batch
from .bounds import BoundCalculator, augmented_document
from .candidate_selection import select_candidate, shortlist_locations
from .engine import MaxBRSTkNNEngine
from .extensions import Placement, collective_placement, top_placements
from .joint_topk import individual_topk, joint_topk, joint_traversal
from .kernels import DatasetArrays, TreeArrays, arrays_for, tree_arrays_for
from .keyword_selection import (
    compute_brstknn,
    select_keywords_exact,
    select_keywords_greedy,
)
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

__all__ = [
    "BoundCalculator",
    "DatasetArrays",
    "MaxBRSTkNNEngine",
    "MaxBRSTkNNQuery",
    "MaxBRSTkNNResult",
    "Placement",
    "QueryStats",
    "SharedTopK",
    "SharedTraversalPool",
    "TreeArrays",
    "arrays_for",
    "tree_arrays_for",
    "augmented_document",
    "baseline_maxbrstknn",
    "baseline_select_candidate",
    "collective_placement",
    "compute_brstknn",
    "individual_topk",
    "joint_topk",
    "joint_traversal",
    "query_batch",
    "select_candidate",
    "select_keywords_exact",
    "select_keywords_greedy",
    "shortlist_locations",
    "top_placements",
]
