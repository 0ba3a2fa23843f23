"""repro — reproduction of "Maximizing Bichromatic Reverse Spatial and
Textual k Nearest Neighbor Queries" (Choudhury et al., PVLDB 9(6), 2016).

The library answers MaxBRSTkNN queries — find a location and a keyword
set for a new object such that it enters the spatial-textual top-k of
the maximum number of users — together with every substrate the paper
depends on: R-tree, IR-tree, MIR-tree, MIUR-tree, three text relevance
measures, a simulated-I/O disk model, joint top-k processing, and both
the greedy approximate and the pruned exact keyword selectors.

Quickstart
----------
>>> from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery
>>> from repro.datagen import flickr_like, generate_users
>>> objects, vocab = flickr_like(num_objects=500, seed=7)
>>> protocol = generate_users(objects, num_users=50, seed=7)
>>> ds = Dataset(objects, protocol.users, relevance="LM", alpha=0.5)
>>> engine = MaxBRSTkNNEngine(ds)
"""

from .core.config import EngineConfig, Method, Mode, QueryOptions
from .core.engine import MaxBRSTkNNEngine
from .core.planner import QueryPlan
from .core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats
from .model.dataset import Dataset, DatasetStats
from .model.objects import STObject, SuperUser, User
from .spatial.geometry import Point, Rect

__version__ = "1.2.0"

__all__ = [
    "Dataset",
    "DatasetStats",
    "EngineConfig",
    "MaxBRSTkNNEngine",
    "MaxBRSTkNNQuery",
    "MaxBRSTkNNResult",
    "Method",
    "Mode",
    "QueryOptions",
    "QueryPlan",
    "QueryStats",
    "Point",
    "Rect",
    "STObject",
    "SuperUser",
    "User",
    "__version__",
]
