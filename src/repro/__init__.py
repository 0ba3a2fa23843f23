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

from importlib import import_module

__version__ = "1.2.0"

#: Each public name and the module defining it, imported on first
#: access: ``import repro`` loads no numpy, so ``python -m repro`` can
#: pin BLAS threads before it does (:mod:`repro.__main__`).
_EXPORTS = {
    name: module
    for module, names in {
        "core.config": ("EngineConfig", "Method", "QueryOptions"),
        "core.engine": ("MaxBRSTkNNEngine",),
        "core.planner": ("QueryPlan",),
        "core.query": ("MaxBRSTkNNQuery", "MaxBRSTkNNResult", "QueryStats"),
        "model.dataset": ("Dataset", "DatasetStats"),
        "model.objects": ("STObject", "SuperUser", "User"),
        "spatial.geometry": ("Point", "Rect"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
