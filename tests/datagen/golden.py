"""SHA-256 digests of the benchmark's default cell, for the golden pins.

Each digest covers one layer of the ingest path as raw bits: the
generated columns, the vocabulary, the users and query ingredients,
the fitted relevance weights, the kernel columns and the flattened
MIR-tree.  ``tests/datagen/test_golden.py`` compares them against
values recorded before the columnar ingest replaced the per-object
build; any drift in a float's last bit, an order or a page id shows.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from repro import Dataset
from repro.core.kernels import arrays_for, object_columns_for, tree_arrays_for
from repro.datagen import query_pool
from repro.index.irtree import MIRTree
from repro.serve.shardhost import WorkloadSpec, make_workload

MEASURES = ("LM", "TF", "KO")
FANOUTS = (4, 32)
CELLS = tuple(
    (name, seed) for name in ("flickr", "yelp") for seed in (0, 1, 2)
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def object_csr(dataset):
    """``(ids, x, y, indptr, terms, tfs)`` in generation order."""
    table = dataset.table
    return table.ids, table.x, table.y, table.indptr, table.terms, table.tfs


def object_weights(dataset):
    """The objects' term weights, aligned with :func:`object_csr`."""
    return dataset.object_weights


def _items_csr(items):
    ids = np.array([i.item_id for i in items], dtype=np.int64)
    x = np.array([i.location.x for i in items], dtype=np.float64)
    y = np.array([i.location.y for i in items], dtype=np.float64)
    counts = [len(i.terms) for i in items]
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    terms = np.array([t for i in items for t in i.terms], dtype=np.int64)
    tfs = np.array([f for i in items for f in i.terms.values()], dtype=np.int64)
    return ids, x, y, indptr, terms, tfs


def cell_digests(name: str, seed: int) -> Dict[str, str]:
    """Every digest of one ``(dataset, seed)`` cell at O4000/U400."""
    spec = WorkloadSpec(dataset=name, objects=4000, users=400, seed=seed)
    base, workload = make_workload(spec)
    out = {
        "objects": _digest(*object_csr(base)),
        "vocabulary": _digest(
            "\n".join(base.vocabulary.term_of(i) for i in range(len(base.vocabulary)))
        ),
        "users": _digest(*_items_csr(base.users)),
        "W": _digest(
            np.array(workload.candidate_keywords, dtype=np.int64),
            np.array(
                [workload.area.min_x, workload.area.min_y,
                 workload.area.max_x, workload.area.max_y],
                dtype=np.float64,
            ),
        ),
    }
    queries = query_pool(
        workload, 80, num_locations=20, ws=2, seed=0, seed_stride=101
    )
    out["queries"] = _digest(np.array(
        [(p.x, p.y) for q in queries for p in q.locations], dtype=np.float64
    ))
    for measure in MEASURES:
        ds = Dataset(
            base.objects, base.users, relevance=measure, alpha=base.alpha,
            vocabulary=base.vocabulary,
        )
        rel = ds.relevance
        out[f"{measure}/weights"] = _digest(
            np.asarray(object_weights(ds), dtype=np.float64),
            np.array(
                [rel.max_term_weight(t) for t in range(len(base.vocabulary))],
                dtype=np.float64,
            ),
            np.array([ds.dmax], dtype=np.float64),
        )
        cols = object_columns_for(ds)
        out[f"{measure}/object_columns"] = _digest(
            cols.ids, cols.xy, cols.entry_row, cols.indptr, cols.term, cols.weight
        )
        arrays = arrays_for(ds)
        out[f"{measure}/dataset_arrays"] = _digest(*(
            getattr(arrays, attr) for attr in (
                "user_ids", "user_xy", "user_z", "user_terms", "user_term_cols",
                "obj_weights", "obj_xy_folded", "user_xy_folded", "user_text",
                "user_set", "set_text",
            )
        ))
        for fanout in FANOUTS:
            tree = MIRTree(ds.objects, rel, fanout=fanout)
            ta = tree_arrays_for(tree)
            out[f"{measure}/f{fanout}/tree_arrays"] = _digest(
                ta.ent_rect, ta.ent_indptr_np, ta.ent_term_np, ta.ent_maxw_np,
                ta.ent_minw_np, ta.nio_indptr, ta.nio_term, ta.nio_bytes,
                ta.ent_object_id,
                np.array(ta.node_start, dtype=np.int64),
                np.array(ta.node_end, dtype=np.int64),
                np.array(ta.node_is_leaf, dtype=bool),
                np.array(ta.ent_child, dtype=np.int64),
                np.array([ta.root_index], dtype=np.int64),
            )
            rows = []
            for node in sorted(tree.rtree.iter_nodes(), key=lambda n: n.page_id):
                inv = tree.invfile_of(node)
                for t in sorted(inv.terms()):
                    rows.append((node.page_id, t, inv.list_bytes(t)))
            out[f"{measure}/f{fanout}/list_bytes"] = _digest(
                np.array(rows, dtype=np.int64)
            )
    return out
