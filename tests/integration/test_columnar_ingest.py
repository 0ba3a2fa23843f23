"""The default cell is built, indexed and answered from columns.

``make_workload`` -> engine -> ``prewarm_kernels`` -> ``query_batch``
must construct no :class:`STObject` and no :class:`Posting`: the object
set stays an ``ObjectTable``, the MIR-tree and its kernel arrays come
from array operations, and the answers read those arrays.  Asking for
``dataset.objects`` afterwards builds the objects the per-object build
used to — their digest is the golden one.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.datagen import query_pool
from repro.index.invfile import Posting
from repro.model.columns import ObjectTable
from repro.model.objects import STObject
from repro.serve.shardhost import WorkloadSpec, make_workload

from ..datagen.golden import _digest, _items_csr

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "datagen" / "golden_digests.json").read_text()
)


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``STObject`` / ``Posting`` constructions while ``on``."""
    counts = {"STObject": 0, "Posting": 0, "on": True}
    for cls in (STObject, Posting):
        original = cls.__post_init__

        def counting(self, _original=original, _name=cls.__name__):
            if counts["on"]:
                counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_build_and_answer_without_objects_or_postings(constructions):
    dataset, workload = make_workload(WorkloadSpec(objects=4000, users=400, seed=0))
    engine = MaxBRSTkNNEngine(dataset, EngineConfig())
    engine.prewarm_kernels()
    assert isinstance(dataset.objects, ObjectTable)
    assert dataset.num_objects == len(dataset.objects) == 4000

    # The queries' own ox objects are the caller's, not part of O.
    constructions["on"] = False
    queries = [
        dataclasses.replace(q, k=(5, 10, 20)[i % 3])
        for i, q in enumerate(query_pool(
            workload, 8, num_locations=20, ws=2, seed=0, seed_stride=101
        ))
    ]
    constructions["on"] = True
    results = engine.query_batch(queries, QueryOptions.default())
    assert len(results) == 8 and all(r.brstknn for r in results)
    assert (constructions["STObject"], constructions["Posting"]) == (0, 0)

    # Once asked for, the objects are the ones the per-object build made.
    objects = list(dataset.objects)
    assert constructions["STObject"] == 4000
    assert _digest(*_items_csr(objects)) == GOLDEN["flickr/0"]["objects"]
    assert list(dataset.objects) is not objects and dataset.objects[0] is objects[0]
    # ...and a posting list, once read, is built on the spot.
    root = engine.object_tree.invfile_at(0)
    postings = root.postings(next(root.terms()))
    assert constructions["Posting"] == len(postings) > 0
