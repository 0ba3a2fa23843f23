"""Binary serialization of the spatial-textual indexes.

The I/O cost model (``repro.storage.pager``) prices nodes and posting
lists by a byte layout; this module makes that layout real: trees are
written to and read back from an actual page-structured binary image,
so the simulated sizes are backed by a concrete encoding rather than a
guess.  It also gives the library persistence — build the MIR-tree
once, ship the image, reload it elsewhere.

Layout
------
The image is a sequence of length-prefixed records::

    header   : magic "MIRT"/"MIUR" | version u16 | fanout u16 |
               minmax u8 | node_count u32 | object_count u32
    node     : page_id u32 | flags u8 (leaf bit) | rect 4*f64 |
               entry_count u16 | entries | inverted file
    leaf entry     : item_id u32 | x f64 | y f64
    internal entry : child page_id u32
    inverted file  : term_count u32, then per term:
                     term_id u32 | posting_count u32, then per posting:
                     entry_key u32 | maxw f64 [| minw f64]

Documents (term-frequency maps) are stored in a trailing dictionary so
a reloaded tree can answer queries without the original dataset object.
All integers are little-endian; floats are IEEE-754.

Reloading rebuilds the tree the way a build does: the documents and
leaf points become an :class:`~repro.model.columns.ObjectTable`, the
image's node groupings replace STR, and the summaries and posting lists
are derived from the documents under the given relevance measure (the
image's own lists are read past, not trusted).
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO, Dict, List, Tuple

import numpy as np

from ..index.invfile import InvertedFile
from ..index.irtree import IRTree, MIRTree
from ..model.columns import ObjectTable
from ..spatial.rtree import RTreeNode
from ..text.relevance import TextRelevance

__all__ = ["serialize_irtree", "deserialize_irtree", "image_size", "SerdeError"]

_MAGIC = b"MIRT"
_VERSION = 1


class SerdeError(ValueError):
    """Raised when an image is malformed or version-incompatible."""


def _w(fmt: str, buf: BinaryIO, *values) -> None:
    buf.write(struct.pack("<" + fmt, *values))


def _r(fmt: str, buf: BinaryIO):
    size = struct.calcsize("<" + fmt)
    data = buf.read(size)
    if len(data) != size:
        raise SerdeError("truncated image")
    return struct.unpack("<" + fmt, data)


def _write_invfile(buf: BinaryIO, inv: InvertedFile) -> None:
    terms = sorted(inv.terms())
    _w("I", buf, len(terms))
    for tid in terms:
        postings = inv.postings(tid)
        _w("II", buf, tid, len(postings))
        for p in postings:
            if inv.minmax:
                _w("Idd", buf, p.entry_key, p.max_weight, p.min_weight)
            else:
                _w("Id", buf, p.entry_key, p.max_weight)


def _skip_invfile(buf: BinaryIO, minmax: bool) -> None:
    """Read past one inverted file: a reloaded tree derives its posting
    lists from the documents, like a freshly built one."""
    (term_count,) = _r("I", buf)
    for _ in range(term_count):
        _tid, n = _r("II", buf)
        buf.read(n * struct.calcsize("<Idd" if minmax else "<Id"))


def _write_node(buf: BinaryIO, tree: IRTree, node: RTreeNode[int]) -> None:
    flags = 1 if node.is_leaf else 0
    _w("IB", buf, node.page_id, flags)
    _w("dddd", buf, node.rect.min_x, node.rect.min_y, node.rect.max_x, node.rect.max_y)
    if node.is_leaf:
        _w("H", buf, len(node.entries))
        for e in node.entries:
            _w("Idd", buf, e.item, e.point.x, e.point.y)
    else:
        _w("H", buf, len(node.children))
        for c in node.children:
            _w("I", buf, c.page_id)
    _write_invfile(buf, tree.invfile_of(node))


def serialize_irtree(tree: IRTree) -> bytes:
    """Encode an IR-tree or MIR-tree (with its documents) to bytes."""
    buf = io.BytesIO()
    nodes = list(tree.rtree.iter_nodes())
    buf.write(_MAGIC)
    _w("HHB", buf, _VERSION, tree.fanout, 1 if tree.minmax else 0)
    _w("II", buf, len(nodes), len(tree))
    _w("I", buf, tree.root.page_id)
    for node in sorted(nodes, key=lambda n: n.page_id):
        _write_node(buf, tree, node)
    # trailing document dictionary
    for node in nodes:
        if not node.is_leaf:
            continue
        for e in node.entries:
            obj = tree.object_by_id(e.item)
            _w("II", buf, obj.item_id, len(obj.terms))
            for tid, tf in sorted(obj.terms.items()):
                _w("II", buf, tid, tf)
    payload = buf.getvalue()
    return payload + struct.pack("<I", zlib.crc32(payload))


def deserialize_irtree(data: bytes, relevance: TextRelevance) -> IRTree:
    """Rebuild a tree from :func:`serialize_irtree` output.

    ``relevance`` must be the measure the tree was built with (its
    fitted statistics are not part of the image; refit it on the
    documents the image carries if needed — see the tests).
    """
    if len(data) < 4:
        raise SerdeError("image too small")
    payload, crc = data[:-4], struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(payload) != crc:
        raise SerdeError("checksum mismatch")
    buf = io.BytesIO(payload)
    if buf.read(4) != _MAGIC:
        raise SerdeError("bad magic")
    version, fanout, minmax = _r("HHB", buf)
    if version != _VERSION:
        raise SerdeError(f"unsupported version {version}")
    node_count, object_count = _r("II", buf)
    (root_id,) = _r("I", buf)

    raw_nodes: Dict[int, Tuple[bool, List]] = {}
    for _ in range(node_count):
        page_id, flags = _r("IB", buf)
        _r("dddd", buf)  # the MBR: recomputed from the points
        (entry_count,) = _r("H", buf)
        is_leaf = bool(flags & 1)
        fmt = "Idd" if is_leaf else "I"
        entries = [_r(fmt, buf) for _ in range(entry_count)]
        _skip_invfile(buf, bool(minmax))
        raw_nodes[page_id] = (is_leaf, entries)

    ids: List[int] = []
    counts: List[int] = []
    terms: List[int] = []
    tfs: List[int] = []
    for _ in range(object_count):
        oid, nterms = _r("II", buf)
        ids.append(oid)
        counts.append(nterms)
        for _ in range(nterms):
            tid, tf = _r("II", buf)
            terms.append(tid)
            tfs.append(tf)
    points = {
        item: (x, y)
        for is_leaf, entries in raw_nodes.values() if is_leaf
        for item, x, y in entries
    }
    if set(points) != set(ids):
        raise SerdeError("leaf entries and documents name different objects")
    table = ObjectTable(
        ids, [points[i][0] for i in ids], [points[i][1] for i in ids],
        np.concatenate(([0], np.cumsum(counts, dtype=np.int64))), terms, tfs,
    )

    # The node graph level by level from the root, each level in page
    # (breadth-first) order, then bottom-up groupings for the builder.
    depths = [[root_id]]
    while not raw_nodes[depths[-1][0]][0]:
        depths.append([c for page in depths[-1] for (c,) in raw_nodes[page][1]])
    depths.reverse()
    row = {oid: r for r, oid in enumerate(ids)}
    groupings = []
    for level, pages in enumerate(depths):
        below = {} if level == 0 else {p: i for i, p in enumerate(depths[level - 1])}
        members = [
            row[e[0]] if level == 0 else below[e[0]]
            for page in pages for e in raw_nodes[page][1]
        ]
        sizes = [len(raw_nodes[page][1]) for page in pages]
        groupings.append((
            np.array(members, dtype=np.int64), np.concatenate(([0], np.cumsum(sizes)))
        ))

    tree = object.__new__(MIRTree if minmax else IRTree)
    tree._setup(table, relevance, fanout, bool(minmax))
    tree._index(groupings[0], groupings[1:])
    return tree


def image_size(tree: IRTree) -> int:
    """Size in bytes of the tree's serialized image."""
    return len(serialize_irtree(tree))
