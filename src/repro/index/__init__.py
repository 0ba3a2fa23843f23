"""Spatial-textual indexes: inverted files, IR-tree, MIR-tree, MIUR-tree.

The (M)IR-tree is built from the object columns: STR packing on the
coordinate arrays and every node's summary by segment reductions
(:mod:`repro.index.irtree`).  Node objects and the array-backed
:class:`InvertedFile` views — and their :class:`Posting` lists — are
built on first access, for the scalar walks and tests.
"""

from .invfile import InvertedFile, Posting, merge_minmax
from .irtree import ChildView, IRTree, MIRTree, ObjectView
from .miurtree import MIURTree, UserNodeView

__all__ = [
    "ChildView",
    "IRTree",
    "InvertedFile",
    "MIRTree",
    "MIURTree",
    "ObjectView",
    "Posting",
    "UserNodeView",
    "merge_minmax",
]
