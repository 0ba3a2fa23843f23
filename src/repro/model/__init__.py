"""Data model: spatial-textual objects, users, super-users, datasets.

A dataset holds its objects as columns (:class:`ObjectTable`) and its
users as :class:`User` objects; an :class:`STObject` is built only when
someone iterates the table.
"""

from .columns import ObjectTable
from .dataset import Dataset, DatasetStats
from .objects import SpatialTextualItem, STObject, SuperUser, User

__all__ = [
    "Dataset",
    "DatasetStats",
    "ObjectTable",
    "SpatialTextualItem",
    "STObject",
    "SuperUser",
    "User",
]
