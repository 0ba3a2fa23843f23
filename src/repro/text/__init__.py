"""Textual substrate: vocabulary and relevance measures."""

from .relevance import (
    KeywordOverlapRelevance,
    LanguageModelRelevance,
    TextRelevance,
    TfIdfRelevance,
    make_relevance,
    MEASURES,
)
from .vocabulary import CollectionStats, Vocabulary

__all__ = [
    "CollectionStats",
    "KeywordOverlapRelevance",
    "LanguageModelRelevance",
    "MEASURES",
    "TextRelevance",
    "TfIdfRelevance",
    "Vocabulary",
    "make_relevance",
]
