"""k-selection data structures: the ``kNearests`` heap and merges."""

from .heap import KNearestHeap
from .insertion import InsertionSelector, insertion_select
from .selection import merge_sorted_lists, select_k_from_pairs

__all__ = ["KNearestHeap", "InsertionSelector", "insertion_select",
           "merge_sorted_lists", "select_k_from_pairs"]
