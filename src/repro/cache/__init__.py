"""Disk-cache simulation and resize prediction.

* :mod:`repro.cache.lru` -- the resident-page LRU disk cache (the paper's
  "simulation of the disk cache ... implemented using the same algorithm as
  the disk cache in Linux").
* :mod:`repro.cache.stack_distance` -- Mattson stack distances, one
  numpy pass per block of accesses.
* :mod:`repro.cache.profile` -- one stack-distance pass per trace; its
  ``hit_counts``/``miss_counts`` are the per-depth counters of the
  extended LRU list (paper Fig. 3) at every memory size, and the one
  place stack depths become miss counts (a miss-ratio curve is
  ``miss_counts`` over a range of sizes).
* :mod:`repro.cache.ghost` -- a literal extended LRU list (resident +
  replaced pages), used for tests and small workloads; the tracker +
  profile pair is the fast equivalent.
* :mod:`repro.cache.predictor` -- disk-IO and idle-interval prediction at
  arbitrary candidate memory sizes (paper Figs. 3-4).
* :mod:`repro.cache.readahead` -- sequential-miss clustering into disk
  requests.
"""

from repro.cache.ghost import ExtendedLRUList
from repro.cache.lru import LRUCache
from repro.cache.predictor import CandidatePrediction, ResizePredictor
from repro.cache.readahead import ReadaheadClusterer
from repro.cache.stack_distance import COLD, StackDistanceTracker

__all__ = [
    "COLD",
    "CandidatePrediction",
    "ExtendedLRUList",
    "LRUCache",
    "ReadaheadClusterer",
    "ResizePredictor",
    "StackDistanceTracker",
]
