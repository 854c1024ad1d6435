"""Cycle breakdowns from the characterization figures (Figs. 1-7, 9).

Each breakdown maps a service (or reference workload) to percentages that
sum to ~100.  Provenance varies per dataset and is noted inline:

* The Fig. 2 **memory column** is digitized and triple-checked: it matches
  Fig. 3's "Net =" side labels read bottom-up, and Ads1's value (28% x 54%
  copy share = 15.12%) reproduces Table 7's ``alpha = 0.1512`` exactly.
* Per-segment splits inside categories are **reconstructed**: they sum to
  100, honor every prose anchor (cited inline), and preserve the dominance
  relations the paper states.
"""

from __future__ import annotations

from .categories import (
    CORE_CATEGORIES,
    FunctionalityCategory as F,
    LeafCategory as L,
)

#: The seven production microservices, in the paper's figure order.
FB_SERVICES = ("web", "feed1", "feed2", "ads1", "ads2", "cache1", "cache2")

#: SPEC CPU2006 reference rows shown in Figs. 2-3.
SPEC_BENCHMARKS = ("473.astar", "471.omnetpp", "403.gcc", "400.perlbench")

# ---------------------------------------------------------------------------
# Fig. 2: % of total cycles per leaf category.
#
# Memory column: digitized (anchored by Fig. 3 Net labels; Web = 37% matches
# the prose "copying, allocating, and freeing memory can consume 37% of
# cycles").  Kernel column: digitized from Fig. 5's Net labels (Cache1 = 44%
# and Cache2 = 22% reflect "Cache1 and Cache2 spend more cycles in the
# kernel").  SSL: Cache1 = 6% is a prose anchor.  C libraries: digitized
# from Fig. 7's Net labels, assigned per the prose (vector-heavy ML
# services, string/hash-heavy Web).  Math: "Ads2 and Feed2 spend only up to
# 13% of cycles on mathematical operations".  Remaining cells reconstructed.
# ---------------------------------------------------------------------------

LEAF_BREAKDOWN = {
    "web": {
        L.MEMORY: 37, L.KERNEL: 19, L.HASHING: 2, L.SYNCHRONIZATION: 2,
        L.ZSTD: 3, L.MATH: 0, L.SSL: 2, L.C_LIBRARIES: 31, L.MISCELLANEOUS: 4,
    },
    "feed1": {
        L.MEMORY: 8, L.KERNEL: 1, L.HASHING: 2, L.SYNCHRONIZATION: 1,
        L.ZSTD: 10, L.MATH: 19, L.SSL: 0, L.C_LIBRARIES: 13, L.MISCELLANEOUS: 46,
    },
    "feed2": {
        L.MEMORY: 20, L.KERNEL: 4, L.HASHING: 2, L.SYNCHRONIZATION: 3,
        L.ZSTD: 5, L.MATH: 13, L.SSL: 0, L.C_LIBRARIES: 42, L.MISCELLANEOUS: 11,
    },
    "ads1": {
        L.MEMORY: 28, L.KERNEL: 11, L.HASHING: 2, L.SYNCHRONIZATION: 3,
        L.ZSTD: 3, L.MATH: 8, L.SSL: 2, L.C_LIBRARIES: 17, L.MISCELLANEOUS: 26,
    },
    "ads2": {
        L.MEMORY: 28, L.KERNEL: 3, L.HASHING: 2, L.SYNCHRONIZATION: 5,
        L.ZSTD: 2, L.MATH: 13, L.SSL: 0, L.C_LIBRARIES: 37, L.MISCELLANEOUS: 10,
    },
    "cache1": {
        L.MEMORY: 26, L.KERNEL: 44, L.HASHING: 2, L.SYNCHRONIZATION: 10,
        L.ZSTD: 4, L.MATH: 0, L.SSL: 6, L.C_LIBRARIES: 5, L.MISCELLANEOUS: 3,
    },
    "cache2": {
        L.MEMORY: 19, L.KERNEL: 22, L.HASHING: 2, L.SYNCHRONIZATION: 19,
        L.ZSTD: 2, L.MATH: 0, L.SSL: 2, L.C_LIBRARIES: 10, L.MISCELLANEOUS: 24,
    },
    # Cache3 appears only in the second case study; its leaf mix is
    # reconstructed as Cache1-like with a larger SSL share (it encrypts
    # alpha = 0.19154 of its cycles).
    "cache3": {
        L.MEMORY: 22, L.KERNEL: 30, L.HASHING: 2, L.SYNCHRONIZATION: 8,
        L.ZSTD: 0, L.MATH: 0, L.SSL: 20, L.C_LIBRARIES: 8, L.MISCELLANEOUS: 10,
    },
    "google": {
        L.MEMORY: 13, L.KERNEL: 7, L.HASHING: 3, L.SYNCHRONIZATION: 2,
        L.ZSTD: 3, L.MATH: 5, L.SSL: 2, L.C_LIBRARIES: 30, L.MISCELLANEOUS: 35,
    },
    # SPEC rows: memory is digitized; the paper consolidates the rest into
    # a single "Math + C Lib + Misc." bar (97/88/69/94), which we keep as
    # C_LIBRARIES + MISCELLANEOUS halves for categorical completeness.
    "473.astar": {
        L.MEMORY: 3, L.KERNEL: 0, L.HASHING: 0, L.SYNCHRONIZATION: 0,
        L.ZSTD: 0, L.MATH: 20, L.SSL: 0, L.C_LIBRARIES: 47, L.MISCELLANEOUS: 30,
    },
    "471.omnetpp": {
        L.MEMORY: 11, L.KERNEL: 0, L.HASHING: 0, L.SYNCHRONIZATION: 0,
        L.ZSTD: 0, L.MATH: 18, L.SSL: 0, L.C_LIBRARIES: 45, L.MISCELLANEOUS: 26,
    },
    "403.gcc": {
        L.MEMORY: 31, L.KERNEL: 0, L.HASHING: 0, L.SYNCHRONIZATION: 0,
        L.ZSTD: 0, L.MATH: 14, L.SSL: 0, L.C_LIBRARIES: 35, L.MISCELLANEOUS: 20,
    },
    "400.perlbench": {
        L.MEMORY: 6, L.KERNEL: 0, L.HASHING: 0, L.SYNCHRONIZATION: 0,
        L.ZSTD: 0, L.MATH: 19, L.SSL: 0, L.C_LIBRARIES: 48, L.MISCELLANEOUS: 27,
    },
}


# ---------------------------------------------------------------------------
# Fig. 3: % of *memory* cycles per memory leaf function.
#
# Anchors: memory copies dominate everywhere ("by far the greatest
# consumers"); Google shows only copy/alloc (copy = 5% of 13% total =
# ~38/62 split, both prose-derived); 471.omnetpp allocation ~5% of total
# (38% of its 11% memory bar); Ads1 copy share 54% reproduces Table 7's
# alpha = 0.1512; Cache1 allocation share 20% reproduces Table 7's
# alpha = 0.055 (26% x 20% = 5.2%).
# ---------------------------------------------------------------------------

MEMORY_BREAKDOWN = {
    "web": {"copy": 35, "free": 19, "alloc": 24, "move": 6, "set": 11, "compare": 5},
    "feed1": {"copy": 73, "free": 6, "alloc": 11, "move": 5, "set": 3, "compare": 2},
    "feed2": {"copy": 38, "free": 12, "alloc": 26, "move": 8, "set": 8, "compare": 8},
    "ads1": {"copy": 54, "free": 15, "alloc": 13, "move": 5, "set": 8, "compare": 5},
    "ads2": {"copy": 42, "free": 18, "alloc": 21, "move": 6, "set": 8, "compare": 5},
    "cache1": {"copy": 44, "free": 12, "alloc": 20, "move": 10, "set": 2, "compare": 12},
    "cache2": {"copy": 49, "free": 11, "alloc": 19, "move": 9, "set": 5, "compare": 7},
    "google": {"copy": 38, "free": 0, "alloc": 62, "move": 0, "set": 0, "compare": 0},
    "473.astar": {"copy": 7, "free": 43, "alloc": 20, "move": 0, "set": 0, "compare": 30},
    "471.omnetpp": {"copy": 1, "free": 58, "alloc": 38, "move": 0, "set": 0, "compare": 3},
    "403.gcc": {"copy": 9, "free": 53, "alloc": 24, "move": 0, "set": 12, "compare": 2},
    "400.perlbench": {"copy": 40, "free": 11, "alloc": 21, "move": 12, "set": 13, "compare": 3},
}


# ---------------------------------------------------------------------------
# Fig. 4: % of *memory-copy* cycles attributed to service functionalities.
#
# Anchors: "Web can benefit from reducing copies in I/O pre- or
# post-processing" (pre/post dominant for Web); "Cache2 can gain from fewer
# copies in network protocol stacks" (I/O dominant for Cache2); significant
# diversity across services (Feed2 copies almost entirely in application
# logic).  Net copy fractions of total cycles follow from LEAF x MEMORY.
# ---------------------------------------------------------------------------

COPY_ORIGINS = {
    "web": {"io": 17, "io_prepost": 36, "serialization": 9, "application_logic": 38},
    "feed1": {"io": 0, "io_prepost": 0, "serialization": 7, "application_logic": 93},
    "feed2": {"io": 0, "io_prepost": 0, "serialization": 0, "application_logic": 100},
    "ads1": {"io": 25, "io_prepost": 20, "serialization": 30, "application_logic": 25},
    "ads2": {"io": 25, "io_prepost": 25, "serialization": 50, "application_logic": 0},
    "cache1": {"io": 17, "io_prepost": 9, "serialization": 28, "application_logic": 46},
    "cache2": {"io": 36, "io_prepost": 8, "serialization": 9, "application_logic": 47},
}


# ---------------------------------------------------------------------------
# Fig. 5: % of *kernel* cycles per kernel leaf function.
#
# Anchors: Cache1/Cache2 "invoke scheduler functions frequently"; "Cache2
# spends significant cycles in I/O and network interactions"; Google's row
# reports only the scheduler.
# ---------------------------------------------------------------------------

KERNEL_BREAKDOWN = {
    "web": {"scheduler": 30, "event_handling": 13, "network": 16,
            "synchronization": 12, "memory_management": 16, "miscellaneous": 13},
    "feed1": {"scheduler": 47, "event_handling": 20, "network": 0,
              "synchronization": 0, "memory_management": 0, "miscellaneous": 33},
    "feed2": {"scheduler": 19, "event_handling": 31, "network": 10,
              "synchronization": 7, "memory_management": 0, "miscellaneous": 33},
    "ads1": {"scheduler": 14, "event_handling": 9, "network": 17,
             "synchronization": 46, "memory_management": 13, "miscellaneous": 1},
    "ads2": {"scheduler": 11, "event_handling": 13, "network": 23,
             "synchronization": 8, "memory_management": 16, "miscellaneous": 29},
    "cache1": {"scheduler": 32, "event_handling": 19, "network": 23,
               "synchronization": 12, "memory_management": 7, "miscellaneous": 7},
    "cache2": {"scheduler": 10, "event_handling": 16, "network": 46,
               "synchronization": 8, "memory_management": 10, "miscellaneous": 10},
    "google": {"scheduler": 100, "event_handling": 0, "network": 0,
               "synchronization": 0, "memory_management": 0, "miscellaneous": 0},
}


# ---------------------------------------------------------------------------
# Fig. 6: % of *synchronization* cycles per primitive.
#
# Anchor: "Cache ... spends several cycles in spin locks" (deliberate,
# because it is a us-scale microservice); other services are mutex/atomic
# dominated.
# ---------------------------------------------------------------------------

SYNC_BREAKDOWN = {
    "web": {"atomics": 6, "mutex": 71, "cas": 23, "spin_lock": 0},
    "feed1": {"atomics": 0, "mutex": 100, "cas": 0, "spin_lock": 0},
    "feed2": {"atomics": 26, "mutex": 63, "cas": 11, "spin_lock": 0},
    "ads1": {"atomics": 41, "mutex": 59, "cas": 0, "spin_lock": 0},
    "ads2": {"atomics": 50, "mutex": 50, "cas": 0, "spin_lock": 0},
    "cache1": {"atomics": 5, "mutex": 9, "cas": 0, "spin_lock": 86},
    "cache2": {"atomics": 0, "mutex": 22, "cas": 8, "spin_lock": 70},
}


# ---------------------------------------------------------------------------
# Fig. 7: % of *C-library* cycles per library family.
#
# Anchors: "Feed2, Ads1, and Ads2 perform several vector operations";
# "Web spends significant cycles parsing and transforming strings ... also
# performs several hash table look-ups".
# ---------------------------------------------------------------------------

CLIB_BREAKDOWN = {
    "web": {"std_algorithms": 5, "ctors_dtors": 5, "strings": 32, "hash_tables": 24,
            "vectors": 1, "trees": 6, "operator_override": 16, "miscellaneous": 11},
    "feed1": {"std_algorithms": 3, "ctors_dtors": 5, "strings": 5, "hash_tables": 10,
              "vectors": 47, "trees": 1, "operator_override": 19, "miscellaneous": 10},
    "feed2": {"std_algorithms": 15, "ctors_dtors": 6, "strings": 18, "hash_tables": 0,
              "vectors": 53, "trees": 0, "operator_override": 2, "miscellaneous": 6},
    "ads1": {"std_algorithms": 19, "ctors_dtors": 11, "strings": 1, "hash_tables": 15,
             "vectors": 32, "trees": 6, "operator_override": 14, "miscellaneous": 2},
    "ads2": {"std_algorithms": 8, "ctors_dtors": 3, "strings": 6, "hash_tables": 0,
             "vectors": 60, "trees": 1, "operator_override": 18, "miscellaneous": 4},
    "cache1": {"std_algorithms": 16, "ctors_dtors": 2, "strings": 6, "hash_tables": 10,
               "vectors": 18, "trees": 13, "operator_override": 7, "miscellaneous": 28},
    "cache2": {"std_algorithms": 5, "ctors_dtors": 5, "strings": 13, "hash_tables": 15,
               "vectors": 16, "trees": 18, "operator_override": 21, "miscellaneous": 7},
}


# ---------------------------------------------------------------------------
# Fig. 9: % of total cycles per microservice functionality.
#
# Anchors (all prose, all honored exactly):
#   * Web: 18% application logic, 23% logging, high I/O.
#   * Feed1: 33% prediction/ranking (the 1.49x ideal-speedup claim) and
#     15% compression (Table 7 alpha = 0.15).
#   * Ads1: 52% prediction/ranking (Table 6 alpha = 0.52 for the remote-
#     inference case study).
#   * Ads2: 58% prediction/ranking (the 2.38x ideal-speedup claim).
#   * Each ML service's orchestration share (everything outside
#     prediction/ranking + application logic) lies in the paper's
#     42%-67% range.
#   * Cache2: 52% I/O ("caching microservices can spend 52% of cycles
#     sending/receiving I/O").
#   * Cache1: secure+insecure I/O ~38% (the AES-NI study frees 12.8% of
#     cycles by accelerating 73% of secure I/O; encryption alone is
#     alpha = 0.165844 of cycles).
#   * Ads1, Feed2, Cache1, Feed1 have high thread-pool overheads.
# ---------------------------------------------------------------------------

FUNCTIONALITY_BREAKDOWN = {
    "web": {
        F.IO: 25, F.IO_PROCESSING: 8, F.COMPRESSION: 7, F.SERIALIZATION: 6,
        F.FEATURE_EXTRACTION: 0, F.PREDICTION_RANKING: 0,
        F.APPLICATION_LOGIC: 18, F.LOGGING: 23, F.THREAD_POOL: 4,
        F.MISCELLANEOUS: 9,
    },
    "feed1": {
        F.IO: 9, F.IO_PROCESSING: 5, F.COMPRESSION: 15, F.SERIALIZATION: 12,
        F.FEATURE_EXTRACTION: 4, F.PREDICTION_RANKING: 33,
        F.APPLICATION_LOGIC: 8, F.LOGGING: 2, F.THREAD_POOL: 9,
        F.MISCELLANEOUS: 3,
    },
    "feed2": {
        F.IO: 6, F.IO_PROCESSING: 5, F.COMPRESSION: 8, F.SERIALIZATION: 8,
        F.FEATURE_EXTRACTION: 14, F.PREDICTION_RANKING: 42,
        F.APPLICATION_LOGIC: 12, F.LOGGING: 1, F.THREAD_POOL: 4,
        F.MISCELLANEOUS: 0,
    },
    "ads1": {
        F.IO: 8, F.IO_PROCESSING: 5, F.COMPRESSION: 4, F.SERIALIZATION: 6,
        F.FEATURE_EXTRACTION: 9, F.PREDICTION_RANKING: 52,
        F.APPLICATION_LOGIC: 6, F.LOGGING: 1, F.THREAD_POOL: 9,
        F.MISCELLANEOUS: 0,
    },
    "ads2": {
        F.IO: 5, F.IO_PROCESSING: 4, F.COMPRESSION: 4, F.SERIALIZATION: 8,
        F.FEATURE_EXTRACTION: 6, F.PREDICTION_RANKING: 58,
        F.APPLICATION_LOGIC: 0, F.LOGGING: 1, F.THREAD_POOL: 6,
        F.MISCELLANEOUS: 8,
    },
    "cache1": {
        F.IO: 38, F.IO_PROCESSING: 10, F.COMPRESSION: 7, F.SERIALIZATION: 12,
        F.FEATURE_EXTRACTION: 0, F.PREDICTION_RANKING: 0,
        F.APPLICATION_LOGIC: 20, F.LOGGING: 0, F.THREAD_POOL: 10,
        F.MISCELLANEOUS: 3,
    },
    "cache2": {
        F.IO: 52, F.IO_PROCESSING: 9, F.COMPRESSION: 4, F.SERIALIZATION: 10,
        F.FEATURE_EXTRACTION: 0, F.PREDICTION_RANKING: 0,
        F.APPLICATION_LOGIC: 17, F.LOGGING: 0, F.THREAD_POOL: 4,
        F.MISCELLANEOUS: 4,
    },
    # Cache3 appears only in the second case study (Fig. 17 shows its
    # functionality breakdown with categories IO, IO pre/post,
    # serialization, application logic, thread pool).  Encryption is
    # alpha = 0.19154 of cycles, inside the I/O share.
    "cache3": {
        F.IO: 40, F.IO_PROCESSING: 12, F.COMPRESSION: 0, F.SERIALIZATION: 14,
        F.FEATURE_EXTRACTION: 0, F.PREDICTION_RANKING: 0,
        F.APPLICATION_LOGIC: 24, F.LOGGING: 0, F.THREAD_POOL: 7,
        F.MISCELLANEOUS: 3,
    },
}


def orchestration_split(service: str) -> dict:
    """Fig. 1's two-way split for *service*: application logic (core
    categories) vs orchestration (everything else)."""
    breakdown = FUNCTIONALITY_BREAKDOWN[service]
    core = sum(share for cat, share in breakdown.items() if cat in CORE_CATEGORIES)
    return {"application_logic": core, "orchestration": 100 - core}


#: Fig. 1 data derived from Fig. 9: application-logic vs orchestration
#: percentages for the seven characterized services.
ORCHESTRATION_SPLIT = {svc: orchestration_split(svc) for svc in FB_SERVICES}
