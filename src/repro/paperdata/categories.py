"""Leaf-function and microservice-functionality taxonomies (Tables 2 & 3).

These enums are the categorical backbone of the whole reproduction: the
profiler tags leaf functions with :class:`LeafCategory` and buckets call
traces into :class:`FunctionalityCategory`, exactly as the paper's internal
tools do.  Provenance: **exact** (Tables 2 and 3).
"""

from __future__ import annotations

import enum


class LeafCategory(enum.Enum):
    """Table 2: categorization of leaf functions."""

    # Members are singletons with identity equality, so identity hashing
    # is semantically equivalent to Enum's default name-based __hash__
    # but is a C slot instead of a Python-level call.  These enums key
    # the per-event cycle-accounting dict on the DES hot path, where the
    # interpreted __hash__ showed up as ~7 calls per simulated event.
    # Fingerprints are unaffected: canonicalization encodes enums by
    # class and member name, and dicts iterate in insertion order.
    __hash__ = object.__hash__

    MEMORY = "memory"
    KERNEL = "kernel"
    HASHING = "hashing"
    SYNCHRONIZATION = "synchronization"
    ZSTD = "zstd"
    MATH = "math"
    SSL = "ssl"
    C_LIBRARIES = "c-libraries"
    MISCELLANEOUS = "miscellaneous"


#: Example leaf functions per category, straight from Table 2.  The
#: profiler's tagger uses these (plus pattern rules) to classify leaves.
LEAF_CATEGORIES = {
    LeafCategory.MEMORY: (
        "memcpy",
        "malloc",
        "free",
        "memmove",
        "memset",
        "memcmp",
        "operator new",
        "operator delete",
    ),
    LeafCategory.KERNEL: (
        "schedule",
        "handle_irq",
        "tcp_sendmsg",
        "tcp_recvmsg",
        "page_fault",
        "futex_wait",
        "epoll_wait",
    ),
    LeafCategory.HASHING: ("sha1", "sha256", "md5", "cityhash", "xxhash"),
    LeafCategory.SYNCHRONIZATION: (
        "atomic_fetch_add",
        "pthread_mutex_lock",
        "compare_exchange",
        "spin_lock",
    ),
    LeafCategory.ZSTD: ("zstd_compress", "zstd_decompress"),
    LeafCategory.MATH: ("mkl_sgemm", "avx_dot_product", "expf", "tanhf"),
    LeafCategory.SSL: ("aes_encrypt", "aes_decrypt", "tls_handshake"),
    LeafCategory.C_LIBRARIES: (
        "std_sort",
        "string_compare",
        "vector_push_back",
        "hash_table_find",
        "tree_insert",
    ),
    LeafCategory.MISCELLANEOUS: ("assorted",),
}


class FunctionalityCategory(enum.Enum):
    """Table 3: categorization of microservice functionalities."""

    # Identity hashing, for the same hot-path reason as LeafCategory.
    __hash__ = object.__hash__

    IO = "secure-insecure-io"
    IO_PROCESSING = "io-pre-post-processing"
    COMPRESSION = "compression"
    SERIALIZATION = "serialization"
    FEATURE_EXTRACTION = "feature-extraction"
    PREDICTION_RANKING = "prediction-ranking"
    APPLICATION_LOGIC = "application-logic"
    LOGGING = "logging"
    THREAD_POOL = "thread-pool-management"
    MISCELLANEOUS = "miscellaneous"


#: Functionalities the paper counts as "orchestration" (work that
#: facilitates, but is not, the core application logic).  Fig. 1 splits
#: cycles into application logic vs orchestration; the paper's 42%-67%
#: orchestration claim for ML services counts everything outside
#: prediction/ranking and application logic.
ORCHESTRATION_CATEGORIES = frozenset(
    {
        FunctionalityCategory.IO,
        FunctionalityCategory.IO_PROCESSING,
        FunctionalityCategory.COMPRESSION,
        FunctionalityCategory.SERIALIZATION,
        FunctionalityCategory.FEATURE_EXTRACTION,
        FunctionalityCategory.LOGGING,
        FunctionalityCategory.THREAD_POOL,
        FunctionalityCategory.MISCELLANEOUS,
    }
)

#: Functionalities that are "core" in Fig. 1's sense.
CORE_CATEGORIES = frozenset(
    {
        FunctionalityCategory.APPLICATION_LOGIC,
        FunctionalityCategory.PREDICTION_RANKING,
    }
)
