"""Cross-source consumer review ETL and analytics.

Ingests heterogeneous review exports (Amazon, Yelp, Steam, IMDb style),
normalizes them into one six-field record, stages them in a local JSON-lines
lake, and answers a fixed catalog of analytic queries over a partitioned
dataset core whose results do not depend on the partition count.
"""

from reviewlake.model import (
    AggTable,
    RawRecord,
    RejectRecord,
    UnifiedDraft,
    UnifiedReview,
    SOURCES,
)

__version__ = "0.1.0"

_ENGINE_NAMES = ("AggSpec", "Metric", "PartitionedDataset", "group_aggregate")


def __getattr__(name: str):
    # the engine loads on first use, so importing the lake code alone stays engine-free
    if name in _ENGINE_NAMES:
        from reviewlake import engine

        return getattr(engine, name)
    raise AttributeError(f"module 'reviewlake' has no attribute {name!r}")

__all__ = [
    "AggSpec",
    "AggTable",
    "Metric",
    "PartitionedDataset",
    "RawRecord",
    "RejectRecord",
    "SOURCES",
    "UnifiedDraft",
    "UnifiedReview",
    "group_aggregate",
]
