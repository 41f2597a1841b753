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
from reviewlake.engine import AggSpec, Metric, PartitionedDataset, group_aggregate

__version__ = "0.1.0"

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
