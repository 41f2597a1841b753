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

__all__ = [
    "AggTable",
    "RawRecord",
    "RejectRecord",
    "SOURCES",
    "UnifiedDraft",
    "UnifiedReview",
]
