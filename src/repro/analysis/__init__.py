"""Analysis and reporting: goodput curves (Fig. 2), byte breakdowns
(Fig. 10), and the fixed-width table formatting the benches print."""

from .breakdown import (
    breakdown_rows,
    bytes_normalized_to,
    data_reduction_factors,
    geomean,
    wasted_fraction,
)
from .goodput import FIG2_SIZES, GoodputPoint, efficiency_ratio, goodput_curve
from .report import (
    format_link_stats_table,
    format_link_timeline,
    format_speedup_table,
    format_table,
)

__all__ = [
    "breakdown_rows",
    "bytes_normalized_to",
    "data_reduction_factors",
    "geomean",
    "wasted_fraction",
    "FIG2_SIZES",
    "GoodputPoint",
    "efficiency_ratio",
    "goodput_curve",
    "format_link_stats_table",
    "format_link_timeline",
    "format_speedup_table",
    "format_table",
]
