"""oransim: deterministic simulator of an intelligent O-RAN congestion
prediction and cell-splitting control loop.

Subpackages / modules:
  kpi        - cells, KPI series, the congestion rule
  traffic    - synthetic fleet generator and dataset CSV interchange
  forecast   - from-scratch stacked LSTM trained with BPTT + Adam
  splitting  - the cell-splitting remedy and throughput histograms
  network    - hour-granularity RAN state machine
  ric        - SMO/RIC hosts, O1/A1/E2 message choreography, control loop
  config/cli - scenario configuration and the command-line interface
"""

from .kpi import (
    CellId,
    CongestionRule,
    KpiSample,
    KpiSeries,
    congested_hours,
    evaluate_congestion,
)

__version__ = "0.1.0"

__all__ = [
    "CellId",
    "CongestionRule",
    "KpiSample",
    "KpiSeries",
    "congested_hours",
    "evaluate_congestion",
    "__version__",
]
