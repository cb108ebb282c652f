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

from . import kpi
from .kpi import *

__version__ = "0.1.0"

__all__ = kpi.__all__
