"""From-scratch stacked LSTM forecaster for next-hour KPI prediction."""

from . import model, training
from .model import *
from .training import *

__all__ = model.__all__ + training.__all__
