"""Simulated O-RAN control plane: hosts, message choreography, control loop."""

from . import hosts, loop, messages, validate
from .hosts import *
from .loop import *
from .messages import *
from .validate import *

__all__ = hosts.__all__ + loop.__all__ + messages.__all__ + validate.__all__
