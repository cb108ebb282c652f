"""Core KPI vocabulary: cells, hourly KPI series, and the congestion rule.

Every other part of the simulator consumes these types. All of them are
immutable values and all operations here are pure functions, so they are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .typedjson import check_type, check_unsigned

__all__ = [
    "CellId",
    "KpiSample",
    "KpiSeries",
    "CongestionRule",
    "evaluate_congestion",
    "congested_hours",
]


@dataclass(frozen=True, order=True)
class CellId:
    """Identity of one cell: eNB index, cell index, and split generation.

    ``generation`` counts how many split rounds the cell's lineage has gone
    through (0 for cells present at scenario start). A cell's split factor
    is ``2 ** generation``.
    """

    enb: int
    cell: int
    generation: int = 0

    def __post_init__(self):
        if self.enb < 0 or self.cell < 0 or self.generation < 0:
            raise ValueError(f"CellId indices must be >= 0, got {self}")

    @property
    def split_factor(self) -> int:
        return 2 ** self.generation

    def label(self) -> str:
        return f"e{self.enb}c{self.cell}g{self.generation}"

    def to_json(self) -> list[int]:
        return [self.enb, self.cell, self.generation]

    @staticmethod
    def from_json(obj, path: str = "cell") -> "CellId":
        """Read ``to_json`` back: a list of exactly three unsigned JSON ints."""
        check_type(path, obj, list)
        if len(obj) != 3:
            raise ValueError(f"{path} must be [enb, cell, generation], got {obj!r}")
        for k, value in enumerate(obj):
            check_unsigned(f"{path}[{k}]", value)
        return CellId(*obj)


@dataclass(frozen=True)
class KpiSample:
    """One hourly measurement for one cell.

    prb_util is the downlink PRB utilization in percent, ip_throughput the
    user-perceived downlink IP throughput in Mbps.
    """

    timestamp: int
    prb_util: float
    ip_throughput: float

    def __post_init__(self):
        if not (0.0 <= self.prb_util <= 100.0):
            raise ValueError(f"prb_util must be in [0, 100], got {self.prb_util}")
        if not (math.isfinite(self.ip_throughput) and self.ip_throughput >= 0.0):
            raise ValueError(
                f"ip_throughput must be finite and >= 0, got {self.ip_throughput}"
            )


def _read_only(array) -> bool:
    """True if ``array`` is an ndarray and neither it nor any array it views is writable."""
    viewed = array
    while isinstance(viewed, np.ndarray) and not viewed.flags.writeable:
        viewed = viewed.base
    return viewed is None and type(array) is np.ndarray


@dataclass(frozen=True, eq=False)
class KpiSeries:
    """Hourly KPIs of one cell: row ``i`` of ``values`` is hour ``start + i``.

    ``values`` is a read-only (N, 2) float64 array with columns
    (prb_util, ip_throughput); every row obeys ``KpiSample``'s bounds. A
    float64 array is kept as given when nothing can write to it: neither it
    nor any array it views is writable. Any other input is copied.
    """

    cell: CellId
    start: int = 0
    values: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        values = self.values
        if not (_read_only(values) and values.dtype == np.float64):
            values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 2:
            raise ValueError(f"values must have shape (N, 2), got {values.shape}")
        prb, thr = values[:, 0], values[:, 1]
        bad = ~((prb >= 0.0) & (prb <= 100.0) & np.isfinite(thr) & (thr >= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"hour {self.start + i}: prb_util must be in [0, 100] and ip_throughput "
                f"finite and >= 0, got ({prb[i]}, {thr[i]})"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KpiSeries)
            and (self.cell, self.start) == (other.cell, other.start)
            and np.array_equal(self.values, other.values)
        )

    def __len__(self) -> int:
        return self.values.shape[0]

    def to_array(self) -> np.ndarray:
        """(N, 2) float64 array with columns (prb_util, ip_throughput)."""
        return self.values

    @staticmethod
    def from_arrays(
        cell: CellId, start: int, prb_util, ip_throughput
    ) -> "KpiSeries":
        return KpiSeries(cell, start, np.column_stack([prb_util, ip_throughput]))


@dataclass(frozen=True)
class CongestionRule:
    """Two-threshold AND predicate defining a congested cell.

    Defaults: throughput below 1 Mbps while PRB utilization exceeds 80%.
    Operators may reconfigure both thresholds per their SLA.
    """

    throughput_max: float = 1.0
    prb_min: float = 80.0

    def __post_init__(self):
        if not self.throughput_max > 0:
            raise ValueError(f"throughput_max must be > 0, got {self.throughput_max}")
        if not (0.0 < self.prb_min < 100.0):
            raise ValueError(f"prb_min must be in (0, 100), got {self.prb_min}")

    def congested(self, prb, thr):
        """True where both thresholds are violated (strict inequalities).

        Works elementwise on scalars or arrays of equal shape.
        """
        return (thr < self.throughput_max) & (prb > self.prb_min)


def evaluate_congestion(sample: KpiSample, rule: CongestionRule) -> bool:
    """True iff the sample violates both thresholds (strict inequalities)."""
    return bool(rule.congested(sample.prb_util, sample.ip_throughput))


def congested_hours(series: KpiSeries, rule: CongestionRule) -> int:
    """Number of hours in the series that evaluate as congested."""
    return int(np.count_nonzero(rule.congested(series.values[:, 0], series.values[:, 1])))
