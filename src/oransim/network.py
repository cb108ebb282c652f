"""Hour-granularity RAN model: active cells, their load shares, realized KPIs.

Each generation-0 cell owns a base waveform (what its KPIs would be with no
intervention). An active cell carries the fraction of its origin cell's
load that it currently serves (1.0 until a split); its realized KPIs follow
the split law ``splitting.share_kpis`` applied hour by hour:

    prb_util(t)      = clamp(base_util(t) * fraction, 0, 100)
    ip_throughput(t) = min(cap, base_thr(t) * base_util(t) / prb_util(t))
                       (= cap when the utilization is zero)

With fraction 1 the realized series equals the base series exactly, which
makes a no-action baseline trivially comparable. Splitting composes: after
two rounds a cell's fraction is the product of its share draws.

Cell identities follow the split-round convention: both halves of a split
advance one generation; the parent keeps its cell index, the child gets a
fresh index within the eNB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kpi import CellId, KpiSample, KpiSeries
from .splitting import CellLoadState, SplitEvent, SplitPolicy, share_kpis, split_cell
from .traffic import SyntheticProfile, generate_synthetic

__all__ = ["ActiveCell", "SimulatedNetwork"]

CellKey = tuple[int, int]  # (enb, cell index) - stable across generation bumps


@dataclass
class ActiveCell:
    """Mutable per-cell simulation state."""

    enb: int
    cell: int
    generation: int
    origin: CellKey            # generation-0 ancestor owning the base waveform
    load_fraction: float       # share of the origin cell's load served here
    created_at: int            # first hour this cell exists
    prb_util: list[float] = field(default_factory=list)
    ip_throughput: list[float] = field(default_factory=list)
    last_split_hour: int | None = None

    @property
    def key(self) -> CellKey:
        return (self.enb, self.cell)

    @property
    def cell_id(self) -> CellId:
        return CellId(self.enb, self.cell, self.generation)

    @property
    def n_samples(self) -> int:
        return len(self.prb_util)


class SimulatedNetwork:
    """Deterministic network state machine advanced one hour at a time."""

    def __init__(
        self,
        base_series: list[KpiSeries],
        throughput_cap: float,
        history_hours: int = 0,
    ):
        """``base_series`` are the no-intervention waveforms of the original
        cells (all starting at hour 0, equal lengths). The first
        ``history_hours`` hours are realized immediately as pre-loop history.
        """
        if not base_series:
            raise ValueError("network needs at least one cell")
        lengths = {len(s) for s in base_series}
        if len(lengths) != 1:
            raise ValueError(f"base series must have equal lengths, got {sorted(lengths)}")
        starts = {s.start for s in base_series}
        if starts != {0}:
            raise ValueError("base series must start at hour 0")
        if throughput_cap <= 0:
            raise ValueError("throughput_cap must be > 0")
        self.total_hours = lengths.pop()
        self.throughput_cap = throughput_cap
        self._base_util: dict[CellKey, np.ndarray] = {}
        self._base_thr: dict[CellKey, np.ndarray] = {}
        self.cells: dict[CellKey, ActiveCell] = {}
        self._next_cell_index: dict[int, int] = {}
        for series in sorted(base_series, key=lambda s: s.cell):
            if series.cell.generation != 0:
                raise ValueError("base series must be generation-0 cells")
            key = (series.cell.enb, series.cell.cell)
            arr = series.to_array()
            self._base_util[key] = arr[:, 0].copy()
            self._base_thr[key] = arr[:, 1].copy()
            self.cells[key] = ActiveCell(
                enb=key[0], cell=key[1], generation=0,
                origin=key, load_fraction=1.0, created_at=0,
            )
            nxt = self._next_cell_index.get(key[0], 0)
            self._next_cell_index[key[0]] = max(nxt, key[1] + 1)
        self.hour = 0  # next hour to realize
        self.split_events: list[SplitEvent] = []
        if history_hours > self.total_hours:
            raise ValueError(
                f"history_hours {history_hours} exceeds base horizon {self.total_hours}"
            )
        for _ in range(history_hours):
            self.realize_hour()

    @classmethod
    def from_profile(
        cls, profile: SyntheticProfile, history_hours: int = 0
    ) -> "SimulatedNetwork":
        return cls(
            generate_synthetic(profile),
            throughput_cap=profile.throughput_at_zero_load,
            history_hours=history_hours,
        )

    # ordered views -----------------------------------------------------

    def active_keys(self) -> list[CellKey]:
        return sorted(self.cells)

    def active_cell_ids(self) -> list[CellId]:
        return [self.cells[k].cell_id for k in self.active_keys()]

    # realization -------------------------------------------------------

    def _kpis_at(self, cell: ActiveCell, hour: int) -> tuple[float, float]:
        base_u = float(self._base_util[cell.origin][hour])
        base_t = float(self._base_thr[cell.origin][hour])
        return share_kpis(base_u, base_t, cell.load_fraction, self.throughput_cap)

    def realize_hour(self) -> dict[CellKey, KpiSample]:
        """Produce and record every active cell's KPI sample for the next hour."""
        if self.hour >= self.total_hours:
            raise ValueError(f"base waveforms exhausted at hour {self.hour}")
        out = {}
        for key in self.active_keys():
            cell = self.cells[key]
            util, thr = self._kpis_at(cell, self.hour)
            cell.prb_util.append(util)
            cell.ip_throughput.append(thr)
            out[key] = KpiSample(self.hour, util, thr)
        self.hour += 1
        return out

    # series access -----------------------------------------------------

    def series(self, key: CellKey) -> KpiSeries:
        """The cell's full realized series (id snapshot at current generation)."""
        cell = self.cells[key]
        return KpiSeries.from_arrays(
            cell.cell_id, cell.created_at, cell.prb_util, cell.ip_throughput
        )

    def series_since(self, key: CellKey, start_hour: int) -> KpiSeries:
        """Realized series from ``start_hour`` on (empty-safe clipping)."""
        cell = self.cells[key]
        lo = max(0, start_hour - cell.created_at)
        return KpiSeries.from_arrays(
            cell.cell_id,
            cell.created_at + lo,
            cell.prb_util[lo:],
            cell.ip_throughput[lo:],
        )

    def training_history(self, key: CellKey) -> KpiSeries:
        """The series a forecaster for this cell should train on.

        A split changes the cell's footprint, so counters from before the
        last split describe a different regime and are excluded.
        """
        cell = self.cells[key]
        start = cell.last_split_hour if cell.last_split_hour is not None else cell.created_at
        return self.series_since(key, start)

    def window(self, key: CellKey, start: int, length: int) -> list[KpiSample]:
        """Realized samples of hours [start, start+length) for one cell.

        Hours before the cell existed are simply absent from the result.
        """
        cell = self.cells[key]
        out = []
        for hour in range(max(start, cell.created_at), start + length):
            idx = hour - cell.created_at
            if 0 <= idx < cell.n_samples:
                out.append(KpiSample(hour, cell.prb_util[idx], cell.ip_throughput[idx]))
        return out

    def trailing_window(self, key: CellKey, lookback: int) -> np.ndarray | None:
        """Last ``lookback`` realized (util, thr) rows, or None if too short."""
        cell = self.cells[key]
        if cell.n_samples < lookback:
            return None
        u = np.asarray(cell.prb_util[-lookback:], dtype=np.float64)
        t = np.asarray(cell.ip_throughput[-lookback:], dtype=np.float64)
        return np.column_stack([u, t])

    def baseline_series(self, start: int, length: int) -> list[KpiSeries]:
        """No-action series of the original cells over [start, start+length)."""
        out = []
        for key in sorted(self._base_util):
            u = self._base_util[key][start : start + length]
            t = self._base_thr[key][start : start + length]
            out.append(KpiSeries.from_arrays(CellId(key[0], key[1], 0), start, u, t))
        return out

    def realized_series(self, start: int, length: int) -> list[KpiSeries]:
        """Realized series of all active cells clipped to [start, start+length)."""
        out = []
        for key in self.active_keys():
            cell = self.cells[key]
            lo = max(start, cell.created_at)
            hi = min(start + length, cell.created_at + cell.n_samples)
            if hi <= lo:
                continue
            i0, i1 = lo - cell.created_at, hi - cell.created_at
            out.append(
                KpiSeries.from_arrays(
                    cell.cell_id, lo, cell.prb_util[i0:i1], cell.ip_throughput[i0:i1]
                )
            )
        return out

    # splitting ---------------------------------------------------------

    def load_state(self, key: CellKey) -> CellLoadState:
        """Current CellLoadState: load normalized to 100 units per origin cell."""
        cell = self.cells[key]
        if cell.n_samples > 0:
            util, thr = cell.prb_util[-1], cell.ip_throughput[-1]
        else:
            util, thr = 0.0, self.throughput_cap
        return CellLoadState(
            cell=cell.cell_id,
            load=100.0 * cell.load_fraction,
            prb_util=util,
            ip_throughput=thr,
            throughput_cap=self.throughput_cap,
        )

    def split(
        self, key: CellKey, policy: SplitPolicy, rng: np.random.Generator, hour: int
    ) -> SplitEvent:
        """Split an active cell, effective for all hours from ``hour`` on.

        The child inherits the parent's origin waveform scaled by its share;
        it has no realized history before the split hour.
        """
        cell = self.cells[key]
        state = self.load_state(key)
        # hourly realization applies the share_kpis law via the cumulative
        # load fraction, so only the load division happens here
        _, _, event = split_cell(
            state, policy, hour, rng, child_cell_index=self._next_cell_index[cell.enb]
        )
        self._next_cell_index[cell.enb] += 1
        share = event.r / 100.0
        child = ActiveCell(
            enb=event.child.enb,
            cell=event.child.cell,
            generation=event.child.generation,
            origin=cell.origin,
            load_fraction=cell.load_fraction * share,
            created_at=hour,
            last_split_hour=hour,
        )
        cell.generation += 1
        cell.load_fraction *= 1.0 - share
        cell.last_split_hour = hour
        self.cells[child.key] = child
        self.split_events.append(event)
        return event

    def max_factor_reached(self) -> int:
        return max(2 ** c.generation for c in self.cells.values())
