"""Hour-granularity RAN model: active cells, their load shares, realized KPIs.

Each generation-0 cell owns a base waveform (what its KPIs would be with no
intervention). An active cell carries the fraction of its origin cell's
load that it currently serves (1.0 until a split); its realized KPIs follow
the split law ``splitting.share_kpis``, applied to the whole fleet hour by
hour:

    prb_util(t)      = clamp(base_util(t) * fraction, 0, 100)
    ip_throughput(t) = min(cap, base_thr(t) * base_util(t) / prb_util(t))
                       (= min(cap, base_thr(t)) when base_util(t) is zero)

With fraction 1 a cell realizes its base series exactly wherever the base
throughput is at most ``cap``, which makes a no-action baseline trivially
comparable. A split takes both halves' fractions from ``split_cell``, which
conserves load bit-exactly, so an origin's fractions, added in split-tree
order, sum to exactly 1.

The fleet's realized KPIs and forecasts are two ``(total_hours, n_columns,
2)`` arrays, ``kpis`` and ``predictions``. The row is the absolute hour;
every cell that ever existed owns one column, and a split appends one. A
slot is NaN where the cell did not exist yet, the hour is not realized yet,
or no forecast was made.

Cell identities follow the split-round convention: both halves of a split
advance one generation; the parent keeps its cell index, the child gets a
fresh index within the eNB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kpi import CellId, KpiSeries
from .splitting import CellLoadState, SplitEvent, SplitPolicy, share_kpis, split_cell
from .traffic import SyntheticProfile, generate_synthetic

__all__ = ["ActiveCell", "SimulatedNetwork"]

CellKey = tuple[int, int]  # (enb, cell index) - stable across generation bumps


@dataclass
class ActiveCell:
    """Mutable per-cell simulation state."""

    cell_id: CellId            # replaced, not rebuilt, when a split bumps the generation
    origin: CellKey            # generation-0 ancestor owning the base waveform
    load_fraction: float       # share of the origin cell's load served here
    created_at: int            # first hour this cell exists
    column: int                # its column of the network's kpis and predictions
    last_split_hour: int | None = None


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
        ordered = sorted(base_series, key=lambda s: s.cell)
        self.cells: dict[CellKey, ActiveCell] = {}
        for column, series in enumerate(ordered):
            if series.cell.generation != 0:
                raise ValueError("base series must be generation-0 cells")
            key = series.cell.key
            if key in self.cells:
                raise ValueError(f"two base series for cell {series.cell.label()}")
            self.cells[key] = ActiveCell(
                cell_id=series.cell, origin=key, load_fraction=1.0, created_at=0, column=column
            )
        # generation-0 cells own columns 0..n-1, so an origin's column is its base column
        self._base = np.stack([series.to_array() for series in ordered], axis=1)
        self.kpis = np.full(self._base.shape, np.nan)
        self.predictions = np.full(self._base.shape, np.nan)
        self._index_active()
        self.hour = 0  # next hour to realize
        self.split_events: list[SplitEvent] = []
        if history_hours < 0:
            raise ValueError(f"history_hours must be >= 0, got {history_hours}")
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

    # realization -------------------------------------------------------

    def _index_active(self) -> None:
        """Cache the active cells' columns, base columns and load fractions in
        ``active_keys`` order; the topology changes only at a split."""
        cells = [self.cells[key] for key in self.active_keys()]
        self._columns = np.array([cell.column for cell in cells])
        self._base_columns = np.array([self.cells[cell.origin].column for cell in cells])
        self._fractions = np.array([cell.load_fraction for cell in cells])

    def realize_hour(self) -> np.ndarray:
        """Realize and record the next hour; return its (util, thr) rows in
        ``active_keys`` order."""
        if self.hour >= self.total_hours:
            raise ValueError(f"base waveforms exhausted at hour {self.hour}")
        base = self._base[self.hour, self._base_columns]
        rows = np.column_stack(
            share_kpis(base[:, 0], base[:, 1], self._fractions, self.throughput_cap)
        )
        self.kpis[self.hour, self._columns] = rows
        self.hour += 1
        return rows

    # series access -----------------------------------------------------

    def realized(self, key: CellKey) -> np.ndarray:
        """View of the cell's realized (util, thr) rows, first row at ``created_at``."""
        cell = self.cells[key]
        return self.kpis[cell.created_at : self.hour, cell.column]

    def window_span(self, key: CellKey, start: int, length: int) -> tuple[int, int]:
        """(first hour, count) of the cell's realized hours in [start, start+length).

        Hours before the cell existed or not yet realized are excluded.
        """
        lo = max(start, self.cells[key].created_at)
        hi = min(start + length, self.hour)
        return lo, max(0, hi - lo)

    def window(self, key: CellKey, start: int, length: int) -> KpiSeries:
        """Realized series of hours [start, start+length), clipped by ``window_span``."""
        cell = self.cells[key]
        lo, n = self.window_span(key, start, length)
        return KpiSeries(cell.cell_id, lo, self.kpis[lo : lo + n, cell.column])

    def training_history(self, key: CellKey) -> KpiSeries:
        """The series a forecaster for this cell should train on.

        A split changes the cell's footprint, so counters from before the
        last split describe a different regime and are excluded.
        """
        cell = self.cells[key]
        start = cell.last_split_hour if cell.last_split_hour is not None else cell.created_at
        return self.window(key, start, self.hour - start)

    def trailing_window(self, key: CellKey, lookback: int) -> np.ndarray | None:
        """Last ``lookback`` realized (util, thr) rows, or None if too short."""
        cell = self.cells[key]
        if self.hour - cell.created_at < lookback:
            return None
        return self.kpis[self.hour - lookback : self.hour, cell.column]

    def baseline_series(self, start: int, length: int) -> list[KpiSeries]:
        """No-action series of the original cells over [start, start+length)."""
        window = self._base[start : start + length]
        return [
            KpiSeries(CellId(*key, 0), start, window[:, self.cells[key].column])
            for key in sorted({cell.origin for cell in self.cells.values()})
        ]

    def realized_series(self, start: int, length: int) -> list[KpiSeries]:
        """Realized series of all active cells clipped to [start, start+length)."""
        windows = (self.window(key, start, length) for key in self.active_keys())
        return [series for series in windows if len(series)]

    # splitting ---------------------------------------------------------

    def split(self, key: CellKey, policy: SplitPolicy, rng: np.random.Generator) -> SplitEvent:
        """Split an active cell from the network's current hour on, the next
        hour ``realize_hour`` fills.

        The child inherits the parent's origin waveform scaled by its share;
        it has no realized history before the split hour.
        """
        hour = self.hour
        cell = self.cells[key]
        if hour > cell.created_at:
            util, thr = self.kpis[hour - 1, cell.column].tolist()
        else:
            util, thr = 0.0, self.throughput_cap
        # the load unit is the origin cell's whole load, so split_cell's
        # conserved loads are the two cells' fractions
        state = CellLoadState(cell.cell_id, cell.load_fraction, util, thr, self.throughput_cap)
        # every cell ever created stays in ``cells``, so the next index is unused
        enb = cell.cell_id.enb
        index = 1 + max(c for e, c in self.cells if e == enb)
        kept, moved, event = split_cell(state, policy, hour, rng, child_cell_index=index)
        child = ActiveCell(
            cell_id=event.child,
            origin=cell.origin,
            load_fraction=moved.load,
            created_at=hour,
            column=self.kpis.shape[1],
            last_split_hour=hour,
        )
        cell.cell_id = kept.cell
        cell.load_fraction = kept.load
        cell.last_split_hour = hour
        self.cells[event.child.key] = child
        empty = np.full((self.total_hours, 1, 2), np.nan)
        self.kpis = np.concatenate([self.kpis, empty], axis=1)
        self.predictions = np.concatenate([self.predictions, empty], axis=1)
        self._index_active()
        self.split_events.append(event)
        return event

    def max_factor_reached(self) -> int:
        return max(c.cell_id.split_factor for c in self.cells.values())
