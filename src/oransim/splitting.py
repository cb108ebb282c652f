"""Cell-splitting remedy: load migration, KPI recomputation, and histograms.

A split moves a uniformly drawn fraction R% (default range [60, 75]) of the
congested cell's load to a freshly created cell; the parent keeps the rest.
Both cells advance one split generation, so a cell's split factor is
2**generation and the factor cap bounds how many rounds a lineage can take.

The post-split KPI law is the simplest model consistent with the intent of
the remedy: utilization scales with each cell's share of the pre-split
load, and per-user throughput scales inversely with utilization, capped at
the cell's zero-load throughput. It is isolated in ``share_kpis``, which
the network applies to the whole fleet each hour, so alternative laws can
be swapped in.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .kpi import CellId, KpiSeries

__all__ = [
    "SplitPolicy",
    "SplitEvent",
    "CellLoadState",
    "SplitRefusedError",
    "draw_r",
    "split_cell",
    "share_kpis",
    "histogram_hours",
    "default_bin_edges",
    "export_histogram_csv",
]


class SplitRefusedError(RuntimeError):
    """Split rejected: the cell already reached the maximum split factor."""


@dataclass(frozen=True)
class SplitPolicy:
    """Bounds of the migration fraction draw and the split-factor cap."""

    r_min: float = 60.0
    r_max: float = 75.0
    max_factor: int = 2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.r_min <= self.r_max < 100.0):
            raise ValueError(
                f"require 0 < r_min <= r_max < 100, got [{self.r_min}, {self.r_max}]"
            )
        if self.max_factor not in (2, 4, 8):
            raise ValueError(f"max_factor must be one of 2, 4, 8, got {self.max_factor}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed])))


@dataclass(frozen=True)
class SplitEvent:
    """Record of one completed split round."""

    parent: CellId  # identity before the split
    child: CellId
    r: float
    hour: int


@dataclass(frozen=True)
class CellLoadState:
    """One cell's offered load (abstract user-population units) and current KPIs."""

    cell: CellId
    load: float
    prb_util: float
    ip_throughput: float
    throughput_cap: float

    def __post_init__(self):
        if self.load < 0:
            raise ValueError(f"load must be >= 0, got {self.load}")
        if not (0.0 <= self.prb_util <= 100.0):
            raise ValueError(f"prb_util must be in [0, 100], got {self.prb_util}")
        if self.throughput_cap <= 0:
            raise ValueError("throughput_cap must be > 0")


def draw_r(policy: SplitPolicy, rng: np.random.Generator) -> float:
    """Uniform migration percentage in [r_min, r_max] from the given stream."""
    if policy.r_min == policy.r_max:
        return policy.r_min
    return float(rng.uniform(policy.r_min, policy.r_max))


def split_cell(
    state: CellLoadState,
    policy: SplitPolicy,
    hour: int,
    rng: np.random.Generator,
    child_cell_index: int,
) -> tuple[CellLoadState, CellLoadState, SplitEvent]:
    """Split one cell: draw R, move R% of the load to a new cell.

    The child takes ``child_cell_index`` (the caller allocates a fresh index
    within the eNB) and both resulting cells carry generation + 1. Load is
    conserved exactly. KPIs on the returned states are still the pre-split
    values; ``share_kpis`` gives each half's KPIs from its share of the load.
    """
    if state.cell.split_factor >= policy.max_factor:
        raise SplitRefusedError(
            f"{state.cell.label()} already at split factor {state.cell.split_factor} "
            f"(max {policy.max_factor})"
        )
    r = draw_r(policy, rng)
    moved = state.load * (r / 100.0)
    # parent + child must equal the original load bit-exactly
    parent_load = state.load - moved
    child_load = state.load - parent_load
    parent_id = CellId(state.cell.enb, state.cell.cell, state.cell.generation + 1)
    child_id = CellId(state.cell.enb, child_cell_index, state.cell.generation + 1)
    parent = replace(state, cell=parent_id, load=parent_load)
    child = replace(state, cell=child_id, load=child_load)
    event = SplitEvent(state.cell, child_id, r, hour)
    return parent, child, event


def share_kpis(util, thr, share, cap):
    """KPIs of a cell serving ``share`` of a load that shows (util, thr) unsplit.

    Works elementwise on scalars or arrays. Utilization scales with the
    share, clamped to [0, 100]; throughput scales inversely with
    utilization, capped at ``cap``. At zero base utilization the measured
    throughput is kept (capped); a share that rounds a nonzero utilization
    down to zero gives ``cap``.
    """
    new_util = np.minimum(100.0, np.maximum(util * share, 0.0))
    with np.errstate(all="ignore"):
        # ratio form so an unsplit cell (share 1) keeps thr bit-exactly;
        # fmin takes cap over the inf or nan of a utilization rounded to zero
        ratio = np.where(util == 0.0, 1.0, util / new_util)
        return new_util, np.fmin(cap, thr * ratio)


def default_bin_edges() -> list[float]:
    """0.5 Mbps-wide bins from 0 to 5 Mbps (an overflow bin is always added)."""
    return [0.5 * i for i in range(11)]


def histogram_hours(
    series_list: list[KpiSeries], bin_edges: list[float] | None = None
) -> dict[CellId, np.ndarray]:
    """Per-cell counts of hours whose IP throughput falls in each bin.

    Bins are half-open [e_i, e_{i+1}); a final overflow bin counts hours at
    or above the last edge (and below the first edge, which cannot occur
    for valid KPI samples with edges starting at 0). Counts always sum to
    the series length.
    """
    edges = default_bin_edges() if bin_edges is None else list(bin_edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bin edges must be strictly increasing, got {edges}")
    out: dict[CellId, np.ndarray] = {}
    overflow = len(edges) - 1  # index of the last count slot
    for series in series_list:
        idx = np.searchsorted(edges, series.to_array()[:, 1], side="right") - 1
        idx[(idx < 0) | (idx >= overflow)] = overflow
        out[series.cell] = np.bincount(idx, minlength=len(edges))
    return out


def export_histogram_csv(
    histogram: dict[CellId, np.ndarray], bin_edges: list[float] | None = None
) -> bytes:
    """CSV rows (cell, bin_low, bin_high, hours); the overflow bin has bin_high=inf."""
    edges = default_bin_edges() if bin_edges is None else list(bin_edges)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cell", "bin_low", "bin_high", "hours"])
    for cell in sorted(histogram):
        counts = histogram[cell]
        for i, count in enumerate(counts):
            low = edges[i] if i < len(edges) - 1 else edges[-1]
            high = edges[i + 1] if i < len(edges) - 1 else "inf"
            writer.writerow([cell.label(), low, high, int(count)])
    return buf.getvalue().encode("utf-8")
