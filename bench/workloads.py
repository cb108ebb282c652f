"""Scenario configs for the benchmark workloads, derived from one seed.

Every workload is a plain oransim config document. The benchmark writes it
to disk and hands the program nothing else. One workload seed derives the
traffic, training and split seeds, so the same seed gives the same inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20200518
# A second seed, not used while the workloads were sized, for confirming a claim.
CONFIRM_SEED = 7

LOOPS = ("loop-retrain", "loop-serve")
WORKLOADS = LOOPS + ("dataset-io",)


def component_seeds(workload: str, seed: int) -> dict[str, int]:
    """Traffic, training and split seeds of one workload."""
    ss = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    traffic, training, split = (int(s) for s in ss.generate_state(3, dtype=np.uint64))
    return {"traffic": traffic, "training": training, "split": split}


def config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The config document of ``workload``; ``tiny`` shrinks it for the smoke test."""
    seeds = component_seeds(workload, seed)
    if workload == "loop-retrain":
        # The acceptance "fig3" training (30 epochs, batch 16, split factor 2)
        # on 4 cells, half of them congesting daily so every seed splits. The
        # loop starts at hour 138, after day 6's congestion, and a retrain
        # threshold of 100 with a 14 h cooldown retrains all 4 cells at hour
        # 153, before day 7's alarms. A split cell is not retrained, so with no
        # round after the splits every seed trains the same 8 models.
        synthetic = {"n_enb": 1, "cells_per_enb": 4, "n_days": 7,
                     "peak_prb_util": 98.0, "congested_cell_fraction": 0.5}
        training = {"batch_size": 16, "epochs": 30, "lookback": 24}
        loop = {"retrain_accuracy_threshold": 100.0, "retrain_cooldown_hours": 14,
                "max_split_factor": 2}
        horizon = 30
        if tiny:
            synthetic.update(cells_per_enb=3, n_days=4, congested_cell_fraction=1.0,
                             peak_prb_util=100.0)
            training["epochs"] = 40
            horizon = 24
    elif workload == "loop-serve":
        # Models train once (one epoch, on the shortest history that trains)
        # and are then served: a threshold of 0 never retrains and no cell
        # congests, so the split path stays idle.
        synthetic = {"n_enb": 9, "cells_per_enb": 17, "n_days": 3,
                     "congested_cell_fraction": 0.0}
        training = {"batch_size": 16, "epochs": 1, "lookback": 24}
        loop = {"retrain_accuracy_threshold": 0.0, "max_split_factor": 2}
        horizon = 30
        if tiny:
            synthetic.update(n_enb=1, cells_per_enb=4, n_days=3)
            horizon = 12
    elif workload == "dataset-io":
        # The reference fleet: 17 eNBs x 18 cells x 25 days of hourly KPIs.
        synthetic = {"n_enb": 17, "cells_per_enb": 18, "n_days": 25}
        if tiny:
            synthetic.update(n_enb=2, cells_per_enb=3, n_days=3)
        synthetic["seed"] = seeds["traffic"]
        return {"master_seed": seed, "traffic": {"synthetic": synthetic}}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    synthetic["seed"] = seeds["traffic"]
    training["seed"] = seeds["training"]
    return {
        "master_seed": seed,
        "horizon_hours": horizon,
        "traffic": {"synthetic": synthetic},
        "training": training,
        "loop": loop,
        "split": {"max_factor": 2, "seed": seeds["split"]},
    }
