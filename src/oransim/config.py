"""Scenario configuration: one JSON file describing a full experiment.

Defaults reproduce the reference experiment: a 17-eNB fleet with 18 cells
each over 25 days, a 2-layer 12-unit LSTM trained for 150 epochs with
batch size 16 and Adam, the (1 Mbps, 80%) congestion rule, and splits with
R drawn from [60, 75].

The master seed deterministically derives the traffic, training, and split
seeds (via named SeedSequence domains) unless a component seed is given
explicitly, so one integer pins the entire pipeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .forecast import AdamHyper, LstmConfig, TrainingConfig, derive_seed
from .kpi import CongestionRule
from .ric import ControlLoopConfig
from .splitting import SplitPolicy
from .traffic import DatasetSchema, SyntheticProfile

__all__ = ["ScenarioConfig", "derive_seed", "load_config", "config_from_dict"]

# SeedSequence domain tags for component seed derivation
_SEED_DOMAIN_TRAFFIC = 0
_SEED_DOMAIN_TRAINING = 1
_SEED_DOMAIN_SPLIT = 2

DEFAULT_HORIZON_HOURS = 168


def _check_keys(section: str, obj: dict, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {section}: {sorted(unknown)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved experiment description."""

    master_seed: int
    horizon_hours: int
    profile: SyntheticProfile | None
    csv_path: str | None
    schema: DatasetSchema
    rule: CongestionRule
    lstm: LstmConfig
    training: TrainingConfig
    loop: ControlLoopConfig
    split: SplitPolicy

    def __post_init__(self):
        if (self.profile is None) == (self.csv_path is None):
            raise ValueError("exactly one of synthetic profile or csv path must be set")
        if self.horizon_hours < 1:
            raise ValueError("horizon_hours must be >= 1")
        if self.split.max_factor != self.loop.max_split_factor:
            raise ValueError(
                "split.max_factor and loop.max_split_factor must agree "
                f"({self.split.max_factor} vs {self.loop.max_split_factor})"
            )

    def to_resolved_dict(self) -> dict:
        """Echo of every resolved parameter, sufficient to reproduce the run."""
        doc = asdict(self)
        profile, csv_path = doc.pop("profile"), doc.pop("csv_path")
        if profile is not None:
            doc["traffic"] = {"synthetic": profile}
        else:
            doc["traffic"] = {"csv": {"path": csv_path}}
        return doc


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a resolved config from a (possibly sparse) JSON document."""
    _check_keys(
        "config",
        doc,
        {"master_seed", "horizon_hours", "traffic", "schema", "rule", "lstm",
         "training", "loop", "split"},
    )
    master_seed = int(doc.get("master_seed", 0))
    horizon_hours = int(doc.get("horizon_hours", DEFAULT_HORIZON_HOURS))

    traffic = dict(doc.get("traffic", {"synthetic": {}}))
    _check_keys("traffic", traffic, {"synthetic", "csv"})
    if "synthetic" in traffic and "csv" in traffic:
        raise ValueError("traffic must be either synthetic or csv, not both")
    profile = None
    csv_path = None
    if "csv" in traffic:
        csv_section = dict(traffic["csv"])
        _check_keys("traffic.csv", csv_section, {"path"})
        csv_path = str(csv_section["path"])
    else:
        synth = dict(traffic.get("synthetic", {}))
        _check_keys(
            "traffic.synthetic",
            synth,
            {"n_enb", "cells_per_enb", "n_days", "diurnal_amplitude", "base_prb_util",
             "peak_prb_util", "throughput_at_zero_load", "noise_std",
             "congested_cell_fraction", "seed"},
        )
        synth.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_TRAFFIC))
        profile = SyntheticProfile(**synth)

    schema_section = dict(doc.get("schema", {}))
    _check_keys(
        "schema",
        schema_section,
        {"enb_col", "cell_col", "time_col", "prb_col", "thr_col",
         "timestamp_format", "epoch"},
    )
    schema = DatasetSchema(**schema_section)

    rule_section = dict(doc.get("rule", {}))
    _check_keys("rule", rule_section, {"throughput_max", "prb_min"})
    rule = CongestionRule(**rule_section)

    lstm_section = dict(doc.get("lstm", {}))
    _check_keys("lstm", lstm_section, {"n_layers", "units_per_layer", "input_dim", "output_dim"})
    lstm = LstmConfig(**lstm_section)

    training_section = dict(doc.get("training", {}))
    _check_keys(
        "training",
        training_section,
        {"batch_size", "epochs", "adam", "lookback", "horizon", "train_fraction", "seed"},
    )
    adam_section = dict(training_section.pop("adam", {}))
    _check_keys("training.adam", adam_section, {"learning_rate", "beta1", "beta2", "epsilon"})
    training_section.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_TRAINING))
    training = TrainingConfig(adam=AdamHyper(**adam_section), **training_section)

    split_section = dict(doc.get("split", {}))
    _check_keys("split", split_section, {"r_min", "r_max", "max_factor", "seed"})
    split_section.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_SPLIT))
    split = SplitPolicy(**split_section)

    loop_section = dict(doc.get("loop", {}))
    _check_keys(
        "loop",
        loop_section,
        {"collection_period", "retrain_accuracy_threshold", "feedback_window_hours",
         "max_congested_hours", "target_window_hours", "max_split_factor",
         "split_cooldown_hours", "retrain_cooldown_hours"},
    )
    loop_section.setdefault("max_split_factor", split.max_factor)
    loop = ControlLoopConfig(**loop_section)

    return ScenarioConfig(
        master_seed=master_seed,
        horizon_hours=horizon_hours,
        profile=profile,
        csv_path=csv_path,
        schema=schema,
        rule=rule,
        lstm=lstm,
        training=training,
        loop=loop,
        split=split,
    )


def load_config(path, master_seed_override: int | None = None) -> ScenarioConfig:
    """Load a config JSON file; None loads pure defaults."""
    doc = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    if master_seed_override is not None:
        doc = dict(doc)
        doc["master_seed"] = master_seed_override
        # component seeds re-derive from the override unless explicitly pinned
    return config_from_dict(doc)
