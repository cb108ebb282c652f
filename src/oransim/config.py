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
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

from .forecast import LstmConfig, TrainingConfig, derive_seed
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


def _check_type(path: str, value, hint) -> None:
    """Reject a JSON value whose type is not the annotation ``hint``.

    ``int`` takes no bool or float, ``float`` takes an int but no bool, and
    ``X | None`` also takes null.
    """
    allowed = typing.get_args(hint) or (hint,)
    if not any(type(value) in ((int, float) if t is float else (t,)) for t in allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"{path} must be {names}, got {value!r}")


def _check_seed(path: str, value: int) -> None:
    """Reject a negative seed here, where the key path is known.

    numpy's ``SeedSequence`` would otherwise fail later, naming no key.
    """
    if value < 0:
        raise ValueError(f"{path} must be a non-negative integer, got {value}")


def _kwargs(cls, path: str, section) -> dict:
    """Keyword arguments of dataclass ``cls`` from a config section.

    Keys must be fields of ``cls``; each value must have the type of the
    field's annotation, and a dataclass-typed field is built recursively.
    """
    _check_type(path, section, dict)
    _check_keys(path, section, {f.name for f in fields(cls)})
    hints = typing.get_type_hints(cls)
    out = {}
    for key, value in section.items():
        hint = hints[key]
        if is_dataclass(hint):
            out[key] = hint(**_kwargs(hint, f"{path}.{key}", value))
        else:
            _check_type(f"{path}.{key}", value, hint)
            out[key] = value
    return out


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
    master_seed = doc.get("master_seed", 0)
    _check_type("master_seed", master_seed, int)
    _check_seed("master_seed", master_seed)
    horizon_hours = doc.get("horizon_hours", DEFAULT_HORIZON_HOURS)
    _check_type("horizon_hours", horizon_hours, int)

    traffic = doc.get("traffic", {"synthetic": {}})
    _check_type("traffic", traffic, dict)
    _check_keys("traffic", traffic, {"synthetic", "csv"})
    if "synthetic" in traffic and "csv" in traffic:
        raise ValueError("traffic must be either synthetic or csv, not both")
    profile = None
    csv_path = None
    if "csv" in traffic:
        csv_section = traffic["csv"]
        _check_type("traffic.csv", csv_section, dict)
        _check_keys("traffic.csv", csv_section, {"path"})
        csv_path = csv_section.get("path")
        _check_type("traffic.csv.path", csv_path, str)
    else:
        synth = _kwargs(SyntheticProfile, "traffic.synthetic", traffic.get("synthetic", {}))
        _check_seed(
            "traffic.synthetic.seed",
            synth.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_TRAFFIC)),
        )
        profile = SyntheticProfile(**synth)

    schema = DatasetSchema(**_kwargs(DatasetSchema, "schema", doc.get("schema", {})))
    rule = CongestionRule(**_kwargs(CongestionRule, "rule", doc.get("rule", {})))
    lstm = LstmConfig(**_kwargs(LstmConfig, "lstm", doc.get("lstm", {})))

    training_section = _kwargs(TrainingConfig, "training", doc.get("training", {}))
    _check_seed(
        "training.seed",
        training_section.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_TRAINING)),
    )
    training = TrainingConfig(**training_section)

    split_section = _kwargs(SplitPolicy, "split", doc.get("split", {}))
    _check_seed(
        "split.seed", split_section.setdefault("seed", derive_seed(master_seed, _SEED_DOMAIN_SPLIT))
    )
    split = SplitPolicy(**split_section)

    loop_section = _kwargs(ControlLoopConfig, "loop", doc.get("loop", {}))
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
