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

from dataclasses import asdict, dataclass
from pathlib import Path

from .forecast import LstmConfig, TrainingConfig, derive_seed
from .kpi import CongestionRule
from .ric import ControlLoopConfig
from .splitting import SplitPolicy
from .traffic import DatasetSchema, SyntheticProfile
from .typedjson import build, check_keys, check_type, check_unsigned, loads, read_fields

__all__ = ["ScenarioConfig", "derive_seed", "load_config", "config_from_dict"]

# SeedSequence domain tags for component seed derivation
_SEED_DOMAIN_TRAFFIC = 0
_SEED_DOMAIN_TRAINING = 1
_SEED_DOMAIN_SPLIT = 2

DEFAULT_HORIZON_HOURS = 168


def _section(cls, path: str, section, **defaults):
    """Dataclass ``cls`` from a config section; ``defaults`` fill the keys it leaves out."""
    kwargs = {**defaults, **read_fields(cls, path, section)}
    if "seed" in kwargs:  # the dataclass's own check would not name the key path
        check_unsigned(f"{path}.seed", kwargs["seed"])
    return build(cls, path, kwargs)


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
    check_keys(
        "config",
        doc,
        {"master_seed", "horizon_hours", "traffic", "schema", "rule", "lstm",
         "training", "loop", "split"},
    )
    master_seed = doc.get("master_seed", 0)
    check_unsigned("master_seed", master_seed)  # else SeedSequence fails later, naming no key
    horizon_hours = doc.get("horizon_hours", DEFAULT_HORIZON_HOURS)
    check_type("horizon_hours", horizon_hours, int)

    traffic = doc.get("traffic", {"synthetic": {}})
    check_keys("traffic", traffic, {"synthetic", "csv"})
    if "synthetic" in traffic and "csv" in traffic:
        raise ValueError("traffic must be either synthetic or csv, not both")
    profile = csv_path = None
    if "csv" in traffic:
        check_keys("traffic.csv", traffic["csv"], {"path"})
        csv_path = traffic["csv"].get("path")
        check_type("traffic.csv.path", csv_path, str)
    else:
        profile = _section(SyntheticProfile, "traffic.synthetic", traffic.get("synthetic", {}),
                           seed=derive_seed(master_seed, _SEED_DOMAIN_TRAFFIC))
    schema = _section(DatasetSchema, "schema", doc.get("schema", {}))
    rule = _section(CongestionRule, "rule", doc.get("rule", {}))
    lstm = _section(LstmConfig, "lstm", doc.get("lstm", {}))
    for key in ("input_dim", "output_dim"):  # the loop feeds and forecasts KPI pairs
        if getattr(lstm, key) != 2:
            raise ValueError(f"lstm.{key} must be 2, the (prb_util, ip_throughput) pair, "
                             f"got {getattr(lstm, key)}")
    training = _section(TrainingConfig, "training", doc.get("training", {}),
                        seed=derive_seed(master_seed, _SEED_DOMAIN_TRAINING))
    split = _section(SplitPolicy, "split", doc.get("split", {}),
                     seed=derive_seed(master_seed, _SEED_DOMAIN_SPLIT))
    loop = _section(ControlLoopConfig, "loop", doc.get("loop", {}),
                    max_split_factor=split.max_factor)

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
    doc = {} if path is None else loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    if master_seed_override is not None:
        doc = dict(doc)
        doc["master_seed"] = master_seed_override
        # component seeds re-derive from the override unless explicitly pinned
    return config_from_dict(doc)
