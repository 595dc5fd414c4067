"""Declarative experiment configuration.

Accepts sectioned key=value text (INI-shaped) or a JSON object with the
same section/key tree. Each section is a dataclass whose field names are
the section's keys and whose defaults are its defaults: `[experiment]`
is the top level of `ExperimentConfig`, `[federation]`
`FederationConfig`, `[model]` `ModelConfig`, `[data]` `DataConfig` and
`[scenario]` `ScenarioSpec`. Unknown sections or keys are rejected,
every value is type-checked, and an empty file yields the all-defaults
experiment (synthetic data, promptfl, global scenario).
"""

import configparser
import io
import json
import sys
from dataclasses import dataclass, field, replace

from .data import (
    MasterDataset,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_feature_table,
    read_table_header,
)
from .errors import ConfigError
from .evaluation import SCENARIO_KINDS, ZERO_SHOT_METHOD, ScenarioSpec
from .federation import FederationConfig
from .vlm import ModelConfig
from .algorithms import TRAINER_KINDS
from . import rngs


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _parse_str_list(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _parse_auto_int(text: str):
    s = text.strip().lower()
    return None if s in ("auto", "none", "") else int(s)


# section -> key -> converter from the key's text; the section dataclasses
# hold the defaults
_SCHEMA = {
    "experiment": {
        "scenarios": _parse_str_list, "methods": _parse_str_list, "seeds": _parse_int_list,
        "output_dir": str,
    },
    "federation": {
        "protocol": str, "num_clients": int, "participation_fraction": float, "rounds": int,
        "local_epochs": int, "batch_size": int, "lr": float, "momentum": float,
        "eval_every": int,
    },
    "model": {
        "prompts": int, "tokens": int, "d_token": int, "d_feature": int, "d_image": int,
        "encoder": str, "tau": float, "seed": int, "init_std": float, "token_scale": float,
        "n_class_tokens": int, "meta_hidden": int, "local_features": int,
    },
    "data": {
        "datasets": _parse_str_list, "classes": int, "feature_dim": int, "noise_sigma": float,
        "samples_per_class": int, "per_class_subsample": _parse_auto_int, "alpha": float,
    },
    "scenario": {"shots": int, "split_mode": str, "cross_targets": int},
}

_METHOD_CHOICES = tuple(TRAINER_KINDS) + (ZERO_SHOT_METHOD,)


@dataclass
class DataConfig:
    """The `[data]` section; the single check of its values.

    Errors name the config key; the config parser adds the `data.` prefix.
    """

    datasets: list[str] = field(default_factory=lambda: ["synthetic"])
    classes: int = 10
    feature_dim: int = 1024
    noise_sigma: float = 0.1
    samples_per_class: int = 40
    per_class_subsample: int | None = None  # None (auto): see subsample_per_class
    alpha: float = 0.1

    def __post_init__(self):
        if not self.datasets:  # an empty list plans no cell
            raise ConfigError("datasets: need at least one entry")
        if self.alpha <= 0:
            raise ConfigError(f"alpha: must be positive, got {self.alpha}")
        if self.per_class_subsample is not None and self.per_class_subsample < 1:
            raise ConfigError(f"per_class_subsample: must be >= 1 or auto, "
                              f"got {self.per_class_subsample}")
        entries_by_name: dict[str, str] = {}
        for entry in self.datasets:
            name = dataset_display_name(entry)
            if name in entries_by_name:
                raise ConfigError(f"datasets: {entries_by_name[name]!r} and {entry!r} both "
                                  f"name the dataset {name!r}")
            entries_by_name[name] = entry
            if _is_synthetic(entry):
                try:
                    seed = synthetic_spec(self, entry).prototype_seed
                except ValueError:
                    seed = -1
                if seed < 0:
                    raise ConfigError(f"datasets: {entry!r} needs a non-negative integer "
                                      "prototype seed after '#'")


@dataclass
class ExperimentConfig:
    """The `[experiment]` keys, and every other section by name."""

    scenarios: list[str] = field(default_factory=lambda: ["global"])
    methods: list[str] = field(default_factory=lambda: ["promptfl"])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    output_dir: str = "results"
    federation: FederationConfig = field(default_factory=FederationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def scenario_spec(self, kind: str) -> ScenarioSpec:
        return replace(self.scenario, kind=kind)

    def subsample_per_class(self) -> int:
        """`data.per_class_subsample`; auto is 16 under partial participation, else 8."""
        if self.data.per_class_subsample is not None:
            return self.data.per_class_subsample
        return 16 if self.federation.protocol == "partial" else 8


def _raw_tree_from_ini(text: str) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal; "%" too
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _raw_tree_from_json(text: str) -> dict[str, dict[str, object]]:
    try:
        tree = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer or too-deep nesting
        raise ConfigError(f"cannot parse JSON config: {exc}") from exc
    if not isinstance(tree, dict) or not all(isinstance(v, dict) for v in tree.values()):
        raise ConfigError("JSON config must be an object of section objects")
    return tree


def _convert(section: str, key: str, raw, converter):
    # a JSON value is read as the text an INI file would hold; a list as its items
    text = " ".join(str(x) for x in raw) if isinstance(raw, list) else str(raw)
    try:
        value = converter(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {text!r}: {exc}") from exc
    # rejects nan, infinities and integers no float can hold
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{section}.{key}: must be finite, got {text!r}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    stripped = text.lstrip()
    tree = _raw_tree_from_json(text) if stripped.startswith("{") else _raw_tree_from_ini(text)

    given: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section, entries in tree.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            given[section][key] = _convert(section, key, raw, _SCHEMA[section][key])
    return _build(given)


def _in_section(section: str, build, **kwargs):
    """build(**kwargs); its errors name a key, to which the section is prefixed."""
    try:
        return build(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _build(given: dict[str, dict[str, object]]) -> ExperimentConfig:
    experiment = ExperimentConfig(**given["experiment"])
    for key in ("scenarios", "methods", "seeds"):
        entries = getattr(experiment, key)
        if not entries:  # an empty list plans no cell
            raise ConfigError(f"experiment.{key}: need at least one entry")
        for i, entry in enumerate(entries):  # a repeated entry would repeat its cells
            if entry in entries[:i]:
                raise ConfigError(f"experiment.{key}: {entry!r} is listed more than once")
    for seed in experiment.seeds:  # seeds every random stream, which needs entropy >= 0
        if seed < 0:
            raise ConfigError(f"experiment.seeds: must be >= 0, got {seed}")
    for method in experiment.methods:
        if method not in _METHOD_CHOICES:
            raise ConfigError(f"experiment.methods: unknown method {method!r}")
    for kind in experiment.scenarios:
        if kind not in SCENARIO_KINDS:
            raise ConfigError(f"experiment.scenarios: unknown scenario {kind!r}")

    scenario = _in_section("scenario", ScenarioSpec, **given["scenario"])
    federation = _in_section("federation", FederationConfig, **given["federation"])
    model = _in_section("model", ModelConfig, **given["model"])
    data = _in_section("data", DataConfig, **given["data"])
    if any(map(_is_synthetic, data.datasets)) and data.feature_dim != model.d_image:
        raise ConfigError(
            f"data.feature_dim: synthetic features are {data.feature_dim}-dimensional but "
            f"model.d_image is {model.d_image}; they must match"
        )
    return replace(experiment, federation=federation, model=model, data=data, scenario=scenario)


def parse_config(path: str) -> ExperimentConfig:
    """Parse and fully validate an experiment file (INI-shaped or JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _format(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if value is None:
        return "auto"
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Round-trippable INI text with every key explicit."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal; "%" too
    for section, keys in _SCHEMA.items():
        values = config if section == "experiment" else getattr(config, section)
        parser[section] = {key: _format(getattr(values, key)) for key in keys}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _is_synthetic(entry: str) -> bool:
    return entry.split("#")[0] == "synthetic"


def dataset_display_name(entry: str) -> str:
    """Results column name for a dataset entry (file paths shed dir and extension)."""
    if _is_synthetic(entry):
        return entry
    return entry.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def synthetic_spec(data: DataConfig, entry: str) -> SyntheticSpec:
    """The recipe of a `synthetic` or `synthetic#<prototype seed>` entry."""
    return SyntheticSpec(
        classes=data.classes, feature_dim=data.feature_dim, noise_sigma=data.noise_sigma,
        samples_per_class=data.samples_per_class,
        prototype_seed=int(entry.split("#")[1]) if "#" in entry else 0,
    )


def materialize_datasets(config: ExperimentConfig) -> dict[str, MasterDataset]:
    """Build every dataset named in the config; file paths are loaded and checked."""
    datasets: dict[str, MasterDataset] = {}
    for entry in config.data.datasets:
        if _is_synthetic(entry):
            spec = synthetic_spec(config.data, entry)
            rng = rngs.derive_rng(spec.prototype_seed, rngs.DATA)
            datasets[entry] = generate_synthetic_dataset(spec, rng)
        else:
            loaded = load_feature_table(entry)
            _check_width(entry, loaded.feature_dim, config.model)
            datasets[dataset_display_name(entry)] = loaded
    return datasets


def check_table_headers(config: ExperimentConfig) -> None:
    """Check the header of every feature table the config names, and its width
    against the model; `materialize_datasets` checks the bodies."""
    for entry in config.data.datasets:
        if not _is_synthetic(entry):
            _check_width(entry, read_table_header(entry)[0], config.model)


def _check_width(entry: str, dim: int, model: ModelConfig) -> None:
    if dim != model.d_image:
        raise ConfigError(f"{entry}:1: feature width {dim} does not match "
                          f"model.d_image {model.d_image}")
