"""Declarative experiment configuration.

Accepts sectioned key=value text (INI-shaped) or a JSON object with the
same section/key tree. Unknown sections or keys are rejected, every
value is type-checked, and an empty file yields the all-defaults
experiment (synthetic data, promptfl, global scenario).
"""

import configparser
import io
import json
import math
from dataclasses import dataclass, field

from .data import MasterDataset, SyntheticSpec, generate_synthetic_dataset, load_feature_table
from .errors import ConfigError
from .evaluation import SCENARIO_KINDS, ZERO_SHOT_METHOD, ExperimentPlan, ScenarioSpec
from .federation import FederationConfig
from .vlm import ModelConfig
from .algorithms import TRAINER_KINDS
from . import rngs


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).replace(",", " ").split()]


def _parse_str_list(text: str) -> list[str]:
    return [x for x in str(text).replace(",", " ").split()]


def _parse_auto_int(text: str):
    s = str(text).strip().lower()
    return None if s in ("auto", "none", "") else int(s)


# section -> key -> (converter, default)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "scenarios": (_parse_str_list, ["global"]),
        "methods": (_parse_str_list, ["promptfl"]),
        "seeds": (_parse_int_list, [0, 1, 2]),
        "output_dir": (str, "results"),
    },
    "federation": {
        "protocol": (str, "standard"),
        "num_clients": (int, None),          # None: protocol default
        "participation_fraction": (float, None),
        "rounds": (int, 50),
        "local_epochs": (int, 1),
        "batch_size": (int, 16),
        "lr": (float, 0.002),
        "momentum": (float, 0.9),
        "eval_every": (int, 1),
    },
    "model": {
        "prompts": (int, 1),
        "tokens": (int, 4),
        "d_token": (int, 512),
        "d_feature": (int, 1024),
        "d_image": (int, 1024),
        "encoder": (str, "linear_pool"),
        "tau": (float, 0.07),
        "seed": (int, 0),
        "init_std": (float, 0.02),
        "token_scale": (float, 0.05),
        "n_class_tokens": (int, 1),
        "meta_hidden": (int, 64),
        "local_features": (int, 4),
    },
    "data": {
        "datasets": (_parse_str_list, ["synthetic"]),
        "classes": (int, 10),
        "feature_dim": (int, 1024),
        "noise_sigma": (float, 0.1),
        "samples_per_class": (int, 40),
        "per_class_subsample": (_parse_auto_int, None),
        "alpha": (float, 0.1),
    },
    "scenario": {
        "shots": (int, 1),
        "split_mode": (str, "random"),
        "cross_targets": (int, 2),
    },
}

_METHOD_CHOICES = tuple(TRAINER_KINDS) + (ZERO_SHOT_METHOD,)


@dataclass
class DataConfig:
    datasets: list[str]
    classes: int
    feature_dim: int
    noise_sigma: float
    samples_per_class: int
    per_class_subsample: int | None
    alpha: float


@dataclass
class ExperimentConfig:
    scenarios: list[str]
    methods: list[str]
    seeds: list[int]
    output_dir: str
    federation: FederationConfig
    model: ModelConfig
    data: DataConfig
    scenario_options: dict = field(default_factory=dict)

    def scenario_spec(self, kind: str) -> ScenarioSpec:
        return ScenarioSpec(kind=kind, **self.scenario_options)

    def plan(self) -> ExperimentPlan:
        return ExperimentPlan(
            model=self.model,
            federation=self.federation,
            alpha=self.data.alpha,
            per_class_subsample=self.data.per_class_subsample,
        )


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse JSON config: {exc}") from exc
    if not isinstance(tree, dict) or not all(isinstance(v, dict) for v in tree.values()):
        raise ConfigError("JSON config must be an object of section objects")
    return tree


def _convert(section: str, key: str, raw, converter):
    if isinstance(raw, list):  # JSON may carry lists natively
        raw = " ".join(str(x) for x in raw)
    try:
        value = converter(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    stripped = text.lstrip()
    tree = _raw_tree_from_json(text) if stripped.startswith("{") else _raw_tree_from_ini(text)

    values: dict[str, dict[str, object]] = {
        section: {key: default for key, (_c, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    for section, entries in tree.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            converter = _SCHEMA[section][key][0]
            values[section][key] = _convert(section, key, raw, converter)

    return _build(values)


def _in_section(section: str, build, *args, **kwargs):
    """build(*args, **kwargs); its errors name a key, to which the section is prefixed."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _build(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    exp = values["experiment"]
    fed = values["federation"]
    mdl = values["model"]
    dat = values["data"]
    scn = values["scenario"]

    for key in ("scenarios", "methods", "seeds"):  # an empty list plans no cell
        if not exp[key]:
            raise ConfigError(f"experiment.{key}: need at least one entry")
    for method in exp["methods"]:
        if method not in _METHOD_CHOICES:
            raise ConfigError(f"experiment.methods: unknown method {method!r}")
    for kind in exp["scenarios"]:
        if kind not in SCENARIO_KINDS:
            raise ConfigError(f"experiment.scenarios: unknown scenario {kind!r}")
        _in_section("scenario", ScenarioSpec, kind, **scn)  # checks the [scenario] options

    # unset client count and participation fall back to the protocol's defaults
    overrides = {key: fed[key] for key in ("num_clients", "participation_fraction")
                 if fed[key] is not None}
    federation = _in_section(
        "federation", FederationConfig.for_protocol,
        fed["protocol"], rounds=fed["rounds"], local_epochs=fed["local_epochs"],
        batch_size=fed["batch_size"], lr0=fed["lr"], momentum=fed["momentum"],
        eval_every=fed["eval_every"], **overrides,
    )
    model = _in_section(
        "model", ModelConfig,
        m=mdl["prompts"], L=mdl["tokens"], d_token=mdl["d_token"],
        d_feature=mdl["d_feature"], d_image=mdl["d_image"], encoder=mdl["encoder"],
        tau=mdl["tau"], seed=mdl["seed"], init_std=mdl["init_std"],
        token_scale=mdl["token_scale"], n_class_tokens=mdl["n_class_tokens"],
        meta_hidden=mdl["meta_hidden"], local_features=mdl["local_features"],
    )

    if dat["alpha"] <= 0:
        raise ConfigError(f"data.alpha: must be positive, got {dat['alpha']}")
    if dat["per_class_subsample"] is not None and dat["per_class_subsample"] < 1:
        raise ConfigError(f"data.per_class_subsample: must be >= 1 or auto, "
                          f"got {dat['per_class_subsample']}")
    data = DataConfig(**dat)
    entries_by_name: dict[str, str] = {}
    for entry in data.datasets:
        name = dataset_display_name(entry)
        if name in entries_by_name:
            raise ConfigError(f"data.datasets: {entries_by_name[name]!r} and {entry!r} both "
                              f"name the dataset {name!r}")
        entries_by_name[name] = entry
        if _is_synthetic(entry):
            try:
                _in_section("data", synthetic_spec, data, entry)
            except ValueError as exc:
                raise ConfigError(f"data.datasets: {entry!r} needs an integer prototype "
                                  "seed after '#'") from exc
    if any(map(_is_synthetic, data.datasets)) and data.feature_dim != model.d_image:
        raise ConfigError(
            f"data.feature_dim: synthetic features are {data.feature_dim}-dimensional but "
            f"model.d_image is {model.d_image}; they must match"
        )

    return ExperimentConfig(
        scenarios=list(exp["scenarios"]), methods=list(exp["methods"]),
        seeds=list(exp["seeds"]), output_dir=str(exp["output_dir"]),
        federation=federation, model=model, data=data, scenario_options=dict(scn),
    )


def parse_config(path: str) -> ExperimentConfig:
    """Parse and fully validate an experiment file (INI-shaped or JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Round-trippable INI text with every key explicit."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal; "%" too
    parser["experiment"] = {
        "scenarios": ",".join(config.scenarios),
        "methods": ",".join(config.methods),
        "seeds": ",".join(str(s) for s in config.seeds),
        "output_dir": config.output_dir,
    }
    fed = config.federation
    parser["federation"] = {
        "protocol": fed.protocol,
        "num_clients": str(fed.num_clients),
        "participation_fraction": repr(fed.participation_fraction),
        "rounds": str(fed.rounds),
        "local_epochs": str(fed.local_epochs),
        "batch_size": str(fed.batch_size),
        "lr": repr(fed.lr0),
        "momentum": repr(fed.momentum),
        "eval_every": str(fed.eval_every),
    }
    mdl = config.model
    parser["model"] = {
        "prompts": str(mdl.m), "tokens": str(mdl.L), "d_token": str(mdl.d_token),
        "d_feature": str(mdl.d_feature), "d_image": str(mdl.d_image), "encoder": mdl.encoder,
        "tau": repr(mdl.tau), "seed": str(mdl.seed), "init_std": repr(mdl.init_std),
        "token_scale": repr(mdl.token_scale), "n_class_tokens": str(mdl.n_class_tokens),
        "meta_hidden": str(mdl.meta_hidden), "local_features": str(mdl.local_features),
    }
    dat = config.data
    parser["data"] = {
        "datasets": ",".join(dat.datasets),
        "classes": str(dat.classes),
        "feature_dim": str(dat.feature_dim),
        "noise_sigma": repr(dat.noise_sigma),
        "samples_per_class": str(dat.samples_per_class),
        "per_class_subsample": "auto" if dat.per_class_subsample is None else str(dat.per_class_subsample),
        "alpha": repr(dat.alpha),
    }
    parser["scenario"] = {k: str(v) for k, v in config.scenario_options.items()}
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
            if loaded.feature_dim != config.model.d_image:
                raise ConfigError(
                    f"{entry}: feature width {loaded.feature_dim} does not match "
                    f"model.d_image {config.model.d_image}"
                )
            datasets[dataset_display_name(entry)] = loaded
    return datasets
