"""Declarative experiment configuration.

Accepts sectioned key=value text (INI-shaped) or a JSON object with the
same section/key tree. The keys are the fields of `ExperimentConfig`: its
plain fields are `[experiment]`, and each dataclass-typed field is a
section whose fields, annotations and defaults are its keys, key types and
defaults. A key annotated `X | None` takes `auto` (None). Unknown sections
or keys are rejected, and the dataclasses check every value, so a config
built in code is checked as a parsed one is. An empty file yields the
all-defaults experiment.
"""

import configparser
import io
import json
import sys
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .data import (
    MasterDataset,
    SyntheticSpec,
    _near_orthogonal_prototypes,
    generate_synthetic_dataset,
    is_synthetic,
    load_feature_table,
    read_table_header,
)
from .errors import ConfigError
from .evaluation import SCENARIO_KINDS, ZERO_SHOT_METHOD, ScenarioSpec
from .federation import FederationConfig
from .vlm import ModelConfig
from .algorithms import TRAINER_KINDS
from . import rngs

_METHOD_CHOICES = tuple(TRAINER_KINDS) + (ZERO_SHOT_METHOD,)
_MAX_SYNTHETIC_CLASSES = 1000  # the config check draws the prototypes, in time quadratic in it


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
        if any(map(is_synthetic, self.datasets)) and self.classes > _MAX_SYNTHETIC_CLASSES:
            raise ConfigError(f"classes: must be <= {_MAX_SYNTHETIC_CLASSES} for synthetic "
                              f"data, got {self.classes}")
        entries_by_name: dict[str, str] = {}
        for entry in self.datasets:
            if entry.replace(",", " ").split() != [entry]:
                raise ConfigError(f"datasets: entry {entry!r} does not read back as one "
                                  "entry: whitespace and ',' separate the entries")
            name = dataset_display_name(entry)
            if name in entries_by_name:
                raise ConfigError(f"datasets: {entries_by_name[name]!r} and {entry!r} both "
                                  f"name the dataset {name!r}")
            entries_by_name[name] = entry
            if is_synthetic(entry):
                try:
                    seed = synthetic_spec(self, entry).prototype_seed
                except ValueError:
                    seed = -1
                if seed < 0:
                    raise ConfigError(f"datasets: {entry!r} needs a non-negative integer "
                                      "prototype seed after '#'")


@dataclass
class ExperimentConfig:
    """The `[experiment]` keys, and every other section by name; the check of
    the `[experiment]` values and of what one section implies for another."""

    scenarios: list[str] = field(default_factory=lambda: ["global"])
    methods: list[str] = field(default_factory=lambda: ["promptfl"])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    output_dir: str = "results"
    federation: FederationConfig = field(default_factory=FederationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def __post_init__(self):
        for key in ("scenarios", "methods", "seeds"):
            entries = getattr(self, key)
            if not entries:  # an empty list plans no cell
                raise ConfigError(f"experiment.{key}: need at least one entry")
            for i, entry in enumerate(entries):  # a repeated entry would repeat its cells
                if entry in entries[:i]:
                    raise ConfigError(f"experiment.{key}: {entry!r} is listed more than once")
        for seed in self.seeds:  # seeds every random stream, which needs entropy >= 0
            if seed < 0:
                raise ConfigError(f"experiment.seeds: must be >= 0, got {seed}")
        for method in self.methods:
            if method not in _METHOD_CHOICES:
                raise ConfigError(f"experiment.methods: unknown method {method!r}")
        for kind in self.scenarios:
            if kind not in SCENARIO_KINDS:
                raise ConfigError(f"experiment.scenarios: unknown scenario {kind!r}")
        synthetic = [entry for entry in self.data.datasets if is_synthetic(entry)]
        if synthetic and self.data.feature_dim != self.model.d_image:
            raise ConfigError(
                f"data.feature_dim: synthetic features are {self.data.feature_dim}-dimensional "
                f"but model.d_image is {self.model.d_image}; they must match"
            )
        for entry in synthetic:  # drawn as the run draws them, once the width is the model's
            spec = synthetic_spec(self.data, entry)
            try:
                _near_orthogonal_prototypes(spec, _prototype_rng(spec))
            except ConfigError as exc:
                raise ConfigError(
                    f"data.feature_dim: {spec.feature_dim} dimensions cannot hold "
                    f"data.classes = {spec.classes} near-orthogonal prototypes of {entry!r}"
                ) from exc

    def subsample_per_class(self) -> int:
        """`data.per_class_subsample`; auto is 16 under partial participation, else 8."""
        if self.data.per_class_subsample is not None:
            return self.data.per_class_subsample
        return 16 if self.federation.protocol == "partial" else 8


def _converter(annotation):
    """The parser of a key's text, by its field's annotation; a list key's also
    takes a JSON list of entry texts."""
    if isinstance(annotation, types.UnionType):  # `X | None`: auto (or nothing) is None
        (inner,) = set(typing.get_args(annotation)) - {type(None)}
        convert = _converter(inner)
        return lambda text: None if text.strip().lower() in ("auto", "none", "") else convert(text)
    if typing.get_origin(annotation) is list:  # comma- or space-separated items
        (item,) = typing.get_args(annotation)
        return lambda text: [item(x) for x in (text if isinstance(text, list)
                                               else text.replace(",", " ").split())]
    return annotation


# each dataclass-typed field of `ExperimentConfig` is a section; its other fields are `[experiment]`
_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)}
# section -> key -> the key's field annotation
_SCHEMA = {section: {f.name: f.type for f in fields(cls) if not is_dataclass(f.type)}
           for section, cls in {"experiment": ExperimentConfig, **_SECTIONS}.items()}


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


def _convert(section: str, key: str, raw, annotation):
    # a JSON value is read as the text an INI file would hold, and each entry of a
    # JSON list as one entry of a list key
    text = [str(x) for x in raw] if isinstance(raw, list) else str(raw)
    if isinstance(text, list) and typing.get_origin(annotation) is not list:
        raise ConfigError(f"{section}.{key}: takes one value, got the list {raw!r}")
    try:
        value = _converter(annotation)(text)
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
    experiment = ExperimentConfig(**given["experiment"])  # its errors win over a section's
    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**given[section])
        except ConfigError as exc:  # a section's errors name a key; prefix the section
            raise ConfigError(f"{section}.{exc}") from exc
    return replace(experiment, **sections)


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


def dataset_display_name(entry: str) -> str:
    """Results column name for a dataset entry (file paths shed dir and extension)."""
    if is_synthetic(entry):
        return entry
    return entry.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def synthetic_spec(data: DataConfig, entry: str) -> SyntheticSpec:
    """The recipe of a `synthetic` or `synthetic#<prototype seed>` entry."""
    return SyntheticSpec(
        classes=data.classes, feature_dim=data.feature_dim, noise_sigma=data.noise_sigma,
        samples_per_class=data.samples_per_class,
        prototype_seed=int(entry.split("#")[1]) if "#" in entry else 0,
    )


def _prototype_rng(spec: SyntheticSpec):
    """The stream a synthetic dataset is drawn from, its prototypes first."""
    return rngs.derive_rng(spec.prototype_seed, rngs.DATA)


def materialize_datasets(config: ExperimentConfig) -> dict[str, MasterDataset]:
    """Build every dataset named in the config; file paths are loaded and checked."""
    datasets: dict[str, MasterDataset] = {}
    for entry in config.data.datasets:
        if is_synthetic(entry):
            spec = synthetic_spec(config.data, entry)
            datasets[entry] = generate_synthetic_dataset(spec, _prototype_rng(spec))
        else:
            loaded = load_feature_table(entry)
            _check_width(entry, loaded.feature_dim, config.model)
            datasets[dataset_display_name(entry)] = loaded
    return datasets


def check_table_headers(config: ExperimentConfig) -> None:
    """Check the header of every feature table the config names, and its width
    against the model; `materialize_datasets` checks the bodies."""
    for entry in config.data.datasets:
        if not is_synthetic(entry):
            _check_width(entry, read_table_header(entry)[0], config.model)


def _check_width(entry: str, dim: int, model: ModelConfig) -> None:
    if dim != model.d_image:
        raise ConfigError(f"{entry}:1: feature width {dim} does not match "
                          f"model.d_image {model.d_image}")
