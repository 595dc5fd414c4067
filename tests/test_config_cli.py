"""Config parsing/validation, the runner's output files, and the CLI."""

import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracle import save_feature_table
from fedprompt.algorithms import TRAINER_KINDS
from fedprompt.cli import main
from fedprompt.config import (
    _SCHEMA,
    DataConfig,
    ExperimentConfig,
    materialize_datasets,
    parse_config,
    parse_config_text,
    serialize_config,
)
from fedprompt import data, rngs, runner
from fedprompt.data import MasterDataset, generate_synthetic_dataset, is_synthetic
from fedprompt.errors import ConfigError
from fedprompt.evaluation import SCENARIO_KINDS, ZERO_SHOT_METHOD, build_run_state
from fedprompt.federation import PROTOCOLS, FederationConfig
from fedprompt.runner import load_results_csv, plan_cells, report, run

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "configs" / "toy.ini"
VALIDATE_GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "validate"


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def valid_configs(draw):
    """Configs that parse: random INI text over every key, kept when it validates."""
    width = draw(st.integers(1, 64))
    names = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)
    datasets = draw(st.lists(st.one_of(
        st.just("synthetic"), st.integers(0, 999).map(lambda k: f"synthetic#{k}"),
        names.map(lambda n: f"tables/{n}.txt")), min_size=1, max_size=3,
        unique_by=lambda entry: entry.rsplit("/", 1)[-1].rsplit(".", 1)[0]))
    sections = {
        "experiment": {
            "scenarios": draw(st.lists(st.sampled_from(SCENARIO_KINDS), min_size=1, max_size=3,
                                       unique=True)),
            "methods": draw(st.lists(st.sampled_from(TRAINER_KINDS + (ZERO_SHOT_METHOD,)),
                                     min_size=1, max_size=4, unique=True)),
            "seeds": draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=4,
                                   unique=True)),
            "output_dir": draw(st.text("abcXYZ019_-./% ", min_size=1, max_size=16)
                               .filter(lambda t: t.strip() == t)),
        },
        "federation": {
            "protocol": draw(st.sampled_from(PROTOCOLS)),
            "num_clients": draw(_optional(st.integers(1, 200))),
            "participation_fraction": draw(_optional(_floats(1e-3, 1.0))),
            "rounds": draw(st.integers(1, 500)),
            "local_epochs": draw(st.integers(0, 5)),
            "batch_size": draw(st.integers(1, 128)),
            "lr": draw(_floats(1e-9, 10.0)),
            "momentum": draw(_floats(0.0, 0.999)),
            "eval_every": draw(st.integers(1, 20)),
        },
        "model": {
            "prompts": draw(st.integers(1, 4)), "tokens": draw(st.integers(1, 16)),
            "d_token": draw(st.integers(1, 64)), "d_feature": width, "d_image": width,
            "encoder": draw(st.sampled_from(["linear_pool", "attention_block"])),
            "tau": draw(_floats(1e-6, 10.0)), "seed": draw(st.integers(0, 10**9)),
            "init_std": draw(_floats(0.0, 1.0)), "token_scale": draw(_floats(1e-6, 1.0)),
            "n_class_tokens": draw(st.integers(1, 3)), "meta_hidden": draw(st.integers(1, 128)),
            "local_features": draw(st.integers(1, 8)),
        },
        "data": {
            "datasets": datasets, "classes": draw(st.integers(2, 50)),
            "noise_sigma": draw(_floats(0.0, 2.0)),
            "samples_per_class": draw(st.integers(1, 500)),
            "per_class_subsample": draw(_optional(st.integers(1, 100))),
            "alpha": draw(_floats(1e-6, 100.0)),
        },
        "scenario": {
            "shots": draw(st.integers(1, 16)),
            "split_mode": draw(st.sampled_from(["random", "first_half"])),
            "cross_targets": draw(st.integers(1, 5)),
        },
    }
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if value is None:
                continue
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    try:
        return parse_config_text("\n".join(lines) + "\n")
    except ConfigError:
        assume(False)


def desk_sized(config: ExperimentConfig) -> ExperimentConfig:
    """`config` cut to a run that takes a moment: at most 2 rounds, 6 clients,
    6 classes and 30 samples per class, its first seed, and its synthetic
    datasets only (`synthetic` when it has none). The balanced subsample and
    the shot count are cut to what a class's cut training rows can hold, so
    that most examples reach a cell, and a participation that would sample
    no cut client is raised to the smallest one that samples one. Raises
    `ConfigError` where the cut config fails a check."""
    fed, data, spec = config.federation, config.data, config.scenario
    clients, samples = min(fed.num_clients, 6), min(data.samples_per_class, 30)
    fraction = fed.participation_fraction
    if round(fraction * clients) < 1:
        fraction = 0.5 / clients
        while round(fraction * clients) < 1:
            fraction = math.nextafter(fraction, 1.0)
    train = round(0.7 * samples)  # a class's training rows in the 70/10/20 split
    subsample = data.per_class_subsample
    if config.subsample_per_class() > train:
        subsample = max(1, train)
    return replace(config, seeds=config.seeds[:1],
                   federation=replace(fed, rounds=min(fed.rounds, 2), num_clients=clients,
                                      participation_fraction=fraction),
                   data=replace(data, datasets=[e for e in data.datasets if is_synthetic(e)]
                                or ["synthetic"], classes=min(data.classes, 6),
                                samples_per_class=samples, per_class_subsample=subsample),
                   scenario=replace(spec, shots=max(1, min(spec.shots, train // clients))))


# JSON scalars an INI file could not hold: each must fail like its INI text
JSON_SCALAR_CASES = [
    ('{"federation": {"rounds": 3.5}}', "federation.rounds"),
    ('{"federation": {"rounds": true}}', "federation.rounds"),
    ('{"data": {"classes": Infinity}}', "data.classes"),
]

# JSON list entries an INI list would split: each is read as one entry, which its check rejects
JSON_LIST_CASES = [
    ('{"data": {"datasets": ["my data.txt", "b,c.txt"]}}', "data.datasets"),
    ('{"experiment": {"methods": ["promptfl zsclip"]}}', "experiment.methods"),
    ('{"experiment": {"seeds": ["1 2"]}}', "experiment.seeds"),
]

# JSON lists given to a key that takes one value: rejected, never joined into one text
JSON_ONE_VALUE_LIST_CASES = [
    ('{"experiment": {"output_dir": ["a b", "c"]}}', "experiment.output_dir"),
    ('{"data": {"classes": [3]}}', "data.classes"),
]

# values that reach every converter's and every check's edges
_EDGE_VALUES = st.one_of(
    st.text(max_size=12), st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["auto", "nan", "-inf", "1e400", "9" * 400, "synthetic#x", "partial",
                     "global,global", "0,0", ""]),
)


@st.composite
def any_config_text(draw):
    """INI or JSON over the real sections and keys, with any values, or plain junk."""
    sections = st.one_of(st.sampled_from(sorted(_SCHEMA)), st.text(max_size=6))
    tree = {}
    for section in draw(st.lists(sections, max_size=4)):
        keys = st.text(max_size=6)
        if section in _SCHEMA:
            keys = st.one_of(st.sampled_from(sorted(_SCHEMA[section])), keys)
        tree[section] = draw(st.dictionaries(keys, st.one_of(_EDGE_VALUES, st.lists(_EDGE_VALUES)),
                                             max_size=4))
    form = draw(st.sampled_from(["ini", "json", "junk"]))
    if form == "json":
        return json.dumps(tree)
    if form == "junk":
        return draw(st.one_of(st.text(), st.text().map(lambda t: "{" + t)))
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in tree.items())


def write_table(path: Path, seed: int) -> None:
    dataset = generate_synthetic_dataset(4, 16, 0.1, 20, np.random.default_rng(seed))
    save_feature_table(dataset, str(path))


def table_config_text(path: Path, methods: str = "promptfl") -> str:
    return (f"[experiment]\nmethods = {methods}\nseeds = 0\n"
            "[federation]\nnum_clients = 2\nrounds = 1\nbatch_size = 8\n"
            "[model]\nd_token = 8\nd_feature = 16\nd_image = 16\n"
            f"[data]\ndatasets = {path}\nper_class_subsample = 6\n")


class TestParsing:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.scenarios == ["global"]
        assert cfg.methods == ["promptfl"]
        assert cfg.seeds == [0, 1, 2]
        assert cfg.federation.rounds == 50
        assert cfg.federation.batch_size == 16
        assert cfg.federation.lr == 0.002
        assert cfg.federation.momentum == 0.9
        assert cfg.federation.local_epochs == 1
        assert cfg.model.tokens == 4
        assert cfg.data.alpha == 0.1
        assert cfg.data.datasets == ["synthetic"]

    def test_negative_rounds_names_key(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            parse_config_text("[federation]\nrounds = -1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="federation.stragglers"):
            parse_config_text("[federation]\nstragglers = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="privacy"):
            parse_config_text("[privacy]\nepsilon = 1\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            parse_config_text("[federation]\nrounds = soon\n")

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="methods"):
            parse_config_text("[experiment]\nmethods = bpl\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.ini"))

    def test_round_trip(self):
        cfg = parse_config(str(TOY))
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_percent_is_literal(self):
        # INI values are not interpolated: "%" neither escapes nor fails
        cfg = parse_config_text("[experiment]\noutput_dir = runs/100%_a%%b\n")
        assert cfg.output_dir == "runs/100%_a%%b"
        from_json = parse_config_text('{"experiment": {"output_dir": "x%1"}}')
        assert parse_config_text(serialize_config(from_json)) == from_json

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def test_round_trip_property(self, data):
        cfg = data.draw(valid_configs())
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg
        assert serialize_config(parse_config_text(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(any_config_text())
    @example(JSON_SCALAR_CASES[0][0])
    @example(JSON_SCALAR_CASES[1][0])
    @example(JSON_SCALAR_CASES[2][0])
    @example("[federation]\nnum_clients = " + "9" * 400 + "\n")
    @example('{"model": {"seed": ' + "1" * 5000 + "}}")
    @example('{"data": ' + "[" * 100000 + "}")
    def test_any_text_gives_a_config_or_a_config_error(self, text):
        try:
            assert isinstance(parse_config_text(text), ExperimentConfig)
        except ConfigError:
            pass

    def test_sections_built_in_code_take_their_defaults(self):
        assert ExperimentConfig() == parse_config_text("")

    def test_json_alternate_input(self):
        tree = {"federation": {"rounds": 7, "num_clients": 3},
                "experiment": {"methods": ["promptfl", "src"], "seeds": [5]}}
        cfg = parse_config_text(json.dumps(tree))
        assert cfg.federation.rounds == 7
        assert cfg.methods == ["promptfl", "src"]
        assert cfg.seeds == [5]

    def test_protocol_defaults_filled(self):
        cfg = parse_config_text("[federation]\nprotocol = partial\n")
        assert cfg.federation.num_clients == 100
        assert cfg.federation.participation_fraction == 0.1

    def test_feature_dim_is_not_a_key(self):
        # a synthetic dataset is model.d_image wide
        with pytest.raises(ConfigError, match="^data.feature_dim: unknown key$"):
            parse_config_text("[data]\nfeature_dim = 1024\n")

    @pytest.mark.parametrize("text,values", [
        ("[experiment]\nmethods = nope,nope\nseeds = -1\nscenarios =\n",
         dict(methods=["nope", "nope"], seeds=[-1], scenarios=[])),
        ("[experiment]\nmethods =\n", dict(methods=[])),
        ("[experiment]\nseeds =\n", dict(seeds=[])),
        ("[experiment]\nmethods = promptfl,promptfl\n", dict(methods=["promptfl", "promptfl"])),
        ("[experiment]\nscenarios = global,global\n", dict(scenarios=["global", "global"])),
        ("[experiment]\nseeds = 0,1,0\n", dict(seeds=[0, 1, 0])),
        ("[experiment]\nseeds = 0,-1\n", dict(seeds=[0, -1])),
        ("[experiment]\nmethods = nope\n", dict(methods=["nope"])),
        ("[experiment]\nscenarios = nope\n", dict(scenarios=["nope"])),
    ])
    def test_config_built_in_code_is_checked_as_parsed(self, text, values):
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(text)
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**values)
        assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_auto_federation_keys_take_the_protocol_default(self, protocol):
        for text in (f"[federation]\nprotocol = {protocol}\nnum_clients = auto\n"
                     "participation_fraction = auto\n",
                     json.dumps({"federation": {"protocol": protocol, "num_clients": "auto",
                                                "participation_fraction": "auto"}})):
            assert parse_config_text(text).federation == FederationConfig(protocol=protocol)

    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_prototype_check_is_the_runs_draw(self, tmp_path, capsys, width):
        # `validate` accepts a synthetic config exactly when `materialize_datasets`
        # can draw its prototypes, and near the limit that depends on the prototype seed
        config = tmp_path / "run.ini"
        by_classes = {}
        for classes in range(width, 14):
            for seed in range(4):
                config.write_text(f"[model]\nd_token = 8\nd_feature = {width}\n"
                                  f"d_image = {width}\n[data]\ndatasets = synthetic#{seed}\n"
                                  f"classes = {classes}\nsamples_per_class = 1\n")
                try:
                    materialize_datasets(parse_config(str(config)))
                    error = ""
                except ConfigError as exc:
                    assert str(exc).startswith("model.d_image: ") and "data.classes" in str(exc)
                    error = f"error: {exc}\n"
                drawn = not error
                assert (main(["validate", str(config)]) == 0) == drawn, (classes, seed)
                assert capsys.readouterr().err == error
                by_classes.setdefault(classes, set()).add(drawn)
        assert {True} in by_classes.values() and {False} in by_classes.values()
        assert {True, False} in by_classes.values()

    def test_repeated_dataset_rejected(self):
        with pytest.raises(ConfigError, match="data.datasets"):
            parse_config_text("[data]\ndatasets = synthetic,synthetic\n")

    def test_colliding_table_names_rejected(self):
        # both files would be reported under the one column 'feat'
        with pytest.raises(ConfigError, match="data.datasets.*'feat'"):
            parse_config_text("[data]\ndatasets = a/feat.txt,b/feat.txt\n")

    @pytest.mark.parametrize("entry", ["my data/a,b.txt", "a b.txt", "a,b.txt", "tab\there.txt",
                                       "line\nbreak.txt", ""])
    def test_dataset_entry_a_round_trip_would_split_rejected(self, entry):
        # the serialized list is split at ',' and whitespace when parsed, and a
        # run executes the round-tripped config: it would plan the cells of one
        # entry and load the datasets of others
        with pytest.raises(ConfigError, match=r"^datasets: entry .* does not read back as one"):
            DataConfig(datasets=["synthetic", entry])
        with pytest.raises(ConfigError, match=r"^datasets: entry "):
            ExperimentConfig(data=DataConfig(datasets=[entry]))
        kept = ExperimentConfig(data=DataConfig(datasets=["my_data/a.b.txt", "synthetic#2"]))
        assert parse_config_text(serialize_config(kept)) == kept

    @pytest.mark.parametrize("key,value", [
        ("eval_every", "0"), ("lr", "0"), ("lr", "-0.01"), ("momentum", "1.0"), ("momentum", "-0.1"),
    ])
    def test_federation_values_checked_at_parse_time(self, key, value):
        with pytest.raises(ConfigError, match=f"federation.{key}:"):
            parse_config_text(f"[federation]\n{key} = {value}\n")

    def test_unknown_protocol_names_key(self):
        with pytest.raises(ConfigError, match="federation.protocol"):
            parse_config_text("[federation]\nprotocol = gossip\n")

    def test_personalized_protocol_points_to_the_scenario(self):
        # personalized evaluation is a scenario; the protocol of that name was
        # an alias of `standard`
        with pytest.raises(ConfigError, match="^federation.protocol: .*"
                                              "`experiment.scenarios = personalized`"):
            parse_config_text("[federation]\nprotocol = personalized\n")

    @pytest.mark.parametrize("section,key", [
        ("federation", "lr"), ("federation", "momentum"),
        ("federation", "participation_fraction"), ("model", "tau"), ("model", "init_std"),
        ("model", "token_scale"), ("data", "noise_sigma"), ("data", "alpha"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}: must be finite"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    def test_non_finite_json_float_rejected(self):
        with pytest.raises(ConfigError, match="model.tau: must be finite"):
            parse_config_text('{"model": {"tau": NaN}}')

    @pytest.mark.parametrize("key", ["prompts", "tokens", "d_token", "n_class_tokens",
                                     "meta_hidden", "local_features"])
    def test_model_errors_name_the_config_key(self, key):
        with pytest.raises(ConfigError, match=f"^model.{key}: must be >= 1, got 0$"):
            parse_config_text(f"[model]\n{key} = 0\n")

    @pytest.mark.parametrize("key,value", [
        ("tau", "0"), ("init_std", "-0.1"), ("token_scale", "0"), ("encoder", "lstm"),
    ])
    def test_model_values_checked_at_parse_time(self, key, value):
        with pytest.raises(ConfigError, match=f"^model.{key}: "):
            parse_config_text(f"[model]\n{key} = {value}\n")

    @pytest.mark.parametrize("key,value", [
        ("classes", "1"), ("classes", "1001"), ("noise_sigma", "-1"), ("samples_per_class", "0"),
    ])
    def test_synthetic_data_values_checked_at_parse_time(self, key, value):
        with pytest.raises(ConfigError, match=f"^data.{key}: "):
            parse_config_text(f"[data]\n{key} = {value}\n")

    def test_synthetic_prototype_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="data.datasets: 'synthetic#two'"):
            parse_config_text("[data]\ndatasets = synthetic#two\n")

    @pytest.mark.parametrize("datasets", [
        "synthetic,synthetic#0",      # both draw prototype seed 0
        "synthetic#1,synthetic#01",   # seed 1 under two columns, as do the next two
        "synthetic#1,synthetic#+1",
        "synthetic#1,synthetic#\u0661",  # ARABIC-INDIC DIGIT ONE
        "synthetic#1#2",              # the '#2' would be dropped
        "synthetic#1_0",              # seed 10
    ])
    def test_a_synthetic_dataset_has_one_spelling(self, datasets):
        with pytest.raises(ConfigError, match="^data.datasets: "):
            parse_config_text(f"[data]\ndatasets = {datasets}\n")

    @pytest.mark.parametrize("datasets", ["synthetic#0", "synthetic,synthetic#1,synthetic#10"])
    def test_canonical_synthetic_entries_parse(self, datasets):
        cfg = parse_config_text(f"[data]\ndatasets = {datasets}\n")
        assert ",".join(cfg.data.datasets) == datasets

    @pytest.mark.parametrize("key", ["scenarios", "methods", "seeds"])
    def test_empty_experiment_lists_rejected(self, key):
        # the [scenario] options would otherwise go unchecked with no scenario
        with pytest.raises(ConfigError, match=f"^experiment.{key}: need at least one"):
            parse_config_text(f"[experiment]\n{key} =\n[scenario]\nshots = 0\n")

    @pytest.mark.parametrize("key,value", [
        ("shots", "0"), ("cross_targets", "0"), ("split_mode", "halves"),
    ])
    def test_scenario_values_checked_at_parse_time(self, key, value):
        with pytest.raises(ConfigError, match=f"^scenario.{key}: "):
            parse_config_text(f"[scenario]\n{key} = {value}\n")


def test_readme_config_table_lists_every_key():
    # one README row per (section, key) the config dataclasses declare, in field order
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| ")]
    assert rows[0] == [" Section ", " Key "]
    listed = [(section.strip(), key.strip()) for section, key in rows[1:]]
    assert listed == [(section, key) for section, keys in _SCHEMA.items() for key in keys]


class TestMaterialize:
    def test_synthetic_entries(self):
        cfg = parse_config_text(
            "[data]\ndatasets = synthetic,synthetic#3\nclasses = 3\n"
            "samples_per_class = 4\n[model]\nd_feature = 16\nd_image = 16\nd_token = 8\n"
        )
        out = materialize_datasets(cfg)
        assert set(out) == {"synthetic", "synthetic#3"}
        assert np.any(out["synthetic"].features != out["synthetic#3"].features)

    def test_file_entry_checked_against_model(self, tmp_path):
        ds = MasterDataset(features=np.eye(4), labels=np.arange(4) % 2, class_count=2)
        path = tmp_path / "feats.txt"
        save_feature_table(ds, str(path))
        cfg = parse_config_text(
            f"[data]\ndatasets = {path}\n[model]\nd_feature = 16\nd_image = 16\n"
        )
        with pytest.raises(ConfigError, match="d_image"):
            materialize_datasets(cfg)


# cells that share a run's frozen state: datasets, assets, scenario plans (their
# shifted targets too) and the region noise behind the transport cells' local maps
SHARED_STATE_CONFIG = """
[experiment]
scenarios = personalized,cross_domain
methods = zsclip,promptfl,plot,fedotp
seeds = 0,1
[federation]
num_clients = 2
rounds = 2
batch_size = 8
[model]
d_token = 8
d_feature = 16
d_image = 16
local_features = 2
[data]
datasets = synthetic,synthetic#1
classes = 3
samples_per_class = 12
per_class_subsample = 4
alpha = 0.5
"""

RESULT_FILES = ("results.csv", "results.json", "curves.jsonl")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def assert_jobs_agree(tmp_path) -> None:
    """The shared-state grid writes the same bytes with one worker and with two."""
    cfg = parse_config_text(SHARED_STATE_CONFIG)
    assert run(cfg, jobs=1, output_dir=str(tmp_path / "one")).exit_code == 0
    assert run(cfg, jobs=2, output_dir=str(tmp_path / "two")).exit_code == 0
    for name in RESULT_FILES:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


class TestSharedRunState:
    def test_runs_in_one_process_match_a_fresh_process(self, tmp_path):
        config = tmp_path / "shared.ini"
        config.write_text(SHARED_STATE_CONFIG)
        for name in ("first", "second"):
            assert run(parse_config(str(config)), output_dir=str(tmp_path / name)).exit_code == 0
        fresh = fresh_python("-m", "fedprompt.cli", "run", str(config), "--out",
                             str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr
        for name in RESULT_FILES:
            expected = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "first" / name).read_bytes() == expected, name
            assert (tmp_path / "second" / name).read_bytes() == expected, name

    def test_jobs_do_not_change_bytes(self, tmp_path):
        assert_jobs_agree(tmp_path)

    def test_run_leaves_no_shared_state(self, tmp_path):
        # a run after another in one process, with the same dataset names and
        # shapes but other data and encoder weights, writes fresh-process bytes
        other = tmp_path / "other.ini"
        other.write_text(SHARED_STATE_CONFIG.replace("[model]\n", "[model]\nseed = 1\n")
                         .replace("[data]\n", "[data]\nnoise_sigma = 0.2\n"))
        assert run(parse_config_text(SHARED_STATE_CONFIG),
                   output_dir=str(tmp_path / "first")).exit_code == 0
        assert run(parse_config(str(other)), output_dir=str(tmp_path / "second")).exit_code == 0
        fresh = fresh_python("-m", "fedprompt.cli", "run", str(other), "--out",
                             str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr
        for name in RESULT_FILES:
            second = (tmp_path / "second" / name).read_bytes()
            assert second == (tmp_path / "fresh" / name).read_bytes(), name
            assert second != (tmp_path / "first" / name).read_bytes(), name

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the patched loaders only when forked")
    def test_workers_never_load_the_run_inputs(self, tmp_path, monkeypatch):
        # the pool's workers run on the state the parent built; a worker that
        # parsed the config or loaded a dataset would fail its cells here
        parent = os.getpid()

        def parent_only(fn):
            def guarded(*args):
                if os.getpid() != parent:
                    raise AssertionError(f"worker called {fn.__name__}")
                return fn(*args)
            return guarded

        monkeypatch.setattr(runner, "parse_config_text", parent_only(parse_config_text))
        monkeypatch.setattr(runner, "materialize_datasets", parent_only(materialize_datasets))
        assert_jobs_agree(tmp_path)

    def test_jobs_do_not_change_bytes_when_workers_unpickle_the_state(self, tmp_path,
                                                                       monkeypatch):
        # test_jobs_do_not_change_bytes forks the workers, which inherit the
        # state as it is; spawned workers unpickle it once each
        monkeypatch.setattr(runner, "_pool_context", lambda: multiprocessing.get_context("spawn"))
        assert_jobs_agree(tmp_path)

    def test_adopted_state_is_read_only_after_unpickling(self, monkeypatch):
        cfg = parse_config_text(SHARED_STATE_CONFIG)
        built = build_run_state(cfg, materialize_datasets(cfg))
        # drawn as a pool's parent draws them
        drawn = {shape: noise.values() for shape, noise in built.noise.items()}
        state = pickle.loads(pickle.dumps(built))
        arrays = [a for master in state.datasets.values() for a in (master.features, master.labels)]
        plans = state.plans.values()
        arrays += [a for plan in plans for a in (*plan.clients, plan.class_ids) if a is not None]
        targets = [target for plan in plans for target in plan.targets]
        assert any(target.suffix for target in targets)  # the cross-domain plans' targets
        arrays += [a for target in targets
                   for a in (target.test.master_indices, target.class_ids, target.test.features,
                             target.test.labels) if a is not None]
        monkeypatch.setattr(rngs, "derive_rng", None)  # an unpickled state draws nothing
        arrays += [state.noise[shape].values() for shape in drawn]
        for shape, values in drawn.items():
            np.testing.assert_array_equal(state.noise[shape].values(), values)
        arrays += [a for assets in state.assets.values()
                   for a in (*assets.encoder.weights.values(), assets.hand_features)]
        assert all(a.flags.writeable for a in arrays)  # what a spawned worker receives
        monkeypatch.setattr(runner, "_worker_state", None)
        runner._adopt_state(state)
        assert runner._worker_state is state
        assert not any(a.flags.writeable for a in arrays)

    def test_region_noise_drawn_once_per_run(self, tmp_path, monkeypatch):
        # both datasets have 36 rows of width 16, so they, their shifted
        # targets and every transport cell share one (36, 2, 16) draw, made
        # inside the first `ensure_local_maps` call (the benchmark's span)
        draws, depth = [], [0]
        derive, ensure = rngs.derive_rng, MasterDataset.ensure_local_maps

        def counting(seed, stream, *extra):
            if stream == rngs.LOCAL_MAP:
                draws.append((seed, depth[0] > 0))
            return derive(seed, stream, *extra)

        def tracking(self, *args):
            depth[0] += 1
            try:
                return ensure(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(rngs, "derive_rng", counting)
        monkeypatch.setattr(MasterDataset, "ensure_local_maps", tracking)
        assert run(parse_config_text(SHARED_STATE_CONFIG),
                   output_dir=str(tmp_path)).exit_code == 0
        assert draws == [(0, True)]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the patched generator only when forked")
    def test_pool_workers_inherit_the_region_noise(self, tmp_path, monkeypatch):
        # the parent draws the kept rows before the pool starts; a worker that
        # drew the stream again would fail its cells here
        parent, draws = os.getpid(), []
        derive = rngs.derive_rng

        def parent_only(seed, stream, *extra):
            if stream == rngs.LOCAL_MAP:
                if os.getpid() != parent:
                    raise AssertionError("a worker drew the region noise")
                draws.append(seed)
            return derive(seed, stream, *extra)

        monkeypatch.setattr(rngs, "derive_rng", parent_only)
        assert_jobs_agree(tmp_path)
        assert draws == [0, 0]  # once by each run, the one with a pool included

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma (15-20 ms) on its first call in a process
        script = ("import sys\nfrom fedprompt import cli\n"
                  "assert cli.main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                  "print('numpy.ma' in sys.modules)\n")
        result = fresh_python("-c", script, str(TOY), str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "False"


class TestRunner:
    def test_toy_run_under_ten_seconds(self, tmp_path):
        cfg = parse_config(str(TOY))
        start = time.monotonic()
        result = run(cfg, output_dir=str(tmp_path / "out"))
        elapsed = time.monotonic() - start
        assert result.exit_code == 0
        assert elapsed < 10.0
        for name in ("results.csv", "results.json", "curves.jsonl"):
            assert (tmp_path / "out" / name).exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(str(TOY))
        run(cfg, output_dir=str(tmp_path / "a"))
        run(cfg, output_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "curves.jsonl").read_bytes() == \
               (tmp_path / "b" / "curves.jsonl").read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = parse_config(str(TOY))
        run(cfg, jobs=1, output_dir=str(tmp_path / "s"))
        run(cfg, jobs=2, output_dir=str(tmp_path / "p"))
        assert (tmp_path / "s" / "results.csv").read_bytes() == \
               (tmp_path / "p" / "results.csv").read_bytes()

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = parse_config(str(TOY))
        result = run(cfg, dry_run=True, output_dir=str(tmp_path / "dry"))
        assert result.exit_code == 0
        assert not (tmp_path / "dry").exists()
        out = capsys.readouterr().out
        assert "would execute" in out

    def test_seed_offset_changes_seed_column(self, tmp_path):
        cfg = parse_config(str(TOY))
        run(cfg, seed_offset=10, output_dir=str(tmp_path / "o"))
        observations = load_results_csv(tmp_path / "o" / "results.csv")
        assert {o.seed for o in observations} == {10, 11}

    def test_cell_plan(self):
        cfg = parse_config(str(TOY))
        cells = plan_cells(cfg)
        assert len(cells) == 1 * 2 * 1 * 2  # scenarios x methods x datasets x seeds

    def test_failure_manifest_and_exit_code(self, tmp_path, capsys):
        # a file dataset that disappears before the run is an input error: one
        # line naming the table, exit 2, and no result file
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(tmp_path / "gone.txt", methods="promptfl,zsclip"))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read feature table ") and err.count("\n") == 1
        assert "gone.txt" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario,protocol,subsample,keys", [
        ("fewshot", "partial", 6, "scenario.shots and federation.num_clients"),
        ("global", "standard", 15, "data.per_class_subsample"),
    ])
    def test_infeasible_partition_fails_before_any_cell(self, tmp_path, capsys, scenario,
                                                        protocol, subsample, keys):
        # 20 samples per class leave 14 for training: too few for one shot on each
        # of 100 clients, or for a balanced subsample of 15 per class
        config = tmp_path / "run.ini"
        config.write_text(f"[experiment]\nscenarios = {scenario}\nmethods = zsclip,promptfl\n"
                          f"seeds = 0\n[federation]\nprotocol = {protocol}\n"
                          "[model]\nd_token = 8\nd_feature = 16\nd_image = 16\n"
                          "[data]\nclasses = 4\nsamples_per_class = 20\n"
                          f"per_class_subsample = {subsample}\n")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {keys}: ") and "'synthetic'" in err
        assert not (tmp_path / "out").exists()
        # zero-shot cells draw no partition, so they run on the same data
        config.write_text(config.read_text().replace("zsclip,promptfl", "zsclip"))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0

    def test_empty_test_slice_fails_before_any_cell(self, tmp_path, capsys):
        # one sample per class: the 70/10/20 split leaves no test row. The plan
        # is drawn before any cell, so `run` names the key; `validate` draws no
        # plan and passes the config
        config = tmp_path / "run.ini"
        config.write_text("[experiment]\nmethods = zsclip\nseeds = 0\n"
                          "[data]\nclasses = 2\nsamples_per_class = 1\n")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: data.samples_per_class: dataset 'synthetic' leaves no test rows to score "
            "for test_accuracy in the global scenario (seed 0)\n")
        assert not (tmp_path / "out").exists()
        assert main(["validate", str(config)]) == 0

    def test_feature_table_without_test_rows_names_the_datasets_key(self, tmp_path, capsys):
        table = tmp_path / "feat.txt"
        dataset = generate_synthetic_dataset(4, 16, 0.1, 1, np.random.default_rng(0))
        save_feature_table(dataset, str(table))
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(table, methods="zsclip"))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data.datasets: dataset 'feat' leaves no test rows ")
        assert not (tmp_path / "out").exists()

    # the learning rate overflows the encoder's arithmetic, quietly, and the
    # finiteness check on its features raises
    def test_a_client_exception_fails_its_cell(self, tmp_path, capsys):
        # every trained method at lr = 1e300: the clients' non-finite logits or
        # costs raise, and each fails its cell rather than leaving the client out
        text = TOY.read_text().replace("methods = promptfl,kgcoop",
                                       f"methods = {','.join(TRAINER_KINDS)}")
        config = tmp_path / "run.ini"
        config.write_text(text.replace("[federation]\n", "[federation]\nlr = 1e300\n"))
        assert len(TRAINER_KINDS) == 8
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "cell(s) failed; see failures.json" in capsys.readouterr().err
        failures = json.loads((tmp_path / "out" / "failures.json").read_text())
        assert failures
        for failure in failures:
            last = failure["error"].strip().splitlines()[-1]
            assert last.startswith("fedprompt.errors.DomainError: "), failure

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(config=valid_configs())
    def test_a_valid_config_fails_before_any_file_or_runs_every_cell(self, tmp_path_factory,
                                                                      config):
        out = tmp_path_factory.mktemp("run") / "out"
        try:
            result = run(desk_sized(config), output_dir=str(out))
        except ConfigError:
            assert not out.exists()
            return
        assert result.exit_code == 0 and result.failures == [], result.failures
        assert result.observations and all(np.isfinite(o.value) for o in result.observations)
        rows = [json.loads(line) for line in (out / "curves.jsonl").read_text().splitlines()]
        assert all(np.isfinite(row["train_loss"]) for row in rows
                   if row["train_loss"] is not None)

    def test_saturated_softmax_keeps_the_kl_terms_finite(self, tmp_path):
        # at tau = 1e-6 the softmax of both KL-regularised methods holds exact
        # zeros; their KL terms come from the log-softmax, so every cell
        # finishes and every train loss is finite
        text = TOY.read_text().replace("methods = promptfl,kgcoop",
                                       "methods = promptfl,prograd,src")
        config = tmp_path / "run.ini"
        config.write_text(text.replace("[model]\n", "[model]\ntau = 1e-6\n"))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        curves = (tmp_path / "out" / "curves.jsonl").read_text()
        assert "NaN" not in curves
        losses = [json.loads(line)["train_loss"] for line in curves.splitlines()]
        assert len(losses) == 18 and all(np.isfinite(losses))

    @pytest.mark.parametrize("text,where", [
        ("# d=-1 classes=4\n0,0\n", ":1: "),
        ("# d=16 classes=0\n", ":1: "),
        ("# d=2 classes=4\n0,0,0.5,0.5\n0,0,0.5,x\n", ":3: "),
        ("# d=2 classes=4\n0,0,0.5,0.5\n0,1.5,0.5,0.5\n", ":3: "),  # a domain tag
    ])
    def test_bad_feature_table_is_an_input_error(self, tmp_path, capsys, text, where):
        table = tmp_path / "feat.txt"
        table.write_text(text)
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(table, methods="promptfl,zsclip"))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}{where}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_successful_rerun_removes_stale_failures(self, tmp_path, monkeypatch):
        table = tmp_path / "feat.txt"
        write_table(table, seed=0)
        cfg = parse_config_text(table_config_text(table, methods="promptfl,zsclip"))
        cell = runner.run_cell

        def failing_cell(state, scenario, method, dataset, seed):
            if method == "zsclip":
                raise RuntimeError("cell failed")
            return cell(state, scenario, method, dataset, seed)

        monkeypatch.setattr(runner, "run_cell", failing_cell)
        assert run(cfg, output_dir=str(tmp_path / "out")).exit_code == 1
        manifest = json.loads((tmp_path / "out" / "failures.json").read_text())
        assert [entry["cell"]["method"] for entry in manifest] == ["zsclip"]
        assert "cell failed" in manifest[0]["error"]
        monkeypatch.setattr(runner, "run_cell", cell)
        assert run(cfg, output_dir=str(tmp_path / "out")).exit_code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["curves.jsonl", "results.csv", "results.json"]

    def test_rerun_removes_stale_reports(self, tmp_path):
        out = tmp_path / "out"
        toy = parse_config(str(TOY))
        assert run(toy, output_dir=str(out)).exit_code == 0
        report(str(out))
        assert "kgcoop" in (out / "report_global_alpha_g.csv").read_text()
        stale_curve = out / "costcurve_kgcoop.csv"  # as a cost_tradeoff run would leave
        stale_curve.write_text("params_millions,accuracy,dataset\n")
        assert run(replace(toy, methods=["promptfl"]), output_dir=str(out)).exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(RESULT_FILES)
        report(str(out))
        assert "kgcoop" not in (out / "report_global_alpha_g.csv").read_text()
        assert not list(out.glob(".*.tmp"))

    def test_pool_never_larger_than_the_cell_count(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the requested size and runs the cells in this process."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(runner, "_worker_state", None)
        cfg = parse_config(str(TOY))  # 4 cells
        for jobs in (64, 3, 1):
            assert run(cfg, jobs=jobs, output_dir=str(tmp_path / str(jobs))).exit_code == 0
        assert sizes == [4, 3]

    def test_datasets_loaded_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return materialize_datasets(config)

        monkeypatch.setattr(runner, "materialize_datasets", counting)
        cfg = parse_config(str(TOY))
        for name in ("first", "second"):
            assert run(cfg, output_dir=str(tmp_path / name)).exit_code == 0
        assert len(plan_cells(cfg)) == 4 and len(calls) == 2
        # each run loads the config the cells run under: the one it serialized
        assert calls[0] == calls[1] == parse_config_text(serialize_config(cfg))

    def test_second_run_reads_rewritten_table(self, tmp_path):
        table = tmp_path / "t" / "feat.txt"
        table.parent.mkdir()
        cfg = parse_config_text(table_config_text(table))
        write_table(table, seed=0)
        run(cfg, output_dir=str(tmp_path / "first"))
        write_table(table, seed=1)
        run(cfg, output_dir=str(tmp_path / "second"))
        # reference: the rewritten table under another directory, same column name
        fresh = tmp_path / "fresh" / "feat.txt"
        fresh.parent.mkdir()
        write_table(fresh, seed=1)
        run(parse_config_text(table_config_text(fresh)), output_dir=str(tmp_path / "ref"))
        for name in ("results.csv", "curves.jsonl"):
            second = (tmp_path / "second" / name).read_bytes()
            assert second == (tmp_path / "ref" / name).read_bytes()
            assert second != (tmp_path / "first" / name).read_bytes()

    def test_results_csv_schema(self, tmp_path):
        cfg = parse_config(str(TOY))
        run(cfg, output_dir=str(tmp_path / "out"))
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == "scenario,method,dataset,seed,metric,value"
        # one observation per row, value parses as float
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            float(parts[5])

    def test_results_json_is_the_tree_of_results_csv(self, tmp_path):
        run(parse_config(str(TOY)), output_dir=str(tmp_path / "out"))
        tree = runner._results_tree(load_results_csv(tmp_path / "out" / "results.csv"))
        assert json.loads((tmp_path / "out" / "results.json").read_text()) == tree


class TestReport:
    def _results_with_reference_means(self, tmp_path):
        # inject per-dataset means reproducing the shared-model comparison
        datasets = ["caltech", "dtd", "aircraft", "food", "cars", "flowers", "pets", "ucf"]
        rows = {
            "promptfl": [91.5, 57.6, 22.8, 79.2, 62.0, 84.0, 89.4, 70.1],
            "fedotp": [91.8, 58.0, 21.9, 78.7, 62.8, 83.3, 89.1, 69.4],
            "kgcoop": [91.8, 58.2, 23.0, 79.4, 61.7, 83.9, 89.4, 70.4],
        }
        lines = ["scenario,method,dataset,seed,metric,value"]
        for method, means in rows.items():
            for dataset, mean in zip(datasets, means):
                lines.append(f"global,{method},{dataset},0,alpha_g,{mean!r}")
        out = tmp_path / "inj"
        out.mkdir()
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        return out

    def test_superiority_column_reproduces_reference_counts(self, tmp_path):
        out = self._results_with_reference_means(tmp_path)
        report(str(out))
        grid = (out / "report_global_alpha_g.csv").read_text().splitlines()
        header = grid[0].split(",")
        assert header[-1] == "#"
        by_method = {line.split(",")[0]: line.split(",")[-1] for line in grid[1:]}
        assert by_method["fedotp"] == "3"
        assert by_method["kgcoop"] == "5"
        assert by_method["promptfl"] == "-"

    def test_single_method_grid_has_no_superiority_column(self, tmp_path):
        out = tmp_path / "single"
        out.mkdir()
        (out / "results.csv").write_text(
            "scenario,method,dataset,seed,metric,value\n"
            "global,src,synthetic,0,alpha_g,50.0\n"
        )
        report(str(out))
        grid = (out / "report_global_alpha_g.csv").read_text().splitlines()
        assert grid[0] == "method,synthetic"
        assert len(grid) == 2

    def test_cost_curve_sorted_by_params(self, tmp_path):
        out = tmp_path / "cost"
        out.mkdir()
        lines = ["scenario,method,dataset,seed,metric,value"]
        for prompts, chi, acc in ((2, 4.1, 52.0), (1, 2.05, 51.0), (4, 8.19, 53.0)):
            lines.append(f"cost_tradeoff,promptfl,synthetic|prompts={prompts},0,chi_millions,{chi!r}")
            lines.append(f"cost_tradeoff,promptfl,synthetic|prompts={prompts},0,alpha_g,{acc!r}")
        (out / "results.csv").write_text("\n".join(lines) + "\n")
        report(str(out))
        curve = (out / "costcurve_promptfl.csv").read_text().splitlines()
        params = [float(line.split(",")[0]) for line in curve[1:]]
        assert params == sorted(params)

    def test_incomplete_grid(self, tmp_path):
        out = tmp_path / "gaps"
        out.mkdir()
        rows = ["global,promptfl,a,0,alpha_g,50.0", "global,promptfl,b,0,alpha_g,50.0",
                "global,kgcoop,a,0,alpha_g,60.0",
                "global,fedotp,a,0,alpha_g,60.0", "global,fedotp,b,0,alpha_g,40.0",
                "fewshot,promptfl,a,0,alpha_fs_1,50.0",
                "fewshot,kgcoop,a,0,alpha_fs_1,60.0", "fewshot,kgcoop,b,0,alpha_fs_1,60.0"]
        (out / "results.csv").write_text(
            "\n".join(["scenario,method,dataset,seed,metric,value", *rows]) + "\n")
        summary = report(str(out))
        # kgcoop misses dataset b: a blank cell and no count
        assert (out / "report_global_alpha_g.csv").read_text().splitlines() == [
            "method,a,b,#", "fedotp,60.0±0.0,40.0±0.0,1", "kgcoop,60.0±0.0,,-",
            "promptfl,50.0±0.0,50.0±0.0,-"]
        # the baseline misses dataset b: no superiority column
        assert (out / "report_fewshot_alpha_fs_1.csv").read_text().splitlines() == [
            "method,a,b", "kgcoop,60.0±0.0,60.0±0.0", "promptfl,50.0±0.0,"]
        assert summary.splitlines()[0] == \
            "[fewshot/alpha_fs_1] baseline 'promptfl' missing; superiority column omitted"
        assert "[global/alpha_g]" not in summary
        # each grid's header says what its cells and its `#` column are
        assert "# fewshot / alpha_fs_1: mean±std over 1 seed(s), population std (ddof = 0)" \
            in summary.splitlines()
        assert ("# global / alpha_g: mean±std over 1 seed(s), population std (ddof = 0); "
                "# = datasets where the mean strictly beats promptfl's") in summary.splitlines()

    def test_grid_cells_are_population_std_over_the_seeds(self, tmp_path):
        out = tmp_path / "spread"
        out.mkdir()
        rows = ["global,promptfl,a,0,alpha_g,50.0", "global,promptfl,a,1,alpha_g,52.0",
                "global,kgcoop,a,0,alpha_g,60.0"]
        (out / "results.csv").write_text(
            "\n".join(["scenario,method,dataset,seed,metric,value", *rows]) + "\n")
        summary = report(str(out))
        # ddof = 0: 51.0±1.0, where the sample std would print ±1.4
        assert (out / "report_global_alpha_g.csv").read_text().splitlines() == [
            "method,a,#", "kgcoop,60.0±0.0,1", "promptfl,51.0±1.0,-"]
        assert summary.splitlines()[0].startswith(
            "# global / alpha_g: mean±std over 1-2 seed(s), population std (ddof = 0)")

    @pytest.mark.parametrize("rows,where", [
        (["global,src,synthetic,0,alpha_g"], "results.csv:2: malformed row"),
        (["global,src,synthetic,zero,alpha_g,50.0"], "results.csv:2: malformed row"),
        (["global,src,synthetic,0,alpha_g,50.0", "global,src,synthetic,1,alpha_g,nan"],
         "results.csv:3: malformed row: value 'nan' is not finite"),
        (["global,src,synthetic,0,alpha_g,50.0", "global,src,synthetic,1,alpha_g,52.0",
          "global,src,synthetic,0,alpha_g,50.0"], "results.csv:4: repeats"),
    ])
    def test_bad_row_is_an_input_error(self, tmp_path, capsys, rows, where):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "results.csv").write_text(
            "\n".join(["scenario,method,dataset,seed,metric,value", *rows]) + "\n")
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not list(out.glob("report_*.csv"))

    def test_report_removes_the_files_of_an_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "rereport"
        out.mkdir()
        header = "scenario,method,dataset,seed,metric,value"
        global_rows = ["global,promptfl,a,0,alpha_g,50.0", "global,promptfl,a,0,chi_millions,1.0"]
        cost_rows = ["cost_tradeoff,promptfl,a|prompts=1,0,alpha_g,50.0",
                     "cost_tradeoff,promptfl,a|prompts=1,0,chi_millions,2.0"]
        (out / "results.csv").write_text("\n".join([header, *global_rows, *cost_rows]) + "\n")
        report(str(out))
        written = sorted(p.name for p in out.glob("*_*.csv"))
        assert written == ["costcurve_promptfl.csv", "report_cost_tradeoff_alpha_g.csv",
                           "report_global_alpha_g.csv", "report_global_chi_millions.csv"]
        # a malformed results.csv leaves the directory as it was
        (out / "results.csv").write_text(header + "\nglobal,promptfl,a,0,alpha_g\n")
        assert main(["report", str(out)]) == 2
        assert sorted(p.name for p in out.glob("*_*.csv")) == written
        # a results.csv of one scenario leaves only that scenario's files
        (out / "results.csv").write_text("\n".join([header, *global_rows]) + "\n")
        report(str(out))
        assert sorted(p.name for p in out.glob("*_*.csv")) == [
            "report_global_alpha_g.csv", "report_global_chi_millions.csv"]

    def test_missing_results_dir_is_an_input_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path / 'nowhere' / 'results.csv'}")
        assert err.count("\n") == 1


class TestCLI:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(TOY)]) == 0
        assert "cells planned" in capsys.readouterr().out

    @pytest.mark.parametrize("config,golden", [(TOY, "toy.ini.txt"), (None, "empty.txt")])
    def test_validate_output_matches_golden(self, tmp_path, capsys, config, golden):
        # pins key order and value formatting, which a round trip would not notice
        if config is None:
            config = tmp_path / "empty.ini"
            config.write_text("")
        assert main(["validate", str(config)]) == 0
        assert capsys.readouterr().out == (VALIDATE_GOLDEN / golden).read_text()

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[federation]\nrounds = -1\n")
        assert main(["validate", str(bad)]) == 2
        assert "federation.rounds" in capsys.readouterr().err

    def test_validate_rejects_zero_eval_every(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[federation]\neval_every = 0\n")
        assert main(["validate", str(bad)]) == 2
        assert "federation.eval_every" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("[model]\ntau = nan\n", "model.tau"),
        ("[federation]\nlr = inf\n", "federation.lr"),
        ("[model]\nprompts = 0\n", "model.prompts"),
        ("[data]\nnoise_sigma = -1\n", "data.noise_sigma"),
        ("[federation]\nnum_clients = " + "9" * 400 + "\n", "federation.num_clients"),
        ("[data]\ndatasets =\n", "data.datasets"),
        ("[federation]\nprotocol = personalized\n", "federation.protocol"),
    ])
    def test_validate_names_the_bad_key(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("header,where", [
        (None, "error: cannot read feature table {table}: "),  # no such file
        ("# dims=16 classes=4", "error: {table}:1: malformed header "),
        ("# d=16 classes=0", "error: {table}:1: header "),
        ("# d=8 classes=4", "error: {table}:1: feature width 8 does not match model.d_image 16"),
    ])
    def test_validate_checks_feature_table_headers(self, tmp_path, capsys, header, where):
        table = tmp_path / "feat.txt"
        if header is not None:
            table.write_text(header + "\n0,0,0.5\n")
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(table))
        assert main(["validate", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(where.format(table=table))

    def test_undecodable_feature_table_is_an_input_error(self, tmp_path, capsys):
        table = tmp_path / "feat.txt"
        table.write_bytes(b"# d=16 classes=4\n0,0,\xff\n")  # not UTF-8
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(table))
        for command in (["validate", str(config)],
                        ["run", str(config), "--out", str(tmp_path / "out")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read feature table {table}: ")
            assert "can't decode" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_validate_leaves_the_table_body_to_run(self, tmp_path, capsys):
        table = tmp_path / "feat.txt"
        table.write_text("# d=16 classes=4\n0,0,not a row\n")
        config = tmp_path / "run.ini"
        config.write_text(table_config_text(table))
        assert main(["validate", str(config)]) == 0
        assert capsys.readouterr().out.endswith("# ok: 1 cells planned\n")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {table}:2: ")

    def test_unreachable_synthetic_prototypes_fail_before_any_file(self, tmp_path, capsys):
        # the draw cannot place 10 prototypes with pairwise |cos| < 0.5 in 4
        # dimensions; the config parses, and each command that draws them fails
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nd_token = 8\nd_feature = 4\nd_image = 4\n"
                       "[data]\nclasses = 10\n")
        assert parse_config(str(bad)).model.d_image == 4
        out = str(tmp_path / "out")
        for argv in (["validate", str(bad)], ["run", str(bad), "--dry-run", "--out", out],
                     ["run", str(bad), "--out", out]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: model.d_image: 4 dimensions cannot hold "
                                           "data.classes = 10 ")
        assert not (tmp_path / "out").exists()

    def test_each_command_draws_each_synthetic_entry_once(self, tmp_path, capsys, monkeypatch):
        draws = []
        draw = data._near_orthogonal_prototypes

        def counting(classes, width, rng):
            draws.append((classes, width))
            return draw(classes, width, rng)

        monkeypatch.setattr(data, "_near_orthogonal_prototypes", counting)
        config = tmp_path / "run.ini"
        config.write_text(TOY.read_text().replace("datasets = synthetic\n",
                                                  "datasets = synthetic,synthetic#3\n"))
        out = str(tmp_path / "out")
        for argv in (["validate", str(config)], ["run", str(config), "--dry-run", "--out", out],
                     ["run", str(config), "--out", out]):
            draws.clear()
            assert main(argv) == 0, capsys.readouterr().err
            assert draws == [(4, 16), (4, 16)], argv

    @pytest.mark.parametrize("text,key", [
        ("[data]\nnoise_sigma = -1\n", "data.noise_sigma"),
        ("[data]\nsamples_per_class = 0\n", "data.samples_per_class"),
    ])
    def test_run_rejects_bad_synthetic_data_before_any_cell(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nmethods = zsclip,promptfl\nseeds = 0\n" + text)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", [
        ("[data]\nper_class_subsample = 0\n", "data.per_class_subsample"),
        ("[data]\nper_class_subsample = -1\n", "data.per_class_subsample"),
        ("[federation]\nprotocol = partial\nnum_clients = 3\nparticipation_fraction = 0.1\n",
         "federation.participation_fraction"),
    ])
    def test_run_rejects_untrainable_values_before_any_cell(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nmethods = zsclip,promptfl\nseeds = 0\n" + text)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", [
        # a repeated entry would run its cells again and write duplicate rows
        ("[experiment]\nmethods = promptfl,promptfl\nseeds = 0,0\n", "experiment.methods"),
        ("[experiment]\nseeds = 0,1,00\n", "experiment.seeds"),
        ("[experiment]\nscenarios = global,personalized,global\n", "experiment.scenarios"),
    ] + JSON_SCALAR_CASES + JSON_ONE_VALUE_LIST_CASES)
    def test_run_rejects_repeats_and_non_ini_json_scalars(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", JSON_LIST_CASES)
    def test_run_reads_each_json_list_entry_as_one_entry(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", [
        ("[experiment]\nmethods = zsclip\nseeds = 0,-1\n", "experiment.seeds"),
        ("[experiment]\nmethods = zsclip\n[model]\nseed = -3\n", "model.seed"),
        ("[data]\ndatasets = synthetic#-1\n", "data.datasets"),
    ])
    def test_negative_seeds_rejected_at_parse_time(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        for flags in ([], ["--dry-run"]):
            assert main(["run", str(TOY), "--jobs", jobs, "--out", str(tmp_path / "out"),
                         *flags]) == 2
            assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_offset_making_a_seed_negative_rejected(self, tmp_path, capsys):
        # toy.ini plans seeds 0 and 1
        assert main(["run", str(TOY), "--seed-offset", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "error: --seed-offset -1 makes experiment.seeds entry 0 negative" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["run", str(TOY), "--seed-offset", "-1", "--dry-run"]) == 2

    def test_run_rejects_duplicate_datasets(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\ndatasets = synthetic,synthetic\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "data.datasets" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_and_report(self, tmp_path, capsys):
        rc = main(["run", str(TOY), "--out", str(tmp_path / "out")])
        assert rc == 0
        rc = main(["report", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "global / alpha_g" in out

    def test_dry_run_flag(self, tmp_path, capsys):
        rc = main(["run", str(TOY), "--dry-run", "--out", str(tmp_path / "x")])
        assert rc == 0
        assert not (tmp_path / "x").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDPROMPT_OUT", str(tmp_path / "env_out"))
        rc = main(["run", str(TOY)])
        assert rc == 0
        assert (tmp_path / "env_out" / "results.csv").exists()
