import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from avprune import InvalidInput, PruneScheduleConfig, ScheduleKind, Selector, TdsConfig
from avprune.config import DEFAULTS, ExperimentConfig


def test_defaults_resolve_and_validate():
    cfg = ExperimentConfig.resolve()
    assert cfg.raw["schedule"]["t_mid"] == 0.5
    assert cfg.raw["schedule"]["beta"] == 20.0
    assert cfg.raw["tds"]["lambda_div"] == 0.2
    assert cfg.raw["tds"]["start_layer"] == 14
    assert cfg.raw["intra"]["audio_keep"] == 0.7
    assert cfg.raw["intra"]["video_prune_rate"] == 0.8
    assert cfg.selector is Selector.TDS
    assert cfg.schedule.kind is ScheduleKind.SIGMOID


def test_file_overrides_defaults_and_flags_override_file():
    document = {"schedule": {"p_final": 0.3}, "selector": "plain"}
    cfg = ExperimentConfig.resolve(document)
    assert cfg.raw["schedule"]["p_final"] == 0.3
    assert cfg.selector is Selector.PLAIN
    cfg2 = ExperimentConfig.resolve(document, overrides={"schedule.p_final": 0.4, "selector": "random"})
    assert cfg2.raw["schedule"]["p_final"] == 0.4
    assert cfg2.selector is Selector.RANDOM


def test_unknown_keys_name_the_path():
    with pytest.raises(InvalidInput, match="schedule.p_fnial"):
        ExperimentConfig.resolve({"schedule": {"p_fnial": 0.3}})
    with pytest.raises(InvalidInput, match="wheels"):
        ExperimentConfig.resolve({"wheels": 4})
    with pytest.raises(InvalidInput, match="tds.gamma"):
        ExperimentConfig.resolve(None, overrides={"tds.gamma": 1})


def test_range_violations_name_the_path():
    with pytest.raises(InvalidInput, match="schedule.p_final"):
        ExperimentConfig.resolve({"schedule": {"p_final": 1.5}})
    with pytest.raises(InvalidInput, match="sequence.query_len"):
        ExperimentConfig.resolve({"sequence": {"query_len": 0}})
    with pytest.raises(InvalidInput, match="model.d"):
        ExperimentConfig.resolve({"model": {"d": 30, "heads": 4}})
    with pytest.raises(InvalidInput, match="intra.frames_per_chunk"):
        ExperimentConfig.resolve(
            {"intra": {"enabled": True, "frames_per_chunk": 3}, "sequence": {"n_v": 288}}
        )
    with pytest.raises(InvalidInput, match="schedule.p_init"):
        ExperimentConfig.resolve({"schedule": {"kind": "exponential", "p_init": 0.0}})


def test_sizes_stay_in_int64_and_arrays_numpy_can_size():
    with pytest.raises(InvalidInput, match="tds.start_layer: must fit in a signed 64-bit integer"):
        ExperimentConfig.resolve({"tds": {"start_layer": 2**63}})
    cfg = ExperimentConfig.resolve({"sequence": {"seed": 2**80}, "model": {"seed": -(2**70)}})
    assert (cfg.raw["sequence"]["seed"], cfg.raw["model"]["seed"]) == (2**80, -(2**70))  # masked when drawn
    # The default's 684 other tokens plus sys_len; 4 * n0**2 bytes of scores fit up to n0 = 1518500249.
    ExperimentConfig.resolve({"sequence": {"sys_len": 1518500249 - 684}})
    with pytest.raises(InvalidInput, match="sequence.sys_len: 1518500250 tokens'"):
        ExperimentConfig.resolve({"sequence": {"sys_len": 1518500250 - 684}})
    with pytest.raises(InvalidInput, match="sequence.n_v: "):
        ExperimentConfig.resolve({"sequence": {"chunks": 2**40}})
    # 8 * 12 * 32**2 bytes of draws per layer fit up to 93824992236885 layers.
    ExperimentConfig.resolve({"model": {"layers": 93824992236885}})
    with pytest.raises(InvalidInput, match="model.layers: the decoder's"):
        ExperimentConfig.resolve({"model": {"layers": 93824992236886}})
    with pytest.raises(InvalidInput, match="model.d: the decoder's"):
        ExperimentConfig.resolve({"sequence": {"d": 2**31}, "model": {"d": 2**31}})


def test_model_dim_must_match_sequence_dim():
    with pytest.raises(InvalidInput, match="model.d"):
        ExperimentConfig.resolve({"model": {"d": 64}})
    cfg = ExperimentConfig.resolve({"model": {"d": 64}, "sequence": {"d": 64}})
    assert cfg.raw["model"]["d"] == 64


def test_digest_tracks_content():
    a = ExperimentConfig.resolve()
    b = ExperimentConfig.resolve()
    c = ExperimentConfig.resolve({"sequence": {"seed": 5}})
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.digest) == 16


def test_defaults_are_not_mutated():
    before = repr(DEFAULTS)
    cfg = ExperimentConfig.resolve({"schedule": {"p_final": 0.9}})
    assert cfg.raw["schedule"]["p_final"] == 0.9
    assert repr(DEFAULTS) == before


def test_builders_produce_consistent_objects():
    cfg = ExperimentConfig.resolve({"sequence": {"chunks": 1, "n_v": 8, "n_a": 4, "d": 16},
                                    "model": {"layers": 4, "heads": 2, "d": 16}})
    seq = cfg.build_sequence()
    model = cfg.build_model()
    assert seq.d == model.d == 16
    assert seq.tokens.is_audiovisual.sum() == 12
    assert cfg.schedule.layers == model.layers == 4


def test_typed_objects_refuse_non_finite_numbers():
    with pytest.raises(InvalidInput, match="lambda_div"):
        TdsConfig(lambda_div=float("nan"))
    with pytest.raises(InvalidInput, match="lambda_div"):
        TdsConfig(lambda_div=math.inf)


def test_enum_errors_list_the_choices():
    with pytest.raises(InvalidInput, match=r"schedule.kind: must be one of \['exponential', 'sigmoid'\]"):
        ExperimentConfig.resolve({"schedule": {"kind": "step"}})
    with pytest.raises(InvalidInput, match=r"selector: must be one of \['plain', 'random', 'tds'\]"):
        ExperimentConfig.resolve(None, overrides={"selector": "greedy"})


WRONG_TYPES = {
    "schedule.beta": math.inf,
    "schedule.t_mid": math.nan,
    "tds.lambda_div": -math.inf,
    "intra.audio_keep": math.nan,
    "sequence.seed": 1.0,
    "intra.enabled": 1,
    "workers": True,
    "selector": 5,
    "schedule.p_final": 10**400,  # an int too large for a float
}


@pytest.mark.parametrize("path, value", WRONG_TYPES.items(), ids=list(WRONG_TYPES))
def test_each_key_takes_the_json_type_of_its_default(path, value):
    with pytest.raises(InvalidInput, match=path):
        ExperimentConfig.resolve(None, overrides={path: value})


def test_schedule_layers_are_reported_as_model_layers():
    with pytest.raises(InvalidInput, match="model.layers"):
        ExperimentConfig.resolve({"model": {"layers": 2}})


def test_section_values_merge_into_the_section():
    whole = ExperimentConfig.resolve(None, overrides={"tds": {"lambda_div": 0.1}})
    dotted = ExperimentConfig.resolve(None, overrides={"tds.lambda_div": 0.1})
    assert whole.raw == dotted.raw and whole.digest == dotted.digest
    assert ExperimentConfig.resolve({"schedule": {}}).digest == ExperimentConfig.resolve().digest
    with pytest.raises(InvalidInput, match="sequence"):
        ExperimentConfig.resolve(None, overrides={"sequence": 5})


def test_raw_keeps_values_as_given():
    cfg = ExperimentConfig.resolve(None, overrides={"schedule.p_final": 0})
    assert type(cfg.raw["schedule"]["p_final"]) is int
    assert cfg.schedule.p_final == 0.0


def test_typed_objects_are_built_once():
    # resolve builds them and keeps them as fields; nothing rebuilds them on access.
    cfg = ExperimentConfig.resolve()
    assert {"schedule", "tds"} <= {f.name for f in dataclasses.fields(cfg)}
    assert isinstance(cfg.schedule, PruneScheduleConfig) and isinstance(cfg.tds, TdsConfig)


# Property test: any document and --set map either resolves or raises
# InvalidInput, never another exception. Derandomized like the reader fuzzers.

NAMES = sorted({*DEFAULTS, *(k for v in DEFAULTS.values() if isinstance(v, dict) for k in v)})
KEYS = st.sampled_from(NAMES) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=6,
)
# Leaves are mostly values some key accepts, so that many drawn configs resolve.
LEAVES = st.sampled_from([0, 1, 3, 16, 32, 0.5, 0.9, True, False, "plain", "exponential"]) | JSON_VALUES
JUNK = st.just({}) | st.dictionaries(KEYS, JSON_VALUES, max_size=1)


def _section(default):
    if not isinstance(default, dict):
        return LEAVES
    keys = st.fixed_dictionaries({}, optional={key: LEAVES for key in default})
    return st.builds(lambda a, b: {**a, **b}, keys, JUNK) | JSON_VALUES


DOCUMENTS = st.builds(
    lambda a, b: {**a, **b},
    st.fixed_dictionaries({}, optional={name: _section(v) for name, v in DEFAULTS.items()}),
    JUNK,
)
PATHS = st.sampled_from(
    [*DEFAULTS, *(f"{name}.{key}" for name, v in DEFAULTS.items() if isinstance(v, dict) for key in v)]
) | st.lists(KEYS, min_size=1, max_size=3).map(".".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    document=DOCUMENTS,
    overrides=st.dictionaries(PATHS, LEAVES | DOCUMENTS, max_size=3),
)
def test_resolve_fuzz(document, overrides):
    try:
        cfg = ExperimentConfig.resolve(document, overrides)
    except InvalidInput:
        return
    json.dumps(cfg.raw, allow_nan=False)  # every number is finite
    assert cfg.raw.keys() == DEFAULTS.keys()
    assert cfg.schedule.layers == cfg.raw["model"]["layers"]
    assert cfg.tds.lambda_div == cfg.raw["tds"]["lambda_div"]
    assert cfg.selector.value == cfg.raw["selector"]
