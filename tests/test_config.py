"""The field rules every config section shares: types, finiteness and
unknown fields, each checked at construction and naming the field."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fortress._config import check_number, is_integer
from fortress.model import TrainConfig
from fortress.pipeline import EvalConfig, PipelineConfig
from fortress.synth import SynthConfig

SECTIONS = (TrainConfig, SynthConfig, PipelineConfig, EvalConfig)

# bad values for each field annotation; NaN and ±inf only for float fields
BAD_BY_TYPE = {
    "int": (2.5, 1000.0, True, "7", None),
    "float": ("0.1", None, True, math.nan, math.inf, -math.inf),
    "str": (5, None, b"strict"),
}
# fields of another annotation, which their section checks itself
BAD_BY_NAME = {
    "train": ({"rounds": 5}, None),
    "fractions": ((math.nan, 0.5, 0.5), ("0.7", "0.15", "0.15"), (True, False, False),
                  (None, 0.5, 0.5), "abc", 5),
    "candidates": (2.5, True, "many", math.nan, None),
}
# fields whose messages name them in words
NAMED_AS = {"bootstrap_b": "bootstrap resamples", "candidates": "candidate count"}


def _bad_field_cases():
    for cls in SECTIONS:
        for f in dataclasses.fields(cls):
            # a field of a new annotation fails here until the tables cover it
            bad = BAD_BY_NAME[f.name] if f.name in BAD_BY_NAME else BAD_BY_TYPE[f.type]
            for value in bad:
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", _bad_field_cases())
def test_bad_value_in_any_field_is_refused_by_name(cls, name, value):
    with pytest.raises(ValueError) as exc:
        cls(**{name: value})
    assert NAMED_AS.get(name, name) in str(exc.value)


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (TrainConfig, {"rounds": 2.5}, "rounds must be an integer, got 2.5"),
        (TrainConfig, {"max_depth": True}, "max_depth must be an integer, got True"),
        (TrainConfig, {"seed": "7"}, "seed must be an integer, got '7'"),
        (TrainConfig, {"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
        (TrainConfig, {"min_child_hessian": math.nan}, "min_child_hessian must be finite, got nan"),
        (TrainConfig, {"gain_threshold": -math.inf}, "gain_threshold must be finite, got -inf"),
        (SynthConfig, {"n_entities": 2.5}, "n_entities must be an integer, got 2.5"),
        (SynthConfig, {"sigma_sr": math.nan}, "sigma_sr must be finite, got nan"),
        (SynthConfig, {"sigma_eng": -0.1}, "sigma_eng must be >= 0, got -0.1"),
        (PipelineConfig, {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (PipelineConfig, {"salt": 5}, "salt must be a string, got 5"),
        (PipelineConfig, {"epsilon": math.inf}, "epsilon must be finite, got inf"),
        (PipelineConfig, {"train": None}, "train must be a TrainConfig, got None"),
        (PipelineConfig, {"fractions": ["0.7", "0.15", "0.15"]},
         "fractions must be a number, got '0.7'"),
        (PipelineConfig, {"fractions": 5}, "fractions must have exactly 3 entries"),
        (EvalConfig, {"level": math.nan}, "level must be in (0, 1), got nan"),
        (SynthConfig, {"seed": -2}, "seed must be >= 0, got -2"),
    ],
)
def test_messages(cls, kwargs, message):
    with pytest.raises(ValueError) as exc:
        cls(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "cls, section", [(TrainConfig, "train"), (SynthConfig, "synth"),
                     (PipelineConfig, "pipeline"), (EvalConfig, "eval")],
)
def test_unknown_fields_are_refused_naming_the_section(cls, section):
    with pytest.raises(ValueError) as exc:
        cls.from_dict({"bogus": 1})
    assert str(exc.value) == f"unknown {section} config fields: ['bogus']"


def test_nested_train_section_is_checked():
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_dict({"train": {"rounds": 2.5}})
    assert str(exc.value) == "rounds must be an integer, got 2.5"


def test_fractions_become_a_tuple_of_floats():
    assert PipelineConfig.from_dict({"fractions": [1, 0, 0]}).fractions == (1.0, 0.0, 0.0)
    assert PipelineConfig(fractions=[0.8, 0.1, 0.1]) == PipelineConfig(fractions=(0.8, 0.1, 0.1))


def test_numpy_numbers_are_accepted():
    cfg = TrainConfig(rounds=np.int64(5), learning_rate=np.float32(0.5), l2_lambda=2, seed=np.int32(3))
    assert cfg.rounds == 5 and cfg.l2_lambda == 2
    assert SynthConfig(n_entities=np.int16(4), sigma_eng=np.float64(0.1)).n_entities == 4


@pytest.mark.parametrize("cls", SECTIONS)
def test_dict_round_trip(cls):
    cfg = cls()
    assert cls.from_dict(cfg.to_dict()) == cfg


def test_eval_section_dict():
    assert EvalConfig().to_dict() == {"bootstrap_b": 1000, "level": 0.95}
    assert EvalConfig.from_dict({"level": 0.9}) == EvalConfig(bootstrap_b=1000, level=0.9)


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (np.int32(3), True), (np.uint64(3), True), (True, False),
     (np.bool_(True), False), (3.0, False), ("3", False), (None, False)],
)
def test_is_integer(value, expected):
    assert is_integer(value) is expected


@pytest.mark.parametrize("value", [True, "1", None, [1.0], complex(1, 0)])
def test_check_number_refuses_non_numbers(value):
    with pytest.raises(ValueError, match="^x must be a number, got "):
        check_number(value, "x")


@pytest.mark.parametrize("section", [5, None, "x", [("rounds", 5)]])
@pytest.mark.parametrize("cls", SECTIONS)
def test_a_section_that_is_not_an_object_is_refused(cls, section):
    with pytest.raises(ValueError) as exc:
        cls.from_dict(section)
    assert str(exc.value) == f"the {cls.section} config section must be an object, got {section!r}"


@pytest.mark.parametrize("section", [5, None, "x"])
def test_a_nested_train_section_that_is_not_an_object_is_refused(section):
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_dict({"train": section})
    assert str(exc.value) == f"the train config section must be an object, got {section!r}"
