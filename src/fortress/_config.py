"""Field rules shared by the config sections: ``train``, ``synth``,
``pipeline`` and ``eval``."""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Mapping

import numpy as np


def is_integer(value: object) -> bool:
    """True for an int, numpy's included, but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_number(value: object, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an int or a float (numpy's
    included, ``bool`` not)."""
    if not (is_integer(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a number, got {value!r}")


class Config:
    """Mixin for a frozen config dataclass; ``section`` names it in messages.

    Its ``__post_init__`` calls :meth:`check_types`, then its own range
    rules, then :meth:`check_finite`, so a bad value fails at construction
    with a message that names the field.
    """

    section: ClassVar[str]

    def _typed_fields(self):
        for f in dataclasses.fields(self):
            # annotations are strings under ``from __future__ import annotations``
            yield f.name, getattr(f.type, "__name__", f.type), getattr(self, f.name)

    def check_types(self) -> None:
        """An ``int`` field takes an integer, a ``float`` field a number and a
        ``str`` field a string; other fields are the section's to check."""
        for name, kind, value in self._typed_fields():
            if kind == "int" and not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if kind == "float":
                check_number(value, name)
            if kind == "str" and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")

    def check_finite(self) -> None:
        """Refuse NaN and ±inf in every ``float`` field."""
        for name, kind, value in self._typed_fields():
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping):
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.section} config fields: {sorted(unknown)}")
        return cls(**doc)
