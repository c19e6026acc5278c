"""Config loading for the batch runner: one strict reader and the kernel block.

Configs are single JSON documents with nested blocks.  `read` fills a
frozen dataclass from one block by its type hints and rejects unknown
or missing keys, booleans and fractions where numbers or integers
belong, non-finite numbers, empty lists and entries of the wrong
length.  Range rules live in the constructors `read` calls: a block's
__post_init__ (such as KernelPlan's keys per family) or a library
object.  All failures raise ConfigError, which the CLI maps to exit
code 2.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass

import numpy as np

from .kernels import (
    JumpKernel,
    KernelDensity,
    density_kernel,
    meanfield_kernel,
    mixture_kernel,
    uniform_kernel,
)

# The keys each family requires besides "family"; every family but
# meanfield also takes one of "M" or "M_exponent".
FAMILY_KEYS = {
    "uniform": (),
    "density": ("density",),
    "mixture": ("c", "q0"),
    "meanfield": (),
}


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def read(cls, block, context: str):
    """Fill the frozen dataclass `cls` from the JSON object `block`.

    Type hints: int, float, str, a dataclass (a sub-block), tuple[T, ...]
    (a nonempty list), tuple[T1, T2] (a list of that length), T | None (an
    optional key).  A ValueError of the constructor becomes a ConfigError.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be an object, got {block!r}")
    fields = dataclasses.fields(cls)
    unknown = set(block) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in block:
            values[f.name] = _value(hints[f.name], block[f.name], context, f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{context} requires '{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _value(hint, value, context: str, key: str):
    """Check one JSON value against a type hint of `read`'s vocabulary."""
    where = f"'{key}' in {context}"
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        # `T | None` marks an optional key; an explicit null is no value
        (hint,) = [a for a in args if a is not type(None)]
        return _value(hint, value, context, key)
    if dataclasses.is_dataclass(hint):
        return read(hint, value, f"{context}.{key}")
    if origin is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_value(args[0], item, context, key) for item in value)
        if len(value) != len(args):
            raise ConfigError(f"{where} entries must have length {len(args)}, got {value!r}")
        return tuple(_value(a, item, context, key) for a, item in zip(args, value))
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, hint):
        raise ConfigError(f"{where} must be of type {hint.__name__}, got {value!r}")
    return value


def even_ceil(x: float) -> int:
    """Smallest even integer >= ceil(x); the documented rounding rule for
    derived ranges like M = even_ceil(L**0.8)."""
    m = int(math.ceil(x))
    return m + (m % 2)


# ---------------------------------------------------------------------------
# Kernel blocks

_DENSITY_REGISTRY = {
    "constant": lambda u1, u2: np.ones_like(np.asarray(u1, dtype=np.float64)),
    "quartic": lambda u1, u2: 1.0 + (u1**2) * (u2**2),
    "gaussian": lambda u1, u2: np.exp(-4.0 * (u1**2 + u2**2)),
}


@dataclass(frozen=True)
class KernelPlan:
    """A kernel block.  The range is a fixed `M`, derived from the torus
    side L as even_ceil(L**M_exponent), or, in a family template, given
    by the command (the conditions command's M ladder).  A mixture's
    base kernel `q0` has a fixed M of its own."""

    family: str
    M: int | None = None
    M_exponent: float | None = None
    c: float | None = None
    density: str | None = None
    q0: KernelPlan | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_KEYS:
            raise ValueError(f"'family' must be one of {tuple(FAMILY_KEYS)}, got {self.family!r}")
        own = FAMILY_KEYS[self.family]
        allowed = own if self.family == "meanfield" else own + ("M", "M_exponent")
        for key in ("M", "M_exponent", "c", "density", "q0"):
            given = getattr(self, key) is not None
            if given and key not in allowed:
                raise ValueError(f"the {self.family} family takes no '{key}'")
            if not given and key in own:
                raise ValueError(f"the {self.family} family requires '{key}'")
        if self.M is not None and self.M_exponent is not None:
            raise ValueError("give one of 'M' or 'M_exponent', not both")
        # even_ceil(L**1) = L at every even L, a range no torus takes
        if self.M_exponent is not None and not 0.0 < self.M_exponent < 1.0:
            raise ValueError(f"'M_exponent' must lie in (0, 1), got {self.M_exponent}")
        if self.density is not None and self.density not in _DENSITY_REGISTRY:
            raise ValueError(f"'density' must be one of {sorted(_DENSITY_REGISTRY)}")
        if self.q0 is not None and self.q0.M is None:
            raise ValueError("'q0' requires a fixed 'M'")

    def build(self, L: int) -> JumpKernel:
        """The kernel on the torus of side L; its range must stay below L."""
        if self.family == "meanfield":
            return self.build_with_M(L)
        if self.M is None and self.M_exponent is None:
            raise ConfigError(f"the {self.family} kernel requires 'M' or 'M_exponent'")
        M = self.M if self.M is not None else even_ceil(L**self.M_exponent)
        if M >= L:
            raise ConfigError(f"kernel range {M} must be smaller than the torus side {L}")
        return self.build_with_M(M)

    def build_with_M(self, M: int) -> JumpKernel:
        if self.family == "meanfield":
            return meanfield_kernel(M)
        if self.family == "uniform":
            return uniform_kernel(M)
        if self.family == "density":
            fn = _DENSITY_REGISTRY[self.density]
            return density_kernel(M, KernelDensity(fn, label=self.density))
        base = self.q0.build_with_M(self.q0.M)
        return mixture_kernel(self.c, M, base)

    def label(self) -> str:
        if self.family == "density":
            return f"density:{self.density}"
        if self.family == "mixture":
            return f"mixture(c={self.c}, q0={self.q0.label()})"
        return self.family
