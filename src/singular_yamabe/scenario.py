"""Scenario files and profile tables: the inputs every command reads.

A scenario file is parsed once into a frozen :class:`Scenario`, which
checks every value on construction; the flow driver and the command line
take it as is.  Profile tables are headerless two-column ``x,v`` CSV files,
used for file initial conditions and for the snapshots a report reloads;
:func:`read_profile` is the one reader and checker for both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from . import geometry

DEFAULT_CONFIG = {
    "model": {"type": "eguchi-hanson", "a": 1.0},
    "grid": {"n_cells": 256, "grading": "uniform", "ratio": 0.97},
    "time": {"t_end": 0.02, "safety": 0.4, "renorm_every": 20,
             "snapshot_every": 0.005},
    "init": {"type": "constant", "value": None},
    "diagnostics": {"cutoffs": [0.1, 0.05], "f_p_exponents": [2, 3]},
    "output": {"dir": "runs/default"},
}

# (section, key) of the scenario file -> Scenario field
_FIELDS = {
    ("model", "type"): "model_type", ("model", "a"): "a", ("model", "n"): "sphere_n",
    ("grid", "n_cells"): "n_cells", ("grid", "grading"): "grading",
    ("grid", "ratio"): "ratio",
    ("time", "t_end"): "t_end", ("time", "safety"): "safety",
    ("time", "renorm_every"): "renorm_every",
    ("time", "snapshot_every"): "snapshot_every",
    ("init", "type"): "init_type", ("init", "value"): "init_value",
    ("init", "path"): "init_path",
    ("diagnostics", "cutoffs"): "cutoffs",
    ("diagnostics", "f_p_exponents"): "f_p_exponents",
    ("output", "dir"): "output_dir",
}


class ConfigError(ValueError):
    """A scenario or a profile table failed validation."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_name(value: float) -> str:
    """The name a cutoff or exponent goes by in series.csv columns and
    dichotomy.json keys."""
    return format(value, "g")


@dataclass(frozen=True)
class Scenario:
    """One run's model, grid, time stepping, start, diagnostics and output.

    The defaults are those of :data:`DEFAULT_CONFIG`.  Construction checks
    every value and raises :class:`ConfigError`, naming the scenario-file
    key, on the first bad one; numbers are stored as int or float, lists as
    tuples of floats.
    """

    model_type: str = "eguchi-hanson"
    a: float = 1.0
    sphere_n: int = 4
    n_cells: int = 256
    grading: str = "uniform"
    ratio: float = 0.97
    t_end: float = 0.02
    safety: float = 0.4
    renorm_every: int = 20
    snapshot_every: float = 0.005
    init_type: str = "constant"
    init_value: float | None = None
    init_path: str | None = None
    cutoffs: tuple = (0.1, 0.05)
    f_p_exponents: tuple = (2.0, 3.0)
    output_dir: str = "runs/default"

    def __post_init__(self):
        if self.model_type not in ("eguchi-hanson", "sphere"):
            raise ConfigError("model.type must be eguchi-hanson or sphere, "
                              f"got {self.model_type!r}")
        self._number("a", "model.a", lo=0.0, lo_strict=True)
        self._number("sphere_n", "model.n", lo=3, integer=True)
        self._number("n_cells", "grid.n_cells", lo=8, integer=True)
        if self.grading not in ("uniform", "geometric"):
            raise ConfigError("grid.grading must be uniform or geometric, "
                              f"got {self.grading!r}")
        self._number("ratio", "grid.ratio", lo=0.0, hi=1.0, lo_strict=True)
        if self.grading == "geometric" and self.ratio == 1.0:
            raise ConfigError("grid.ratio must be < 1 for geometric grading")
        self._number("t_end", "time.t_end", lo=0.0, lo_strict=True)
        self._number("safety", "time.safety", lo=0.0, hi=1.0, lo_strict=True,
                     hi_strict=True)
        self._number("renorm_every", "time.renorm_every", lo=0, integer=True)
        self._number("snapshot_every", "time.snapshot_every", lo=0.0)
        if self.init_type == "constant":
            if self.init_value is not None:
                self._number("init_value", "init.value", lo=0.0, lo_strict=True)
        elif self.init_type == "file":
            if not self.init_path or not isinstance(self.init_path, str):
                raise ConfigError("init.path must name a profile file")
        else:
            raise ConfigError(f"init.type must be constant or file, got {self.init_type!r}")
        self._number_list("cutoffs", "diagnostics.cutoffs", "a nonempty list in (0, 1]",
                          lambda c: 0.0 < c <= 1.0)
        self._number_list("f_p_exponents", "diagnostics.f_p_exponents",
                          "a nonempty list of numbers >= 1", lambda p: p >= 1.0)
        if not self.output_dir or not isinstance(self.output_dir, str):
            raise ConfigError("output.dir must be a nonempty path")

    def _number(self, name, where, lo=None, hi=None, integer=False,
                lo_strict=False, hi_strict=False):
        value = getattr(self, name)
        if not _is_number(value):
            raise ConfigError(f"{where} must be a number")
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite")
        if integer:
            if value != int(value):
                raise ConfigError(f"{where} must be an integer")
            value = int(value)
        else:
            value = float(value)
        if lo is not None and (value <= lo if lo_strict else value < lo):
            raise ConfigError(f"{where} must be {'>' if lo_strict else '>='} {lo}")
        if hi is not None and (value >= hi if hi_strict else value > hi):
            raise ConfigError(f"{where} must be {'<' if hi_strict else '<='} {hi}")
        object.__setattr__(self, name, value)

    def _number_list(self, name, where, what, accept):
        values = getattr(self, name)
        if (not isinstance(values, (list, tuple)) or not values
                or not all(_is_number(c) and accept(c) for c in values)):
            raise ConfigError(f"{where} must be {what}")
        values = tuple(float(c) for c in values)
        names = [value_name(c) for c in values]
        if len(set(names)) < len(names):
            raise ConfigError(f"{where} values {list(values)} go by the names {names}, "
                              "which must differ")
        object.__setattr__(self, name, values)

    def grid(self) -> geometry.RadialGrid:
        """The radial grid of the eguchi-hanson reduction."""
        try:
            return geometry.build_grid(self.n_cells, grading=self.grading, ratio=self.ratio)
        except ValueError as err:
            raise ConfigError(f"grid: {err}") from err

    def echo(self) -> dict:
        """Resolved scenario as a plain dict, the round-trip source of truth."""
        out = {section: {} for section in DEFAULT_CONFIG}
        for (section, key), name in _FIELDS.items():
            value = getattr(self, name)
            out[section][key] = list(value) if isinstance(value, tuple) else value
        del out["model"]["a" if self.model_type == "sphere" else "n"]
        del out["init"]["path" if self.init_type == "constant" else "value"]
        return out


def _section(data: dict, name: str) -> dict:
    raw = data.get(name, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(raw) - {key for section, key in _FIELDS if section == name}
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section {name!r}: {', '.join(sorted(unknown))}")
    return raw


def parse_config(data) -> Scenario:
    """Validate a parsed scenario mapping; unknown keys anywhere are errors."""
    if not isinstance(data, dict):
        raise ConfigError("the scenario file must contain a mapping at top level")
    unknown = set(data) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    sections = {name: _section(data, name) for name in DEFAULT_CONFIG}
    model, init = sections["model"], sections["init"]
    if model.get("type", "eguchi-hanson") == "eguchi-hanson" and "n" in model:
        raise ConfigError("model.n only applies to the sphere model")
    if model.get("type") == "sphere" and "a" in model:
        raise ConfigError("model.a only applies to the eguchi-hanson model")
    if init.get("type", "constant") == "constant" and "path" in init:
        raise ConfigError("init.path only applies to init.type file")
    if init.get("type") == "file" and "value" in init:
        raise ConfigError("init.value only applies to init.type constant")
    return Scenario(**{_FIELDS[name, key]: value
                       for name, section in sections.items()
                       for key, value in section.items()})


def load_config(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    return parse_config(data)


def default_config_text() -> str:
    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)


# ---------------------------------------------------------------------------
# profile tables
# ---------------------------------------------------------------------------


def check_profile(x: np.ndarray, v: np.ndarray, source: str) -> None:
    """Refuse a tabulated profile unless it has two or more finite samples,
    strictly increasing x and positive v."""
    if x.size < 2:
        raise ConfigError(f"{source} needs at least two x,v samples")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
        raise ConfigError(f"{source} holds a value that is not finite")
    if np.any(np.diff(x) <= 0.0):
        raise ConfigError(f"x in {source} must be strictly increasing")
    if np.any(v <= 0.0):
        raise ConfigError(f"v in {source} must be positive")


def read_profile(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read and check the headerless two-column x,v table in ``path``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file, refused below
            table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read profile {path}: {err}") from err
    if table.shape[1] != 2:
        raise ConfigError(f"profile file {path} must hold rows of two columns x,v")
    x, v = table[:, 0], table[:, 1]
    check_profile(x, v, f"profile file {path}")
    return x, v


def load_profile(path: str, coords) -> np.ndarray:
    """The profile in ``path`` interpolated onto ``coords``, held constant
    beyond the tabulated range."""
    return np.interp(coords, *read_profile(path))
