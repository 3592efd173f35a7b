"""Scenario files and profile tables: the inputs every command reads.

A scenario file is parsed once into a frozen :class:`Scenario`, which
checks every value on construction; the flow driver and the command line
take it as is.  Profile tables are headerless two-column ``x,v`` CSV files,
used for file initial conditions and for the snapshots a report reloads;
:func:`read_profile` is the one reader and checker for both.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy and geometry load only where a model or a table is built
    import numpy as np

    from . import geometry

# A run counts a stop time as reached within this relative tolerance.
STOP_RTOL = 1e-12

# Most snapshot stops a run takes: a run steps onto each stop and keeps a
# snapshot there, so t_end / snapshot_every is bounded.  The bound also keeps
# stops at least t_end / MAX_STOPS apart, far above STOP_RTOL * t_end.
MAX_STOPS = 10_000


class ConfigError(ValueError):
    """A scenario or a profile table failed validation."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _broken_bound(value, lo=None, hi=None, lo_strict=False, hi_strict=False):
    """The bound ``value`` breaks, as ``"> 0.0"`` or ``"<= 1"``, or None."""
    if lo is not None and not (value > lo if lo_strict else value >= lo):
        return f"{'>' if lo_strict else '>='} {lo}"
    if hi is not None and not (value < hi if hi_strict else value <= hi):
        return f"{'<' if hi_strict else '<='} {hi}"


def _key(key: str, default, owner=None, choices=(), **bounds):
    """A Scenario field read from the scenario-file key ``section.name``.

    ``owner`` is the type of the section the key belongs to, ``choices``
    the strings it may hold, ``bounds`` its number bounds: ``lo``, ``hi``
    and ``lo_strict``, and for a scalar ``hi_strict`` and ``integer``; a
    list's bounds hold for each item.  A key that defaults to None is
    optional: it is checked only when set and under its owner type.
    """
    return field(default=default, metadata={"key": tuple(key.split(".")), "owner": owner,
                                            "choices": choices, "bounds": bounds})


def value_name(value: float) -> str:
    """The name a cutoff or exponent goes by in series.csv columns and
    dichotomy.json keys."""
    return format(value, "g")


@dataclass(frozen=True)
class Scenario:
    """One run's model, grid, time stepping, start, diagnostics and output.

    Each field declares its scenario-file key, and its default is the
    file's, as :func:`default_config_text` prints them.  Construction checks
    every value and raises :class:`ConfigError`, naming the scenario-file
    key, on the first bad one; numbers are stored as int or float, lists as
    tuples of floats.
    """

    model_type: str = _key("model.type", "eguchi-hanson", choices=("eguchi-hanson", "sphere"))
    a: float = _key("model.a", 1.0, owner="eguchi-hanson", lo=0.0, lo_strict=True)
    # n = 343 overflows the sphere's volume and Yamabe constant
    sphere_n: int = _key("model.n", 4, owner="sphere", lo=3, hi=342, integer=True)
    n_cells: int = _key("grid.n_cells", 256, lo=8, integer=True)
    grading: str = _key("grid.grading", "uniform", choices=("uniform", "geometric"))
    ratio: float = _key("grid.ratio", 0.97, lo=0.0, hi=1.0, lo_strict=True)
    t_end: float = _key("time.t_end", 0.02, lo=0.0, lo_strict=True)
    safety: float = _key("time.safety", 0.4, lo=0.0, hi=1.0, lo_strict=True, hi_strict=True)
    renorm_every: int = _key("time.renorm_every", 20, lo=0, integer=True)
    snapshot_every: float = _key("time.snapshot_every", 0.005, lo=0.0)
    init_type: str = _key("init.type", "constant", choices=("constant", "file"))
    init_value: float | None = _key("init.value", None, owner="constant", lo=0.0, lo_strict=True)
    init_path: str | None = _key("init.path", None, owner="file")
    cutoffs: tuple = _key("diagnostics.cutoffs", (0.1, 0.05), lo=0.0, hi=1.0, lo_strict=True)
    f_p_exponents: tuple = _key("diagnostics.f_p_exponents", (2.0, 3.0), lo=1.0)
    output_dir: str = _key("output.dir", "runs/default")

    def __post_init__(self):
        # each key's own check in field order; a rule that ties two keys
        # together runs as soon as the later of them is checked
        for spec in fields(self):
            self._check_key(spec)
            if spec.name == "grading" and self.model_type == "sphere" and self.grading != "uniform":
                raise ConfigError("grid.grading must be uniform for the sphere model, "
                                  "whose polar grid is uniform")
            if spec.name == "ratio" and self.grading == "geometric" and self.ratio == 1.0:
                raise ConfigError("grid.ratio must be < 1 for geometric grading")
            if spec.name == "snapshot_every" and 0.0 < self.snapshot_every < self.t_end / MAX_STOPS:
                raise ConfigError(f"time.snapshot_every {self.snapshot_every:g} is below "
                                  f"time.t_end {self.t_end:g} / {MAX_STOPS}: a run takes "
                                  f"at most {MAX_STOPS} snapshot stops")
            if (spec.name == "init_path" and self.init_type == "file"
                    and (not self.init_path or not isinstance(self.init_path, str))):
                raise ConfigError("init.path must name a profile file")
        if not self.output_dir or not isinstance(self.output_dir, str):
            raise ConfigError("output.dir must be a nonempty path")

    def _check_key(self, spec):
        """Check one field's value on its own, as its declaration states."""
        (section, key), meta = spec.metadata["key"], spec.metadata
        where, value = f"{section}.{key}", getattr(self, spec.name)
        if spec.default is None and (value is None or self._owned_elsewhere(spec)):
            return  # an optional key, unset or of another type
        if meta["choices"] and value not in meta["choices"]:
            raise ConfigError(f"{where} must be {' or '.join(meta['choices'])}, got {value!r}")
        if isinstance(spec.default, tuple):
            self._number_list(spec.name, where, **meta["bounds"])
        elif meta["bounds"]:
            self._number(spec.name, where, **meta["bounds"])

    def _owned_elsewhere(self, spec) -> bool:
        """Whether the field's key belongs to a type its section does not have."""
        section, owner = spec.metadata["key"][0], spec.metadata["owner"]
        return owner is not None and getattr(self, _FIELDS[section, "type"]) != owner

    def _number(self, name, where, integer=False, **bounds):
        value = getattr(self, name)
        if not _is_number(value):
            raise ConfigError(f"{where} must be a number")
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite")
        if integer and value != int(value):
            raise ConfigError(f"{where} must be an integer")
        value = int(value) if integer else float(value)
        if broken := _broken_bound(value, **bounds):
            raise ConfigError(f"{where} must be {broken}")
        object.__setattr__(self, name, value)

    def _number_list(self, name, where, lo, hi=None, lo_strict=False):
        values = getattr(self, name)
        what = (f"a nonempty list of finite numbers {'>' if lo_strict else '>='} {lo:g}"
                if hi is None else f"a nonempty list in {'(' if lo_strict else '['}{lo:g}, {hi:g}]")
        if not isinstance(values, (list, tuple)) or not values or not all(
                _is_number(c) and math.isfinite(c) and not _broken_bound(c, lo, hi, lo_strict)
                for c in values):
            raise ConfigError(f"{where} must be {what}")
        values = tuple(float(c) for c in values)
        names = [value_name(c) for c in values]
        if len(set(names)) < len(names):
            raise ConfigError(f"{where} values {list(values)} go by the names {names}, "
                              "which must differ")
        object.__setattr__(self, name, values)

    def model(self) -> geometry.RadialGrid:
        """The configured model: the sphere on its polar grid, or the
        eguchi-hanson reduction on its grid in x."""
        from . import geometry

        if self.model_type == "sphere":
            return geometry.build_sphere_model(self.sphere_n, self.n_cells)
        try:
            return geometry.build_grid(self.n_cells, grading=self.grading, ratio=self.ratio)
        except ValueError as err:
            raise ConfigError(f"grid: {err}") from err

    def echo(self) -> dict:
        """Resolved scenario as a plain dict, the round-trip source of truth:
        a key of another type of its section is left out."""
        out = {}
        for spec in fields(self):
            (section, key), value = spec.metadata["key"], getattr(self, spec.name)
            if not self._owned_elsewhere(spec):
                out.setdefault(section, {})[key] = list(value) if isinstance(value, tuple) else value
        return out


# (section, key) of the scenario file -> Scenario field, in the file's order
_FIELDS = {spec.metadata["key"]: spec.name for spec in fields(Scenario)}


def _section(data: dict, name: str) -> dict:
    raw = {} if data.get(name) is None else data[name]
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    if unknown := set(raw) - {key for section, key in _FIELDS if section == name}:
        # str: a YAML key may be a number, which sorts and joins with no string
        raise ConfigError(f"unknown key(s) in section {name!r}: "
                          f"{', '.join(sorted(map(str, unknown)))}")
    return raw


def parse_config(data) -> Scenario:
    """Validate a parsed scenario mapping; unknown keys anywhere are errors,
    and so is a key of another type of its section."""
    if not isinstance(data, dict):
        raise ConfigError("the scenario file must contain a mapping at top level")
    names = dict.fromkeys(section for section, _ in _FIELDS)
    if unknown := set(data) - set(names):
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(map(str, unknown)))}")
    sections = {name: _section(data, name) for name in names}
    cfg = Scenario(**{_FIELDS[name, key]: value for name, section in sections.items()
                      for key, value in section.items()})
    for spec in fields(cfg):
        (name, key), owner = spec.metadata["key"], spec.metadata["owner"]
        if key in sections[name] and cfg._owned_elsewhere(spec):
            raise ConfigError(f"{name}.{key} only applies to {name}.type {owner}")
    return cfg


def load_config(path: str) -> Scenario:
    import yaml  # here: only the commands that read a scenario file load it

    class UniqueKeyLoader(yaml.SafeLoader):
        """Refuses a mapping that repeats a key, where PyYAML keeps the last value."""

        def construct_mapping(self, node, deep=False):
            # a << merge is left out: an explicit key may override a merged one
            keys = [self.construct_object(key_node, deep=deep) for key_node, _ in node.value
                    if key_node.tag != "tag:yaml.org,2002:merge"]
            if repeated := [key for i, key in enumerate(keys) if key in keys[:i]]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {repeated[0]!r}", node.start_mark)
            return super().construct_mapping(node, deep)

    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=UniqueKeyLoader)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except (yaml.YAMLError, ValueError) as err:  # ValueError: a NUL byte in the path, or a bad date
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    return parse_config(data)


def default_config_text() -> str:
    """The default scenario file: one line per section, whose mapping is
    written in JSON's flow syntax, which YAML reads as it is."""
    return "".join(f"{section}: {json.dumps(keys)}\n"
                   for section, keys in Scenario().echo().items())


# ---------------------------------------------------------------------------
# profile tables
# ---------------------------------------------------------------------------


def check_profile(x: np.ndarray, v: np.ndarray, source: str) -> None:
    """Refuse a tabulated profile unless it has two or more finite samples,
    strictly increasing x and positive v."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    return np.interp(coords, *read_profile(path))
