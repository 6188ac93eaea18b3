"""Declarative experiment studies: a grid of axes compiled to job specs.

A :class:`Study` is *data*: a named set of axes (``nprocs``, ``alpha``,
placement mode, noise seed, ...) plus *cells* — one per figure line —
that name an application from the :mod:`~repro.study.registry`, the
config parameters, the machine spec and the extractor that maps a
:class:`~repro.simmpi.launcher.SimResult` to the cell's y-value.

``Study.jobs()`` compiles the declaration into a deterministic list of
**Job specs** — plain JSON-serializable dicts — which the
:mod:`~repro.study.runner` executes across a process pool with a
content-addressed result cache.  Because a study round-trips through
``to_json()`` / ``from_json()``, a scenario is a *file*, not a Python
call tree::

    study = (Study("fig5", title="Fig. 5 - MapReduce weak scaling (s)")
             .axis("nprocs", [32, 128, 512])
             .axis("alpha", [0.125, 0.0625])
             .cell("Reference", app="mapreduce.reference",
                   machine={"preset": "beskow"})
             .cell("Decoupling (a={alpha:.4g})", app="mapreduce.decoupled",
                   bind={"alpha": "alpha"}, machine={"preset": "beskow"}))
    rs = run_study(study, jobs=4, cache="~/.cache/repro-study")
    print(rs.table())

Expansion rules
---------------

* Every cell sweeps the ``x_axis`` (``"nprocs"`` by default) — that is
  the figure's x coordinate.
* A cell additionally expands over every *referenced* axis: the keys of
  its ``bind`` mapping plus any axis named in the label template.  Axes
  a cell does not reference do not multiply it (the fig5 reference line
  does not repeat per alpha).
* Referenced non-x axes are outer loops in axis declaration order, the
  x axis is the innermost loop, cells expand in declaration order —
  so the job list, and therefore every cache key, is deterministic.

``bind`` maps an axis name to where its value lands in the job spec:
a bare name is a config parameter (``"alpha"`` →
``MapReduceConfig(alpha=...)``); a dotted ``machine.`` path writes into
the machine spec (``"machine.placement.policy"``, ``"machine.noise.seed"``).
"""

from __future__ import annotations

import copy
import string
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Study", "StudyError"]


class StudyError(ValueError):
    """An invalid study declaration or job spec."""


_FORMATTER = string.Formatter()

#: JSON-representable scalar types allowed as axis values / parameters
_SCALARS = (bool, int, float, str, type(None))


def _label_fields(template: str) -> List[str]:
    """Axis names referenced by a label template, in template order."""
    try:
        return [fname for _, fname, _, _ in _FORMATTER.parse(template)
                if fname]
    except ValueError as exc:
        raise StudyError(f"bad label template {template!r}: {exc}") from exc


def _check_jsonable(value: Any, where: str) -> None:
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for v in value:
            _check_jsonable(v, where)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise StudyError(
                    f"{where}: dict keys must be strings, got {k!r}")
            _check_jsonable(v, where)
        return
    raise StudyError(
        f"{where}: {value!r} is not JSON-serializable; job specs must "
        "be plain data (use registry names, not objects)")


class Study:
    """A named, declarative grid of experiment cells (see module doc)."""

    def __init__(self, name: str, title: str = "", unit: str = "s"):
        if not name or not isinstance(name, str):
            raise StudyError("study name must be a non-empty string")
        self.name = name
        self.title = title or name
        self.unit = unit
        self._axes: Dict[str, Tuple[Any, ...]] = {}
        self._cells: List[Dict[str, Any]] = []
        self._policy: Optional[Any] = None

    # ------------------------------------------------------------------
    # declaration (fluent)
    # ------------------------------------------------------------------
    def axis(self, name: str, values: Sequence[Any]) -> "Study":
        """Declare one axis of the grid (ordered, non-empty)."""
        if not name or not isinstance(name, str):
            raise StudyError("axis name must be a non-empty string")
        if name in self._axes:
            raise StudyError(f"axis {name!r} declared twice")
        values = tuple(values)
        if not values:
            raise StudyError(f"axis {name!r} has no values")
        for v in values:
            _check_jsonable(v, f"axis {name!r}")
        self._axes[name] = values
        return self

    def cell(self, label: str, app: str, *,
             params: Optional[Dict[str, Any]] = None,
             extract: Any = "max_elapsed",
             machine: Optional[Dict[str, Any]] = None,
             args: Sequence[Any] = (),
             bind: Optional[Dict[str, str]] = None,
             meta: Optional[Dict[str, Any]] = None,
             x_axis: str = "nprocs") -> "Study":
        """Declare one cell — one line of the figure.

        ``label`` may be a template over axis names (``"Dec (a={alpha})"``)
        — one series per combination.  ``app`` / ``extract`` name entries
        of the :mod:`~repro.study.registry`; ``machine`` is a machine
        spec dict (``{"preset": ..., "topology": ..., "placement": ...,
        "noise": ...}``); ``args`` are extra worker arguments after the
        config; ``bind`` routes axis values into the job (see module
        doc).
        """
        # import here: registry imports apps; keep Study importable alone
        from .registry import validate_app, validate_extract, validate_machine_spec

        if not label or not isinstance(label, str):
            raise StudyError("cell label must be a non-empty string")
        spec = validate_app(app)
        validate_extract(extract)
        validate_machine_spec(machine, spec)
        cell = {
            "label": label,
            "app": app,
            "params": dict(params or {}),
            "extract": extract if isinstance(extract, str) else dict(extract),
            "machine": copy.deepcopy(dict(machine or {})),
            "args": list(args),
            "bind": dict(bind or {}),
            "meta": dict(meta or {}),
            "x_axis": x_axis,
        }
        for key in ("params", "machine", "args", "meta"):
            _check_jsonable(cell[key], f"cell {label!r} {key}")
        for axis_name, path in cell["bind"].items():
            if not isinstance(path, str) or not path:
                raise StudyError(
                    f"cell {label!r}: bind target for axis {axis_name!r} "
                    f"must be a non-empty path string, got {path!r}")
            if axis_name == x_axis:
                raise StudyError(
                    f"cell {label!r}: the x axis {x_axis!r} cannot be "
                    "re-routed via bind; it always becomes the job's "
                    "process count")
            if path == "nprocs" or path == x_axis:
                raise StudyError(
                    f"cell {label!r}: the x axis {x_axis!r} is bound "
                    "automatically; don't bind onto it")
            if "." in path and not path.startswith("machine."):
                raise StudyError(
                    f"cell {label!r}: dotted bind path {path!r} must "
                    "start with 'machine.' (config params are flat)")
        self._cells.append(cell)
        return self

    def with_policy(self, policy: Any) -> "Study":
        """Attach a default :class:`~repro.study.policy.RunPolicy`.

        The policy is *runner* input — how cells are timed out and
        reported — never *job* input: it rides in ``to_json()``
        next to the cells but is deliberately absent from every job
        spec, so attaching or editing a policy never changes a cache
        key.  ``run_study(policy=...)`` overrides it.
        """
        from .policy import RunPolicy

        if policy is None:
            self._policy = None
        elif isinstance(policy, RunPolicy):
            self._policy = policy
        elif isinstance(policy, dict):
            self._policy = RunPolicy.from_json(policy)
        else:
            raise StudyError(
                f"study policy must be a RunPolicy or a dict, got "
                f"{type(policy).__name__}")
        return self

    @property
    def run_policy(self) -> Optional[Any]:
        """The study's default run policy (None = runner defaults)."""
        return self._policy

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def axes(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self._axes)

    @property
    def cells(self) -> List[Dict[str, Any]]:
        return copy.deepcopy(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Study({self.name!r}, axes={list(self._axes)}, "
                f"cells={len(self._cells)})")

    # ------------------------------------------------------------------
    # compilation to job specs
    # ------------------------------------------------------------------
    def jobs(self) -> List[Dict[str, Any]]:
        """Compile to the deterministic, JSON-serializable job list."""
        if not self._cells:
            raise StudyError(f"study {self.name!r} declares no cells")
        out: List[Dict[str, Any]] = []
        seen_labels: Dict[str, int] = {}
        for idx, cell in enumerate(self._cells):
            x_axis = cell["x_axis"]
            xs = self._axes.get(x_axis)
            if xs is None:
                raise StudyError(
                    f"cell {cell['label']!r} sweeps axis {x_axis!r}, "
                    f"which is not declared (axes: {list(self._axes)})")
            referenced = list(dict.fromkeys(
                list(cell["bind"]) + _label_fields(cell["label"])))
            if x_axis in _label_fields(cell["label"]):
                raise StudyError(
                    f"cell {cell['label']!r} interpolates the x axis "
                    f"{x_axis!r} into its label; the x axis indexes "
                    "points within one series, not series")
            for name in referenced:
                if name == x_axis:
                    continue
                if name not in self._axes:
                    raise StudyError(
                        f"cell {cell['label']!r} references axis "
                        f"{name!r}, which is not declared")
            outer = [n for n in self._axes
                     if n in referenced and n != x_axis]
            for combo in _product([self._axes[n] for n in outer]):
                values = dict(zip(outer, combo))
                label = (cell["label"].format(**values)
                         if referenced else cell["label"])
                if label in seen_labels:
                    owner = seen_labels[label]
                    if owner == idx:
                        raise StudyError(
                            f"cell #{idx} produces the label {label!r} "
                            "for two axis combinations — every bound "
                            "axis must appear in the label template, or "
                            "the combinations overwrite each other")
                    raise StudyError(
                        f"series label {label!r} produced by two cells "
                        f"(#{owner} and #{idx})")
                seen_labels[label] = idx
                params = copy.deepcopy(cell["params"])
                machine = copy.deepcopy(cell["machine"])
                for axis_name, path in cell["bind"].items():
                    _apply_bind(path, values[axis_name], params, machine,
                                label)
                for x in xs:
                    if not isinstance(x, int) or x <= 0:
                        raise StudyError(
                            f"x axis {x_axis!r} values must be positive "
                            f"ints (process counts), got {x!r}")
                    out.append({
                        "study": self.name,
                        "series": label,
                        "x": x,
                        "app": cell["app"],
                        "nprocs": x,
                        "params": copy.deepcopy(params),
                        "args": list(cell["args"]),
                        "machine": copy.deepcopy(machine),
                        "extract": copy.deepcopy(cell["extract"]),
                        "meta": copy.deepcopy(cell["meta"]),
                    })
        return out

    def labels(self) -> List[str]:
        """Series labels in expansion order (no duplicates)."""
        return list(dict.fromkeys(j["series"] for j in self.jobs()))

    # ------------------------------------------------------------------
    # JSON round-trip: a scenario is a file
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "title": self.title,
            "unit": self.unit,
            "axes": {n: list(vs) for n, vs in self._axes.items()},
            "cells": copy.deepcopy(self._cells),
        }
        if self._policy is not None:
            # runner input, serialized NEXT TO the cells — job specs
            # (and therefore cache keys) never see it
            data["policy"] = self._policy.to_json()
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Study":
        try:
            study = cls(data["name"], title=data.get("title", ""),
                        unit=data.get("unit", "s"))
            for name, values in data.get("axes", {}).items():
                study.axis(name, values)
            for cell in data.get("cells", []):
                cell = dict(cell)
                label = cell.pop("label")
                app = cell.pop("app")
                study.cell(label, app, **cell)
            if data.get("policy") is not None:
                study.with_policy(data["policy"])
        except KeyError as exc:
            raise StudyError(f"study JSON is missing key {exc}") from exc
        return study


def _product(axes_values: List[Tuple[Any, ...]]):
    """Cartesian product preserving declaration order ([] -> one empty
    combo, so unreferenced cells expand exactly once)."""
    if not axes_values:
        yield ()
        return
    head, *tail = axes_values
    for v in head:
        for rest in _product(tail):
            yield (v,) + rest


def _apply_bind(path: str, value: Any, params: Dict[str, Any],
                machine: Dict[str, Any], label: str) -> None:
    """Write one axis value into a job's params or machine spec."""
    if path.startswith("machine."):
        parts = path.split(".")[1:]
        target = machine
        for part in parts[:-1]:
            nxt = target.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise StudyError(
                    f"cell {label!r}: bind path {path!r} descends into "
                    f"non-dict {part!r}")
            target = nxt
        target[parts[-1]] = value
    else:
        params[path] = value
