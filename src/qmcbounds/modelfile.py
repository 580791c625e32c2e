"""Plain-text model files for the command-line interface.

A model file is a single JSON document describing one of three kinds of
model.  Complex numbers are written as two-element arrays ``[re, im]`` and
matrices as nested row-major arrays of those pairs, so fixtures stay
diffable under version control.

kind "kraus"::

    {"kind": "kraus",
     "labels": ["up", "down"],
     "kraus": [[[[0,0],[0.7,0]], [[0,0],[0,0]]], ...],
     "observation": {"up": 1.0, "down": -1.0},
     "unravellings": {"coarse": [{"label": "even", "kraus": [...]}, ...]},
     "schedule": [{"unravelling": "coarse", "observation": {...}}, ...],
     "observation_windows": [[["up", "up"], 1.0], ...],
     "parameter_grid": [0.0, 0.1], "family": "ring-asymmetry"}

    Only "labels" and "kraus" are required; the rest feed specific flavors.

kind "gkls"::

    {"kind": "gkls", "hamiltonian": [[...]], "jumps": [[...]],
     "labels": ["click"], "count_label": "click"}

kind "classical"::

    {"kind": "classical", "states": ["a", "b"],
     "transition": [[0.7, 0.3], [0.4, 0.6]],
     "flux": [["a", "b", 1.0], ...], "initial": [0.5, 0.5]}

Every field's JSON type is checked where it is read, so a list, object or
number in the wrong place is a parse error naming that field, never a
Python exception from deeper down.  Sections are checked against each
other when parsed: every unravelling must sum to the channel (operators of
another shape give deviation inf), a flux needs a value on every edge of
the chain and may name only the chain's states, and observation windows
form a non-empty list of label windows of one length, each with a finite
value.  Parse failures raise :class:`ModelParseError` with a field-precise
path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bounds import TimeStep, Unravelling
from .classical import FluxFunction, MarkovChain
from .operators import TAU_CHANNEL, GKLSGenerator, KrausChannel, kraus_family_deviation


class ModelParseError(ValueError):
    """Model file rejected; the message carries the offending field path."""


def _fail(path: str, message: str):
    raise ModelParseError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, required: bool = True):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "missing field")
        return None
    return obj[key]


def _typed(value, kind: type, path: str):
    """``value``, checked to be a JSON list (``kind`` list) or object (``kind`` dict)."""
    if not isinstance(value, kind):
        _fail(path, f"expected {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def _complex_entry(value, path: str) -> complex:
    pair = [value, 0.0] if isinstance(value, (int, float)) else value
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, (int, float)) for v in pair)):
        _fail(path, f"expected a number or [re, im] pair, got {value!r}")
    return complex(_finite(pair[0], path), _finite(pair[1], path))


def parse_complex_matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        _fail(path, "expected a non-empty list of rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            _fail(f"{path}[{i}]", f"expected a row of length {len(rows)}")
        parsed.append([_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.asarray(parsed, dtype=complex)


@dataclass
class Model:
    """A parsed model plus the optional sections specific flavors consume."""

    kind: str
    channel: KrausChannel | None = None
    generator: GKLSGenerator | None = None
    chain: MarkovChain | None = None
    observation: dict | None = None
    count_label: Any = None
    flux: dict | None = None
    initial: np.ndarray | None = None
    unravellings: dict = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    observation_windows: dict | None = None
    parameter_grid: list | None = None
    family: str | None = None


def _finite(raw, path: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {raw!r}")
    return value


def _observation(obs, labels, path: str) -> dict:
    """Label -> finite value; keys may be the labels or their string forms."""
    if not isinstance(obs, dict):
        _fail(path, "expected a label -> value mapping")
    missing = [l for l in labels if str(l) not in obs and l not in obs]
    if missing:
        _fail(path, f"missing values for labels {missing}")
    return {l: _finite(obs.get(l, obs.get(str(l))), f"{path}.{l}") for l in labels}


def _labels(doc: dict) -> list:
    """``$.labels``: a list that holds no label twice (by ``==``, so unhashable ones too)."""
    labels = _typed(_get(doc, "labels", "$"), list, "$.labels")
    if any(labels.count(label) > 1 for label in labels):
        _fail("$.labels", "labels must be unique")
    return labels


def _parse_kraus(doc: dict, tol_channel: float) -> Model:
    labels = _labels(doc)
    matrices = _typed(_get(doc, "kraus", "$"), list, "$.kraus")
    if len(labels) != len(matrices):
        _fail("$.kraus", f"{len(matrices)} matrices for {len(labels)} labels")
    ops = [parse_complex_matrix(m, f"$.kraus[{i}]") for i, m in enumerate(matrices)]
    try:
        channel = KrausChannel(ops, labels, tol=tol_channel)
    except Exception as exc:
        _fail("$.kraus", str(exc))
    model = Model(kind="kraus", channel=channel)
    obs = _get(doc, "observation", "$", required=False)
    if obs is not None:
        model.observation = _observation(obs, labels, "$.observation")
    unravellings = _get(doc, "unravellings", "$", required=False)
    unravellings = {} if unravellings is None else _typed(unravellings, dict, "$.unravellings")
    for name, outcomes in unravellings.items():
        maps, ulabels = [], []
        for i, entry in enumerate(_typed(outcomes, list, f"$.unravellings.{name}")):
            path = f"$.unravellings.{name}[{i}]"
            label = _get(_typed(entry, dict, path), "label", path)
            if not isinstance(label, (str, int, float)):
                _fail(f"{path}.label", f"expected a string or number, got {label!r}")
            ulabels.append(label)
            kraus = _typed(_get(entry, "kraus", path), list, f"{path}.kraus")
            maps.append(tuple(parse_complex_matrix(m, f"{path}.kraus[{j}]")
                              for j, m in enumerate(kraus)))
        try:
            model.unravellings[name] = Unravelling(maps, ulabels)
        except Exception as exc:
            _fail(f"$.unravellings.{name}", str(exc))
        dev = kraus_family_deviation([w for outcome in maps for w in outcome], channel.kraus)
        if dev > 1e-9:
            _fail(f"$.unravellings.{name}",
                  f"unravelling does not sum to the channel (deviation {dev:.3e})")
    schedule = _get(doc, "schedule", "$", required=False)
    schedule = [] if schedule is None else _typed(schedule, list, "$.schedule")
    for i, entry in enumerate(schedule):
        path = f"$.schedule[{i}]"
        name = _get(_typed(entry, dict, path), "unravelling", path)
        if not isinstance(name, str) or name not in model.unravellings:
            _fail(f"{path}.unravelling", f"unknown unravelling {name!r}")
        unr = model.unravellings[name]
        fk = _observation(_get(entry, "observation", path), unr.labels, f"{path}.observation")
        model.schedule.append(TimeStep(unravelling=unr, f=fk))
    windows = _get(doc, "observation_windows", "$", required=False)
    if windows is not None:
        if not isinstance(windows, list) or not windows:
            _fail("$.observation_windows", "expected a non-empty list of windows")
        parsed = {}
        for i, pair in enumerate(windows):
            path = f"$.observation_windows[{i}]"
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)
                    and pair[0] and all(l in labels for l in pair[0])):
                _fail(path, "expected [[labels...], value] with at least one label")
            if len(pair[0]) != len(windows[0][0]):
                _fail(path, f"window of length {len(pair[0])} among windows of length "
                            f"{len(windows[0][0])}")
            parsed[tuple(pair[0])] = _finite(pair[1], path)
        model.observation_windows = parsed
    model.parameter_grid = _get(doc, "parameter_grid", "$", required=False)
    model.family = _get(doc, "family", "$", required=False)
    return model


def _parse_gkls(doc: dict) -> Model:
    h = parse_complex_matrix(_get(doc, "hamiltonian", "$"), "$.hamiltonian")
    jumps_doc = _typed(_get(doc, "jumps", "$"), list, "$.jumps")
    labels = _labels(doc)
    if not jumps_doc:
        _fail("$.jumps", "expected at least one jump operator")
    if len(labels) != len(jumps_doc):
        _fail("$.jumps", f"{len(jumps_doc)} jump operators for {len(labels)} labels")
    jumps = [parse_complex_matrix(m, f"$.jumps[{i}]") for i, m in enumerate(jumps_doc)]
    for i, jump in enumerate(jumps):
        if jump.shape != h.shape:
            _fail(f"$.jumps[{i}]", f"expected dimension {h.shape[0]}, got {jump.shape[0]}")
    try:
        gen = GKLSGenerator(h, jumps, labels)
    except Exception as exc:
        _fail("$.hamiltonian", str(exc))
    count_label = _get(doc, "count_label", "$", required=False)
    if count_label is not None and count_label not in gen.labels:
        _fail("$.count_label", f"{count_label!r} is not a jump label")
    return Model(kind="gkls", generator=gen,
                 count_label=count_label if count_label is not None else gen.labels[0])


def _parse_classical(doc: dict) -> Model:
    states = _typed(_get(doc, "states", "$"), list, "$.states")
    rows = _get(doc, "transition", "$")
    try:
        chain = MarkovChain(np.asarray(rows, dtype=float), states=states)
    except Exception as exc:
        _fail("$.transition", str(exc))
    model = Model(kind="classical", chain=chain)
    flux_doc = _get(doc, "flux", "$", required=False)
    if flux_doc is not None:
        for i, entry in enumerate(_typed(flux_doc, list, "$.flux")):
            if not (isinstance(entry, list) and len(entry) == 3):
                _fail(f"$.flux[{i}]", "expected [from, to, value]")
            unknown = [s for s in entry[:2] if s not in chain.states]
            if unknown:
                _fail(f"$.flux[{i}]", f"unknown state {unknown[0]!r}")
        try:
            flux = FluxFunction({(a, b): value for a, b, value in flux_doc})
            flux.matrix(chain)
        except (KeyError, TypeError, ValueError) as exc:  # a bad value, or an edge without one
            _fail("$.flux", exc.args[0])
        model.flux = flux.values
    initial = _get(doc, "initial", "$", required=False)
    if initial is not None:
        arr = np.asarray([_finite(v, f"$.initial[{i}]")
                          for i, v in enumerate(_typed(initial, list, "$.initial"))])
        if arr.shape != (chain.size,) or abs(arr.sum() - 1.0) > 1e-9 or np.any(arr < 0):
            _fail("$.initial", "expected a probability vector over the states")
        model.initial = arr
    return model


def load_model(path: str, tol_channel: float = TAU_CHANNEL) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"$: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"$: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelParseError("$: top level must be an object")
    kind = _get(doc, "kind", "$")
    if kind == "kraus":
        return _parse_kraus(doc, tol_channel)
    if kind == "gkls":
        return _parse_gkls(doc)
    if kind == "classical":
        return _parse_classical(doc)
    _fail("$.kind", f"unknown model kind {kind!r}")
