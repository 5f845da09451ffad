"""Command-line front end emitting CSV data files and JSON reports.

Two subcommands:

``homlab figure PRESET [--theta VAL] [--n N] [--out DIR]``
    Emit the data files of one preset plot (see the figures module).

``homlab run CONFIG [--out DIR]``
    Run a scenario described by a versioned JSON document.

Configuration documents share the envelope ``{"version": 1, "mode":
...}`` with mode-specific fields; unknown fields are rejected with the
offending field path. The blocks ``spectrum``, ``pulse``, ``loss``,
``scenario`` and ``target`` take exactly the fields of the library
records they build (``GaussianJointSpectrum``, ``CoherentSpectrum``,
``LossParams``, ``SensingScenario``, ``QpsTarget``). Modes:

* ``hom``: single-delay curve. Fields: ``source`` (``bp``, ``cp`` or
  ``cp_coarse``), ``spectrum`` or ``pulse``, ``tau`` range, optional
  ``stem``.
* ``mhom``: two-delay surface. Fields: ``source`` (``bp``/``cp``),
  optional ``theta`` (number or ``"pi/2"`` style string), model,
  ``tau1``/``tau2`` ranges.
* ``coarse``: fluctuation-averaged two-delay surface from the averaged
  closed forms; with an explicit ``window`` the oscillatory closed form
  is box-averaged instead (optional ``theta`` and ``window_n`` apply
  only there).
* ``loss``: averaged two-delay surface with path losses. Adds ``loss``
  with amplitudes ``xi1, xi2, chi1, chi2`` (number or ``[re, im]``).
* ``sense``: two-offset recovery scan. Fields: ``source``, model,
  ``scenario`` (``dl1_0``, ``dl2_0``, optional ``x1``, ``c``), optional
  ``loss``, ``n``, ``span``.
* ``qps``: simulated position-recovery scan. Fields: ``target`` (``r``,
  ``gamma``, ``vartheta``), ``spectrum``, optional ``loss``, ``c``,
  ``n``, ``surface_n``.
* ``figure``: same as the figure subcommand. Fields: ``preset``,
  optional ``theta``, ``n``.

Ranges are ``{"min": a, "max": b, "n": k}``. All emitted rates are
divided by the model plateau; every artifact gets the parameters echoed
into a JSON sidecar or report. Every rate of a run is computed before its
first byte is written; each CSV is then streamed into a temp file in chunks
of rows, and the files are renamed into place only after all of them are
written. Files are byte-identical for identical configurations (nothing in
the pipeline is randomized). Exit codes: 0 success, 2 validation error, 3
averaging regime violation, 1 I/O failure. A rate that comes out nan or
infinite is refused with exit 2, and nothing is written.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import numbers
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from importlib import import_module
from pathlib import Path

import numpy as np

# coarse_grain_surface is not called here any more, but perfbench/tracing.py
# wraps it under the name cli.coarse_grain_surface, so it stays imported.
from .rates import (
    MAX_WINDOW_NODES,
    LossParams,
    NonFiniteRateError,
    RateCurve,
    RateSurface,
    RegimeError,
    bp_plateau,
    coarse_grain_surface,
    cp_plateau,
    hom_bp_analytic,
    hom_cp_analytic,
    hom_cp_coarse_analytic,
    mhom_bp_analytic,
    mhom_bp_coarse_analytic,
    mhom_bp_windowed,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    mhom_cp_windowed,
    sample_curve,
    sample_surface,
    window_nodes,
)
from .spectra import CoherentSpectrum, GaussianJointSpectrum

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "parse_angle",
    "run_figure",
    "run_scenario",
    "main",
]

CONFIG_VERSION = 1
_UNITS = {
    "delay": "1/d_omega_minus",
    "rate": "rescaled by the plateau value",
    "c": "same length unit as delays unless set in the scenario",
}
_STEM_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

# Values one artifact may hold (a 1448 x 1448 surface); every count a config
# sets is checked against it before anything that size is allocated.
_MAX_VALUES = 1 << 21
_MAX_SIDE = math.isqrt(_MAX_VALUES)


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# The names taken from the layers only some modes use. A mode binds its
# layers' names as module globals before it calls them (``_load``), and so
# does reading one as an attribute of this module, so a run imports only the
# layers its mode needs. A name bound earlier, such as a wrapper the
# benchmark tracer sets, is kept, and the mode calls it.
_LAYER_NAMES = {
    "figures": ("CURVE_PRESETS", "FIGURE_PRESETS", "build_figure"),
    "qps": ("QpsTarget", "qps_scan", "qps_scan_samples"),
    "sensing": ("ExtremaError", "SensingScenario", "run_sensing"),
}


def _load(*layers: str) -> None:
    for layer in layers:
        module = import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    for layer, names in _LAYER_NAMES.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _FigurePresets:
    """The preset names as argparse choices: figures loads when they are read."""

    def __iter__(self):
        _load("figures")
        return iter(FIGURE_PRESETS)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    return value


def _check_keys(cfg: dict, path: str, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        where = path or "config"
        raise ConfigError(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{_join(path, key)}: required field is missing")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: expected a number")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: number out of range") from None
    if not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite number")
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{path}: expected an integer")
    return int(value)


def parse_angle(value, path: str = "theta") -> float:
    """Angle from a JSON value: a plain number or a 'pi'-style string.

    Accepted strings: ``"pi"``, ``"-pi"``, ``"pi/2"``, ``"3pi/4"``,
    ``"0.5pi"``, ``"1.25"`` (spaces and ``*`` are ignored).
    """
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected an angle, got a boolean")
    if isinstance(value, numbers.Real):
        return _as_number(value, path)
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a number or a 'pi'-style string")
    text = value.strip().lower().replace(" ", "").replace("*", "")
    try:
        if "pi" in text:
            head, _, tail = text.partition("pi")
            if head in ("", "+"):
                coef = 1.0
            elif head == "-":
                coef = -1.0
            else:
                coef = float(head)
            den = 1.0
            if tail:
                if not tail.startswith("/"):
                    raise ValueError
                den = float(tail[1:])
            if den == 0.0 or not (math.isfinite(coef) and math.isfinite(den)):
                raise ValueError
            angle = coef * math.pi / den
        else:
            angle = float(text)
    except ValueError:
        raise ConfigError(f"{path}: cannot parse angle {value!r}") from None
    if not math.isfinite(angle):
        raise ConfigError(f"{path}: expected a finite angle, got {value!r}")
    return angle


# ----- Model parsing -----


@contextmanager
def _wrap_model_error(path: str):
    """Report a model's rejection of parsed values as a config error at ``path``.

    Regime errors and non-finite rates pass through.
    """
    try:
        yield
    except (ConfigError, RegimeError, NonFiniteRateError):
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# Config fields a run's rates are computed from, in the order a non-finite
# refusal names them; the sample counts are bounded and cannot overflow a rate.
_RATE_FIELDS = ("tau", "tau1", "tau2", "theta", "window", "scenario", "span", "target", "c",
                "spectrum", "pulse", "loss")


@contextmanager
def _rates_from(paths):
    """Name the fields ``paths`` when the rates they give come out nan or infinite."""
    try:
        yield
    except NonFiniteRateError as exc:
        raise NonFiniteRateError(f"{', '.join(paths)}: {exc}") from None


@contextmanager
def _scan_resolves(path: str):
    """Name the field to change when a valid scan misses the features it needs."""
    try:
        yield
    except ExtremaError as exc:
        raise ExtremaError(
            f"{path}: the scan did not resolve the expected features ({exc})"
        ) from None


def _parse_record(cfg, path: str, cls, parse=_as_number, **parsers):
    """The library record ``cls`` from the JSON block at ``path``.

    The block takes exactly the fields of ``cls``; those without a default
    are required. Each value goes through ``parse`` unless ``parsers``
    names another parser for its key, and the record's own checks are
    reported at ``path``.
    """
    cfg = _require_mapping(cfg, path)
    _check_keys(cfg, path, tuple(f.name for f in fields(cls) if f.default is MISSING),
                tuple(f.name for f in fields(cls) if f.default is not MISSING))
    kwargs = {key: parsers.get(key, parse)(cfg[key], _join(path, key)) for key in cfg}
    with _wrap_model_error(path):
        return cls(**kwargs)


def _parse_amplitude(value, path: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{path}: complex amplitude needs [re, im]")
        return complex(_as_number(value[0], path), _as_number(value[1], path))
    return complex(_as_number(value, path))


def _parse_range(cfg, path: str) -> np.ndarray:
    cfg = _require_mapping(cfg, path)
    _check_keys(cfg, path, ("min", "max", "n"), ())
    lo = _as_number(cfg["min"], _join(path, "min"))
    hi = _as_number(cfg["max"], _join(path, "max"))
    n = _as_int(cfg["n"], _join(path, "n"))
    if hi <= lo:
        raise ConfigError(f"{path}: 'max' must exceed 'min'")
    if math.isinf(hi - lo):
        raise ConfigError(f"{path}: 'max' - 'min' is out of range")
    if not 2 <= n <= _MAX_VALUES:
        raise ConfigError(f"{_join(path, 'n')}: need 2 to {_MAX_VALUES} samples, got {n}")
    return np.linspace(lo, hi, n)


def _parse_grid(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    t1 = _parse_range(cfg["tau1"], "tau1")
    t2 = _parse_range(cfg["tau2"], "tau2")
    if t1.size * t2.size > _MAX_VALUES:
        raise ConfigError(
            f"tau1.n x tau2.n: {t1.size} x {t2.size} values, more than {_MAX_VALUES}"
        )
    return t1, t2


def _check_count(n: int, path: str, least: int, most: int) -> int:
    if not least <= n <= most:
        raise ConfigError(f"{path}: need {least} to {most}, got {n}")
    return n


def _count_field(cfg: dict, key: str, least: int, most: int, default):
    if key not in cfg:
        return default
    return _check_count(_as_int(cfg[key], key), key, least, most)


def _positive_field(cfg: dict, key: str, default=None):
    if key not in cfg:
        return default
    value = _as_number(cfg[key], key)
    if value <= 0.0:
        raise ConfigError(f"{key}: must be positive")
    return value


def _check_figure_n(preset: str, n: int | None, path: str) -> None:
    if n is not None:
        _check_count(n, path, 16, _MAX_VALUES if preset in CURVE_PRESETS else _MAX_SIDE)


def _parse_source(cfg, choices: tuple) -> str:
    source = cfg["source"]
    if source not in choices:
        raise ConfigError(f"source: expected one of {', '.join(choices)}, got {source!r}")
    return source


def _parse_stem(cfg, default: str) -> str:
    stem = cfg.get("stem", default)
    if not isinstance(stem, str) or not _STEM_RE.match(stem):
        raise ConfigError(f"stem: expected a plain file-name stem, got {stem!r}")
    return stem


# ----- Serialization -----


# Every number is written with ``%.12g``. A CSV is produced in chunks of at
# most about ``_CHUNK_VALUES`` numbers, so writing it holds one chunk of text
# at a time. A surface row (or column block) and a block of curve rows are
# each formatted by one ``%`` call on a template, so all float conversions
# there run inside one C-level call. Each chunk divides its own slice of
# rates by the plateau: the same elementwise division as over the whole
# array, so the bits do not change. The size keeps a row at the grid cap
# (1448 lines) in one chunk and a chunk's text to a few hundred kB.
_CHUNK_VALUES = 1 << 14


def curve_rows(curve: RateCurve, label: str = "delay"):
    """The CSV text of ``curve`` in chunks: the header, then blocks of rows."""
    yield f"{label},rate_rescaled\n"
    step = _CHUNK_VALUES // 2
    for lo in range(0, curve.axis.size, step):
        axis = curve.axis[lo:lo + step]
        scaled = curve.values[lo:lo + step] / curve.plateau
        pairs = np.column_stack((axis, scaled)).ravel().tolist()
        yield ("%.12g,%.12g\n" * axis.size) % tuple(pairs)


def surface_rows(surface: RateSurface, labels=("tau1", "tau2")):
    """The CSV text of ``surface`` in chunks: the header, then blocks of whole
    rows, or blocks of columns of one row where a row holds more than a chunk."""
    yield f"{labels[0]},{labels[1]},rate_rescaled\n"
    n1, n2 = surface.values.shape
    cols = _CHUNK_VALUES // 3
    rows = max(1, cols // max(1, n2))

    def template(j):
        # "\0" marks where each line's tau1 prefix goes; axis strings never contain it
        t2 = surface.tau2_axis[j:j + cols].tolist()
        return ("\0%.12g,%%.12g\n" * len(t2)) % tuple(t2)

    whole = template(0) if n2 <= cols else None
    for i in range(0, n1, rows):
        t1 = surface.tau1_axis[i:i + rows].tolist()
        for j in range(0, n2, cols):
            body = template(j) if whole is None else whole
            scaled = surface.values[i:i + rows, j:j + cols] / surface.plateau
            yield "".join(body.replace("\0", "%.12g," % a) % tuple(row)
                          for a, row in zip(t1, scaled.tolist()))


def curve_csv(curve: RateCurve, label: str = "delay") -> str:
    return "".join(curve_rows(curve, label))


def surface_csv(surface: RateSurface, labels=("tau1", "tau2")) -> str:
    return "".join(surface_rows(surface, labels))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _with_record(data: list, name: str, record: dict) -> list:
    """The data files of a run, then its JSON record ``name`` listing them."""
    record["files"] = [file for file, _ in data]
    return [*data, (name, _json_text(record))]


def _loss_dict(loss: LossParams) -> dict:
    out = {name: z.real if z.imag == 0.0 else [z.real, z.imag]
           for name, z in asdict(loss).items()}
    return {**out, "eta_a": loss.eta_a, "eta_b": loss.eta_b}


def _loss_field(cfg: dict) -> tuple[LossParams, dict | None]:
    """The ``loss`` field and its record; lossless, with no record, when absent."""
    if "loss" not in cfg:
        return LossParams(), None
    loss = _parse_record(cfg["loss"], "loss", LossParams, _parse_amplitude)
    return loss, _loss_dict(loss)


def _plateau(model, loss: LossParams = LossParams()) -> float:
    """Plateau every rate of ``model``'s source is divided by; a model or loss
    that makes it vanish or overflow is refused, naming the lossless model first."""
    pair = isinstance(model, GaussianJointSpectrum)
    for path, lo in (("pulse.total_intensity", LossParams()), ("loss", loss)):
        try:
            plateau = bp_plateau(lo) if pair else cp_plateau(model, lo)
        except OverflowError:
            plateau = math.inf
        if not 0.0 < plateau < math.inf:
            raise ConfigError(f"{path}: the rate plateau {plateau:.4g} cannot rescale the rates")
    return plateau


def _range_dict(axis: np.ndarray) -> dict:
    return {"min": float(axis[0]), "max": float(axis[-1]), "n": int(axis.size)}


_TMP_SERIAL = itertools.count()


def _write_file(path: Path, content) -> None:
    """Write ``content``, a ``str`` or an iterable of ``str`` chunks, to
    ``path`` as ``Path.write_text`` would (UTF-8, default newline)."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines([content] if isinstance(content, str) else content)


def _write_artifacts(out_dir: Path, artifacts) -> list[Path]:
    """Write a set of files: every temp file first, then rename them all.

    Each artifact is a ``(name, content)`` pair, its content a ``str`` or an
    iterable of ``str`` chunks written one after another. Temp names carry
    the process id and a per-process serial, so runs writing into one
    directory at the same time never share a temp file. A failure while
    writing, in the file system or in a chunk generator, removes every temp
    file of the set and every directory this call created, and leaves every
    target as it was.
    """
    created = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, content in artifacts:
            tmp = out_dir / f".{name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
            staged.append((tmp, out_dir / name))
            _write_file(tmp, content)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for directory in created:  # deepest first; one that is not empty stays
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    return [target for _, target in staged]


# ----- Mode pipelines (pure: config -> artifact list) -----


def _model_for(cfg: dict, kind: str):
    """Model object plus its record, honoring the bp/cp field split."""
    if kind == "bp":
        if "pulse" in cfg:
            raise ConfigError("pulse: not used when the source is 'bp'")
        if "spectrum" not in cfg:
            raise ConfigError("spectrum: required field is missing")
        spectrum = _parse_record(cfg["spectrum"], "spectrum", GaussianJointSpectrum)
        return spectrum, {"spectrum": asdict(spectrum)}
    if "spectrum" in cfg:
        raise ConfigError("spectrum: not used for pulse sources")
    if "pulse" not in cfg:
        raise ConfigError("pulse: required field is missing")
    pulse = _parse_record(cfg["pulse"], "pulse", CoherentSpectrum)
    return pulse, {"pulse": asdict(pulse)}


def _build_hom(cfg: dict) -> list:
    source = _parse_source(cfg, ("bp", "cp", "cp_coarse"))
    model, record = _model_for(cfg, "bp" if source == "bp" else "cp")
    axis = _parse_range(cfg["tau"], "tau")
    form = {"bp": hom_bp_analytic, "cp": hom_cp_analytic,
            "cp_coarse": hom_cp_coarse_analytic}[source]
    plateau = _plateau(model)
    curve = sample_curve(lambda t: form(t, model), axis, plateau)
    stem = _parse_stem(cfg, f"hom_{source}")
    return _with_record([(f"{stem}.csv", curve_rows(curve))], f"{stem}.json", {
        "mode": "hom",
        "source": source,
        "tau": _range_dict(axis),
        "plateau": plateau,
        "units": _UNITS,
        **record,
    })


def _parse_window(cfg: dict) -> tuple[float | None, int | None]:
    """``window`` and ``window_n`` of a coarse run; ``theta`` needs the window too."""
    window = _positive_field(cfg, "window")
    for key in ("theta", "window_n"):
        if key in cfg and window is None:
            raise ConfigError(f"{key}: only meaningful together with 'window'")
    window_n = _as_int(cfg["window_n"], "window_n") if "window_n" in cfg else None
    if window_n is not None and not 2 <= window_n <= MAX_WINDOW_NODES:
        raise ConfigError(f"window_n: need 2 to {MAX_WINDOW_NODES} nodes, got {window_n}")
    return window, window_n


def _build_surface(cfg: dict) -> list:
    """Modes ``mhom``, ``coarse`` and ``loss``: one two-delay surface and its sidecar."""
    mode = cfg["mode"]
    source = _parse_source(cfg, ("bp", "cp"))
    model, record = _model_for(cfg, source)
    loss, loss_record = _loss_field(cfg)
    window, window_n = _parse_window(cfg) if mode == "coarse" else (None, None)
    theta = parse_angle(cfg.get("theta", 0.0), "theta")
    t1, t2 = _parse_grid(cfg)
    bp = source == "bp"
    plateau = _plateau(model, loss)
    if mode == "mhom":
        form = mhom_bp_analytic if bp else mhom_cp_analytic
        surface = sample_surface(lambda a, b: form(a, b, theta, model), t1, t2, plateau)
    elif window is None:
        form = mhom_bp_coarse_analytic if bp else mhom_cp_coarse_analytic
        surface = sample_surface(lambda a, b: form(a, b, model, loss), t1, t2, plateau)
    else:
        form = mhom_bp_windowed if bp else mhom_cp_windowed
        # the automatic count may exceed the cap; a RegimeError comes first and passes
        with _wrap_model_error("window"):
            nodes = window_nodes(window_n, window, model.omega0, model.window_envelope)
        surface = RateSurface(t1, t2, form(t1, t2, theta, model, window, n=nodes), plateau)
    stem = _parse_stem(cfg, f"{mode}_{source}")
    params = {
        "mode": mode,
        "source": source,
        "tau1": _range_dict(t1),
        "tau2": _range_dict(t2),
        "plateau": plateau,
        "units": _UNITS,
        **record,
    }
    if mode == "mhom" or window is not None:
        params["theta"] = theta
    if window is not None:
        params["window"] = window
    if window_n is not None:
        params["window_n"] = window_n
    if loss_record is not None:
        params["loss"] = loss_record
    return _with_record([(f"{stem}.csv", surface_rows(surface))], f"{stem}.json", params)


def _build_sense(cfg: dict) -> list:
    _load("sensing")
    source = _parse_source(cfg, ("bp", "cp"))
    model, record = _model_for(cfg, source)
    scenario = _parse_record(cfg["scenario"], "scenario", SensingScenario)
    loss, loss_record = _loss_field(cfg)
    n = _count_field(cfg, "n", 51, _MAX_VALUES, 2001)
    span = _positive_field(cfg, "span")
    _plateau(model, loss)
    with _scan_resolves("scenario"):
        result = run_sensing(scenario, model, loss=loss, n=n, span=span)
    stem = _parse_stem(cfg, f"sense_{source}")
    dl1_eff = scenario.dl1_0 - 2.0 * scenario.x1
    data = [(f"{stem}_scan.csv", curve_rows(result.curve, label="x2"))]
    return _with_record(data, f"{stem}_report.json", {
        "mode": "sense",
        "source": source,
        "scenario": asdict(scenario),
        "loss": loss_record,
        "plateau": result.curve.plateau,
        "extrema": asdict(result.report),
        "recovered": {"dl1": result.dl1_recovered, "dl2": result.dl2_recovered},
        "residuals": {
            "dl1": result.dl1_recovered - abs(dl1_eff),
            "dl2": result.dl2_recovered - scenario.dl2_0,
        },
        "units": _UNITS,
        **record,
    })


def _build_qps(cfg: dict) -> list:
    _load("qps", "sensing")
    target = _parse_record(cfg["target"], "target", QpsTarget,
                           gamma=parse_angle, vartheta=parse_angle)
    spectrum, record = _model_for(cfg, "bp")
    loss, loss_record = _loss_field(cfg)
    _plateau(spectrum, loss)
    c = _positive_field(cfg, "c", 1.0)
    n = _count_field(cfg, "n", 51, _MAX_VALUES, None)
    if n is None and (need := qps_scan_samples(target, spectrum, c)) > _MAX_VALUES:
        raise ConfigError(
            f"target.r: the default scan for r / c = {target.r / c:.4g} needs "
            f"{need:.4g} samples, more than {_MAX_VALUES}"
        )
    surface_n = _count_field(cfg, "surface_n", 2, _MAX_SIDE, 81)
    with _scan_resolves("n"):
        result = qps_scan(target, spectrum, loss=loss, c=c, n=n,
                          surface_n=surface_n)
    stem = _parse_stem(cfg, "qps")
    data = [
        (f"{stem}_scan.csv", curve_rows(result.curve, label="s2_control")),
        (f"{stem}_surface.csv",
         surface_rows(result.surface, labels=("s1_control", "s2_control"))),
    ]
    return _with_record(data, f"{stem}_report.json", {
        "mode": "qps",
        "target": asdict(target),
        "loss": loss_record,
        "c": c,
        "recovered": {**asdict(result.recovered),
                      "degenerate_azimuth": result.degenerate_azimuth},
        "controls": {
            "s1": result.s1,
            "s2": result.s2,
            "sign_u": result.sign_u,
            "sign_v": result.sign_v,
            "d1": result.d1,
            "d2": result.d2,
        },
        "residuals": {
            "gamma_error": result.gamma_error,
            "vartheta_error": result.vartheta_error,
            "position_error": result.position_error,
        },
        "extrema": asdict(result.report),
        "units": _UNITS,
        **record,
    })


def _figure_artifacts(preset: str, theta: float | None, n: int | None,
                      n_path: str = "n", path: str = "preset") -> list:
    """The files of one preset; ``n_path`` names the sample count, ``path`` model errors."""
    _load("figures")
    _check_figure_n(preset, n, n_path)
    with _wrap_model_error(path):
        bundle = build_figure(preset, theta=theta, n=n)
    data = [
        (ds.name + ".csv", curve_rows(ds.data, ds.labels[0]) if isinstance(ds.data, RateCurve)
         else surface_rows(ds.data, ds.labels))
        for ds in bundle.datasets
    ]
    return _with_record(data, bundle.preset + ".json", dict(bundle.params))


def _build_figure_mode(cfg: dict) -> list:
    preset = cfg["preset"]
    _load("figures")
    if preset not in FIGURE_PRESETS:
        raise ConfigError(
            f"preset: expected one of {', '.join(FIGURE_PRESETS)}, got {preset!r}"
        )
    theta = parse_angle(cfg["theta"], "theta") if "theta" in cfg else None
    n = _as_int(cfg["n"], "n") if "n" in cfg else None
    return _figure_artifacts(preset, theta, n)


# mode -> (its required and its optional fields besides "version" and "mode", its builder)
_MODES = {
    "hom": (("source", "tau"), ("spectrum", "pulse", "stem"), _build_hom),
    "mhom": (("source", "tau1", "tau2"), ("spectrum", "pulse", "theta", "stem"), _build_surface),
    "coarse": (("source", "tau1", "tau2"),
               ("spectrum", "pulse", "window", "window_n", "theta", "stem"), _build_surface),
    "loss": (("source", "tau1", "tau2", "loss"), ("spectrum", "pulse", "stem"), _build_surface),
    "sense": (("source", "scenario"),
              ("spectrum", "pulse", "loss", "n", "span", "stem"), _build_sense),
    "qps": (("target", "spectrum"), ("loss", "c", "n", "surface_n", "stem"), _build_qps),
    "figure": (("preset",), ("theta", "n"), _build_figure_mode),
}


# ----- Entry points -----


def run_figure(preset: str, out_dir, theta: float | None = None,
               n: int | None = None) -> list[Path]:
    """Build one preset and write its files; returns the written paths.

    Runs as ``run_scenario`` does; a non-finite refusal names ``--theta``.
    """
    with np.errstate(all="ignore"), _rates_from(("--theta",)):
        return _write_artifacts(Path(out_dir), _figure_artifacts(preset, theta, n, "--n", "figure"))


def run_scenario(config: dict, out_dir) -> list[Path]:
    """Validate a configuration document, run it, write its artifacts.

    Every rate is computed before the first byte is written, so a
    rejected configuration leaves no partial files behind; the CSVs are
    then formatted chunk by chunk while they are written, and a failure
    there removes the whole set (see ``_write_artifacts``). numpy's
    floating-point warnings are silenced for the run, since the rate
    containers refuse every nan or infinite rate; the refusal names the
    fields of ``_RATE_FIELDS`` that the config sets.
    """
    config = _require_mapping(config, "")
    if "version" not in config:
        raise ConfigError("version: required field is missing")
    version = config["version"]
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"version: expected {CONFIG_VERSION}, got {version!r}"
        )
    mode = config.get("mode")
    # a list or an object cannot be looked up in the table: refuse it first
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError(f"mode: expected one of {', '.join(_MODES)}, got {mode!r}")
    required, optional, build = _MODES[mode]
    _check_keys(config, "", ("version", "mode", *required), optional)
    with np.errstate(all="ignore"), _rates_from([key for key in _RATE_FIELDS if key in config]):
        return _write_artifacts(Path(out_dir), build(config))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read configuration {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise ConfigError(f"{path}: malformed JSON: nested too deeply") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Photon-coincidence data generator for one- and "
                    "two-delay interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit the data files of a preset plot")
    # set after add_argument, which would read the choices to check the metavar
    fig.add_argument("preset").choices = _FigurePresets()
    fig.add_argument("--theta", default=None,
                     help="achromatic phase, e.g. 'pi/2' (fig3 and fig4 only)")
    fig.add_argument("--n", type=int, default=None, help="samples per axis")
    fig.add_argument("--out", default=".", help="output directory")

    run = sub.add_parser("run", help="run a JSON scenario configuration")
    run.add_argument("config", help="path to the JSON configuration document")
    run.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            theta = None if args.theta is None else parse_angle(args.theta, "--theta")
            written = run_figure(args.preset, args.out, theta=theta, n=args.n)
        else:
            written = run_scenario(_load_config(args.config), args.out)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    # ExtremaError is bound once a scan mode loads sensing; only a scan raises it
    except (ConfigError, NonFiniteRateError, globals().get("ExtremaError", ConfigError)) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def script() -> None:
    """``main`` as a process: the ``homlab`` console script and ``python -m homlab.cli``.

    Every file is closed and renamed when ``main`` returns, so the process
    then freezes the objects the collector tracks and exits without the
    interpreter's final collections over them.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script()
