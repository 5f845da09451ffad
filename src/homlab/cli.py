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
into a JSON sidecar or report. A run's files are renamed into place only
after all of them are written, and are byte-identical for identical
configurations (nothing in the pipeline is randomized). Exit codes: 0 success, 2 validation error, 3 averaging
regime violation, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import numbers
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .figures import CURVE_PRESETS, FIGURE_PRESETS, FigureBundle, build_figure
from .qps import QpsTarget, qps_scan, qps_scan_samples
# coarse_grain_surface is not called here any more, but perfbench/tracing.py
# wraps it under the name cli.coarse_grain_surface, so it stays imported.
from .rates import (
    MAX_WINDOW_NODES,
    LossParams,
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
)
from .sensing import ExtremaError, SensingScenario, run_sensing
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
_MODES = ("hom", "mhom", "coarse", "loss", "sense", "qps", "figure")
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
                if den == 0.0:
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

    Regime errors pass through; a message that already names ``path`` is kept.
    """
    try:
        yield
    except (ConfigError, RegimeError):
        raise
    except (ValueError, TypeError) as exc:
        text = str(exc)
        raise ConfigError(text if text.startswith(f"{path}: ") else f"{path}: {text}") from None


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
    t1 = _parse_range(cfg.get("tau1"), "tau1")
    t2 = _parse_range(cfg.get("tau2"), "tau2")
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


def _check_figure_n(preset: str, n: int | None, path: str) -> None:
    if n is not None:
        _check_count(n, path, 16, _MAX_VALUES if preset in CURVE_PRESETS else _MAX_SIDE)


def _parse_source(cfg, path: str, choices: tuple) -> str:
    if "source" not in cfg:
        raise ConfigError(f"{_join(path, 'source')}: required field is missing")
    source = cfg["source"]
    if source not in choices:
        raise ConfigError(
            f"{_join(path, 'source')}: expected one of {', '.join(choices)}, got {source!r}"
        )
    return source


def _parse_stem(cfg, default: str) -> str:
    stem = cfg.get("stem", default)
    if not isinstance(stem, str) or not _STEM_RE.match(stem):
        raise ConfigError(f"stem: expected a plain file-name stem, got {stem!r}")
    return stem


# ----- Serialization -----


# Every number is written with ``%.12g``, through one ``%`` call per surface
# row (or per curve) on a template, so all float conversions of a row run
# inside one C-level call.


def curve_csv(curve: RateCurve, label: str = "delay") -> str:
    scaled = np.asarray(curve.values, dtype=float) / curve.plateau
    pairs = np.column_stack((curve.axis, scaled)).ravel().tolist()
    return f"{label},rate_rescaled\n" + ("%.12g,%.12g\n" * len(curve.axis)) % tuple(pairs)


def surface_csv(surface: RateSurface, labels=("tau1", "tau2")) -> str:
    scaled = np.asarray(surface.values, dtype=float) / surface.plateau
    # "\0" marks where each line's tau1 prefix goes; axis strings never contain it
    body = "".join("\0%.12g,%%.12g\n" % t2 for t2 in surface.tau2_axis.tolist())
    parts = [f"{labels[0]},{labels[1]},rate_rescaled\n"]
    for t1, row in zip(surface.tau1_axis.tolist(), scaled.tolist()):
        parts.append(body.replace("\0", "%.12g," % t1) % tuple(row))
    return "".join(parts)


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


def _plateau(source: str, model, loss: LossParams = LossParams()) -> float:
    """Plateau every rate is divided by; a model or loss that makes it vanish
    or overflow is refused, naming the lossless model first."""
    for path, lo in (("pulse.total_intensity", LossParams()), ("loss", loss)):
        try:
            plateau = bp_plateau(lo) if source == "bp" else cp_plateau(model, lo)
        except OverflowError:
            plateau = math.inf
        if not 0.0 < plateau < math.inf:
            raise ConfigError(f"{path}: the rate plateau {plateau:.4g} cannot rescale the rates")
    return plateau


def _range_dict(axis: np.ndarray) -> dict:
    return {"min": float(axis[0]), "max": float(axis[-1]), "n": int(axis.size)}


_TMP_SERIAL = itertools.count()


def _write_artifacts(out_dir: Path, artifacts) -> list[Path]:
    """Write a set of files: every temp file first, then rename them all.

    Temp names carry the process id and a per-process serial, so runs
    writing into one directory at the same time never share a temp file.
    A failure while writing removes every temp file of the set and leaves
    every target as it was.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, text in artifacts:
            tmp = out_dir / f".{name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
            staged.append((tmp, out_dir / name))
            tmp.write_text(text, encoding="utf-8")
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        # no-op after a full set of renames
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
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
    _check_keys(cfg, "", ("version", "mode", "source", "tau"),
                ("spectrum", "pulse", "stem"))
    source = _parse_source(cfg, "", ("bp", "cp", "cp_coarse"))
    model, record = _model_for(cfg, "bp" if source == "bp" else "cp")
    axis = _parse_range(cfg.get("tau"), "tau")
    form = {"bp": hom_bp_analytic, "cp": hom_cp_analytic,
            "cp_coarse": hom_cp_coarse_analytic}[source]
    plateau = _plateau(source, model)
    curve = sample_curve(lambda t: form(t, model), axis, plateau)
    stem = _parse_stem(cfg, f"hom_{source}")
    return _with_record([(f"{stem}.csv", curve_csv(curve))], f"{stem}.json", {
        "mode": "hom",
        "source": source,
        "tau": _range_dict(axis),
        "plateau": plateau,
        "units": _UNITS,
        **record,
    })


def _parse_window(cfg: dict) -> tuple[float | None, int | None]:
    """``window`` and ``window_n`` of a coarse run; ``theta`` needs the window too."""
    window = None
    if "window" in cfg:
        window = _as_number(cfg["window"], "window")
        if window <= 0.0:
            raise ConfigError("window: must be positive")
    for key in ("theta", "window_n"):
        if key in cfg and window is None:
            raise ConfigError(f"{key}: only meaningful together with 'window'")
    window_n = _as_int(cfg["window_n"], "window_n") if "window_n" in cfg else None
    if window_n is not None and not 2 <= window_n <= MAX_WINDOW_NODES:
        raise ConfigError(f"window_n: need 2 to {MAX_WINDOW_NODES} nodes, got {window_n}")
    return window, window_n


# Fields each two-delay surface mode adds to the shared ones: (required, optional).
_SURFACE_FIELDS = {
    "mhom": ((), ("theta",)),
    "coarse": ((), ("window", "window_n", "theta")),
    "loss": (("loss",), ()),
}


def _build_surface(cfg: dict) -> list:
    """Modes ``mhom``, ``coarse`` and ``loss``: one two-delay surface and its sidecar."""
    mode = cfg["mode"]
    required, optional = _SURFACE_FIELDS[mode]
    _check_keys(cfg, "", ("version", "mode", "source", "tau1", "tau2", *required),
                ("spectrum", "pulse", *optional, "stem"))
    source = _parse_source(cfg, "", ("bp", "cp"))
    model, record = _model_for(cfg, source)
    loss, loss_record = _loss_field(cfg)
    window, window_n = _parse_window(cfg) if mode == "coarse" else (None, None)
    theta = parse_angle(cfg.get("theta", 0.0), "theta")
    t1, t2 = _parse_grid(cfg)
    bp = source == "bp"
    plateau = _plateau(source, model, loss)
    if mode == "mhom":
        form = mhom_bp_analytic if bp else mhom_cp_analytic
        surface = sample_surface(lambda a, b: form(a, b, theta, model), t1, t2, plateau)
    elif window is None:
        form = mhom_bp_coarse_analytic if bp else mhom_cp_coarse_analytic
        surface = sample_surface(lambda a, b: form(a, b, model, loss), t1, t2, plateau)
    else:
        form = mhom_bp_windowed if bp else mhom_cp_windowed
        # the automatic node count for this window and carrier may exceed the cap
        with _wrap_model_error("window"):
            values = form(t1, t2, theta, model, window, n=window_n)
        surface = RateSurface(t1, t2, values, plateau)
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
    return _with_record([(f"{stem}.csv", surface_csv(surface))], f"{stem}.json", params)


def _build_sense(cfg: dict) -> list:
    _check_keys(cfg, "", ("version", "mode", "source", "scenario"),
                ("spectrum", "pulse", "loss", "n", "span", "stem"))
    source = _parse_source(cfg, "", ("bp", "cp"))
    model, record = _model_for(cfg, source)
    scenario = _parse_record(cfg.get("scenario"), "scenario", SensingScenario)
    loss, loss_record = _loss_field(cfg)
    n = _count_field(cfg, "n", 51, _MAX_VALUES, 2001)
    span = _as_number(cfg["span"], "span") if "span" in cfg else None
    if span is not None and span <= 0.0:
        raise ConfigError("span: must be positive")
    _plateau(source, model, loss)
    with _wrap_model_error("scenario"), _scan_resolves("scenario"):
        result = run_sensing(scenario, source, model, loss=loss, n=n, span=span)
    stem = _parse_stem(cfg, f"sense_{source}")
    dl1_eff = scenario.dl1_0 - 2.0 * scenario.x1
    data = [(f"{stem}_scan.csv", curve_csv(result.curve, label="x2"))]
    return _with_record(data, f"{stem}_report.json", {
        "mode": "sense",
        "source": source,
        "scenario": asdict(scenario),
        "loss": loss_record,
        "plateau": result.curve.plateau,
        "extrema": result.report.to_dict(),
        "recovered": {"dl1": result.dl1_recovered, "dl2": result.dl2_recovered},
        "residuals": {
            "dl1": result.dl1_recovered - abs(dl1_eff),
            "dl2": result.dl2_recovered - scenario.dl2_0,
        },
        "units": _UNITS,
        **record,
    })


def _build_qps(cfg: dict) -> list:
    _check_keys(cfg, "", ("version", "mode", "target", "spectrum"),
                ("loss", "c", "n", "surface_n", "stem"))
    target = _parse_record(cfg.get("target"), "target", QpsTarget,
                           gamma=parse_angle, vartheta=parse_angle)
    spectrum = _parse_record(cfg.get("spectrum"), "spectrum", GaussianJointSpectrum)
    loss, loss_record = _loss_field(cfg)
    _plateau("bp", spectrum, loss)
    c = _as_number(cfg["c"], "c") if "c" in cfg else 1.0
    if c <= 0.0:
        raise ConfigError("c: must be positive")
    n = _count_field(cfg, "n", 51, _MAX_VALUES, None)
    if n is None and (need := qps_scan_samples(target, spectrum, c)) > _MAX_VALUES:
        raise ConfigError(
            f"target.r: the default scan for r / c = {target.r / c:.4g} needs "
            f"{need:.4g} samples, more than {_MAX_VALUES}"
        )
    surface_n = _count_field(cfg, "surface_n", 2, _MAX_SIDE, 81)
    with _wrap_model_error("target"), _scan_resolves("n"):
        result = qps_scan(target, spectrum, loss=loss, c=c, n=n,
                          surface_n=surface_n)
    stem = _parse_stem(cfg, "qps")
    data = [
        (f"{stem}_scan.csv", curve_csv(result.curve, label="s2_control")),
        (f"{stem}_surface.csv",
         surface_csv(result.surface, labels=("s1_control", "s2_control"))),
    ]
    return _with_record(data, f"{stem}_report.json", {
        "mode": "qps",
        "target": asdict(target),
        "spectrum": asdict(spectrum),
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
        "extrema": result.report.to_dict(),
        "units": _UNITS,
    })


def _bundle_artifacts(bundle: FigureBundle) -> list:
    data = [
        (ds.name + ".csv", curve_csv(ds.data, ds.labels[0]) if isinstance(ds.data, RateCurve)
         else surface_csv(ds.data, ds.labels))
        for ds in bundle.datasets
    ]
    return _with_record(data, bundle.preset + ".json", dict(bundle.params))


def _build_figure_mode(cfg: dict) -> list:
    _check_keys(cfg, "", ("version", "mode", "preset"), ("theta", "n"))
    preset = cfg.get("preset")
    if preset not in FIGURE_PRESETS:
        raise ConfigError(
            f"preset: expected one of {', '.join(FIGURE_PRESETS)}, got {preset!r}"
        )
    theta = parse_angle(cfg["theta"], "theta") if "theta" in cfg else None
    n = _as_int(cfg["n"], "n") if "n" in cfg else None
    _check_figure_n(preset, n, "n")
    with _wrap_model_error("preset"):
        bundle = build_figure(preset, theta=theta, n=n)
    return _bundle_artifacts(bundle)


_BUILDERS = {
    "hom": _build_hom,
    "mhom": _build_surface,
    "coarse": _build_surface,
    "loss": _build_surface,
    "sense": _build_sense,
    "qps": _build_qps,
    "figure": _build_figure_mode,
}


# ----- Entry points -----


def run_figure(preset: str, out_dir, theta: float | None = None,
               n: int | None = None) -> list[Path]:
    """Build one preset and write its files; returns the written paths."""
    _check_figure_n(preset, n, "--n")
    with _wrap_model_error("figure"):
        bundle = build_figure(preset, theta=theta, n=n)
    return _write_artifacts(Path(out_dir), _bundle_artifacts(bundle))


def run_scenario(config: dict, out_dir) -> list[Path]:
    """Validate a configuration document, run it, write its artifacts.

    Everything is computed before the first byte is written, so a
    rejected configuration leaves no partial files behind.
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
    if mode not in _MODES:
        raise ConfigError(f"mode: expected one of {', '.join(_MODES)}, got {mode!r}")
    artifacts = _BUILDERS[mode](config)
    return _write_artifacts(Path(out_dir), artifacts)


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
    fig.add_argument("preset", choices=FIGURE_PRESETS)
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
    except (ConfigError, ExtremaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
