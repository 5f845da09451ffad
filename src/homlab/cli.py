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

A config document is read as at most 1 MiB (``_MAX_CONFIG_BYTES``) of strict
UTF-8 JSON: a longer document is refused unparsed, and an object that
repeats a key is refused with the key's block path (``spectrum.omega0:
repeated key``). Ranges are ``{"min": a, "max": b, "n": k}``. ``version``
must be the integer 1 (not ``true`` or ``1.0``) and is checked before
``mode``. A ``stem`` is a whole name of at most 200 characters: a letter or
digit, then letters, digits, ``_``, ``.`` or ``-``. ``_MODES`` declares each
mode's fields once. A run parses every field in that order, ``stem``
included, and fills in the defaults; only then do the rules that join fields
run (model block and plateau, grid size, ``qps`` scan length, averaging
regime), and then the rates, each divided by the model plateau.
Each run writes a JSON sidecar or report with its mode, model, ranges,
plateau and results. One table, ``_RECORDERS``, decides which config
fields every mode records and how; it records neither ``version`` nor
``stem``, nor the ``n``, ``span`` and ``surface_n`` of a scan or an
automatic ``window_n``. Every rate of a run is computed before its
first byte is written; each CSV is then streamed into a temp file in chunks
of rows, as ASCII bytes with ``\n`` line ends on every platform, and the
files are renamed into place only after all of them are written. Files are
byte-identical for identical configurations (nothing in the pipeline is
randomized). Exit codes: 0 success, 2 validation error, 3 averaging regime
violation, 1 I/O failure. A rate that comes out nan or
infinite is refused with exit 2, and nothing is written. So is a ``sense`` or
``qps`` scan that misses its features, or a default ``qps`` scan too long for
an artifact. Each refusal names, in table order, the fields the config sets
that the rates come from (``_RATE_FIELDS``), and a scan refusal also ``n``.
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
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from importlib import import_module
from pathlib import Path

import numpy as np

from .rates import (
    MAX_WINDOW_NODES,
    LossParams,
    NonFiniteRateError,
    RateCurve,
    RateSurface,
    RegimeError,
    bp_plateau,
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
# at most 200 characters: every name a run writes, and its temp name, fit in 255 bytes
_STEM_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,199}")

# Values one artifact may hold (a 1448 x 1448 surface); every count a config
# sets is checked against it before anything that size is allocated.
_MAX_VALUES = 1 << 21
_MAX_SIDE = math.isqrt(_MAX_VALUES)
# Bytes a config document may hold; a run reads one byte more and no further.
_MAX_CONFIG_BYTES = 1 << 20


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# The names taken from the layers only some modes use, and the reference the
# benchmark tracer wraps, which no mode calls. A mode binds its layers' names
# as module globals before it calls them (``_load``), and so does reading one
# as an attribute of this module, so a run imports only the layers its mode
# needs. A name bound earlier, such as a tracer's wrapper, is kept and called.
_LAYER_NAMES = {
    "figures": ("CURVE_PRESETS", "FIGURE_PRESETS", "PHASE_PRESETS", "build_figure"),
    "network": ("coarse_grain_surface",),
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


class _Object(dict):
    """A JSON object as read; ``repeated`` names the keys it sets more than once."""

    repeated = ()

    def __init__(self, pairs):
        super().__init__(pairs)
        if len(self) < len(pairs):
            self.repeated = [key for key, k in Counter(key for key, _ in pairs).items() if k > 1]


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    return value


def _check_keys(cfg: dict, path: str, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        where = path or "config"
        raise ConfigError(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")
    # json keeps the last value of a repeated key; each one here is a known field
    if repeated := getattr(cfg, "repeated", ()):
        raise ConfigError(f"{_join(path, repeated[0])}: repeated key")
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


# Config fields a run's rates are computed from, named in table order by a non-finite
# refusal; the sample counts are bounded and cannot overflow a rate.
_RATE_FIELDS = {"tau", "tau1", "tau2", "theta", "window", "scenario", "span", "target", "c",
                "spectrum", "pulse", "loss"}


@contextmanager
def _rates_from(paths):
    """Name the fields ``paths`` when the rates they give come out nan or infinite."""
    try:
        yield
    except NonFiniteRateError as exc:
        raise NonFiniteRateError(f"{', '.join(paths)}: {exc}") from None


@contextmanager
def _scan_resolves(f: dict):
    """Yield the names of the fields a scan reads (``_RATE_FIELDS`` and ``n``) that
    the config sets, in table order, for a scan refusal, and name them when a valid
    scan misses its features."""
    paths = ", ".join(key for key in f["given"] if key in _RATE_FIELDS or key == "n")
    try:
        yield paths
    except ExtremaError as exc:
        raise ConfigError(
            f"{paths}: the scan did not resolve the expected features ({exc})"
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
    return np.linspace(lo, hi, _check_count(n, _join(path, "n"), 2, _MAX_VALUES, " samples"))


def _check_count(n: int, path: str, least: int, most: int, unit: str = "") -> int:
    if not least <= n <= most:
        raise ConfigError(f"{path}: need {least} to {most}{unit}, got {n}")
    return n


def _count(least: int, most: int, unit: str = ""):
    """Parser of a count field: a whole number from ``least`` to ``most``."""
    return lambda value, path: _check_count(_as_int(value, path), path, least, most, unit)


def _positive(value, path: str) -> float:
    value = _as_number(value, path)
    if value <= 0.0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _one_of(*choices):
    """Parser of a field that takes one of ``choices``."""
    def parse(value, path: str):
        if value not in choices:
            raise ConfigError(f"{path}: expected one of {', '.join(choices)}, got {value!r}")
        return value
    return parse


def _parse_stem(value, path: str) -> str:
    if not isinstance(value, str) or not _STEM_RE.fullmatch(value):
        raise ConfigError(f"{path}: expected a plain file-name stem, got {value!r}")
    return value


# ----- Serialization -----


# Every number is written as ``'%.12g' % x`` writes it, but from digit
# arithmetic over a whole block in numpy. For 1e-4 <= |x| < 1e9, e =
# floor(log10|x|) lies in [-4, 8] and p = 11 - e in [3, 15], so 10**p is an
# exact double and y = fl(|x| * 10**p) lies in [1e11, 1e12], within ulp(y) / 2
# <= 6.2e-5 of the exact product. Rounding to an integer changes only at
# half-integers, so where y is more than 1e-3 from one, rint(y) is the
# correctly rounded 12-digit significand ``%.12g`` prints. A log10 that is off
# by one near a power of ten leaves y below 1e11 or at 1e12 and over, or puts
# it at exactly 1e11, which reads as the power of ten the true rounding
# carries to. A significand that rounds up to 1e12 is that next power of ten,
# 1e11 at e + 1. The decimal exponent stays in [-4, 8], so the text is
# fixed-point with p digits after the point, less trailing zeros and a bare
# point. Every other value (a near-tie, a carry to 1e9, 0, -0.0, values
# outside the band, inf and nan) goes through ``_percent``, which is ``%``
# itself.
#
# A value's text is six 32-bit words of ASCII, with NULs in between and after:
# a head pair (sign, and "0." and zeros below 1), then the digits in groups of
# three, the point inside the group it follows; a block's lines are laid out
# as words, and deleting every NUL byte leaves their text. A CSV is produced
# in chunks of at most about ``_CHUNK_VALUES`` numbers, so writing it holds
# one chunk of text (and its words) at a time. Each chunk divides its own
# slice of rates by the plateau: the same elementwise division as over the
# whole array, so the bits do not change. The size keeps a row at the grid cap
# (1448 lines) in one chunk and a chunk's text to a few hundred kB.
_CHUNK_VALUES = 1 << 14


def _word_tables():
    """The words of a text, with q = e + 4 in [0, 12].

    Heads: the pair ``[sign]["0." and -1 - e zeros if e < 0]`` at ``q + 13 *
    sign``. Groups: 000-999 (three digits, a NUL) in eight variants 1000 apart:
    as written; trailing zeros as NUL; the point after digit 1, 2 or 3; the
    same with the zeros after the point as NUL, and the point too if nothing
    follows it. Then the last group, trailing zeros as NUL, with a comma, then
    a newline. Variants: the offset of group k (0-2) at q by whether every
    digit after it is 0."""
    heads = b"".join((sign + (b"0." + b"0" * (3 - q) if q < 4 else b"")).ljust(8, b"\0")
                     for sign in (b"", b"-") for q in range(13))
    digits = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48).astype(np.uint8)
    kept = digits * (np.cumsum(digits[:, ::-1] != 48, axis=1)[:, ::-1] > 0)
    nul = np.zeros((1000, 1), np.uint8)
    pointed, pointed_kept = [], []
    for c in (1, 2, 3):
        pointed.append(np.insert(digits, [c], ord("."), axis=1))
        pointed_kept.append(pointed[-1].copy())
        pointed_kept[-1][:, c + 1:] = kept[:, c:]
        pointed_kept[-1][:, c] *= kept[:, c:].any(axis=1)
    groups = np.concatenate([np.c_[digits, nul], np.c_[kept, nul], *pointed, *pointed_kept,
                             np.c_[kept, nul + ord(",")], np.c_[kept, nul + ord("\n")]])
    variants = np.zeros((3, 13, 2), np.int64)
    for k, q, stripped in itertools.product(range(3), range(13), range(2)):
        c = q - 3 - 3 * k  # the point follows digit c of the group
        variants[k, q, stripped] = 1000 * (1 + c + 3 * stripped if 1 <= c <= 3 else
                                           0 if c > 3 else stripped)
    return np.frombuffer(heads, np.uint64), groups.view(np.uint32).ravel(), variants.reshape(3, -1)


_HEADS, _GROUPS, _VARIANTS = _word_tables()
_SCALE = (10 ** np.arange(15, 2, -1)).astype(float)  # 10**p by q, exact


def _percent(x: np.ndarray, end: str) -> np.ndarray:
    """``'%.12g' % v + end`` for each value ``v`` of ``x``, as 24-byte strings."""
    return np.array([("%.12g%s" % (v, end)).encode() for v in x.tolist()], dtype="S24")


def _texts(x: np.ndarray, end: str, out: np.ndarray) -> None:
    """Write the text of each value of the 1-D float array ``x``, then ``end``
    (a comma or a newline), into the matching row of ``out``, a (len(x), 6)
    uint32 array."""
    with np.errstate(all="ignore"):  # 0, inf and nan fail the checks below
        a = np.abs(x)
        q = np.log10(a)
        np.floor(q, out=q)
        q = np.fmin(np.fmax(q, -4.0), 8.0).astype(np.int64) + 4
        y = a * _SCALE.take(q)
        n = np.rint(y)
        fast = (np.abs(y - n) < 0.499) & (y >= 1e11) & (y < 1e12)
    carry = n == 1e12
    q += carry
    fast &= q <= 12
    np.minimum(q, 12, out=q)
    np.copyto(n, 1e11, where=carry | ~fast)
    rest = n.astype(np.int64)
    del a, y, n
    g1 = rest // 10**9
    rest -= g1 * 10**9
    g2 = rest // 10**6
    rest -= g2 * 10**6
    g3 = rest // 1000
    rest -= g3 * 1000
    zero3 = rest == 0  # whether every digit after group 3 is 0, and so on
    zero2 = zero3 & (g3 == 0)
    zero1 = zero2 & (g2 == 0)
    out[:, :2].view(np.uint64)[:, 0] = _HEADS.take(q + 13 * (x < 0))
    q *= 2
    for k, (group, zero) in enumerate(((g1, zero1), (g2, zero2), (g3, zero3))):
        group += _VARIANTS[k].take(q + zero)
        out[:, 2 + k] = _GROUPS.take(group)
    rest += 8000 if end == "," else 9000
    out[:, 5] = _GROUPS.take(rest)
    slow = np.flatnonzero(~fast)
    out[slow] = _percent(x[slow], end).view(np.uint32).reshape(-1, 6)


def _field(x: np.ndarray, packed: bool) -> np.ndarray:
    """The texts of ``x``, each followed by a comma, as rows of uint32 words:
    six per value, or with ``packed`` as few as the longest needs, NULs last."""
    words = np.empty((x.size, 6), np.uint32)
    _texts(x, ",", words)
    if not packed:
        return words
    texts = [t.replace(b"\0", b"") for t in words.view("S24").ravel().tolist()]
    width = -(-max(map(len, texts), default=1) // 4) * 4
    return np.array(texts, dtype=f"S{width}").view(np.uint32).reshape(x.size, width // 4)


def _lines(fields: list, values: np.ndarray) -> bytes:
    """The lines of a block of ``values`` (rows by columns): each line holds its
    ``fields`` (word arrays broadcast over the block), then its value."""
    rows, cols = values.shape
    words = np.empty((rows, cols, sum(f.shape[-1] for f in fields) + 6), np.uint32)
    at = 0
    for f in fields:
        words[..., at:at + f.shape[-1]] = f
        at += f.shape[-1]
    _texts(values.ravel(), "\n", words.reshape(rows * cols, -1)[:, at:])
    data = words.tobytes()
    del words  # so the chunk's words are held at most twice
    return data.translate(None, b"\0")


def _rows(header: str, axis: np.ndarray, values: np.ndarray, plateau: float, lead=None):
    """The CSV bytes of ``values / plateau`` in chunks: ``header`` in UTF-8, then
    blocks of whole rows, or of columns of one row where a row holds more than a
    chunk. Row ``i`` has a line per ``axis`` value led by ``lead[i]``; a curve has
    no ``lead``."""
    yield header.encode()
    if lead is None:
        values = values[None]
    cols = _CHUNK_VALUES // (2 if lead is None else 3)
    n1, n2 = values.shape
    rows = max(1, cols // max(1, n2))
    surface = lead is not None
    leads = _field(lead, True)[:, None] if surface else None
    whole = _field(axis, surface) if n2 <= cols else None
    for i in range(0, n1, rows):
        for j in range(0, n2, cols):
            mid = _field(axis[j:j + cols], surface) if whole is None else whole
            fields = [leads[i:i + rows], mid] if surface else [mid]
            yield _lines(fields, values[i:i + rows, j:j + cols] / plateau)


def curve_rows(curve: RateCurve, label: str = "delay"):
    """The CSV bytes of ``curve`` in chunks: the header, then blocks of lines."""
    return _rows(f"{label},rate_rescaled\n", curve.axis, curve.values, curve.plateau)


def surface_rows(surface: RateSurface, labels=("tau1", "tau2")):
    """The CSV bytes of ``surface`` in chunks: the header, then blocks of lines."""
    return _rows(f"{labels[0]},{labels[1]},rate_rescaled\n", surface.tau2_axis,
                 surface.values, surface.plateau, surface.tau1_axis)


def curve_csv(curve: RateCurve, label: str = "delay") -> str:
    return b"".join(curve_rows(curve, label)).decode()


def surface_csv(surface: RateSurface, labels=("tau1", "tau2")) -> str:
    return b"".join(surface_rows(surface, labels)).decode()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _with_record(data: list, name: str, f: dict | None, **results) -> list:
    """The data files of a run, then its JSON record ``name`` listing them.

    The record of a config run with resolved fields ``f`` holds its mode, the
    units, the fields ``_RECORDERS`` records and ``results``; a preset
    (``f`` None) records ``results`` alone.
    """
    record = {}
    if f is not None:
        table = _MODES[f["mode"]][0]
        record = {key: f[key] if recorder is None else recorder(f[key])
                  for key, recorder in _RECORDERS.items()
                  if key in table and (f[key] is not None or key == "loss")
                  and all(f[need] is not None for need in table[key][2:])}
        record.update(mode=f["mode"], units=_UNITS)
    record.update(results, files=[file for file, _ in data])
    return [*data, (name, [_json_text(record).encode("ascii")])]


def _loss_record(loss: LossParams | None) -> dict | None:
    """The record of a run's ``loss``; none when the config sets no loss."""
    if loss is None:
        return None
    out = {name: z.real if z.imag == 0.0 else [z.real, z.imag]
           for name, z in asdict(loss).items()}
    return {**out, "eta_a": loss.eta_a, "eta_b": loss.eta_b}


def _range_dict(axis: np.ndarray) -> dict:
    return {"min": float(axis[0]), "max": float(axis[-1]), "n": int(axis.size)}


_TMP_SERIAL = itertools.count()


def _write_file(path: Path, chunks) -> None:
    """Write ``chunks``, an iterable of ``bytes``, to ``path`` one after another."""
    with path.open("wb") as fh:
        fh.writelines(chunks)


def _write_artifacts(out_dir: Path, artifacts) -> list[Path]:
    """Write a set of files: every temp file first, then rename them all.

    Each artifact is a ``(name, chunks)`` pair, its chunks an iterable of
    ``bytes`` written one after another. Temp names carry the process id
    and a per-process serial, so runs writing into one directory at the
    same time never share a temp file. A failure while
    writing, in the file system or in a chunk generator, removes every temp
    file of the set and every directory this call created, and leaves every
    target as it was.
    """
    created = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, chunks in artifacts:
            tmp = out_dir / f".{name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
            staged.append((tmp, out_dir / name))
            _write_file(tmp, chunks)
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


# ----- Mode pipelines (pure: resolved fields -> artifact list) -----


def _model(f: dict):
    """A run's model, loss (lossless when unset) and plateau. The model is ``spectrum``
    for a ``bp`` source and for ``qps``, ``pulse`` for a pulse source; a plateau that
    vanishes or overflows is refused, naming the lossless model first."""
    pair = f.get("source", "bp") == "bp"
    key, unused, why = (("spectrum", "pulse", "when the source is 'bp'") if pair
                        else ("pulse", "spectrum", "for pulse sources"))
    if f.get(unused) is not None:
        raise ConfigError(f"{unused}: not used {why}")
    model, loss = f[key], f.get("loss") or LossParams()
    if model is None:
        raise ConfigError(f"{key}: required field is missing")
    for path, lo in (("pulse.total_intensity", LossParams()), ("loss", loss)):
        try:
            plateau = bp_plateau(lo) if pair else cp_plateau(model, lo)
        except OverflowError:
            plateau = math.inf
        if not 0.0 < plateau < math.inf:
            raise ConfigError(f"{path}: the rate plateau {plateau:.4g} cannot rescale the rates")
    return model, loss, plateau


def _build_hom(f: dict) -> list:
    source, stem = f["source"], f["stem"]
    model, _, plateau = _model(f)
    form = {"bp": hom_bp_analytic, "cp": hom_cp_analytic,
            "cp_coarse": hom_cp_coarse_analytic}[source]
    curve = sample_curve(lambda t: form(t, model), f["tau"], plateau)
    return _with_record([(f"{stem}.csv", curve_rows(curve))], f"{stem}.json", f,
                        plateau=plateau)


def _build_surface(f: dict) -> list:
    """Modes ``mhom``, ``coarse`` and ``loss``: one two-delay surface and its sidecar."""
    mode, source, t1, t2, stem = f["mode"], f["source"], f["tau1"], f["tau2"], f["stem"]
    model, loss, plateau = _model(f)
    if t1.size * t2.size > _MAX_VALUES:
        raise ConfigError(
            f"tau1.n x tau2.n: {t1.size} x {t2.size} values, more than {_MAX_VALUES}"
        )
    theta, window = f.get("theta"), f.get("window")
    bp = source == "bp"
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
            nodes = window_nodes(f["window_n"], window, model.omega0, model.window_envelope)
        surface = RateSurface(t1, t2, form(t1, t2, theta, model, window, n=nodes), plateau)
    return _with_record([(f"{stem}.csv", surface_rows(surface))], f"{stem}.json", f,
                        plateau=plateau)


def _build_sense(f: dict) -> list:
    scenario, stem = f["scenario"], f["stem"]
    model, loss, _ = _model(f)
    with _scan_resolves(f):
        result = run_sensing(scenario, model, loss=loss, n=f["n"], span=f["span"])
    data = [(f"{stem}_scan.csv", curve_rows(result.curve, label="x2"))]
    return _with_record(
        data, f"{stem}_report.json", f,
        plateau=result.curve.plateau,
        extrema=asdict(result.report),
        recovered={"dl1": result.dl1_recovered, "dl2": result.dl2_recovered},
        residuals={"dl1": result.dl1_recovered - abs(scenario.dl1_eff),
                   "dl2": result.dl2_recovered - scenario.dl2_0},
    )


def _build_qps(f: dict) -> list:
    target, c, n, stem = f["target"], f["c"], f["n"], f["stem"]
    spectrum, loss, _ = _model(f)
    with _scan_resolves(f) as paths:
        if n is None and (need := qps_scan_samples(target, spectrum, c)) > _MAX_VALUES:
            raise ConfigError(
                f"{paths}: the default scan for r / c = {target.r / c:.4g} needs "
                f"{need:.4g} samples, more than {_MAX_VALUES}"
            )
        result = qps_scan(target, spectrum, loss=loss, c=c, n=n, surface_n=f["surface_n"])
    data = [
        (f"{stem}_scan.csv", curve_rows(result.curve, label="s2_control")),
        (f"{stem}_surface.csv",
         surface_rows(result.surface, labels=("s1_control", "s2_control"))),
    ]
    return _with_record(
        data, f"{stem}_report.json", f,
        recovered={**asdict(result.recovered), "degenerate_azimuth": result.degenerate_azimuth},
        controls={"s1": result.s1, "s2": result.s2, "sign_u": result.sign_u,
                  "sign_v": result.sign_v, "d1": result.d1, "d2": result.d2},
        residuals={"gamma_error": result.gamma_error, "vartheta_error": result.vartheta_error,
                   "position_error": result.position_error},
        extrema=asdict(result.report),
    )


def _figure_artifacts(preset: str, theta: float | None, n: int | None, flag: str = "") -> list:
    """The files of one preset; ``flag`` leads the names of ``theta`` and ``n`` in messages."""
    _load("figures")
    if n is not None:
        _check_count(n, flag + "n", 16, _MAX_VALUES if preset in CURVE_PRESETS else _MAX_SIDE)
    if theta is not None and preset not in PHASE_PRESETS:
        raise ConfigError(f"{flag}theta: preset {preset} has no achromatic phase parameter")
    bundle = build_figure(preset, theta=theta, n=n)
    data = [
        (ds.name + ".csv", curve_rows(ds.data, ds.labels[0]) if isinstance(ds.data, RateCurve)
         else surface_rows(ds.data, ds.labels))
        for ds in bundle.datasets
    ]
    return _with_record(data, bundle.preset + ".json", None, **bundle.params)


# ----- The field table -----


# Each field of a mode is (parser, default) or (parser, default, the field it
# is only meaningful with). A parser maps (value, path) to the parsed value;
# the default is _REQUIRED, a value, or a function of the fields before it.
# Record classes from lazily loaded layers are looked up when the parser runs.
_REQUIRED = object()
_SOURCE = (_one_of("bp", "cp"), _REQUIRED)
_MODEL = {
    "spectrum": (lambda value, path: _parse_record(value, path, GaussianJointSpectrum), None),
    "pulse": (lambda value, path: _parse_record(value, path, CoherentSpectrum), None),
}
_LOSS = (lambda value, path: _parse_record(value, path, LossParams, _parse_amplitude), None)
_GRID = {"tau1": (_parse_range, _REQUIRED), "tau2": (_parse_range, _REQUIRED)}
_STEM = (_parse_stem, lambda f: f"{f['mode']}_{f['source']}" if "source" in f else f["mode"])

# How a sidecar records each config field: by the function given, or as parsed
# (None). A run records each field of its mode named here whose value is set,
# and whose needed fields are set too; ``loss`` is recorded unset too, as null.
_RECORDERS = {
    **dict.fromkeys(("source", "theta", "window", "window_n", "c")),
    **dict.fromkeys(("tau", "tau1", "tau2"), _range_dict),
    **dict.fromkeys(("spectrum", "pulse", "scenario", "target"), asdict),
    "loss": _loss_record,
}

# mode -> (its fields besides "version" and "mode" in parse order, the layers it loads,
# its builder); cross-field rules run in the builder, after every field has parsed
_MODES = {
    "hom": ({"source": (_one_of("bp", "cp", "cp_coarse"), _REQUIRED), **_MODEL,
             "tau": (_parse_range, _REQUIRED), "stem": _STEM}, (), _build_hom),
    "mhom": ({"source": _SOURCE, **_MODEL, "theta": (parse_angle, 0.0), **_GRID, "stem": _STEM},
             (), _build_surface),
    "coarse": ({"source": _SOURCE, **_MODEL, "window": (_positive, None),
                "theta": (parse_angle, 0.0, "window"),
                "window_n": (_count(2, MAX_WINDOW_NODES, " nodes"), None, "window"),
                **_GRID, "stem": _STEM}, (), _build_surface),
    "loss": ({"source": _SOURCE, **_MODEL, "loss": (_LOSS[0], _REQUIRED), **_GRID,
              "stem": _STEM}, (), _build_surface),
    "sense": ({"source": _SOURCE, **_MODEL,
               "scenario": (lambda value, path: _parse_record(value, path, SensingScenario),
                            _REQUIRED),
               "loss": _LOSS, "n": (_count(51, _MAX_VALUES), 2001), "span": (_positive, None),
               "stem": _STEM},
              ("sensing",), _build_sense),
    "qps": ({"target": (lambda value, path: _parse_record(value, path, QpsTarget,
                                                          gamma=parse_angle,
                                                          vartheta=parse_angle), _REQUIRED),
             "spectrum": (_MODEL["spectrum"][0], _REQUIRED), "loss": _LOSS, "c": (_positive, 1.0),
             "n": (_count(51, _MAX_VALUES), None), "surface_n": (_count(2, _MAX_SIDE), 81),
             "stem": _STEM}, ("qps", "sensing"), _build_qps),
    "figure": ({"preset": (lambda value, path: _one_of(*FIGURE_PRESETS)(value, path), _REQUIRED),
                "theta": (parse_angle, None), "n": (_as_int, None)},
               ("figures",), lambda f: _figure_artifacts(f["preset"], f["theta"], f["n"])),
}


def _resolve(config: dict, mode: str) -> dict:
    """The fields of a ``mode`` config, each parsed in table order or its default,
    and under ``given`` the ones the config sets."""
    table = _MODES[mode][0]
    required = tuple(key for key, (_, default, *_) in table.items() if default is _REQUIRED)
    _check_keys(config, "", ("version", "mode", *required), tuple(table))
    f = {"mode": mode, "given": [key for key in table if key in config]}
    for key, (parse, default, *needs) in table.items():
        if key not in config:
            f[key] = default(f) if callable(default) else default
            continue
        for need in needs:
            if need not in config:
                raise ConfigError(f"{key}: only meaningful together with '{need}'")
        f[key] = parse(config[key], key)
    return f


# ----- Entry points -----


def run_figure(preset: str, out_dir, theta: float | None = None,
               n: int | None = None) -> list[Path]:
    """Build one preset and write its files; returns the written paths.

    Runs as ``run_scenario`` does; a non-finite refusal names ``--theta``.
    """
    with np.errstate(all="ignore"), _rates_from(("--theta",)):
        return _write_artifacts(Path(out_dir), _figure_artifacts(preset, theta, n, "--"))


def run_scenario(config: dict, out_dir) -> list[Path]:
    """Validate a configuration document, run it, write its artifacts.

    Every rate is computed before the first byte is written, so a
    rejected configuration leaves no partial files behind; the CSVs are
    then formatted chunk by chunk while they are written, and a failure
    there removes the whole set (see ``_write_artifacts``). numpy's
    floating-point warnings are silenced for the run, since the rate
    containers refuse every nan or infinite rate; the refusal names the
    fields of ``_RATE_FIELDS`` that the config sets, in table order.
    """
    config = _require_mapping(config, "")
    if "version" not in config:
        raise ConfigError("version: required field is missing")
    version = config["version"]
    # True == 1 and 1.0 == 1 in Python; only the JSON integer 1 is this version
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"version: expected {CONFIG_VERSION}, got {version!r}")
    mode = config.get("mode")
    # a list or an object cannot be looked up in the table: refuse it first
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError(f"mode: expected one of {', '.join(_MODES)}, got {mode!r}")
    table, layers, build = _MODES[mode]
    _load(*layers)
    rate_paths = [key for key in table if key in _RATE_FIELDS and key in config]
    with np.errstate(all="ignore"), _rates_from(rate_paths):
        return _write_artifacts(Path(out_dir), build(_resolve(config, mode)))


def _load_config(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            data = handle.read(_MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise OSError(f"cannot read configuration {path}: {exc}") from exc
    if len(data) > _MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: document longer than {_MAX_CONFIG_BYTES} bytes")
    try:
        # with the universal newlines of a text-mode read
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=_Object)
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
    except (ConfigError, NonFiniteRateError) as exc:
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
