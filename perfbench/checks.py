"""Correctness checks for every op; a failed check counts the op as failed.

The expected values come from the package's public closed forms,
evaluated here on the axes the generator asked for, never from the
program's own artifacts. The names are bound when this module is
imported, before any tracing wrapper is installed, so checks are never
traced.

Bounds (all relative to the plateau, i.e. on the rescaled CSV values):

* closed-form CSV values: 1e-9;
* windowed coarse surfaces against the closed-form coarse surface: 2 %
  (acceptance criterion 4's bound);
* ``sense`` residuals: 0.1 for the pair source, 0.1 / d_omega for pulses
  (criterion 7);
* ``qps`` controls within 0.1 of the truth and angles within the
  allowance that a 0.1 control error implies (criterion 8);
* oracle points: 1e-5 (criterion 1); balanced-loss chains against
  |xi chi|^4 times the lossless closed form.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from homlab.qps import QpsTarget, qps_forward
from homlab.rates import (
    LossParams,
    bp_plateau,
    cp_plateau,
    hom_bp_analytic,
    hom_cp_analytic,
    hom_cp_coarse_analytic,
    mhom_bp_analytic,
    mhom_bp_coarse_analytic,
    mhom_bp_loss_coarse,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    mhom_cp_loss_coarse,
)
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum

CLOSED_TOL = 1e-9
WINDOW_TOL = 0.02
ORACLE_TOL = 1e-5
SENSE_TOL = 0.1
QPS_PATH_TOL = 0.1


class CheckFailed(Exception):
    """An op produced a wrong or incomplete output."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----- files and CSV -----


def sidecar(out: Path) -> tuple[str, dict]:
    """The one JSON sidecar/report of an output directory, checked against the listing."""
    names = sorted(p.name for p in out.iterdir())
    jsons = [n for n in names if n.endswith(".json")]
    _require(len(jsons) == 1, f"expected one sidecar, found {jsons}")
    record = json.loads((out / jsons[0]).read_text(encoding="utf-8"))
    want = sorted(record["files"] + jsons)
    _require(names == want, f"files {names} differ from sidecar list {want}")
    return jsons[0], record


def read_csv(path: Path, labels: tuple) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        _require(header == ",".join(labels), f"{path.name}: header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(labels), f"{path.name}: {data.shape[1]} columns")
    return data


def _close(got, want, tol: float, what: str) -> None:
    worst = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(np.isfinite(worst) and worst <= tol, f"{what}: deviation {worst:.3g} > {tol:g}")


def _axis_close(got, want, what: str) -> None:
    # CSV axes carry 12 significant digits
    _require(np.allclose(got, want, rtol=1e-10, atol=1e-12), f"{what}: axis differs")


def check_curve(path: Path, label: str, axis, expected, tol: float = CLOSED_TOL) -> int:
    data = read_csv(path, (label, "rate_rescaled"))
    _require(data.shape[0] == np.size(axis), f"{path.name}: {data.shape[0]} rows")
    _axis_close(data[:, 0], axis, path.name)
    _close(data[:, 1], expected, tol, path.name)
    return data.shape[0]


def check_surface(path: Path, labels: tuple, t1, t2, expected,
                  tol: float = CLOSED_TOL) -> int:
    data = read_csv(path, (*labels, "rate_rescaled"))
    _require(data.shape[0] == t1.size * t2.size, f"{path.name}: {data.shape[0]} rows")
    _axis_close(data[:, 0], np.repeat(t1, t2.size), path.name)
    _axis_close(data[:, 1], np.tile(t2, t1.size), path.name)
    _close(data[:, 2], np.ravel(expected), tol, path.name)
    return data.shape[0]


# ----- run configs -----


def _angle(value) -> float:
    return math.pi / 2.0 if value == "pi/2" else float(value)


def _axis(rng: dict) -> np.ndarray:
    return np.linspace(rng["min"], rng["max"], rng["n"])


def _model(cfg: dict):
    if "spectrum" in cfg:
        return GaussianJointSpectrum(**cfg["spectrum"])
    return CoherentSpectrum(**cfg["pulse"])


def _loss(cfg: dict) -> LossParams | None:
    return LossParams(**cfg["loss"]) if "loss" in cfg else None


def _plateau(source: str, model, loss=None) -> float:
    return bp_plateau(loss) if source == "bp" else cp_plateau(model, loss)


def check_run(cfg: dict, out: Path) -> int:
    """Check one ``homlab run`` output directory; returns CSV data rows."""
    _, record = sidecar(out)
    mode = cfg["mode"]
    if mode == "sense":
        return _check_sense(cfg, out, record)
    if mode == "qps":
        return _check_qps(cfg, out, record)
    model = _model(cfg)
    stem = f"{mode}_{cfg['source']}"
    if mode == "hom":
        axis = _axis(cfg["tau"])
        form = {"bp": hom_bp_analytic, "cp": hom_cp_analytic,
                "cp_coarse": hom_cp_coarse_analytic}[cfg["source"]]
        source = "bp" if cfg["source"] == "bp" else "cp"
        want = form(axis, model) / _plateau(source, model)
        return check_curve(out / f"{stem}.csv", "delay", axis, want)

    source = cfg["source"]
    loss = _loss(cfg)
    t1, t2 = _axis(cfg["tau1"]), _axis(cfg["tau2"])
    a, b = t1[:, None], t2[None, :]
    tol = CLOSED_TOL
    if mode == "mhom":
        form = mhom_bp_analytic if source == "bp" else mhom_cp_analytic
        want = form(a, b, _angle(cfg.get("theta", 0.0)), model)
    elif mode == "loss":
        form = mhom_bp_loss_coarse if source == "bp" else mhom_cp_loss_coarse
        want = form(a, b, model, loss)
    else:
        form = mhom_bp_coarse_analytic if source == "bp" else mhom_cp_coarse_analytic
        want = form(a, b, model)
        if "window" in cfg:
            tol = WINDOW_TOL
    want = want / _plateau(source, model, loss)
    return check_surface(out / f"{stem}.csv", ("tau1", "tau2"), t1, t2, want, tol)


def _check_sense(cfg: dict, out: Path, report: dict) -> int:
    source = cfg["source"]
    model = _model(cfg)
    loss = _loss(cfg)
    scen = cfg["scenario"]
    width = model.d_omega_minus if source == "bp" else model.d_omega
    tol = SENSE_TOL if source == "bp" else SENSE_TOL / width
    for key in ("dl1", "dl2"):
        res = report["residuals"][key]
        _require(abs(res) <= tol, f"sense {key} residual {res:.3g} > {tol:g}")
    _require(abs(report["recovered"]["dl1"] - abs(scen["dl1_0"])) <= tol,
             "sense dl1 recovery off")
    _require(abs(report["recovered"]["dl2"] - scen["dl2_0"]) <= tol,
             "sense dl2 recovery off")

    path = out / f"sense_{source}_scan.csv"
    x2 = read_csv(path, ("x2", "rate_rescaled"))[:, 0]
    tau1, tau2 = 0.5 * scen["dl1_0"], 0.5 * (scen["dl2_0"] - 2.0 * x2)
    if loss is None:
        form = mhom_bp_coarse_analytic if source == "bp" else mhom_cp_coarse_analytic
        want = form(tau1, tau2, model)
    else:
        form = mhom_bp_loss_coarse if source == "bp" else mhom_cp_loss_coarse
        want = form(tau1, tau2, model, loss)
    return check_curve(path, "x2", x2, want / _plateau(source, model, loss))


def _wrapped(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _abs_direction_cosine(r: float, s: float) -> float:
    w = 1.0 - (s / r) ** 2
    return math.sqrt(max(0.0, 1.0 - w * w))


def _angular_allowance(target: QpsTarget) -> tuple[float, float]:
    """Worst angle errors reachable with both controls off by up to 0.1."""
    d = qps_forward(target)
    su = 1.0 if target.u >= 0.0 else -1.0
    sv = 1.0 if target.v >= 0.0 else -1.0
    worst_g = worst_t = 0.0
    for da in (-QPS_PATH_TOL, 0.0, QPS_PATH_TOL):
        for db in (-QPS_PATH_TOL, 0.0, QPS_PATH_TOL):
            s1 = min(max(d.s1 + da, 0.0), target.r)
            s2 = min(max(d.s2 + db, 0.0), target.r)
            u = su * _abs_direction_cosine(target.r, s1)
            v = sv * _abs_direction_cosine(target.r, s2)
            norm = math.hypot(u, v)
            if norm > 1.0:
                u, v = u / norm, v / norm
            gamma = math.acos(min(math.hypot(u, v), 1.0))
            worst_g = max(worst_g, abs(gamma - target.gamma))
            worst_t = max(worst_t, _wrapped(math.atan2(v, u), target.vartheta))
    return worst_g, worst_t


def _check_qps(cfg: dict, out: Path, report: dict) -> int:
    spectrum = GaussianJointSpectrum(**cfg["spectrum"])
    target = QpsTarget(**cfg["target"])
    truth = qps_forward(target)
    got = report["controls"]
    for key in ("s1", "s2"):
        err = abs(got[key] - getattr(truth, key))
        _require(err <= QPS_PATH_TOL, f"qps {key} off by {err:.3g}")
    rec = report["recovered"]
    allow_g, allow_t = _angular_allowance(target)
    _require(abs(rec["gamma"] - target.gamma) <= allow_g + 1e-6, "qps elevation off")
    _require(_wrapped(rec["vartheta"], target.vartheta) <= allow_t + 1e-6, "qps azimuth off")

    width, c = spectrum.d_omega_minus, 1.0
    d1, d2 = truth.l1 - truth.l2, truth.l3 - truth.l4
    stem = cfg.get("stem", "qps")
    path = out / f"{stem}_surface.csv"
    data = read_csv(path, ("s1_control", "s2_control", "rate_rescaled"))
    n = int(round(math.sqrt(data.shape[0])))
    s_axis = data[:n, 1]
    want = mhom_bp_coarse_analytic((d1 + 2.0 * s_axis[:, None]) / (2.0 * c),
                                   (d2 + 2.0 * s_axis[None, :]) / (2.0 * c), spectrum)
    rows = check_surface(path, ("s1_control", "s2_control"), s_axis, s_axis,
                         want / bp_plateau())
    path = out / f"{stem}_scan.csv"
    s2 = read_csv(path, ("s2_control", "rate_rescaled"))[:, 0]
    # qps_scan parks the first control at r + 2.5 c / width
    tau1 = (d1 + 2.0 * (target.r + 2.5 * c / width)) / (2.0 * c)
    want = mhom_bp_coarse_analytic(tau1, (d2 + 2.0 * s2) / (2.0 * c), spectrum)
    return rows + check_curve(path, "s2_control", s2, want / bp_plateau())


# ----- figure presets -----


def _figure_axis(record: dict) -> np.ndarray:
    h = record["delay_half_range"]
    return np.linspace(-h, h, record["samples"])


def check_figure(preset: str, out: Path) -> int:
    """Check one preset directory against the closed forms its sidecar names."""
    name, record = sidecar(out)
    _require(name == f"{preset}.json", f"sidecar {name}")
    axis = _figure_axis(record)
    spectrum = GaussianJointSpectrum(**record["spectrum"])
    pulse = CoherentSpectrum(**record["pulse"]) if "pulse" in record else None
    a, b = axis[:, None], axis[None, :]
    expected = {}  # CSV file name -> rescaled values
    if preset == "fig2":
        expected = {
            "fig2_bp.csv": hom_bp_analytic(axis, spectrum) / bp_plateau(),
            "fig2_cp.csv": hom_cp_analytic(axis, pulse) / cp_plateau(pulse),
            "fig2_cp_coarse.csv": hom_cp_coarse_analytic(axis, pulse) / cp_plateau(pulse),
        }
        labels = ("delay",)
    elif preset == "fig3":
        expected = {
            fname: mhom_bp_analytic(a, b, theta, spectrum) / bp_plateau()
            for fname, theta in zip(record["files"], record["theta"])
        }
        labels = ("tau1", "tau2")
    elif preset == "fig4":
        expected = {"fig4.csv": mhom_cp_analytic(a, b, record["theta"], pulse)
                    / cp_plateau(pulse)}
        labels = ("tau1", "tau2")
    elif preset == "fig5":
        expected = {
            "fig5_bp.csv": mhom_bp_coarse_analytic(a, b, spectrum) / bp_plateau(),
            "fig5_cp.csv": mhom_cp_coarse_analytic(a, b, pulse) / cp_plateau(pulse),
        }
        labels = ("tau1", "tau2")
    elif preset == "fig6":
        t1 = record["fixed_tau1"]
        expected = {
            "fig6_bp.csv": mhom_bp_coarse_analytic(t1, axis, spectrum) / bp_plateau(),
            "fig6_cp.csv": mhom_cp_coarse_analytic(t1, axis, pulse) / cp_plateau(pulse),
        }
        labels = ("tau2",)
    else:  # fig7, fig8: one lossy pair surface or cut per imbalance
        for tag, amps in record["loss"].items():
            loss = LossParams(chi1=amps["chi1"], chi2=amps["chi2"])
            if preset == "fig7":
                want = mhom_bp_loss_coarse(a, b, spectrum, loss)
            else:
                want = mhom_bp_loss_coarse(record["fixed_tau1"], axis, spectrum, loss)
            expected[f"{preset}_{tag}.csv"] = want / bp_plateau(loss)
        labels = ("tau1", "tau2") if preset == "fig7" else ("tau2",)
    _require(sorted(expected) == sorted(record["files"]),
             f"{preset}: files {record['files']}")
    rows = 0
    for fname, want in expected.items():
        if len(labels) == 1:
            rows += check_curve(out / fname, labels[0], axis, want)
        else:
            rows += check_surface(out / fname, labels, axis, axis, want)
    return rows


# ----- oracle batches -----


class OracleBatch:
    """One seeded batch of delay points for one (source, chain, grid)."""

    def __init__(self, table, chain: str, delays: np.ndarray, thetas: np.ndarray,
                 loss: LossParams | None):
        self.table = table
        self.chain = chain
        self.delays = delays
        self.thetas = thetas
        self.loss = loss

    def evaluate(self) -> np.ndarray:
        """The timed op: build each chain and integrate it on the tabulated grid."""
        from homlab import network, rates

        table = self.table
        oracle = rates.bp_rate_oracle if table.source == "bp" else rates.cp_rate_oracle
        out = np.empty(len(self.delays))
        for i, d in enumerate(self.delays):
            if self.chain == "hom":
                net = network.hom_network(d[0])
            else:
                net = network.mhom_network(d[0], d[1], self.thetas[i], self.loss)
            out[i] = oracle(table.amplitude, table.grid, net)
        return out

    def check(self, values: np.ndarray) -> int:
        table, model = self.table, self.table.model
        scale = 1.0
        if self.loss is not None:
            scale = abs(self.loss.xi1 * self.loss.chi1) ** 4
        if self.chain == "hom":
            tau = self.delays[:, 0]
            form = hom_bp_analytic if table.source == "bp" else hom_cp_analytic
            want = form(tau, model)
        else:
            t1, t2 = self.delays[:, 0], self.delays[:, 1]
            form = mhom_bp_analytic if table.source == "bp" else mhom_cp_analytic
            want = np.array([form(a, b, th, model)
                             for a, b, th in zip(t1, t2, self.thetas)])
        plateau = _plateau(table.source, model) * scale
        _close(np.asarray(values) / plateau, scale * np.asarray(want) / plateau,
               ORACLE_TOL, f"oracle {table.source}/{self.chain}/{table.grid.size}")
        return len(values)
