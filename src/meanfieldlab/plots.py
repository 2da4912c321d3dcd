"""Standalone SVG plots with deterministic byte output.

Hand-rolled rather than matplotlib so that identical inputs give identical
bytes: no timestamps, no hashed ids, fixed float formatting everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["emit_plot"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _nice_ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for m in (1, 2, 5, 10):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t / step) * step)
        t += step
    return ticks


def emit_plot(x, y, yerr=None, kind: str = "loglog", slope: float | None = None,
              intercept: float | None = None, title: str = "",
              xlabel: str = "x", ylabel: str = "y") -> str:
    """Render one data series with optional error bars and fitted line.

    kind: 'loglog' (log x, log y), 'loglinear' (linear x, log y) or
    'timeseries' (both linear).  The fitted line, when slope/intercept are
    given, lives in the transformed coordinates and is annotated with its
    slope.  Single-point series render without a fit line.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("cannot plot an empty table")
    if kind not in ("loglog", "loglinear", "timeseries"):
        raise ValidationError(f"unknown plot kind {kind!r}")

    logx = kind == "loglog"
    logy = kind in ("loglog", "loglinear")
    if logx and np.any(x <= 0):
        raise ValidationError("log-scale x needs positive values")

    def tx(v):
        return np.log10(v) if logx else v

    def ty(v):
        return np.log10(np.maximum(v, 1e-300)) if logy else v

    pos = y > 0 if logy else np.ones_like(y, dtype=bool)
    X, Y = tx(x), ty(np.where(pos, y, np.nan))
    finite = np.isfinite(Y)
    if not np.any(finite):
        raise ValidationError("no plottable points (all values nonpositive on a log axis)")

    xlo, xhi = float(X.min()), float(X.max())
    ylo = float(np.nanmin(Y[finite]))
    yhi = float(np.nanmax(Y[finite]))
    if yerr is not None:
        ye = np.asarray(yerr, dtype=np.float64)
        bars = finite & np.isfinite(ye)  # a nan stderr (no degree of freedom) draws no bar
        ye = np.where(bars, ye, 0.0)
    if yerr is not None and logy:
        lows = np.where((y - ye) > 0, ty(np.maximum(y - ye, 1e-300)), Y)
        highs = ty(y + np.where(pos, ye, 0))
        ylo = min(ylo, float(np.nanmin(lows[finite])))
        yhi = max(yhi, float(np.nanmax(highs[finite])))
    elif yerr is not None:
        ylo = min(ylo, float(np.min(y - ye)))
        yhi = max(yhi, float(np.max(y + ye)))
    padx = 0.05 * (xhi - xlo or 1.0)
    pady = 0.05 * (yhi - ylo or 1.0)
    xlo, xhi = xlo - padx, xhi + padx
    ylo, yhi = ylo - pady, yhi + pady

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    if title:
        out.append(f'<text x="{_W // 2}" y="20" text-anchor="middle" '
                   f'font-family="monospace" font-size="13">{title}</text>')

    for t in _nice_ticks(xlo, xhi):
        if not xlo <= t <= xhi:
            continue
        label = _fmt(10 ** t) if logx else _fmt(t)
        out.append(f'<line x1="{_fmt(px(t))}" y1="{_H - _MB}" x2="{_fmt(px(t))}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{_fmt(px(t))}" y="{_H - _MB + 18}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11">{label}</text>')
    for t in _nice_ticks(ylo, yhi):
        if not ylo <= t <= yhi:
            continue
        label = _fmt(10 ** t) if logy else _fmt(t)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(py(t))}" x2="{_ML}" '
                   f'y2="{_fmt(py(t))}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(py(t) + 4)}" text-anchor="end" '
                   f'font-family="monospace" font-size="11">{label}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
               f'font-family="monospace" font-size="12">{xlabel}</text>')
    out.append(f'<text x="15" y="{_H // 2}" text-anchor="middle" font-family="monospace" '
               f'font-size="12" transform="rotate(-90 15 {_H // 2})">{ylabel}</text>')

    if yerr is not None:
        for xi, yi, ei, ok in zip(x, y, ye, bars):
            if not ok:
                continue
            top = ty(yi + ei) if logy else yi + ei
            bot = ty(max(yi - ei, 1e-300)) if logy else yi - ei
            out.append(f'<line x1="{_fmt(px(tx(xi)))}" y1="{_fmt(py(bot))}" '
                       f'x2="{_fmt(px(tx(xi)))}" y2="{_fmt(py(top))}" stroke="gray"/>')
    for xi, yi, ok in zip(X, Y, finite):
        if ok:
            out.append(f'<circle cx="{_fmt(px(xi))}" cy="{_fmt(py(yi))}" r="3" fill="steelblue"/>')

    if slope is not None and intercept is not None and np.sum(finite) >= 2 and np.isfinite(slope):
        # slope/intercept refer to natural-log fits: ln y vs ln x (loglog),
        # ln y vs x (loglinear), y vs x (timeseries); convert to plot coords
        ln10 = math.log(10)

        def fit_y(Xv):
            if kind == "loglog":
                return (slope * (Xv * ln10) + intercept) / ln10
            if kind == "loglinear":
                return (slope * Xv + intercept) / ln10
            return slope * Xv + intercept

        fy0, fy1 = fit_y(X.min()), fit_y(X.max())
        out.append(f'<line x1="{_fmt(px(X.min()))}" y1="{_fmt(py(fy0))}" '
                   f'x2="{_fmt(px(X.max()))}" y2="{_fmt(py(fy1))}" '
                   f'stroke="firebrick" stroke-dasharray="5,3"/>')
        out.append(f'<text x="{_W - _MR - 10}" y="{_MT + 18}" text-anchor="end" '
                   f'font-family="monospace" font-size="12" fill="firebrick">'
                   f'slope={format(slope, ".2f")}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
