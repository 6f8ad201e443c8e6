"""Minimal self-contained SVG line plots.

Good enough for run artifacts (a handful of curves, optional log
axes); deliberately not a plotting library.  Output is deterministic
for identical input.
"""

from __future__ import annotations

import math

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _finite(xs, ys):
    pts = [(x, y) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y)]
    return pts


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(path, xs, series, labels=None, title="", xlabel="", ylabel="",
              logx=False, logy=False) -> None:
    """Write one SVG with the given curves.

    series: list of y-arrays sharing xs.  Non-finite points are
    dropped per curve; log axes drop nonpositive values too.
    """
    curves = []
    for ys in series:
        pts = _finite(list(map(float, xs)), list(map(float, ys)))
        if logx:
            pts = [(x, y) for x, y in pts if x > 0]
        if logy:
            pts = [(x, y) for x, y in pts if y > 0]
        curves.append(pts)
    allpts = [p for c in curves for p in c]
    if not allpts:
        xmin = xmax = ymin = ymax = 1.0
    else:
        xmin = min(p[0] for p in allpts)
        xmax = max(p[0] for p in allpts)
        ymin = min(p[1] for p in allpts)
        ymax = max(p[1] for p in allpts)
    if xmin == xmax:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymin == ymax:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    def sx(x):
        t = ((math.log10(x) - math.log10(xmin))
             / (math.log10(xmax) - math.log10(xmin))) if logx \
            else (x - xmin) / (xmax - xmin)
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        t = ((math.log10(y) - math.log10(ymin))
             / (math.log10(ymax) - math.log10(ymin))) if logy \
            else (y - ymin) / (ymax - ymin)
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for tx in _ticks(xmin, xmax, logx):
        if not (xmin <= tx <= xmax):
            continue
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" '
                     f'y2="{_H-_MB}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H-_MB+16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(ymin, ymax, logy):
        if not (ymin <= ty <= ymax):
            continue
        py = sy(ty)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W-_MR}" '
                     f'y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML-6}" y="{py+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" '
                 f'height="{_H-_MT-_MB}" fill="none" stroke="#333333"/>')
    for i, pts in enumerate(curves):
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if labels and i < len(labels):
            ly = _MT + 16 + 16 * i
            parts.append(f'<line x1="{_W-_MR-130}" y1="{ly-4}" '
                         f'x2="{_W-_MR-105}" y2="{ly-4}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{_W-_MR-100}" y="{ly}" '
                         f'font-family="sans-serif" font-size="12">'
                         f'{labels[i]}</text>')
    parts.append(f'<text x="{(_ML+_W-_MR)/2:.0f}" y="{_H-12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT+_H-_MB)/2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT+_H-_MB)/2:.0f})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
