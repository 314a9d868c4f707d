"""Self-contained SVG line charts for projection paths (no plotting deps)."""
from __future__ import annotations

import numpy as np

from .propagation import ProjectionPath

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48


def _coord(v: float) -> str:
    return f"{v:.2f}"


def emit_svg_chart(path: ProjectionPath, title: str = "Average PD projection") -> str:
    """Render the average-PD path (period 0 through m) as an SVG line chart.

    Axes are labeled, and the minimum and maximum of the path are annotated
    with their values (in percent) and periods.  Output is deterministic for
    identical inputs.
    """
    pds = path.pd_series()
    periods = np.arange(pds.size)
    pct = pds * 100.0

    lo = float(pct.min())
    hi = float(pct.max())
    if hi - lo < 1e-12:
        pad = max(abs(hi) * 0.05, 1e-6)
        lo -= pad
        hi += pad
    else:
        pad = (hi - lo) * 0.08
        lo -= pad
        hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span = max(float(periods[-1]), 1.0)

    def sx(t: float) -> float:
        return _MARGIN_LEFT + plot_w * (t / x_span)

    def sy(v: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (v - lo) / (hi - lo))

    points = " ".join(f"{_coord(sx(t))},{_coord(sy(v))}"
                      for t, v in enumerate(pct.tolist()))

    i_min = int(np.argmin(pct))
    i_max = int(np.argmax(pct))

    y_ticks = np.linspace(lo, hi, 5)
    x_step = max(1, int(np.ceil(x_span / 10)))
    x_ticks = list(range(0, int(periods[-1]) + 1, x_step))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    axis_bottom = _MARGIN_TOP + plot_h
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
                 f'x2="{_MARGIN_LEFT}" y2="{axis_bottom}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_bottom}" '
                 f'x2="{_MARGIN_LEFT + plot_w}" y2="{axis_bottom}" stroke="black"/>')
    for v in y_ticks:
        y = sy(float(v))
        parts.append(f'<line x1="{_MARGIN_LEFT - 4}" y1="{_coord(y)}" '
                     f'x2="{_MARGIN_LEFT}" y2="{_coord(y)}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{_coord(y + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{v:.3f}%</text>')
    for t in x_ticks:
        x = sx(float(t))
        parts.append(f'<line x1="{_coord(x)}" y1="{axis_bottom}" '
                     f'x2="{_coord(x)}" y2="{axis_bottom + 4}" stroke="black"/>')
        parts.append(f'<text x="{_coord(x)}" y="{axis_bottom + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{t}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w // 2}" y="{_HEIGHT - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">period</text>')
    parts.append(f'<text x="16" y="{_MARGIN_TOP + plot_h // 2}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h // 2})">'
                 'average PD</text>')
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    for idx, label in ((i_min, "min"), (i_max, "max")):
        x = sx(float(periods[idx]))
        y = sy(float(pct[idx]))
        anchor = "start" if periods[idx] < x_span / 2 else "end"
        dy = -8.0 if label == "max" else 14.0
        parts.append(f'<circle cx="{_coord(x)}" cy="{_coord(y)}" r="3" '
                     'fill="#d62728"/>')
        parts.append(f'<text x="{_coord(x)}" y="{_coord(y + dy)}" '
                     f'text-anchor="{anchor}" font-family="sans-serif" '
                     f'font-size="11">{label} {pct[idx]:.4f}% @ t={periods[idx]}'
                     '</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
