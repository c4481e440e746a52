"""Minimal self-contained SVG scatter plots.

No plotting dependency: the report command only needs deterministic, diffable
static documents. Coordinates are formatted with fixed precision so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape

import numpy as np

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

PANEL_W = 320
PANEL_H = 300
MARGIN = 40
PLOT_W = PANEL_W - 2 * MARGIN
PLOT_H = PANEL_H - 2 * MARGIN


@dataclass(frozen=True)
class Panel:
    title: str
    points: np.ndarray                       # (n, 2)
    classes: np.ndarray | None = None        # ints coloring the points
    annotations: tuple[str, ...] = field(default_factory=tuple)
    x_label: str = ""
    y_label: str = ""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _scale(values: np.ndarray) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _panel_svg(panel: Panel, x_offset: int) -> list[str]:
    pts = np.asarray(panel.points, dtype=np.float64).reshape(-1, 2)
    parts = [f'<g transform="translate({x_offset},0)">']
    parts.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{PLOT_W}" height="{PLOT_H}" '
        'fill="none" stroke="#333333" stroke-width="1"/>')
    parts.append(
        f'<text x="{PANEL_W // 2}" y="{MARGIN - 18}" text-anchor="middle" '
        f'font-size="12" font-family="monospace">{escape(panel.title, quote=False)}</text>')
    if panel.x_label:
        parts.append(
            f'<text x="{PANEL_W // 2}" y="{PANEL_H - 8}" text-anchor="middle" '
            f'font-size="10" font-family="monospace">{escape(panel.x_label, quote=False)}</text>')
    if panel.y_label:
        parts.append(
            f'<text x="12" y="{PANEL_H // 2}" text-anchor="middle" font-size="10" '
            f'font-family="monospace" transform="rotate(-90 12 {PANEL_H // 2})">'
            f'{escape(panel.y_label, quote=False)}</text>')
    if len(pts):
        x_lo, x_hi = _scale(pts[:, 0])
        y_lo, y_hi = _scale(pts[:, 1])
        xs = MARGIN + (pts[:, 0] - x_lo) / (x_hi - x_lo) * PLOT_W
        ys = MARGIN + PLOT_H - (pts[:, 1] - y_lo) / (y_hi - y_lo) * PLOT_H
        classes = panel.classes
        for i in range(len(pts)):
            color = PALETTE[int(classes[i]) % len(PALETTE)] if classes is not None \
                and int(classes[i]) >= 0 else "#1f77b4"
            parts.append(
                f'<circle cx="{_fmt(xs[i])}" cy="{_fmt(ys[i])}" r="2" '
                f'fill="{color}" fill-opacity="0.6"/>')
    for j, line in enumerate(panel.annotations):
        parts.append(
            f'<text x="{MARGIN + 6}" y="{MARGIN + 14 + 13 * j}" font-size="10" '
            f'font-family="monospace">{escape(line, quote=False)}</text>')
    parts.append("</g>")
    return parts


def scatter_svg(panels: list[Panel]) -> str:
    """One SVG document with the given panels laid out horizontally."""
    width = PANEL_W * max(1, len(panels))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{PANEL_H}" viewBox="0 0 {width} {PANEL_H}">',
        f'<rect x="0" y="0" width="{width}" height="{PANEL_H}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, i * PANEL_W))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
