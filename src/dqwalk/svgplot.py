"""Minimal deterministic SVG rendering for run outputs.

Plots are a convenience layer over the CSV data, not a full plotting stack:
line plots (optionally log-log) and position-time heatmaps, written as
self-contained SVG text.  Rendering the same data twice produces identical
bytes; nothing here reads clocks or global state.
"""

from __future__ import annotations

import base64
import html
import math
import struct
import zlib

import numpy as np

PALETTE = ("#1f6fb4", "#d95f02", "#2a9d50", "#7544a3", "#c72c48", "#6b6b6b")

# dark-to-bright ramp used for probability heatmaps
_RAMP = ((68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37))

_MARGIN = dict(left=64, right=20, top=34, bottom=46)


def _nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] on a 1-2-5 ladder."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _decade_ticks(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def escape(text):
    """Text escaped for an SVG element: &, < and >, as xml.sax.saxutils.escape
    does, without that module's import of urllib.request.
    """
    return html.escape(text, quote=False)


def _fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.0e}"
    text = f"{value:.6g}"
    return text


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi, log):
        if log:
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            self.hi = self.lo + 1.0
        self.pix_lo, self.pix_hi = pix_lo, pix_hi
        self.log = log

    def to_pix(self, value):
        v = math.log10(value) if self.log else value
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self):
        if self.log:
            return _decade_ticks(10.0**self.lo, 10.0**self.hi)
        return _nice_ticks(self.lo, self.hi)


def _data_range(arrays, log):
    lo = math.inf
    hi = -math.inf
    for arr in arrays:
        for v in arr:
            if not math.isfinite(v) or (log and v <= 0):
                continue
            lo = min(lo, v)
            hi = max(hi, v)
    if lo is math.inf:
        lo, hi = (1.0, 10.0) if log else (0.0, 1.0)
    if not log:
        pad = 0.05 * (hi - lo) if hi > lo else 1.0
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _frame(width, height, x_axis, y_axis, title, xlabel, ylabel):
    parts = []
    x0, x1 = x_axis.pix_lo, x_axis.pix_hi
    y0, y1 = y_axis.pix_lo, y_axis.pix_hi
    parts.append(
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
        f'height="{y0 - y1:.2f}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tick in x_axis.ticks():
        px = x_axis.to_pix(tick)
        if px < x0 - 0.5 or px > x1 + 0.5:
            continue
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 5:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18:.2f}" font-size="11" text-anchor="middle">{escape(_fmt(tick))}</text>'
        )
    for tick in y_axis.ticks():
        py = y_axis.to_pix(tick)
        if py > y0 + 0.5 or py < y1 - 0.5:
            continue
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{escape(_fmt(tick))}</text>'
        )
    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="20" font-size="14" text-anchor="middle">{escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{height - 10:.2f}" font-size="12" text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        cy = (y0 + y1) / 2
        parts.append(
            f'<text x="16" y="{cy:.2f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.2f})">{escape(ylabel)}</text>'
        )
    return parts


def line_plot(curves, title="", xlabel="", ylabel="", log_x=False, log_y=False,
              width=720, height=480):
    """Render curves [(xs, ys, label), ...] to an SVG string."""
    m = _MARGIN
    xs_all = [c[0] for c in curves]
    ys_all = [c[1] for c in curves]
    x_lo, x_hi = _data_range(xs_all, log_x)
    y_lo, y_hi = _data_range(ys_all, log_y)
    x_axis = _Axis(x_lo, x_hi, m["left"], width - m["right"], log_x)
    y_axis = _Axis(y_lo, y_hi, height - m["bottom"], m["top"], log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts.extend(_frame(width, height, x_axis, y_axis, title, xlabel, ylabel))

    legend_y = m["top"] + 14
    for i, (xs, ys, label) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        points = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if (log_x and x <= 0) or (log_y and y <= 0):
                continue
            points.append(f"{x_axis.to_pix(x):.2f},{y_axis.to_pix(y):.2f}")
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                f'points="{" ".join(points)}"/>'
            )
        if label:
            lx = m["left"] + 10
            parts.append(
                f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )
            parts.append(
                f'<text x="{lx + 28}" y="{legend_y}" font-size="11">{escape(label)}</text>'
            )
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _png_data_uri(matrix):
    """Encode a (rows, cols) array in [0, 1] as a tiny color-mapped PNG."""
    h, w = matrix.shape
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    flat = np.clip(matrix, 0.0, 1.0)
    pos = flat * (len(_RAMP) - 1)
    idx = np.minimum(pos.astype(int), len(_RAMP) - 2)
    frac = pos - idx
    ramp = np.array(_RAMP, dtype=float)
    for c in range(3):
        rgb[..., c] = np.round(
            ramp[idx, c] + frac * (ramp[idx + 1, c] - ramp[idx, c])
        ).astype(np.uint8)
    raw = b"".join(b"\x00" + rgb[i].tobytes() for i in range(h))

    def chunk(tag, data):
        body = tag + data
        return struct.pack(">I", len(data)) + body + struct.pack(
            ">I", zlib.crc32(body) & 0xFFFFFFFF
        )

    png = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    return "data:image/png;base64," + base64.b64encode(png).decode("ascii")


def heatmap(matrix, x_values, y_values, title="", xlabel="", ylabel="",
            width=720, height=480):
    """Render matrix[y, x] as an SVG heatmap with linear axes.

    Row 0 is drawn at the bottom (y_values ascending upward).
    """
    m = _MARGIN
    mat = np.asarray(matrix, dtype=float)
    top = float(mat.max())
    norm = mat / top if top > 0 else mat
    x_lo, x_hi = float(min(x_values)), float(max(x_values))
    y_lo, y_hi = float(min(y_values)), float(max(y_values))
    x_axis = _Axis(x_lo, x_hi, m["left"], width - m["right"] - 56, log=False)
    y_axis = _Axis(y_lo, y_hi, height - m["bottom"], m["top"], log=False)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    px0, px1 = x_axis.pix_lo, x_axis.pix_hi
    py0, py1 = y_axis.pix_lo, y_axis.pix_hi
    uri = _png_data_uri(norm[::-1])
    parts.append(
        f'<image x="{px0:.2f}" y="{py1:.2f}" width="{px1 - px0:.2f}" '
        f'height="{py0 - py1:.2f}" preserveAspectRatio="none" '
        f'style="image-rendering:pixelated" href="{uri}"/>'
    )
    parts.extend(_frame(width, height, x_axis, y_axis, title, xlabel, ylabel))

    # colorbar: the ramp's colours, evenly spaced, as the image reads them
    bar_x = width - m["right"] - 40
    stops = "".join(
        f'<stop offset="{k * 100 / (len(_RAMP) - 1):.0f}%" '
        f'stop-color="rgb{color}"/>'
        for k, color in enumerate(_RAMP)
    )
    parts.append(
        f'<defs><linearGradient id="ramp" x1="0" y1="1" x2="0" y2="0">{stops}'
        "</linearGradient></defs>"
    )
    parts.append(
        f'<rect x="{bar_x}" y="{py1:.2f}" width="12" height="{py0 - py1:.2f}" '
        f'fill="url(#ramp)" stroke="#333" stroke-width="0.5"/>'
    )
    parts.append(
        f'<text x="{bar_x + 16}" y="{py1 + 10:.2f}" font-size="10">{escape(_fmt(top))}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 16}" y="{py0:.2f}" font-size="10">0</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
