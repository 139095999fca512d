"""Minimal SVG rendering of spectra: point series against the bisectrix.

Hand-rolled SVG keeps the output structurally assertable: one <g
class="series"> per spectrum, one <polyline> per connected fragment, and a
single <line class="bisectrix"> reference.
"""

from __future__ import annotations

import numpy as np

from .errors import MfkError
from .geometry import detect_fragments
from .spectrum import Spectrum

_WIDTH, _HEIGHT, _MARGIN = 480, 480, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _limits(spectra):
    alphas = np.concatenate([s.alphas for s in spectra])
    fs = np.concatenate([s.fs for s in spectra])
    lo = min(float(alphas.min()), float(fs.min()), 0.0)
    hi = max(float(alphas.max()), float(fs.max()), 1.0)
    pad = 0.05 * (hi - lo) or 0.05
    return lo - pad, hi + pad


def render_spectra_svg(spectra, gap_threshold: float | None = None) -> str:
    """Render one or more spectra, each labelled by its box count B;
    fragments are not joined across gaps."""
    if not spectra:
        raise MfkError("need at least one spectrum")
    lo, hi = _limits(spectra)
    span = hi - lo
    inner = _WIDTH - 2 * _MARGIN

    def sx(a):
        return _MARGIN + (a - lo) / span * inner

    def sy(f):
        return _HEIGHT - _MARGIN - (f - lo) / span * inner

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<line class="axis" x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" '
        f'x2="{_WIDTH - _MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line class="axis" x1="{_MARGIN}" y1="{_MARGIN}" '
        f'x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" '
        'text-anchor="middle">alpha</text>',
        f'<text x="14" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_HEIGHT // 2})">f(alpha)</text>',
        # bisectrix y = x
        f'<line class="bisectrix" x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" '
        f'x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    for k, spec in enumerate(spectra):
        color = _COLORS[k % len(_COLORS)]
        label = f"B={spec.B}"
        frag = detect_fragments(spec, gap_threshold)
        out.append(f'<g class="series" data-label="{label}">')
        # mapped as arrays, which round as the scalar maps do, and each
        # coordinate formatted once for its polyline and its circle
        xs = [f"{x:.2f}" for x in sx(spec.alphas).tolist()]
        ys = [f"{y:.2f}" for y in sy(spec.fs).tolist()]
        for i, j in frag.fragments:
            if j > i:
                pts = " ".join(f"{x},{y}"
                               for x, y in zip(xs[i:j + 1], ys[i:j + 1]))
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>')
        out.append("</g>")
        out.append(f'<text class="legend" x="{_WIDTH - _MARGIN - 90}" '
                   f'y="{_MARGIN + 16 * (k + 1)}" fill="{color}">'
                   f'{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
