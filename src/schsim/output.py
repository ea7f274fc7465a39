"""CSV and SVG emission with self-describing metadata headers.

Every CSV begins with ``#``-prefixed metadata: a format-version line, the
git-style content hash of the canonical config echo, the echo itself between
``config begin`` / ``config end`` markers, and any result lines (slope,
wallclock).  The echo can be extracted with :func:`read_metadata_config` and
re-fed as a config file; in deterministic mode the re-run reproduces the file
byte for byte.

Dialect: comma separator, ``.`` decimal point, LF line endings, and every
value formatted by ``config.format_value``: floats, numpy scalars included,
as plain shortest round-trip numbers.

Charts are emitted as minimal hand-rolled SVG line plots (no plotting
dependency).
"""

from __future__ import annotations

import csv
import hashlib
import math

from .config import format_value

__all__ = ["FORMAT_VERSION", "git_blob_sha1", "metadata_lines", "write_csv",
           "read_metadata_config", "write_svg_line_chart"]

FORMAT_VERSION = "schsim-csv v1"


def git_blob_sha1(text: str) -> str:
    """SHA-1 of the git blob object for ``text`` (same as ``git hash-object``)."""
    payload = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def metadata_lines(config_text: str, extra: dict | None = None) -> list[str]:
    """Build the '#'-prefixed metadata block for an output file."""
    lines = [f"# {FORMAT_VERSION}",
             f"# config_sha1 = {git_blob_sha1(config_text)}",
             "# config begin"]
    lines.extend(f"# {line}" for line in config_text.splitlines())
    lines.append("# config end")
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {format_value(value)}")
    return lines


def write_csv(path, columns, rows, config_text: str, extra: dict | None = None) -> None:
    """Write metadata block, header row and data rows (LF endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in metadata_lines(config_text, extra):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(map(format_value, row))


def read_metadata_config(path) -> str:
    """Extract the config echo embedded in an output file's metadata."""
    lines = []
    inside = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line == "# config begin":
                inside = True
            elif line == "# config end":
                return "\n".join(lines) + "\n"
            elif inside:
                if not line.startswith("# "):
                    raise ValueError(f"{path}: malformed metadata line {line!r}")
                lines.append(line[2:])
    raise ValueError(f"{path}: no embedded config block found")


# ---------------------------------------------------------------------------
# minimal SVG line charts

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 48


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def write_svg_line_chart(path, series, title: str, xlabel: str, ylabel: str,
                         logx: bool = False, logy: bool = False) -> None:
    """Render (label, xs, ys) series as a simple SVG line chart.

    Log axes transform the data by log10 and label ticks with the original
    values; nonpositive data on a log axis is a caller error.
    """
    series = [(label, list(map(float, xs)), list(map(float, ys)))
              for label, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("each series needs matching, nonempty xs and ys")

    def tx(v: float) -> float:
        if logx:
            if v <= 0:
                raise ValueError("log x-axis requires positive values")
            return math.log10(v)
        return v

    def ty(v: float) -> float:
        if logy:
            if v <= 0:
                raise ValueError("log y-axis requires positive values")
            return math.log10(v)
        return v

    xs_all = [tx(x) for _, xs, _ in series for x in xs]
    ys_all = [ty(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    def tick_label(v: float, is_log: bool) -> str:
        return f"{10.0 ** v:.3g}" if is_log else f"{v:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    axis_y = _MARGIN_T + plot_h
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_MARGIN_L + plot_w}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{axis_y}" stroke="black"/>')
    for v in _ticks(x_lo, x_hi):
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">'
                     f'{_escape(tick_label(v, logx))}</text>')
    for v in _ticks(y_lo, y_hi):
        y = py(v)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">'
                     f'{_escape(tick_label(v, logy))}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle" font-size="13" font-family="sans-serif">'
                 f'{_escape(xlabel)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2})">'
                 f'{_escape(ylabel)}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(tx(x)):.2f},{py(ty(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{_escape(str(label))}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
