"""The streamed scan writers against the per-cell reference renderers.

`reference_csv_text` and `reference_svg_text` build the whole document
cell by cell from Python floats, with `_ramp_color` rounding through
Python's round(). The CLI streams the CSV in fixed blocks of cells and
the SVG row by row, with precomputed axis strings and numpy colours;
every byte must agree.
"""

import io

import numpy as np
import pytest

from hardylab import cli
from hardylab.chsh import scan_surface
from hardylab.cli import RunManifest, _ramp_codes, run

# Both 225x193 axes hit the degenerate locus; 241x201 hits c1^2 = 0.5;
# 13x23 has axis values that 11 significant digits would print differently.
GRIDS = [(2, 2), (3, 2), (7, 5), (61, 2), (101, 91), (225, 193), (241, 201), (13, 23)]


def _fmt(value):
    return f"{float(value):.12g}"


def _flag(value):
    return "true" if value else "false"


def reference_csv_text(grid, manifest):
    lines = manifest.lines()
    lines.append("c1_squared,beta0_deg,p_hardy,delta,degenerate")
    for x, b, p, d, degenerate in grid.rows():
        lines.append(f"{_fmt(x)},{_fmt(b)},{_fmt(p)},{_fmt(d)},{_flag(degenerate)}")
    return "\n".join(lines) + "\n"


def _ramp_color(t):
    low, high = (32, 42, 88), (250, 220, 70)
    r, g, b = (round(a + t * (b_ - a)) for a, b_ in zip(low, high))
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_svg_text(grid, manifest):
    left, top, plot_w, plot_h = 70.0, 46.0, 540.0, 540.0
    width, height = left + plot_w + 30.0, top + plot_h + 54.0
    n_x, n_b = grid.shape
    cell_w, cell_h = plot_w / n_b, plot_h / n_x
    vmin = float(grid.delta.min())
    vmax = float(grid.delta.max())
    span = (vmax - vmin) or 1.0

    parts = ["<!--"] + manifest.lines() + ["-->"]
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}" font-family="monospace" font-size="13">'
    )
    parts.append(f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>')
    mx, mb, md = grid.max_cell()
    parts.append(f'<text x="{left:g}" y="20">CHSH violation surface</text>')
    parts.append(
        f'<text x="{left:g}" y="37" font-size="11">max delta = {_fmt(md)} '
        f"at c1_squared = {_fmt(mx)}, beta0 = {_fmt(mb)} deg</text>"
    )
    for i in range(n_x):
        y = top + plot_h - (i + 1) * cell_h
        for j in range(n_b):
            t = (float(grid.delta[i, j]) - vmin) / span
            x = left + j * cell_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.05:.2f}" '
                f'height="{cell_h + 0.05:.2f}" fill="{_ramp_color(t)}"/>'
            )
    axis_y = top + plot_h
    for value in (0, 30, 60, 90):
        x = left + value / 90.0 * plot_w
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y:.2f}" x2="{x:.2f}" y2="{axis_y + 6:.2f}" stroke="#000"/>'
        )
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 20:.2f}" text-anchor="middle">{value}</text>')
    for value in (0.0, 0.5, 1.0):
        y = top + plot_h - value * plot_h
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{y + 4:.2f}" text-anchor="end">{value:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{axis_y + 40:.2f}" text-anchor="middle">beta0 (deg)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">c1_squared</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _manifest(n1, n2, outputs=()):
    return RunManifest(
        "scan",
        parameters=(("c1sq_steps", str(n1)), ("beta0_steps", str(n2))),
        output_paths=outputs,
    )


@pytest.mark.parametrize("n1, n2", GRIDS)
def test_files_and_stdout_match_reference(capsys, tmp_path, n1, n2):
    grid = scan_surface(n1, n2)
    steps = ("scan", "--c1sq-steps", str(n1), "--beta0-steps", str(n2))
    csv_path, svg_path = str(tmp_path / "grid.csv"), str(tmp_path / "grid.svg")

    assert run([*steps, "--out", csv_path, "--svg", svg_path]) == 0
    manifest = _manifest(n1, n2, (csv_path, svg_path))
    with open(csv_path, "rb") as handle:
        assert handle.read() == reference_csv_text(grid, manifest).encode()
    with open(svg_path, "rb") as handle:
        assert handle.read() == reference_svg_text(grid, manifest).encode()
    capsys.readouterr()

    assert run(list(steps)) == 0
    captured = capsys.readouterr()
    assert captured.out == reference_csv_text(grid, _manifest(n1, n2))
    assert captured.err == ""


# Blocks of one cell, blocks of 7 (rows split mid-way, mostly with a
# short last block) and one block larger than every grid.
@pytest.mark.parametrize("block", [1, 7, 10**6])
@pytest.mark.parametrize("n1, n2", GRIDS + [(3, 20)])
def test_csv_blocks_match_reference(monkeypatch, n1, n2, block):
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block)
    grid = scan_surface(n1, n2)
    stream = io.StringIO()
    cli._write_csv(grid, _manifest(n1, n2), stream)
    assert stream.getvalue() == reference_csv_text(grid, _manifest(n1, n2))


def test_csv_block_splits_a_row_and_ends_short(monkeypatch):
    """Blocks of 7 over 3x20: rows split inside blocks, a 4-cell tail."""
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 7)
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    cli._write_csv(scan_surface(3, 20), _manifest(3, 20), Recorder())
    # Two header writes (manifest, column names), then one per block.
    assert [block.count("\n") for block in writes[2:]] == [7] * 8 + [4]


def _half_way_points():
    """t values where a channel lands exactly on k + 0.5 in float64."""
    points = []
    for low, high in zip((32, 42, 88), (250, 220, 70)):
        step = high - low
        for k in range(min(low, high), max(low, high)):
            t = (k + 0.5 - low) / step
            if low + t * step == k + 0.5:
                points.append(t)
    return points


def test_ramp_codes_round_half_to_even():
    points = _half_way_points()
    # Red at t = 0.5/218 is exactly 32.5; round() gives 32, not 33.
    assert 0.5 / 218 in points and _ramp_color(0.5 / 218) == "#202a58"
    # Every k of every channel is hit exactly, odd and even alike, so
    # rounding half up would fail on half of them.
    assert len(points) == 218 + 178 + 18
    t = np.array(points + list(np.random.default_rng(5).uniform(0.0, 1.0, 2000)) + [0.0, 1.0])
    assert [f"#{code:06x}" for code in _ramp_codes(t)] == [_ramp_color(v) for v in t.tolist()]
