"""Plan diagrams, impact heatmaps, and report files.

Images are D x D grids, one pixel per cell, origin bottom-left: x is the
e_A bucket, y is the e_B bucket, so selectivity grows up and to the right.
PPM (P6) is the canonical byte-exact output; an SVG twin with identical
cell colors exists for humans.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import PlanraceError
from .harness import ExperimentGrid, SummaryMetrics
from .plans import PLAN_ID_ORDER

RGB = tuple[int, int, int]

UNVISITED_GRAY: RGB = (128, 128, 128)

PLAN_COLORS: dict[str, RGB] = {
    "IXSCAN_A": (230, 126, 34),   # orange
    "IXSCAN_B": (39, 174, 96),    # green
    "COLLSCAN": (241, 196, 15),   # yellow
    "IXSCAN_AB": (41, 128, 185),  # blue
}

# The impact heatmap's scale: ratio 1.0 is white, ratios >= HEATMAP_R_MAX
# full red, linear in between.
HEATMAP_R_MAX = 4.0
HEATMAP_WHITE: RGB = (255, 255, 255)
HEATMAP_RED: RGB = (200, 0, 0)

# The side of one cell's square in an SVG image, in pixels.
SVG_CELL_PX = 10


def plan_color(plan_name: str) -> RGB:
    try:
        return PLAN_COLORS[plan_name]
    except KeyError:
        raise PlanraceError(
            f"no palette color for plan {plan_name!r}; known: {sorted(PLAN_COLORS)}"
        ) from None


def heatmap_color(ratio: float) -> RGB:
    t = (ratio - 1.0) / (HEATMAP_R_MAX - 1.0)
    t = min(max(t, 0.0), 1.0)
    return tuple(round(w + t * (f - w)) for w, f in zip(HEATMAP_WHITE, HEATMAP_RED))


class Image:
    """Minimal RGB raster with PPM and SVG emitters; every pixel starts
    unvisited gray."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.rows: list[list[RGB]] = [[UNVISITED_GRAY] * width for _ in range(height)]

    def set(self, x: int, y: int, color: RGB) -> None:
        self.rows[y][x] = color

    def to_ppm(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        body = bytearray()
        for row in self.rows:
            for r, g, b in row:
                body.extend((r, g, b))
        return header + bytes(body)

    def to_svg(self) -> str:
        px = SVG_CELL_PX
        w, h = self.width * px, self.height * px
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        ]
        for y, row in enumerate(self.rows):
            for x, (r, g, b) in enumerate(row):
                parts.append(
                    f'<rect x="{x * px}" y="{y * px}" '
                    f'width="{px}" height="{px}" fill="rgb({r},{g},{b})"/>'
                )
        parts.append("</svg>")
        return "\n".join(parts)


def _pixel_position(i: int, j: int, d: int) -> tuple[int, int]:
    # row 0 is the top of the raster; bucket j counts up from the bottom
    return i, d - 1 - j


def plan_diagram(grid: ExperimentGrid, which: str = "chosen") -> Image:
    """Color each cell by its chosen (or optimal) plan; unvisited cells stay gray."""
    if which not in ("chosen", "optimal"):
        raise ValueError(f"which must be 'chosen' or 'optimal', not {which!r}")
    img = Image(grid.d, grid.d)
    for (i, j), cell in grid.cells.items():
        plan_name = getattr(cell, which)
        if plan_name is None:
            continue
        x, y = _pixel_position(i, j, grid.d)
        img.set(x, y, plan_color(plan_name))
    return img


def impact_heatmap(grid: ExperimentGrid) -> Image:
    img = Image(grid.d, grid.d)
    for (i, j), cell in grid.cells.items():
        if cell.ratio is None:
            continue
        x, y = _pixel_position(i, j, grid.d)
        img.set(x, y, heatmap_color(cell.ratio))
    return img


def results_csv(grid: ExperimentGrid) -> str:
    """One row per cell, cells in (i, j) order, absent plans left empty."""
    time_cols = [f"t_{p}" for p in PLAN_ID_ORDER]
    lines = [",".join(["i", "j", "e_A", "e_B", "chosen", "optimal", "ratio"] + time_cols)]
    for cell in grid.sorted_cells():
        row = [str(cell.i), str(cell.j), repr(cell.e_a), repr(cell.e_b),
               cell.chosen, cell.optimal or "", "" if cell.ratio is None else repr(cell.ratio)]
        for plan_name in PLAN_ID_ORDER:
            t = cell.per_plan_times.get(plan_name)
            row.append("" if t is None else repr(t))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_document(grid: ExperimentGrid, metrics: SummaryMetrics) -> dict:
    chosen_counts: dict[str, int] = {}
    optimal_counts: dict[str, int] = {}
    for cell in grid.sorted_cells():
        chosen_counts[cell.chosen] = chosen_counts.get(cell.chosen, 0) + 1
        if cell.optimal is not None:
            optimal_counts[cell.optimal] = optimal_counts.get(cell.optimal, 0) + 1
    return {
        "provenance": grid.provenance,
        "accuracy": metrics.accuracy,
        "impact_pct": metrics.impact_pct,
        "per_plan_cell_counts": {
            "chosen": dict(sorted(chosen_counts.items())),
            "optimal": dict(sorted(optimal_counts.items())),
        },
    }


def summary_filename(metrics: SummaryMetrics) -> str:
    return f"summary_accuracy={metrics.accuracy * 100:.2f}_impact={metrics.impact_pct:.2f}.json"


def write_report(grid: ExperimentGrid, metrics: SummaryMetrics, out_dir,
                 svg: bool = False) -> list[Path]:
    """Write chosen/optimal/impact images, results.csv and the summary JSON.

    Returns the written paths; the summary filename embeds the two metrics.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images = {
        "chosen": plan_diagram(grid, "chosen"),
        "optimal": plan_diagram(grid, "optimal"),
        "impact": impact_heatmap(grid),
    }
    written = []
    try:
        for stem, img in images.items():
            p = out / f"{stem}.ppm"
            p.write_bytes(img.to_ppm())
            written.append(p)
            if svg:
                sp = out / f"{stem}.svg"
                sp.write_text(img.to_svg(), encoding="utf-8")
                written.append(sp)
        csv_path = out / "results.csv"
        csv_path.write_text(results_csv(grid), encoding="utf-8", newline="\n")
        written.append(csv_path)
        summary_path = out / summary_filename(metrics)
        summary_path.write_text(
            json.dumps(summary_document(grid, metrics), indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n")
        written.append(summary_path)
    except OSError as exc:
        raise PlanraceError(f"failed writing report to {out}: {exc}") from exc
    return written
