"""Diagram rendering, heatmap scale, and report file outputs."""

from __future__ import annotations

import json

import pytest

from planrace.engine import Query, RangePredicate, generate_dataset
from planrace.errors import PlanraceError
from planrace.harness import (
    ExperimentGrid,
    GridCell,
    SummaryMetrics,
    run_experiment,
)
from planrace.plans import PLAN_ID_ORDER, OptimizerVariant
from planrace.scenarios import get_scenario
from planrace.viz import (
    PLAN_COLORS,
    SVG_CELL_PX,
    UNVISITED_GRAY,
    heatmap_color,
    impact_heatmap,
    plan_color,
    plan_diagram,
    results_csv,
    summary_filename,
    write_report,
)


def cell(i, j, chosen, optimal=None, ratio=None):
    q = Query((RangePredicate("A", 0, 1), RangePredicate("B", 0, 1)))
    return GridCell(i=i, j=j, e_a=0.0, e_b=0.0, query=q, chosen=chosen,
                    positions=(0, 0, 0, 0), per_plan_times={chosen: 1.0},
                    optimal=optimal or chosen,
                    ratio=1.0 if ratio is None else ratio)


def tiny_grid(d=2):
    grid = ExperimentGrid(d=d)
    grid.cells[(0, 0)] = cell(0, 0, "IXSCAN_A")
    grid.cells[(0, 1)] = cell(0, 1, "IXSCAN_B")
    grid.cells[(1, 0)] = cell(1, 0, "COLLSCAN", ratio=4.0)
    grid.cells[(1, 1)] = cell(1, 1, "IXSCAN_AB", optimal="COLLSCAN", ratio=2.0)
    grid.provenance = {"scenario": "test"}
    return grid


def test_palette_colors():
    assert plan_color("IXSCAN_A") == (230, 126, 34)
    assert plan_color("IXSCAN_B") == (39, 174, 96)
    assert plan_color("COLLSCAN") == (241, 196, 15)
    assert plan_color("IXSCAN_AB") == (41, 128, 185)
    assert sorted(PLAN_COLORS) == sorted(PLAN_ID_ORDER)
    assert UNVISITED_GRAY == (128, 128, 128)


def test_palette_unknown_plan_errors():
    with pytest.raises(PlanraceError, match="no palette color for plan 'IXSCAN_Z'"):
        plan_color("IXSCAN_Z")


def test_plan_diagram_orientation_bottom_left_origin():
    grid = tiny_grid()
    img = plan_diagram(grid, "chosen")
    # cell (0,0) is bottom-left: raster row d-1, column 0
    assert img.rows[1][0] == (230, 126, 34)   # (i=0, j=0)
    assert img.rows[0][0] == (39, 174, 96)    # (i=0, j=1) above it
    assert img.rows[1][1] == (241, 196, 15)   # (i=1, j=0)
    assert img.rows[0][1] == (41, 128, 185)   # (i=1, j=1)


def test_plan_diagram_unvisited_cell_is_gray():
    grid = tiny_grid()
    del grid.cells[(1, 1)]
    img = plan_diagram(grid, "chosen")
    assert img.rows[0][1] == (128, 128, 128)
    assert sum(1 for row in img.rows for px in row if px == (128, 128, 128)) == 1


def test_plan_diagram_optimal_field():
    grid = tiny_grid()
    img = plan_diagram(grid, "optimal")
    assert img.rows[0][1] == (241, 196, 15)  # cell (1,1) optimal is COLLSCAN


def test_plan_diagram_rejects_bad_field():
    with pytest.raises(ValueError):
        plan_diagram(tiny_grid(), "fastest")


def test_heatmap_scale_endpoints_and_monotonicity():
    assert heatmap_color(1.0) == (255, 255, 255)
    assert heatmap_color(4.0) == (200, 0, 0)
    assert heatmap_color(99.0) == (200, 0, 0)
    last = heatmap_color(1.0)
    for step in range(1, 200):
        now = heatmap_color(1.0 + step * 0.05)
        assert all(n <= l for n, l in zip(now, last))
        last = now


def test_impact_heatmap_pixels():
    grid = tiny_grid()
    img = impact_heatmap(grid)
    assert img.rows[1][0] == (255, 255, 255)  # ratio 1.0
    assert img.rows[1][1] == (200, 0, 0)      # ratio 4.0 saturates


def test_unbounded_cell_is_gray_in_heatmap_and_blank_in_csv():
    # finalize leaves the ratio of a cell with an unbounded slowdown empty
    grid = tiny_grid()
    grid.cells[(1, 0)].ratio = None
    assert impact_heatmap(grid).rows[1][1] == (128, 128, 128)
    row = results_csv(grid).split("\n")[3].split(",")
    assert row[:2] == ["1", "0"] and row[6] == ""


def test_heatmap_all_white_iff_perfect():
    grid = tiny_grid()
    for c in grid.cells.values():
        c.ratio = 1.0
    img = impact_heatmap(grid)
    assert {px for row in img.rows for px in row} == {(255, 255, 255)}
    grid.cells[(0, 0)].ratio = 1.2
    img = impact_heatmap(grid)
    assert img.rows[1][0] != (255, 255, 255)


def test_ppm_bytes_layout():
    img = plan_diagram(tiny_grid(), "chosen")
    data = img.to_ppm()
    assert data.startswith(b"P6\n2 2\n255\n")
    assert len(data) == len(b"P6\n2 2\n255\n") + 2 * 2 * 3


def test_svg_has_one_rect_per_cell():
    svg = plan_diagram(tiny_grid(), "chosen").to_svg()
    assert svg.count("<rect") == 4
    assert 'fill="rgb(230,126,34)"' in svg
    side = 2 * SVG_CELL_PX
    assert f'width="{side}" height="{side}" viewBox="0 0 {side} {side}"' in svg


def test_summary_filename_format():
    m = SummaryMetrics(accuracy=0.34, impact_pct=170.0)
    assert summary_filename(m) == "summary_accuracy=34.00_impact=170.00.json"


def test_results_csv_columns_and_blanks():
    text = results_csv(tiny_grid())
    lines = text.strip().split("\n")
    assert lines[0] == "i,j,e_A,e_B,chosen,optimal,ratio,t_COLLSCAN,t_IXSCAN_A,t_IXSCAN_B,t_IXSCAN_AB"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert first[7] == ""  # COLLSCAN not measured in that synthetic cell


def test_write_report_files(tmp_path):
    grid = tiny_grid()
    metrics = SummaryMetrics(accuracy=0.75, impact_pct=125.0)
    written = write_report(grid, metrics, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["chosen.ppm", "impact.ppm", "optimal.ppm", "results.csv",
                     "summary_accuracy=75.00_impact=125.00.json"]
    doc = json.loads((tmp_path / "summary_accuracy=75.00_impact=125.00.json").read_text())
    assert doc["accuracy"] == 0.75
    assert doc["provenance"] == {"scenario": "test"}
    assert doc["per_plan_cell_counts"]["chosen"]["IXSCAN_A"] == 1


def test_write_report_svg_mode(tmp_path):
    grid = tiny_grid()
    written = write_report(grid, SummaryMetrics(1.0, 0.0), tmp_path, svg=True)
    assert sorted(p.suffix for p in written).count(".svg") == 3


def test_report_reproducible_for_same_grid(tmp_path):
    collection = generate_dataset(800, "uniform-distinct", seed=55)
    scenario = get_scenario("both-indexed")
    out = []
    for run in ("one", "two"):
        grid, metrics = run_experiment(scenario, collection, OptimizerVariant.VANILLA,
                                       d=4, seed=21)
        d = tmp_path / run
        write_report(grid, metrics, d)
        out.append(d)
    for name in ("chosen.ppm", "optimal.ppm", "impact.ppm", "results.csv"):
        assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes()


def test_cache_grid_renders_monochrome(tmp_path):
    from planrace.plans import parse_plan_hint
    collection = generate_dataset(600, "uniform-distinct", seed=4)
    scenario = get_scenario("single-index")
    grid, _ = run_experiment(scenario, collection, OptimizerVariant.VANILLA, d=3, seed=2,
                             primed=parse_plan_hint("IXSCAN_B"))
    img = plan_diagram(grid, "chosen")
    colors = {px for row in img.rows for px in row}
    assert colors == {(39, 174, 96)}
