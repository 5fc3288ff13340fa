"""Batch front-end: scenario files, single runs, four-way comparisons,
random-scenario sweeps, and static SVG renderings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path as FsPath

import numpy as np

from . import mission
from .gridmap import FREE, GLASS, WALL, CellIndex, GridMap, MapParseError, WorldPoint, parse_map
from .mission import (
    DeadlockError,
    DeploymentPlan,
    GoalConnectivityStallError,
    InfeasibleScenarioError,
    Metrics,
    ReplanBudgetError,
    Scenario,
    compute_metrics,
    execute_mission,
    normalize_mode,
    plan_deployment,
    run_with_replan,
)
from .radio import CoverageBook, InfeasibleRadioError, RadioConfigError, RadioParams

log = logging.getLogger("relaynet")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4
EXIT_IO = 5

class SchemaError(ValueError):
    pass


_RADIO_KEYS = {f.name for f in dataclasses.fields(RadioParams)} - {"seed"}
_SCENARIO_KEYS = {"map", "bs", "robot_starts", "goals", "radio", "w_c", "speed", "seed", "knobs"}
_KNOB_MINIMA = {"relay_stride": 1, "visit_cap": 0}
_EXPERIMENT_KEYS = {"map_size", "obstacle_density", "goal_counts", "trials", "modes", "seed_base", "radio"}
_MAX_MAP_SIDE = 1024


def _point(value, what: str) -> WorldPoint:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{what} must be an [x, y] pair, got {value!r}")
    return (_number(value[0], f"{what} x"), _number(value[1], f"{what} y"))


def _points(value, what: str) -> list[WorldPoint]:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of [x, y] pairs, got {value!r}")
    return [_point(p, f"{what} entry") for p in value]


def _number(value, what: str, minimum: float = -math.inf, inclusive: bool = True,
            maximum: float = math.inf) -> float:
    # abs(value) <= max is false for NaN, for inf and for ints no float can hold
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or value < minimum or (value == minimum and not inclusive) or value > maximum):
        bound = "" if minimum == -math.inf else f" {'>=' if inclusive else '>'} {minimum}"
        bound += "" if maximum == math.inf else f" and <= {maximum}"
        raise SchemaError(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)


def _integer(value, what: str, minimum: int, maximum: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        bound = "" if maximum == math.inf else f" and <= {maximum}"
        raise SchemaError(f"{what} must be an integer >= {minimum}{bound}, got {value!r}")
    return value


def _radio(block, seed: int = 0) -> RadioParams:
    """RadioParams from the radio object of a scenario or sweep file: known
    keys, finite numbers (as floats), within the ranges RadioParams enforces."""
    if not isinstance(block, dict):
        raise SchemaError(f"radio must be an object with keys from {sorted(_RADIO_KEYS)}, "
                          f"got {block!r}")
    unknown = set(block) - _RADIO_KEYS
    if unknown:
        raise SchemaError(f"unknown radio keys {sorted(unknown)}")
    values = {key: _number(value, f"radio {key}") for key, value in block.items()}
    try:
        return RadioParams(seed=seed, **values)
    except RadioConfigError as e:
        raise SchemaError(f"bad radio parameters: {e}") from e


def _json_object(path: FsPath, what: str, keys: set[str]) -> dict:
    """The JSON object in the file at path, whose keys must come from keys."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    return data


def load_scenario(path: str | FsPath) -> Scenario:
    """Read and validate a scenario JSON file; unknown keys are rejected."""
    path = FsPath(path)
    data = _json_object(path, "scenario", _SCENARIO_KEYS)
    for key in ("map", "bs", "robot_starts", "goals"):
        if key not in data:
            raise SchemaError(f"{path}: missing required key {key!r}")

    if not isinstance(data["map"], str):
        raise SchemaError(f"{path}: map must be a file name, got {data['map']!r}")
    grid = parse_map((path.parent / data["map"]).read_text())

    # absent optional fields take the Scenario defaults
    knobs = data.get("knobs", {})
    if not isinstance(knobs, dict):
        raise SchemaError(f"{path}: knobs must be an object, got {knobs!r}")
    unknown = set(knobs) - set(_KNOB_MINIMA)
    if unknown:
        raise SchemaError(f"{path}: unknown knob keys {sorted(unknown)}")
    try:
        radio = _radio(data.get("radio", {}), _integer(data.get("seed", 0), "seed", 0))
        optional = {key: _integer(value, f"knob {key}", _KNOB_MINIMA[key])
                    for key, value in knobs.items()}
        if "w_c" in data:
            optional["w_c"] = _number(data["w_c"], "w_c", 0.0, inclusive=True)
        if "speed" in data:
            optional["robot_speed"] = _number(data["speed"], "speed", 0.0, inclusive=False)
        sc = Scenario(
            map=grid,
            bs=_point(data["bs"], "bs"),
            robot_starts=_points(data["robot_starts"], "robot_starts"),
            goals=_points(data["goals"], "goals"),
            radio=radio,
            **optional,
        )
        sc.validate(initial=True)
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from e
    return sc


def load_experiment(path: str | FsPath) -> dict:
    """Read and validate a sweep experiment JSON file; unknown keys are rejected."""
    path = FsPath(path)
    data = _json_object(path, "experiment", _EXPERIMENT_KEYS)
    map_size = data.get("map_size", [32, 32])
    goal_counts = data.get("goal_counts", [6])
    modes = data.get("modes", list(mission.MODES))
    try:
        if not isinstance(map_size, list) or len(map_size) != 2:
            raise SchemaError(f"map_size must be a [width, height] pair, got {map_size!r}")
        if not isinstance(goal_counts, list) or not goal_counts:
            raise SchemaError(f"goal_counts must be a nonempty list, got {goal_counts!r}")
        if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
            raise SchemaError(f"modes must be a list of mode names, got {modes!r}")
        radio = _radio(data.get("radio", {}))
        exp = {
            # generate_map draws wall lines from [3, size - 3); the caps keep
            # a sweep's maps and wall-line counts bounded
            "map_size": [_integer(v, "map_size entry", 7, _MAX_MAP_SIDE) for v in map_size],
            "obstacle_density": _number(data.get("obstacle_density", 0.5), "obstacle_density",
                                        0.0, inclusive=True, maximum=1.0),
            "goal_counts": [_integer(g, "goal_counts entry", 1) for g in goal_counts],
            "trials": _integer(data.get("trials", 1), "trials", 1),
            "modes": [normalize_mode(m) for m in modes],
            "seed_base": _integer(data.get("seed_base", 0), "seed_base", 0),
            "radio": radio,
        }
        if len(set(exp["modes"])) < len(exp["modes"]):
            raise SchemaError(f"modes must name each mode once, got {modes!r}")
        return exp
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# random scenario generation (rooms and corridors)


def generate_map(width: int, height: int, density: float, rng: np.random.Generator,
                 resolution: float = 0.5) -> GridMap:
    """Axis-aligned rooms: border walls plus interior wall lines with door gaps."""
    mats = np.zeros((height, width), dtype=np.uint8)
    mats[0, :] = WALL
    mats[-1, :] = WALL
    mats[:, 0] = WALL
    mats[:, -1] = WALL
    n_lines = max(1, int(round(density * (width + height) / 12)))
    for k in range(n_lines):
        vertical = bool(rng.integers(0, 2)) if k > 0 else True
        # a line runs from 1 to the far side - 2, less the two door cells;
        # only WALL is written, so crossings stay walls
        if vertical:
            col = int(rng.integers(3, width - 3))
            door = int(rng.integers(1, height - 3))
            mats[1:door, col] = WALL
            mats[door + 2:height - 1, col] = WALL
        else:
            row = int(rng.integers(3, height - 3))
            door = int(rng.integers(1, width - 3))
            mats[row, 1:door] = WALL
            mats[row, door + 2:width - 1] = WALL
    return GridMap(width=width, height=height, resolution=resolution, materials=mats)


def _reachable(grid: GridMap, start: CellIndex) -> np.ndarray:
    """Mask of the FREE cells 4-connected to start: a fill over the flat
    index list of the materials padded by one blocked cell."""
    Wp = grid.width + 2
    free = np.pad(grid.materials == FREE, 1)
    todo = free.ravel().tolist()  # cleared as the fill reaches each cell
    stack = [(start[1] + 1) * Wp + start[0] + 1]
    todo[stack[0]] = False
    while stack:
        i = stack.pop()
        for j in (i + 1, i - 1, i + Wp, i - Wp):
            if todo[j]:
                todo[j] = False
                stack.append(j)
    return (free & ~np.array(todo).reshape(free.shape))[1:-1, 1:-1]


def _nearest(grid: GridMap, cols: np.ndarray, rows: np.ndarray, point: WorldPoint,
             k: int) -> list[CellIndex]:
    """The k cells of (cols, rows) first in the order of (math.hypot from the
    cell centre to point, cell). np.hypot may differ from math.hypot in the
    last ulp, so numpy keeps every cell within a wide margin of the k-th
    distance and the exact key orders only those."""
    res = grid.resolution
    d = np.hypot((cols + 0.5) * res - point[0], (rows + 0.5) * res - point[1])
    kth = np.partition(d, k - 1)[k - 1]
    near = np.nonzero(d <= kth + 1e-9 * (1.0 + kth))[0]

    def key(c):
        x, y = grid.to_world(c)
        return (math.hypot(x - point[0], y - point[1]), c)

    return sorted(zip(cols[near].tolist(), rows[near].tolist()), key=key)[:k]


def random_scenario(seed: int, width: int = 32, height: int = 32, n_goals: int = 6,
                    density: float = 0.5, radio: RadioParams | None = None,
                    resolution: float = 0.5) -> Scenario:
    """Seeded random indoor scenario: BS in a corner region, robots beside it,
    goals rejection-sampled on free cells with minimum pairwise separation."""
    rng = np.random.default_rng(seed)
    grid = generate_map(width, height, density, rng, resolution)
    params = radio if radio is not None else RadioParams(seed=seed)

    rows, cols = np.nonzero(grid.materials == FREE)
    if len(rows) < 2 * n_goals + 1:
        raise InfeasibleScenarioError("generated map has too few free cells")
    bs_cell = _nearest(grid, cols, rows, (2.0 * resolution, 2.0 * resolution), 1)[0]
    bs = grid.to_world(bs_cell)
    # the reachable cells in (col, row) order
    cols, rows = np.nonzero(_reachable(grid, bs_cell).T)
    if len(cols) < 2 * n_goals + 1:
        raise InfeasibleScenarioError("base station room is too small")
    starts = [grid.to_world(c) for c in _nearest(grid, cols, rows, bs, n_goals + 1)[1:]]

    min_sep = 2.0 * resolution
    min_bs_dist = 4.0 * resolution
    goals: list[WorldPoint] = []
    cols, rows = cols.tolist(), rows.tolist()
    for _ in range(4000):
        if len(goals) == n_goals:
            break
        i = int(rng.integers(0, len(cols)))
        p = grid.to_world((cols[i], rows[i]))
        if math.hypot(p[0] - bs[0], p[1] - bs[1]) < min_bs_dist:
            continue
        if any(abs(p[0] - s[0]) < 1e-9 and abs(p[1] - s[1]) < 1e-9 for s in starts):
            continue
        if all(math.hypot(p[0] - g[0], p[1] - g[1]) >= min_sep for g in goals):
            goals.append(p)
    if len(goals) < n_goals:
        raise InfeasibleScenarioError("could not sample enough separated goals")
    return Scenario(map=grid, bs=bs, robot_starts=starts, goals=goals, radio=params)


# ---------------------------------------------------------------------------
# rendering

_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
_CELL_PX = 8


def render_svg(scenario: Scenario, plan: DeploymentPlan | None = None) -> str:
    """Deterministic SVG: map cells, coverage shading, per-robot paths,
    goals as circles, relay posts as crosses, BS as a square."""
    grid = scenario.map
    s = _CELL_PX / grid.resolution
    w_px = grid.width * _CELL_PX
    h_px = grid.height * _CELL_PX
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="#ffffff"/>',
    ]

    sources: list[WorldPoint] = [scenario.bs]
    posts: list[WorldPoint] = []
    if plan is not None:
        for segs in plan.robots:
            for seg in segs:
                if seg.purpose == "relay-move" and seg.post is not None:
                    post = grid.to_world(tuple(seg.post))
                    posts.append(post)
                    sources.append(post)
    book = CoverageBook(grid, scenario.radio)
    cover = book.combined(sources) >= scenario.radio.gamma
    for r, c in zip(*(v.tolist() for v in np.nonzero(cover))):
        out.append(f'<rect x="{c * _CELL_PX}" y="{r * _CELL_PX}" '
                   f'width="{_CELL_PX}" height="{_CELL_PX}" fill="#d6eaff"/>')
    fills = {WALL: "#222222", GLASS: "#7fd4d4"}
    solid = np.isin(grid.materials, tuple(fills))
    for r, c, m in zip(*(v.tolist() for v in (*np.nonzero(solid), grid.materials[solid]))):
        out.append(f'<rect x="{c * _CELL_PX}" y="{r * _CELL_PX}" '
                   f'width="{_CELL_PX}" height="{_CELL_PX}" fill="{fills[m]}"/>')

    if plan is not None:
        for ri, segs in enumerate(plan.robots):
            color = _PALETTE[ri % len(_PALETTE)]
            for seg in segs:
                if seg.path is None or len(seg.path.points) < 2:
                    continue
                pts = " ".join(f"{x * s:.2f},{y * s:.2f}" for x, y in seg.path.points)
                dash = ' stroke-dasharray="4,3"' if seg.purpose == "relay-move" else ""
                out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                           f'stroke-width="1.5"{dash}/>')

    for g in scenario.goals:
        out.append(f'<circle cx="{g[0] * s:.2f}" cy="{g[1] * s:.2f}" r="3.5" '
                   f'fill="none" stroke="#1f3fbf" stroke-width="1.5"/>')
    for p in posts:
        x, y = p[0] * s, p[1] * s
        out.append(f'<path d="M {x - 3.5:.2f} {y - 3.5:.2f} L {x + 3.5:.2f} {y + 3.5:.2f} '
                   f'M {x - 3.5:.2f} {y + 3.5:.2f} L {x + 3.5:.2f} {y - 3.5:.2f}" '
                   f'stroke="#d62728" stroke-width="1.8"/>')
    for st in scenario.robot_starts:
        out.append(f'<circle cx="{st[0] * s:.2f}" cy="{st[1] * s:.2f}" r="2.0" fill="#444444"/>')
    bx, by = scenario.bs[0] * s, scenario.bs[1] * s
    out.append(f'<rect x="{bx - 4:.2f}" y="{by - 4:.2f}" width="8" height="8" fill="#2ca02c"/>')
    out.append("</svg>\n")  # the final newline, without a copy of the joined text
    return "\n".join(out)


# ---------------------------------------------------------------------------
# metrics tables


def _fmt(v: float | None) -> str:
    return "NA" if v is None else f"{v:.4f}"


def metrics_csv_rows(results: dict[str, Metrics | None]) -> list[str]:
    """Raw metrics per mode plus T/C/O columns normalized to the cross-mode max."""
    header = ("mode,d_max,d_tot,T,C_mean,C_min,O_mean,R,"
              "T_norm,C_mean_norm,C_min_norm,O_mean_norm")
    rows = [header]
    ok = {m: r for m, r in results.items() if r is not None}
    t_max = max((r.time_ticks for r in ok.values()), default=0) or 1
    c_max = max((r.c_mean for r in ok.values()), default=0.0) or 1.0
    cmin_max = max((r.c_min for r in ok.values()), default=0.0) or 1.0
    o_max = max((r.o_mean for r in ok.values()), default=0.0) or 1.0
    for m in mission.MODES:
        if m not in results:
            continue
        r = results[m]
        if r is None:
            rows.append(f"{m},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA")
            continue
        rows.append(
            f"{m},{_fmt(r.d_max)},{_fmt(r.d_tot)},{r.time_ticks},{_fmt(r.c_mean)},"
            f"{_fmt(r.c_min)},{_fmt(r.o_mean)},{r.robots_used},"
            f"{_fmt(r.time_ticks / t_max)},{_fmt(r.c_mean / c_max)},"
            f"{_fmt(r.c_min / cmin_max)},{_fmt(r.o_mean / o_max)}"
        )
    return rows


# ---------------------------------------------------------------------------
# commands


def _do_plan(sc: Scenario, mode: str, out_dir: str) -> int:
    plan = plan_deployment(sc, mode)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(plan.to_json())
    (out / "plan.svg").write_text(render_svg(sc, plan))
    log.info("wrote %s and %s", out / "plan.json", out / "plan.svg")
    return EXIT_OK


def _do_run(sc: Scenario, mode: str, noise_seed: int | None, out_dir: str,
            scenario_name: str) -> int:
    trace, plan, replans = run_with_replan(sc, mode, noise_seed)
    metrics = compute_metrics(trace, plan)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.json").write_text(trace.to_json())
    header = "scenario,mode,noise_seed,replans," + ",".join(Metrics.COLUMNS)
    row = (f"{scenario_name},{plan.mode},"
           f"{'' if noise_seed is None else noise_seed},{replans},"
           + ",".join(_fmt(v) for v in metrics.row()))
    (out / "metrics.csv").write_text(header + "\n" + row + "\n")
    return EXIT_OK


def _do_compare(sc: Scenario, out_dir: str) -> int:
    results, plans = compare_scenario(sc)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.csv").write_text("\n".join(metrics_csv_rows(results)) + "\n")
    for m, plan in plans.items():
        (out / f"plan_{m.lower()}.svg").write_text(render_svg(sc, plan))
    return EXIT_OK


def _run_mode(sc: Scenario, mode: str, plan: DeploymentPlan | None = None
              ) -> tuple[Metrics, DeploymentPlan] | None:
    """Metrics and plan of sc in mode, planned unless plan (that mode's plan
    of sc) is given; None, with a warning, when the mode fails."""
    try:
        plan = plan or plan_deployment(sc, mode)
        return compute_metrics(execute_mission(plan, sc), plan), plan
    except (InfeasibleScenarioError, InfeasibleRadioError, DeadlockError) as e:
        log.warning("mode %s failed: %s", mode, e)
        return None


def compare_scenario(sc: Scenario) -> tuple[dict[str, Metrics | None], dict[str, DeploymentPlan]]:
    """Plan and execute every mode on sc."""
    done = {m: _run_mode(sc, m) for m in mission.MODES}
    return ({m: d[0] if d else None for m, d in done.items()},
            {m: d[1] for m, d in done.items() if d})


def cmd_sweep(experiment_path: str, out_dir: str) -> int:
    spec = load_experiment(experiment_path)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width, height = spec["map_size"]
    trial_rows = ["goal_count,trial,seed,mode," + ",".join(Metrics.COLUMNS)]
    agg: dict[tuple[int, str], list[Metrics]] = {}
    for gc in spec["goal_counts"]:
        for trial in range(spec["trials"]):
            base = spec["seed_base"] * 1_000_000 + gc * 1_000 + trial * 37
            sc = None
            for attempt in range(20):
                seed = base + attempt
                try:
                    cand = random_scenario(seed, width, height, gc, spec["obstacle_density"],
                                           spec["radio"].with_(seed=seed))
                    probe = plan_deployment(cand, "DPA-FMM")  # feasible and plannable
                    sc = cand
                    break
                except (InfeasibleScenarioError, InfeasibleRadioError) as e:
                    log.info("resampling trial (seed %d): %s", seed, e)
            if sc is None:
                log.warning("skipping goal_count=%d trial=%d: no feasible scenario in 20 tries",
                            gc, trial)
                continue
            for m in spec["modes"]:
                done = _run_mode(sc, m, probe if m == probe.mode else None)
                if done is None:
                    trial_rows.append(f"{gc},{trial},{seed},{m}," + ",".join(["NA"] * len(Metrics.COLUMNS)))
                    continue
                trial_rows.append(f"{gc},{trial},{seed},{m},"
                                  + ",".join(_fmt(v) for v in done[0].row()))
                agg.setdefault((gc, m), []).append(done[0])
    (out / "trials.csv").write_text("\n".join(trial_rows) + "\n")

    agg_rows = ["goal_count,mode,trials," + ",".join(Metrics.COLUMNS)]
    for (gc, m) in sorted(agg.keys(), key=lambda k: (k[0], mission.MODES.index(k[1]))):
        rs = agg[(gc, m)]
        means = [sum(r.row()[i] for r in rs) / len(rs) for i in range(len(Metrics.COLUMNS))]
        agg_rows.append(f"{gc},{m},{len(rs)}," + ",".join(_fmt(v) for v in means))
    (out / "aggregate.csv").write_text("\n".join(agg_rows) + "\n")
    return EXIT_OK


def cmd_render(scenario_path: str, out_path: str) -> int:
    sc = load_scenario(scenario_path)
    FsPath(out_path).write_text(render_svg(sc, None))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(sc: Scenario, args) -> Scenario:
    radio = sc.radio
    if getattr(args, "margin_k", None) is not None:
        radio = radio.with_(margin_k=_number(args.margin_k, "--margin-k"))
    updates: dict = {"radio": radio}
    if getattr(args, "w_c", None) is not None:
        updates["w_c"] = _number(args.w_c, "--w-c", 0.0)
    return dataclasses.replace(sc, **updates)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="relaynet",
                                 description="communication-aware robot team deployment planner")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mode=True):
        p.add_argument("scenario")
        if mode:
            p.add_argument("--mode", default="dpa", help="fmm | ca-fmm | dp-fmm | dpa-fmm")
        p.add_argument("--out", required=True)
        p.add_argument("--w-c", dest="w_c", type=float, default=None)
        p.add_argument("--margin-k", dest="margin_k", type=float, default=None)

    common(sub.add_parser("plan", help="plan a deployment and render it"))
    runp = sub.add_parser("run", help="plan, execute, and write trace + metrics")
    common(runp)
    runp.add_argument("--noise-seed", dest="noise_seed", type=int, default=None)
    common(sub.add_parser("compare", help="run all four pipelines and tabulate"), mode=False)
    sw = sub.add_parser("sweep", help="random-scenario experiment sweep")
    sw.add_argument("experiment")
    sw.add_argument("--out", required=True)
    rd = sub.add_parser("render", help="render a scenario to SVG")
    rd.add_argument("scenario")
    rd.add_argument("--out", required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("RELAYNET_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "plan":
            sc = _apply_overrides(load_scenario(args.scenario), args)
            return _do_plan(sc, args.mode, args.out)
        if args.command == "run":
            if args.noise_seed is not None:
                _integer(args.noise_seed, "--noise-seed", 0)
            sc = _apply_overrides(load_scenario(args.scenario), args)
            return _do_run(sc, args.mode, args.noise_seed, args.out, FsPath(args.scenario).name)
        if args.command == "compare":
            sc = _apply_overrides(load_scenario(args.scenario), args)
            return _do_compare(sc, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.experiment, args.out)
        return cmd_render(args.scenario, args.out)
    # InfeasibleRadioError is a ValueError, so this clause comes first
    except (InfeasibleScenarioError, InfeasibleRadioError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        if isinstance(e, InfeasibleScenarioError) and e.report is not None:
            print(f"  ratio {e.report.ratio:.3f} vs {e.report.d_cov:.2f} m coverage distance",
                  file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SchemaError, MapParseError, ValueError) as e:
        log.error("%s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DeadlockError, GoalConnectivityStallError, ReplanBudgetError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
