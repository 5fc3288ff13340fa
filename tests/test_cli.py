import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path as FsPath

import pytest

import relaynet.cli as cli
import relaynet.mission as mission
import relaynet.radio as radio
from relaynet.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SCHEMA,
    ReplanBudgetError,
    SchemaError,
    generate_map,
    load_experiment,
    load_scenario,
    main,
    random_scenario,
    render_svg,
)
from relaynet.gridmap import GLASS, parse_map
from relaynet.mission import InfeasibleScenarioError, plan_deployment
from relaynet.radio import RadioParams, coverage_field

import numpy as np

from conftest import fig2_map, fig2_scenario, make_map
from helpers import render_svg_reference

SRC = FsPath(__file__).resolve().parents[1] / "src"


def write_fig2_files(tmp_path: FsPath, **extra) -> FsPath:
    (tmp_path / "fig2.map").write_text(fig2_map().serialize())
    doc = {
        "map": "fig2.map",
        "bs": [3.0, 6.0],
        "robot_starts": [[1.0 + 0.5 * i, 10.5] for i in range(6)],
        "goals": [[9.0, 4.5], [13.0, 8.0], [16.0, 5.5], [17.0, 10.0],
                  [15.5, 1.0], [18.5, 1.0]],
        "radio": {"p_tx": -14.65},
    }
    doc.update(extra)
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def write_tiny_files(tmp_path: FsPath) -> FsPath:
    # one robot one cell from its goal; every pipeline produces the same row
    (tmp_path / "tiny.map").write_text(
        "width 12\nheight 5\nresolution 0.5\n" + "\n".join(["." * 12] * 5) + "\n")
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "map": "tiny.map",
        "bs": [1.25, 1.25],
        "robot_starts": [[2.25, 1.25]],
        "goals": [[2.75, 1.25]],
    }))
    return path


class TestScenarioSchema:
    def test_load_valid(self, tmp_path):
        sc = load_scenario(write_fig2_files(tmp_path))
        assert len(sc.goals) == 6
        assert sc.radio.p_tx == -14.65
        # w_c's minimum is inclusive
        assert load_scenario(write_fig2_files(tmp_path, w_c=0)).w_c == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_fig2_files(tmp_path, extra_knob=1)
        with pytest.raises(SchemaError, match="unknown keys"):
            load_scenario(path)

    def test_unknown_radio_key_rejected(self, tmp_path):
        path = write_fig2_files(tmp_path, radio={"p_tx": -14.65, "antenna": 3})
        with pytest.raises(SchemaError, match="radio keys"):
            load_scenario(path)

    def test_seed_feeds_radio(self, tmp_path):
        sc = load_scenario(write_fig2_files(tmp_path, seed=77))
        assert sc.radio.seed == 77

    @pytest.mark.parametrize("key, extra", [
        ("knobs", {"knobs": []}),
        ("speed", {"speed": None}),
        ("w_c", {"w_c": None}),
        ("robot_starts", {"robot_starts": 5}),
        ("map", {"map": 5}),
        ("relay_stride", {"knobs": {"relay_stride": 0}}),
        ("visit_cap", {"knobs": {"visit_cap": -1}}),
        ("speed", {"speed": 0}),
        ("speed", {"speed": -1}),
        ("p_tx", {"radio": {"p_tx": "x"}}),
        ("l0", {"radio": {"l0": True}}),
        ("gamma", {"radio": {"gamma": math.nan}}),
        ("seed", {"seed": True}),
        ("bs", {"bs": [True, 6.0]}),
        ("unknown knob keys", {"knobs": {"surprise": 1}}),
        ("goals must occupy distinct cells", {"goals": [[9.0, 4.5], [9.2, 4.7], [16.0, 5.5],
                                                        [17.0, 10.0], [15.5, 1.0], [18.5, 1.0]]}),
        (r"must be an \[x, y\] pair", {"bs": [3.0, 6.0, 1.0]}),
    ])
    def test_malformed_field_is_a_schema_error(self, tmp_path, key, extra):
        path = write_fig2_files(tmp_path, **extra)
        with pytest.raises(SchemaError, match=key):
            load_scenario(path)
        assert main(["run", str(path), "--mode", "dpa", "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_schema_error_is_written_once(self, tmp_path):
        # a fresh interpreter, because in-process runs route log records to
        # pytest's own handler and so would hide a logged copy of the message
        path = write_fig2_files(tmp_path, goals=[[9.0, 4.5], [9.2, 4.7], [16.0, 5.5],
                                                 [17.0, 10.0], [15.5, 1.0], [18.5, 1.0]])
        out = subprocess.run([sys.executable, "-m", "relaynet.cli", "plan", str(path),
                              "--out", str(tmp_path / "o")],
                             env={**os.environ, "PYTHONPATH": str(SRC), "RELAYNET_LOG": "WARNING"},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == EXIT_SCHEMA
        assert out.stderr.count("goals must occupy distinct cells") == 1

    @pytest.mark.parametrize("name, text, match", [
        ("fig2.json", "{", "invalid JSON"),
        ("fig2.map", "width 1\nheight 1\n.\n#\n", "unexpected content after raster"),
    ])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, name, text, match):
        path = write_fig2_files(tmp_path)
        (tmp_path / name).write_text(text)
        assert main(["plan", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert match in capsys.readouterr().err

    def test_missing_key_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"map": "x.map"}))
        with pytest.raises(SchemaError, match="missing required key"):
            load_scenario(tmp_path / "bad.json")


class TestExitCodes:
    def test_plan_success_writes_files(self, tmp_path):
        path = write_fig2_files(tmp_path)
        code = main(["plan", str(path), "--mode", "dpa", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert plan["mode"] == "DPA-FMM"
        svg = (tmp_path / "out" / "plan.svg").read_text()
        assert svg.startswith("<svg")

    def test_mode_alias_case_insensitive(self, tmp_path):
        path = write_fig2_files(tmp_path)
        code = main(["plan", str(path), "--mode", "DPA", "--out", str(tmp_path / "o2")])
        assert code == EXIT_OK

    def test_schema_error_exit_2(self, tmp_path):
        path = write_fig2_files(tmp_path, typo_key=True)
        assert main(["plan", str(path), "--mode", "fmm", "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_bad_mode_exit_2(self, tmp_path):
        path = write_fig2_files(tmp_path)
        assert main(["plan", str(path), "--mode", "astar", "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_infeasible_exit_3(self, tmp_path):
        # 70-cell corridor at d_cov 10 m with one robot: ratio over budget
        rows = ["#" * 70, "." * 70, "#" * 70]
        text = "width 70\nheight 3\nresolution 0.5\n" + "\n".join(rows) + "\n"
        (tmp_path / "c.map").write_text(text)
        (tmp_path / "c.json").write_text(json.dumps({
            "map": "c.map",
            "bs": [0.25, 0.75],
            "robot_starts": [[0.75, 0.75]],
            "goals": [[33.25, 0.75]],
            "radio": {"p_tx": -10.0, "n_los": 2.0, "n_nlos": 2.0},
        }))
        assert main(["plan", str(tmp_path / "c.json"), "--mode", "dp",
                     "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE

    def test_infeasible_radio_exit_3(self, tmp_path, capsys):
        # no coverage range at all: InfeasibleRadioError, which is also a ValueError
        path = write_fig2_files(tmp_path, radio={"p_tx": -40, "l0": 40, "gamma": -70})
        assert main(["plan", str(path), "--mode", "dp",
                     "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE
        assert "infeasible: no coverage range" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a_wall", "a_glass"])
    def test_huge_int_attenuation_loads_as_a_float(self, tmp_path, key):
        # a JSON int reaches RadioParams as the float it equals, so 10**30 dB
        # is an attenuation no link crosses, not an overflow in numpy
        path = write_fig2_files(tmp_path, radio={"p_tx": -14.65, key: 10**30})
        radio = load_scenario(path).radio
        assert radio == RadioParams(p_tx=-14.65, **{key: 1e30})
        assert isinstance(getattr(radio, key), float)
        for command, mode in (("plan", "fmm"), ("plan", "dp"), ("run", "dpa")):
            assert main([command, str(path), "--mode", mode,
                         "--out", str(tmp_path / command / mode)]) == EXIT_OK

    @pytest.mark.parametrize("radio", [{"p_tx": 1e30}, {"p_tx": 10**30}, {"gamma": -1e30}])
    def test_overflowing_coverage_range_exit_2(self, tmp_path, capsys, radio):
        path = write_fig2_files(tmp_path, radio=radio)
        assert main(["run", str(path), "--mode", "dpa", "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "coverage range overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["fmm", "ca", "dp", "dpa"])
    def test_overflowing_radio_span_exit_2(self, tmp_path, capsys, mode):
        # each finite, but p_tx - gamma is not: rejected before any planning
        path = write_fig2_files(tmp_path, radio={"p_tx": 1e308, "gamma": -1e308})
        assert main(["plan", str(path), "--mode", mode, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "radio span overflows" in capsys.readouterr().err

    def test_dpa_without_progress_names_clusters_and_robots(self, tmp_path, capsys):
        # fig2 at visit_cap 0: every goal and post is its own cluster, so the
        # last wave has 4 clusters for 1 robot, assigned one entering through
        # an unmanned post
        bench = FsPath(__file__).resolve().parents[1] / "bench" / "data"
        doc = json.loads((bench / "fig2.json").read_text())
        doc["knobs"] = {"visit_cap": 0}
        (tmp_path / doc["map"]).write_text((bench / doc["map"]).read_text())
        (tmp_path / "fig2.json").write_text(json.dumps(doc))
        with pytest.raises(InfeasibleScenarioError) as info:
            plan_deployment(load_scenario(tmp_path / "fig2.json"), "dpa")
        assert str(info.value) == (
            "DPA planning made no progress with goals [2, 4, 5] unplanned: 4 clusters, "
            "robots left: 1; every assigned cluster enters through an unmanned relay post")
        assert main(["plan", str(tmp_path / "fig2.json"), "--mode", "dpa",
                     "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE
        assert str(info.value) in capsys.readouterr().err

    def test_io_error_exit_5(self, tmp_path):
        assert main(["plan", str(tmp_path / "nope.json"), "--mode", "fmm",
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_runtime_error_exit_4(self, tmp_path, monkeypatch):
        path = write_fig2_files(tmp_path)

        def boom(*a, **k):
            raise ReplanBudgetError("budget exhausted")

        monkeypatch.setattr(cli, "run_with_replan", boom)
        assert main(["run", str(path), "--mode", "fmm",
                     "--out", str(tmp_path / "o")]) == EXIT_RUNTIME

    def test_replan_budget_exhausted_chains_the_stall(self):
        from relaynet.mission import GoalConnectivityStallError

        with pytest.raises(ReplanBudgetError) as exc:
            cli.run_with_replan(fig2_scenario(), "FMM", 0, budget=0)
        assert isinstance(exc.value.__cause__, GoalConnectivityStallError)


class TestRun:
    def test_run_writes_trace_and_metrics(self, tmp_path):
        path = write_tiny_files(tmp_path)
        code = main(["run", str(path), "--mode", "fmm", "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        trace = json.loads((tmp_path / "r" / "trace.json").read_text())
        assert trace["completed"] is True
        lines = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,mode,noise_seed")
        assert len(lines) == 2

    @pytest.mark.parametrize("mode", ["fmm", "dp", "dpa"])
    def test_run_without_stall_writes_the_plain_trace(self, tmp_path, mode):
        from relaynet.mission import execute_mission, plan_deployment

        path = write_fig2_files(tmp_path)
        assert main(["run", str(path), "--mode", mode, "--out", str(tmp_path / "r")]) == EXIT_OK
        sc = load_scenario(path)
        expected = execute_mission(plan_deployment(sc, mode), sc).to_json()
        assert (tmp_path / "r" / "trace.json").read_text() == expected

    def test_noise_run_deterministic(self, tmp_path):
        path = write_fig2_files(tmp_path)
        main(["run", str(path), "--mode", "dp", "--noise-seed", "5",
              "--out", str(tmp_path / "n1")])
        main(["run", str(path), "--mode", "dp", "--noise-seed", "5",
              "--out", str(tmp_path / "n2")])
        assert ((tmp_path / "n1" / "metrics.csv").read_bytes()
                == (tmp_path / "n2" / "metrics.csv").read_bytes())
        assert ((tmp_path / "n1" / "trace.json").read_bytes()
                == (tmp_path / "n2" / "trace.json").read_bytes())

    def test_noisy_fmm_recovers_via_replan(self, tmp_path):
        # the far pair is unreachable without relays, so the plain pipeline
        # stalls at the goal and the reactive replan finishes the mission
        path = write_fig2_files(tmp_path)
        code = main(["run", str(path), "--mode", "fmm", "--noise-seed", "2",
                     "--out", str(tmp_path / "rp")])
        assert code == EXIT_OK
        row = (tmp_path / "rp" / "metrics.csv").read_text().splitlines()[1]
        replans = int(row.split(",")[3])
        assert replans >= 1
        trace = json.loads((tmp_path / "rp" / "trace.json").read_text())
        assert trace["completed"] is True
        assert trace["reached_goals"] == [0, 1, 2, 3, 4, 5]

    def test_map_is_freed_when_the_command_returns(self, tmp_path, monkeypatch):
        # the map's memos hold nothing that refers back to it, so no
        # reference cycle keeps it alive until the cyclic collector runs
        path = write_fig2_files(tmp_path, seed=11)
        maps = []

        def parse(text):
            grid = parse_map(text)
            maps.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(cli, "parse_map", parse)
        gc.collect()
        gc.disable()
        try:
            for mode in ("ca-fmm", "dpa-fmm"):
                assert main(["run", str(path), "--mode", mode, "--noise-seed", "0",
                             "--out", str(tmp_path / mode)]) == EXIT_OK
                assert len(maps) == 1 and maps[0]() is None
                maps.clear()
        finally:
            gc.enable()


class TestCompare:
    def test_degenerate_rows_identical(self, tmp_path):
        path = write_tiny_files(tmp_path)
        assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == EXIT_OK
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert len(lines) == 5
        data = [line.split(",", 1)[1] for line in lines[1:]]
        assert len(set(data)) == 1

    def test_na_rows_for_infeasible_modes(self, tmp_path):
        rows = ["#" * 70, "." * 70, "#" * 70]
        (tmp_path / "c.map").write_text("width 70\nheight 3\nresolution 0.5\n" + "\n".join(rows) + "\n")
        (tmp_path / "c.json").write_text(json.dumps({
            "map": "c.map",
            "bs": [0.25, 0.75],
            "robot_starts": [[0.75, 0.75]],
            "goals": [[33.25, 0.75]],
            "radio": {"p_tx": -10.0, "n_los": 2.0, "n_nlos": 2.0},
        }))
        assert main(["compare", str(tmp_path / "c.json"), "--out", str(tmp_path / "cmp")]) == EXIT_OK
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        na = [line for line in lines if ",NA" in line]
        assert {line.split(",")[0] for line in na} == {"DP-FMM", "DPA-FMM"}

    def test_fig2_table_orderings(self, tmp_path):
        path = write_fig2_files(tmp_path)
        assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == EXIT_OK
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        vals = {}
        for line in lines[1:]:
            parts = line.split(",")
            vals[parts[0]] = {"d_tot": float(parts[2]), "T": float(parts[3]),
                              "R": int(parts[8 - 1])}
        assert vals["DPA-FMM"]["d_tot"] < vals["DP-FMM"]["d_tot"]
        assert vals["DPA-FMM"]["T"] > vals["DP-FMM"]["T"]
        assert vals["DPA-FMM"]["R"] < len(load_scenario(path).goals)

    def test_builds_each_coverage_field_once(self, tmp_path, monkeypatch):
        # every planner, execution and render on the map shares its fields
        sc = random_scenario(1, 20, 20, 4, 0.3, RadioParams(p_tx=-16.0, seed=1))
        (tmp_path / "r.map").write_text(sc.map.serialize())
        (tmp_path / "r.json").write_text(json.dumps({
            "map": "r.map", "bs": list(sc.bs), "robot_starts": [list(p) for p in sc.robot_starts],
            "goals": [list(p) for p in sc.goals], "radio": {"p_tx": -16.0}, "seed": 1,
        }))
        built = []

        def counting(grid, tx, params):
            built.append(grid.to_cell(tx))
            return coverage_field(grid, tx, params)

        monkeypatch.setattr(radio, "coverage_field", counting)
        assert main(["compare", str(tmp_path / "r.json"), "--out", str(tmp_path / "cmp")]) == EXIT_OK
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert len(lines) == 5 and not any(",NA" in line for line in lines)
        assert sc.map.to_cell(sc.bs) in built
        assert sorted(built) == sorted(set(built))

class TestSweep:
    def test_single_trial_aggregate_equals_trial(self, tmp_path):
        (tmp_path / "exp.json").write_text(json.dumps({
            "map_size": [26, 26], "obstacle_density": 0.4, "goal_counts": [3],
            "trials": 1, "seed_base": 2, "radio": {"p_tx": -12.0},
        }))
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_OK
        trials = (tmp_path / "sw" / "trials.csv").read_text().splitlines()
        agg = (tmp_path / "sw" / "aggregate.csv").read_text().splitlines()
        assert len(trials) == 5  # header + 4 modes
        assert len(agg) >= 2
        t_dpa = [line for line in trials if ",DPA-FMM," in line][0].split(",")
        a_dpa = [line for line in agg if ",DPA-FMM," in line][0].split(",")
        assert t_dpa[-7:] == a_dpa[-7:]

    def test_plans_dpa_once_per_kept_trial(self, tmp_path, monkeypatch):
        # p_tx -16 on a dense 24x24 map makes some probes fail and resample
        (tmp_path / "exp.json").write_text(json.dumps({
            "map_size": [24, 24], "obstacle_density": 0.4, "goal_counts": [4, 6],
            "trials": 3, "seed_base": 3, "radio": {"p_tx": -16.0},
        }))
        planned = []

        def recording(sc, mode, *args, **kwargs):
            plan = plan_deployment(sc, mode, *args, **kwargs)
            planned.append(plan.mode)
            return plan

        monkeypatch.setattr(cli, "plan_deployment", recording)
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_OK
        rows = (tmp_path / "sw" / "trials.csv").read_text().splitlines()[1:]
        kept = {tuple(row.split(",")[:2]) for row in rows}
        assert len(kept) == 6
        assert planned.count("DPA-FMM") == len(kept)
        digests = {name: hashlib.sha256((tmp_path / "sw" / name).read_bytes()).hexdigest()
                   for name in ("trials.csv", "aggregate.csv")}
        assert digests == {
            "trials.csv": "70d27eccb2e9e76bf924379df505b083c5705a9f612ebc9768e1b6f01941bf74",
            "aggregate.csv": "fdea8004042a0649061ce1f95b708acf192ae575cdb725c6136f87929f4c3a36",
        }

    def test_dpa_only_sweep_plans_and_executes_only_dpa(self, tmp_path, monkeypatch):
        # a 12-trial sweep on 32x32 maps, with all modes and with DPA-FMM
        # alone. With all modes it runs relay synthesis, Hungarian matching
        # and the deterministic tick loop on every trial, and writes one
        # DP-FMM NA row; a change that means to alter its CSVs records the
        # new hashes in the same change
        exp = {"map_size": [32, 32], "goal_counts": [4, 6, 8], "trials": 4, "seed_base": 0,
               "radio": {"p_tx": -16.0}}
        (tmp_path / "all.json").write_text(json.dumps(exp))
        (tmp_path / "dpa.json").write_text(json.dumps(dict(exp, modes=["dpa"])))
        assert main(["sweep", str(tmp_path / "all.json"), "--out", str(tmp_path / "all")]) == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / "all" / name).read_bytes()).hexdigest()
                   for name in ("trials.csv", "aggregate.csv")}
        assert digests == {
            "trials.csv": "c52c33e0d39714ede2a7db31ab27647a7028f8530132d6e657004451d80c42b3",
            "aggregate.csv": "dd21c985bed9f82d70314ffc888bbf4d72a775d2ba4f08a4d252e0ecfa6561ac",
        }
        planned, executed = [], []

        def plan(sc, mode, *args, **kwargs):
            planned.append(mission.normalize_mode(mode))
            return plan_deployment(sc, mode, *args, **kwargs)

        def execute(plan, sc, *args, **kwargs):
            executed.append(plan.mode)
            return mission.execute_mission(plan, sc, *args, **kwargs)

        monkeypatch.setattr(cli, "plan_deployment", plan)
        monkeypatch.setattr(cli, "execute_mission", execute)
        assert main(["sweep", str(tmp_path / "dpa.json"), "--out", str(tmp_path / "dpa")]) == EXIT_OK
        for name in ("trials.csv", "aggregate.csv"):
            header, *rows = (tmp_path / "all" / name).read_text().splitlines()
            dpa_rows = [row for row in rows if ",DPA-FMM," in row]
            assert (tmp_path / "dpa" / name).read_text() == "\n".join([header] + dpa_rows) + "\n"
        kept = len((tmp_path / "dpa" / "trials.csv").read_text().splitlines()) - 1
        assert kept == 12 and set(planned) == {"DPA-FMM"}
        assert executed == ["DPA-FMM"] * kept

    def test_trial_without_a_feasible_draw_is_skipped(self, tmp_path):
        # 20 goals never fit on a 7x7 map, so every one of the 20 draws fails
        (tmp_path / "exp.json").write_text(json.dumps({"map_size": [7, 7], "goal_counts": [20]}))
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_OK
        assert (tmp_path / "sw" / "trials.csv").read_text() == (
            "goal_count,trial,seed,mode,d_max,d_tot,T,C_mean,C_min,O_mean,R\n")
        assert (tmp_path / "sw" / "aggregate.csv").read_text() == (
            "goal_count,mode,trials,d_max,d_tot,T,C_mean,C_min,O_mean,R\n")

    def test_obstacle_density_zero_is_accepted(self, tmp_path):
        # the inclusive minimum, as w_c 0 is for a scenario
        (tmp_path / "exp.json").write_text(json.dumps({"obstacle_density": 0}))
        assert load_experiment(tmp_path / "exp.json")["obstacle_density"] == 0.0

    def test_unknown_experiment_key_exit_2(self, tmp_path):
        (tmp_path / "exp.json").write_text(json.dumps({"surprise": 1}))
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("key, doc", [
        ("object", []),
        ("map_size", {"map_size": 5}),
        ("map_size", {"map_size": [5, 5]}),
        ("map_size", {"map_size": [32]}),
        ("goal_counts", {"goal_counts": 3}),
        ("goal_counts", {"goal_counts": [2.5]}),
        ("trials", {"trials": 1.5}),
        ("seed_base", {"seed_base": 1.5}),
        ("modes", {"modes": "dp"}),
        ("obstacle_density", {"obstacle_density": math.nan}),
        ("radio", {"radio": []}),
        ("p_tx", {"radio": {"p_tx": "x"}}),
        ("l0", {"radio": {"l0": "x"}}),
        ("l0", {"radio": {"l0": -1.0}}),
        # a mode named twice, under any alias, would run each trial twice
        ("modes", {"modes": ["dp", "DP-FMM"]}),
        ("modes", {"modes": ["fmm", " CA ", "cafmm"]}),
    ])
    def test_malformed_experiment_field_is_a_schema_error(self, tmp_path, key, doc):
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=key):
            load_experiment(tmp_path / "exp.json")
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("radio, code", [({"a_wall": 10**30}, EXIT_OK),
                                             ({"p_tx": 10**30}, EXIT_SCHEMA)])
    def test_huge_radio_values(self, tmp_path, radio, code):
        # the sweep takes the validated floats from load_experiment
        (tmp_path / "exp.json").write_text(json.dumps({
            "map_size": [24, 24], "goal_counts": [3], "trials": 1, "seed_base": 2,
            "modes": ["dpa"], "radio": radio,
        }))
        assert load_experiment(tmp_path / "exp.json")["radio"] == RadioParams(
            **{key: float(value) for key, value in radio.items()})
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == code

    def test_dpa_uses_fewer_robots_on_average(self, tmp_path):
        (tmp_path / "exp.json").write_text(json.dumps({
            "map_size": [30, 30], "obstacle_density": 0.5, "goal_counts": [5],
            "trials": 2, "seed_base": 9, "radio": {"p_tx": -12.0},
        }))
        assert main(["sweep", str(tmp_path / "exp.json"), "--out", str(tmp_path / "sw")]) == EXIT_OK
        agg = (tmp_path / "sw" / "aggregate.csv").read_text().splitlines()
        dpa = [line for line in agg if ",DPA-FMM," in line]
        assert dpa, "DPA aggregate row missing"
        mean_r = float(dpa[0].split(",")[-1])
        assert mean_r < 5.0


class TestRender:
    def test_render_deterministic(self, tmp_path):
        path = write_fig2_files(tmp_path)
        main(["render", str(path), "--out", str(tmp_path / "a.svg")])
        main(["render", str(path), "--out", str(tmp_path / "b.svg")])
        a = (tmp_path / "a.svg").read_bytes()
        assert a == (tmp_path / "b.svg").read_bytes()
        assert a.startswith(b"<svg")

    def test_plan_render_marks_relays(self, tmp_path):
        path = write_fig2_files(tmp_path)
        sc = load_scenario(path)
        from relaynet.mission import plan_deployment

        plan = plan_deployment(sc, "DP-FMM")
        svg = render_svg(sc, plan)
        assert "stroke-dasharray" in svg  # relay moves drawn dashed
        assert svg.count("<circle") >= 6

    def test_render_equals_cell_loop_oracle(self):
        # the shading and obstacle cells picked from index arrays, in the
        # row-major order of one loop over every cell, byte for byte
        sc = fig2_scenario()
        rows = sc.map.serialize().splitlines()[3:]
        rows[5] = rows[5][:8] + "%" * 8 + rows[5][16:]
        rows[14] = rows[14][:20] + "%#%" + rows[14][23:]
        glassy = dataclasses.replace(sc, map=make_map(rows))
        cases = []
        for scenario in (sc, glassy):
            plan = plan_deployment(scenario, "DP-FMM")
            cases += [(scenario, None), (scenario, plan)]
        assert any(seg.purpose == "relay-move" and seg.post is not None
                   for seg in itertools.chain(*cases[1][1].robots))
        assert (glassy.map.materials == GLASS).sum() == 10
        for scenario, plan in cases:
            svg = render_svg(scenario, plan)
            assert svg == render_svg_reference(scenario, plan)
            assert 'fill="#d6eaff"' in svg
        assert 'fill="#7fd4d4"' in render_svg(glassy)


class TestGenerator:
    def test_map_is_bordered_and_parsable(self):
        rng = np.random.default_rng(4)
        m = generate_map(24, 20, 0.5, rng)
        assert m.materials[0].all() and m.materials[-1].all()
        from relaynet.gridmap import parse_map

        assert parse_map(m.serialize()) == m

    def test_random_scenario_valid_and_seeded(self):
        a = random_scenario(123, 28, 28, 5, 0.5, RadioParams(p_tx=-12.0, seed=123))
        b = random_scenario(123, 28, 28, 5, 0.5, RadioParams(p_tx=-12.0, seed=123))
        assert a.goals == b.goals
        assert a.bs == b.bs
        a.validate()
        sep = min(math.hypot(p[0] - q[0], p[1] - q[1])
                  for i, p in enumerate(a.goals) for q in a.goals[i + 1:])
        assert sep >= 2 * a.map.resolution - 1e-9


class TestOverrides:
    def test_wc_and_margin_flags(self, tmp_path, monkeypatch):
        path = write_fig2_files(tmp_path)
        captured = {}
        real = cli.plan_deployment

        def spy(sc, mode, **kw):
            captured["w_c"] = sc.w_c
            captured["margin_k"] = sc.radio.margin_k
            return real(sc, mode, **kw)

        monkeypatch.setattr(cli, "plan_deployment", spy)
        main(["plan", str(path), "--mode", "fmm", "--w-c", "2.5",
              "--margin-k", "1.0", "--out", str(tmp_path / "o")])
        assert captured == {"w_c": 2.5, "margin_k": 1.0}

    def test_seed_flag_is_gone(self, tmp_path):
        # multipath draws come from --noise-seed; the scenario's seed key stays
        path = write_fig2_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(path), "--seed", "3", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_negative_noise_seed_fails_before_planning(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("plan_deployment called")

        # run plans through mission.run_with_replan, which looks the planner
        # up in mission
        monkeypatch.setattr(cli, "plan_deployment", never)
        monkeypatch.setattr(mission, "plan_deployment", never)
        path = write_fig2_files(tmp_path)
        assert main(["run", str(path), "--noise-seed", "-1",
                     "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "--noise-seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--w-c", "nan"), ("--w-c", "inf"), ("--w-c", "-1"),
        ("--margin-k", "nan"), ("--margin-k", "inf"), ("--margin-k", "-inf"),
    ])
    def test_bad_override_is_a_schema_error(self, tmp_path, flag, value):
        # the flags get the checks a scenario file's w_c and radio values get
        path = write_fig2_files(tmp_path)
        assert main(["plan", str(path), "--mode", "ca", f"{flag}={value}",
                     "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


def test_import_needs_no_scipy():
    # the package runs on numpy alone: a fresh interpreter that imports every
    # relaynet module loads nothing outside the standard library, numpy and
    # relaynet itself; modules loaded before the imports (site hooks) are
    # left out
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import relaynet\n"
            "names = [m.name for m in pkgutil.walk_packages(relaynet.__path__, 'relaynet.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print('relaynet.cli' in names, sorted({m.split('.')[0] for m in set(sys.modules) - before}\n"
            "      - set(sys.stdlib_module_names) - {'numpy', 'relaynet'}))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "True []"
