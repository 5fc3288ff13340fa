"""Self-tests of the benchmark: span arithmetic, wrapper restore, the
artefact check and the input generators."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relaynet import cli  # noqa: E402
from relaynet.radio import CoverageBook  # noqa: E402


def test_self_time_of_nested_calls():
    # clock readings in call order: command opens, outer opens, a opens and
    # closes, b opens and closes, outer closes, command closes
    readings = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 12.0])
    tr = tracing.Tracer(clock=lambda: next(readings))
    a = tr.wrap("a", lambda: None)
    b = tr.wrap("b", lambda: None)
    outer = tr.wrap("outer", lambda: (a(), b()))
    span = tr.begin_command("x")
    outer()
    tr.close(span)
    s = tr.spans()
    own = tracing.self_times(s["start"], s["end"], s["parent"])
    by_name = {tr.names[n]: t for n, t in zip(s["name"], own)}
    assert by_name == {"cli.main": 3.0, "outer": 6.0, "a": 2.0, "b": 1.0}
    assert list(s["parent"]) == [-1, 0, 1, 1]


def _relaynet_bindings():
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "relaynet" or name.startswith("relaynet."))]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_traced_run_wraps_and_restores_every_binding(tmp_path):
    before = _relaynet_bindings()
    field_at = CoverageBook.__dict__["field_at"]
    originals = {t: getattr(*tracing.resolve(t)[:2]) for t in tracing.TRACED}
    wl = workloads.WORKLOADS["fig2-noisy-run"]
    scenario = wl.prepare(0, tmp_path)
    noise = workloads.load_expected()["fig2_noise_pool"][0]
    cmds = workloads.noisy_runs(str(scenario), [noise], tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrappers()):
        inside = _relaynet_bindings()
        for t, fn in originals.items():
            assert not any(v is fn for v in inside.values()), f"{t} left unwrapped somewhere"
        assert CoverageBook.__dict__["field_at"] is not field_at
        for cmd in cmds:
            span = tracer.begin_command(cmd.label)
            assert cli.main(list(cmd.argv)) == 0
            tracer.close(span)
    after = _relaynet_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert CoverageBook.__dict__["field_at"] is field_at

    m = tracing.layer_metrics(tracer, range(len(tracer.labels)))
    assert m["radio.path_loss.noisy_calls"] > 0
    assert m["cli.replans"] == len(cmds)   # every pool seed replans once per mode
    assert m["mission.raycasts_per_link"] == pytest.approx(1.0, abs=0.05)


def test_flipped_artefact_byte_is_caught(tmp_path):
    out = tmp_path / "plan_fmm"
    out.mkdir()
    artefact = out / "plan.json"
    artefact.write_text('{"mode": "FMM", "robots": [[{"purpose": "primary-goal", '
                        '"goal_index": 0}]]}\n')
    cmd = workloads.Command("plan.fmm", ("plan",), "plan_fmm", ("plan.json",))
    checker = checks.Checker(tmp_path, {"plan_fmm/plan.json": checks.sha256(artefact)}, 1)
    assert checker.check(cmd, 0) == []
    data = bytearray(artefact.read_bytes())
    data[len(data) // 2] ^= 0x01
    artefact.write_bytes(bytes(data))
    problems = checker.check(cmd, 0)
    assert any("recorded hash" in p for p in problems)
    assert any("first pass" in p for p in problems)


@pytest.mark.parametrize("name", ["relay64-compare", "hall128-plan", "fig2-noisy-run"])
def test_generators_are_deterministic_per_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    files = {}
    for seed, run in ((3, "a"), (3, "b"), (4, "c")):
        scenario = wl.prepare(seed, tmp_path / run)
        cli.load_scenario(scenario)
        files[run] = {p.name: p.read_bytes() for p in sorted((tmp_path / run).iterdir())}
    assert files["a"] == files["b"]
    assert wl.noise_seeds(3) == wl.noise_seeds(3)
    if wl.scenario is not None:
        assert files["a"] != files["c"]
    else:
        assert wl.noise_seeds(3) != wl.noise_seeds(4)
        assert set(wl.noise_seeds(3)) <= set(workloads.load_expected()["fig2_noise_pool"])


def test_symmetries_keep_the_problem():
    wl = workloads.WORKLOADS["relay64-compare"]
    base = workloads.feasible_scenario(wl.scenario)
    walls = int((base.map.materials != 0).sum())
    for k in range(8):
        sc = workloads.symmetric(base, k)
        assert int((sc.map.materials != 0).sum()) == walls
        d = [abs(g[0] - sc.bs[0]) + abs(g[1] - sc.bs[1]) for g in sc.goals]
        assert d == [abs(g[0] - base.bs[0]) + abs(g[1] - base.bs[1]) for g in base.goals]
    assert workloads.symmetric(base, 0) == base


def test_runner_refuses_a_tree_without_sources(tmp_path):
    # the runner must fail, printing no result, outside a full checkout
    copy = tmp_path / "bench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "hall128-plan",
                           "--seed", "0", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
