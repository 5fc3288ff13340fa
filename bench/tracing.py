"""Wrapper tracing of relaynet's layer boundaries, from outside the package.

A traced function is swapped for a wrapper that records a span (name,
start, end, parent span, command id) and, for some functions, counts read
from its arguments and return value. Modules bind the same function object
under several names (`from .gridmap import count_traversals` in radio and
connectivity, the re-exports in relaynet/__init__), so the wrapper replaces
every binding of the object in every relaynet module, and `patched` puts
each one back on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np

from relaynet.mission import normalize_mode

# Layer boundaries, as "<module>.<name>" under relaynet. Private helpers are
# left unwrapped, so their time is self time of the caller: the multipath
# draw counts to path_loss, the velocity build and the coverage fraction to
# ca_fmm_path, scenario loading and artefact writes to the command span.
TRACED = (
    "gridmap.count_traversals",
    "radio.path_loss",
    "radio.coverage_field",
    "radio.CoverageBook.field_at",
    "eikonal.solve_eikonal",
    "eikonal.extract_path",
    "eikonal.ca_fmm_path",
    "connectivity.build_conn_graph",
    "connectivity.hungarian_assign",
    "connectivity.movement_cost",
    "connectivity.plan_relays",
    "connectivity.check_feasibility",
    "clustering.cluster_goals",
    "clustering.visit_order",
    "mission.plan_deployment",
    "mission.execute_mission",
    "cli.render_svg",
)
COMMAND = "cli.main"
PLAN_MODES = ("fmm", "ca-fmm", "dp-fmm", "dpa-fmm")


def resolve(target: str):
    """(owner, attribute name, module) for "<module>.<name>" or "<module>.<Class>.<name>"."""
    module_name, *attrs = target.split(".")
    module = importlib.import_module(f"relaynet.{module_name}")
    owner = module
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], module


@contextmanager
def patched(wrappers: dict[str, Callable[[Callable], Callable]]):
    """Replace each target by make(original) wherever relaynet binds it; restore on exit.

    A module-level function is rebound in every relaynet module that holds
    the same object; a method is replaced on its class.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target, make in wrappers.items():
            owner, attr, module = resolve(target)
            original = getattr(owner, attr)
            wrapper = make(original)
            if owner is module:
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "relaynet" or name.startswith("relaynet.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """Spans and counts, kept in memory until the run ends.

    Spans get their index when they open, so a parent's index is always
    below its children's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.command = array("l")
        self.labels: list[str] = []                  # per command id
        self.counts: list[defaultdict] = []          # per command id: summed counts
        self.maxima: list[defaultdict] = []          # per command id: largest values
        self._stack: list[int] = []

    def begin_command(self, label: str) -> int:
        """Start a new command id and open its span; close it with close()."""
        self.labels.append(label)
        self.counts.append(defaultdict(float))
        self.maxima.append(defaultdict(float))
        return self.open(COMMAND)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(len(self.labels) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> float:
        t = self.clock()
        self._stack.pop()
        self.end[idx] = t
        return t - self.start[idx]

    def note(self, key: str, value: float = 1.0) -> None:
        self.counts[-1][key] += value

    def note_max(self, key: str, value: float) -> None:
        self.maxima[-1][key] = max(self.maxima[-1][key], value)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                duration = self.close(idx)
                if observe is not None:
                    observe(self, args, kwargs, result, exc, duration)
        return traced

    def wrappers(self) -> dict[str, Callable[[Callable], Callable]]:
        return {t: functools.partial(self.wrap, t, observe=OBSERVERS.get(t)) for t in TRACED}

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "command": np.array(self.command, dtype=np.int64),
        }

    def write_spans(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,command\n")
            for i in range(len(self.name)):
                f.write(f"{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                        f"{self.end[i] - t0:.7f},{self.parent[i]},{self.command[i]}\n")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Calls are synchronous and single-threaded, so a span's children are
    disjoint intervals inside it and the time they cover is their sum.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def _under(parent: np.ndarray, is_root: np.ndarray) -> np.ndarray:
    """True for spans that have an ancestor flagged in is_root."""
    inside = is_root.tolist()
    flag = [False] * len(inside)
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and (inside[p] or flag[p]):
            flag[i] = True
    return np.array(flag, dtype=bool)


# Counts read from arguments and return values: observe(tracer, args, kwargs,
# result, exc, duration).

def _path_loss(tr, args, kwargs, result, exc, duration):
    mode = args[4] if len(args) > 4 else kwargs.get("mode", "deterministic")
    if mode == "stochastic":
        tr.note("radio.path_loss.noisy_calls")


def _solve_eikonal(tr, args, kwargs, result, exc, duration):
    if result is not None:
        tr.note("eikonal.solve_eikonal.cells", int(np.isfinite(result.D).sum()))


def _extract_path(tr, args, kwargs, result, exc, duration):
    if result is not None:
        tr.note("eikonal.extract_path.points", len(result.points))


def _plan_relays(tr, args, kwargs, result, exc, duration):
    if result is not None:
        tr.note("connectivity.plan_relays.relays", len(result.positions))


def _visit_order(tr, args, kwargs, result, exc, duration):
    cluster = args[1] if len(args) > 1 else kwargs["cluster"]
    tr.note_max("clustering.visit_order.max_waypoints", len(cluster.waypoints))


def _plan_deployment(tr, args, kwargs, result, exc, duration):
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    key = f"mission.plan_deployment.{normalize_mode(mode).lower()}"
    tr.note(f"{key}.total_s", duration)
    if exc is not None:
        tr.note(f"{key}.failed")


def _execute_mission(tr, args, kwargs, result, exc, duration):
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    if result is not None:
        ticks = len(result.positions)
    elif hasattr(exc, "tick"):
        ticks = exc.tick + 1
    else:
        return
    nodes = len(scenario.robot_starts) + 1
    tr.note("mission.ticks", ticks)
    tr.note("mission.node_pairs", ticks * nodes * (nodes - 1) // 2)


OBSERVERS = {
    "radio.path_loss": _path_loss,
    "eikonal.solve_eikonal": _solve_eikonal,
    "eikonal.extract_path": _extract_path,
    "connectivity.plan_relays": _plan_relays,
    "clustering.visit_order": _visit_order,
    "mission.plan_deployment": _plan_deployment,
    "mission.execute_mission": _execute_mission,
}


def layer_metrics(tracer: Tracer, commands: range) -> dict[str, float]:
    """The per-layer metrics of the commands in the given id range."""
    s = tracer.spans()
    own = self_times(s["start"], s["end"], s["parent"])
    dur = s["end"] - s["start"]
    sel = (s["command"] >= commands.start) & (s["command"] < commands.stop)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def of(name):
        return sel & (s["name"] == ids.get(name, -1))

    counts: defaultdict = defaultdict(float)
    maxima: defaultdict = defaultdict(float)
    for c in commands:
        for k, v in tracer.counts[c].items():
            counts[k] += v
        for k, v in tracer.maxima[c].items():
            maxima[k] = max(maxima[k], v)

    m: dict[str, float] = {}
    for t in TRACED:
        m[f"{t}.calls"] = float(of(t).sum())
        m[f"{t}.self_s"] = float(own[of(t)].sum())
    for key in ("radio.path_loss.noisy_calls", "eikonal.solve_eikonal.cells",
                "eikonal.extract_path.points", "connectivity.plan_relays.relays", "mission.ticks"):
        m[key] = counts[key]
    m["clustering.visit_order.max_waypoints"] = maxima["clustering.visit_order.max_waypoints"]

    path_loss = of("radio.path_loss")
    in_relays = _under(s["parent"], s["name"] == ids.get("connectivity.plan_relays", -1))
    in_exec = _under(s["parent"], s["name"] == ids.get("mission.execute_mission", -1))
    m["connectivity.plan_relays.path_loss_calls"] = float((path_loss & in_relays).sum())
    pairs = counts["mission.node_pairs"]
    m["mission.raycasts_per_link"] = float((path_loss & in_exec).sum()) / pairs if pairs else 0.0

    lookups = of("radio.CoverageBook.field_at")
    built = np.zeros(len(own), dtype=bool)
    built[s["parent"][of("radio.coverage_field") & (s["parent"] >= 0)]] = True
    n_lookups = int(lookups.sum())
    m["radio.coverage_book.hit_ratio"] = (
        float((lookups & ~built).sum()) / n_lookups if n_lookups else 0.0)

    for mode in PLAN_MODES:
        key = f"mission.plan_deployment.{mode}"
        m[f"{key}.total_s"] = counts[f"{key}.total_s"]
        m[f"{key}.failed"] = counts[f"{key}.failed"]
    m["mission.execute_mission.total_s"] = float(dur[of("mission.execute_mission")].sum())

    # A run command plans once, then once more per replan.
    plans_per_command = np.bincount(s["command"][of("mission.plan_deployment")],
                                    minlength=len(tracer.labels))
    m["cli.replans"] = float(sum(plans_per_command[c] - 1 for c in commands
                                 if tracer.labels[c].startswith("run.")))
    m["cli.self_s"] = float(own[of(COMMAND)].sum())
    return m


def command_shares(tracer: Tracer, floor: float = 0.01) -> dict[str, dict]:
    """Per command label: each traced function's self time as a share of the
    label's traced wall time, for shares of at least floor."""
    s = tracer.spans()
    own = self_times(s["start"], s["end"], s["parent"])
    dur = s["end"] - s["start"]
    label_of = np.array(tracer.labels, dtype=object)[s["command"]]
    out: dict[str, dict] = {}
    for label in sorted(set(tracer.labels)):
        in_label = label_of == label
        wall = float(dur[in_label & (s["name"] == tracer.names.index(COMMAND))].sum())
        shares = {}
        for nid, name in enumerate(tracer.names):
            share = float(own[in_label & (s["name"] == nid)].sum()) / wall if wall else 0.0
            if share >= floor:
                shares[name] = round(share, 4)
        out[label] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    return out
