"""dynscope (repro.obs) tests: registry semantics, recorder behavior,
deterministic exports, Chrome schema validation, cost attribution, the
simulator tracks' lane layout, and the obs-off purity guarantee."""

import json

import numpy as np
import pytest

from repro.obs import (
    CPU_TID,
    JOB_PID,
    NET_PID,
    MetricsRegistry,
    ObsRecorder,
    chrome_json,
    chrome_trace,
    jsonl_text,
    load_trace,
    trace_events,
    validate_chrome,
    write_trace,
)
from repro.obs.registry import Histogram
from repro.obs.report import attribute, diff_reports, span_bucket
from repro.obs.scenario import RemovalScenario, run_removal


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    reg.count("net.bytes", 100, src=0, dst=1)
    reg.count("net.bytes", 50, dst=1, src=0)   # label order irrelevant
    reg.count("net.bytes", 7, src=1, dst=0)
    assert reg.counter_value("net.bytes", src=0, dst=1) == 150
    assert reg.counter_value("net.bytes", src=1, dst=0) == 7
    assert reg.counter_total("net.bytes") == 157
    assert reg.counter_value("net.bytes", src=9, dst=9) == 0.0


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("held", 10)
    reg.gauge("held", 3)
    assert reg.gauge_value("held") == 3
    assert reg.gauge_value("missing") is None


def test_histogram_stats_and_buckets():
    h = Histogram()
    for v in (0.5, 1.5, 3.0, 0.0):
        h.observe(v)
    assert h.count == 4
    assert h.min == 0.0 and h.max == 3.0
    assert h.mean == pytest.approx(1.25)
    # 0.5 -> exponent 0, 1.5 -> 1, 3.0 -> 2, 0.0 -> floor bucket
    assert set(h.buckets) == {0, 1, 2, -1075}


def test_registry_merge_across_ranks():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.count("msgs", 2)
    b.count("msgs", 3)
    a.observe("lat", 1.0)
    b.observe("lat", 3.0)
    a.gauge("held", 10)
    b.gauge("held", 20)   # same seq as a's write; later merge arg wins
    merged = MetricsRegistry().merge([a, b])
    assert merged.counter_value("msgs") == 5
    hist = merged.histogram("lat")
    assert hist.count == 2 and hist.total == 4.0
    assert merged.gauge_value("held") == 20


def test_snapshot_renders_sorted_labelled_keys():
    reg = MetricsRegistry()
    reg.count("edge", 5, src=1, dst=0)
    reg.count("plain")
    snap = reg.snapshot()
    assert snap["counters"] == {"edge{dst=0,src=1}": 5.0, "plain": 1.0}
    # snapshots are json-stable
    assert json.dumps(snap, sort_keys=True) == json.dumps(
        reg.snapshot(), sort_keys=True
    )


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------

def test_args_sanitized_for_json():
    rec = ObsRecorder(clock=lambda: 1.0)
    rec.complete("s", 0.0, pid=0, tid=0,
                 n=np.int64(4), xs=np.arange(3), d={"k": np.float64(0.5)})
    args = rec.events[0].args
    assert args == {"n": 4, "xs": [0, 1, 2], "d": {"k": 0.5}}
    json.dumps(args)  # must be serializable as-is


def test_sorted_events_and_tracks():
    t = iter([1.0, 3.0, 2.0, 2.0])
    rec = ObsRecorder(clock=lambda: next(t))
    rec.instant("a", pid=0, tid=1)
    rec.instant("b", pid=1, tid=0)
    rec.instant("c", pid=0, tid=CPU_TID)
    rec.instant("d", pid=0, tid=1)  # same instant as c: emission order
    assert [e.name for e in rec.sorted_events()] == ["a", "c", "d", "b"]
    named = {(e["pid"], e["tid"]) for e in chrome_trace(rec)["traceEvents"]
             if e["name"] == "thread_name"}
    assert named == {(0, CPU_TID), (0, 1), (1, 0)}


# ----------------------------------------------------------------------
# the canonical removal run: one observed trace shared by the tests
# ----------------------------------------------------------------------

SCENARIO = RemovalScenario()


@pytest.fixture(scope="module")
def removal():
    return run_removal(SCENARIO, observe=True)


def test_removal_run_exercises_every_layer(removal):
    result, cluster = removal
    obs = cluster.obs
    cats = {e.cat for e in trace_events(obs)}
    assert {"cycle", "compute", "mpi", "coll", "redist",
            "ckpt", "adapt", "load", "sim"} <= cats
    # the simulator's tracks live beside the events, not among them
    assert "sim" not in {e.cat for e in obs.events}
    assert len(obs.flights) == cluster.network.n_messages
    kinds = {ev.kind for ev in result.events}
    assert "redistribute" in kinds
    assert kinds & {"drop", "logical_drop"}
    # metrics flowed from every instrumented layer
    merged = obs.merged_registry()
    assert merged.counter_total("mpi.bytes_sent") > 0
    assert merged.counter_total("redist.edge_bytes") > 0
    assert merged.counter_total("ckpt.snapshots") > 0
    # the scenario's sends are all nonblocking, so the latency
    # histogram comes from the receive side
    assert merged.histogram("mpi.recv_seconds").count > 0


def test_enabled_adaptation_spans_job_track(removal):
    result, cluster = removal
    spans = [e for e in cluster.obs.events
             if e.ph == "X" and e.name.startswith("adapt.")]
    assert [(e.name, e.pid, e.ts, e.dur, e.args["cycle"]) for e in spans] == [
        (f"adapt.{ev.kind}", JOB_PID, ev.time - ev.duration, ev.duration,
         ev.cycle) for ev in result.events]


def test_chrome_export_passes_schema(removal):
    _, cluster = removal
    trace = chrome_trace(cluster.obs)
    assert validate_chrome(trace) == []
    # track metadata names the reserved processes
    names = {(e["pid"], e["args"]["name"]) for e in trace["traceEvents"]
             if e.get("name") == "process_name"}
    assert (JOB_PID, "job") in names
    assert (NET_PID, "network") in names
    assert (0, "node0") in names


def test_exports_byte_identical_across_runs(removal):
    _, cluster = removal
    _, cluster2 = run_removal(SCENARIO, observe=True)
    assert chrome_json(cluster.obs) == chrome_json(cluster2.obs)
    assert jsonl_text(cluster.obs) == jsonl_text(cluster2.obs)


def test_roundtrip_both_formats(removal, tmp_path):
    _, cluster = removal
    n_written = write_trace(cluster.obs, tmp_path / "t.json", "chrome")
    assert write_trace(cluster.obs, tmp_path / "t.jsonl", "jsonl") == n_written
    meta_c, ev_c = load_trace(tmp_path / "t.json")
    meta_j, ev_j = load_trace(tmp_path / "t.jsonl")
    assert len(ev_c) == len(ev_j) == len(trace_events(cluster.obs)) == n_written
    # the jsonl meta line carries the merged metrics snapshot
    assert meta_j["metrics"] == cluster.obs.merged_registry().snapshot()
    assert meta_j["kind"] == "trace-meta"
    # attribution is identical whichever format was loaded
    assert attribute(ev_c)["total"] == pytest.approx(
        attribute(ev_j)["total"]
    )
    with pytest.raises(ValueError):
        write_trace(cluster.obs, tmp_path / "t.x", "xml")


def test_obs_off_is_pure_and_keeps_events_view(monkeypatch):
    on, cluster_on = run_removal(SCENARIO, observe=True)
    off, cluster_off = run_removal(SCENARIO, observe=False)
    monkeypatch.setenv("DYNMPI_OBS", "1")
    env, cluster_env = run_removal(SCENARIO, observe=None)
    assert cluster_off.obs is None  # the one off-state: nothing records
    assert cluster_on.obs is not None and cluster_env.obs is not None
    assert off.wall_time == on.wall_time == env.wall_time
    assert off.cycle_times == on.cycle_times == env.cycle_times
    # job.events is the job's own list, the same whoever is watching
    assert off.events and off.events == on.events == env.events
    assert off.job.events == off.events

    # the same through the environment switch, on the Figure 4 Jacobi
    # cell (dedicated / no-adapt / Dyn-MPI runs with a redistribution)
    from repro.experiments import run_figure4

    rows = {}
    for flag in ("1", "0"):
        monkeypatch.setenv("DYNMPI_OBS", flag)
        rows[flag] = run_figure4(apps=("jacobi",), nodes=(2,), scale=0.35)
    assert rows["1"] == rows["0"]


# ----------------------------------------------------------------------
# schema validator negatives
# ----------------------------------------------------------------------

def _trace(events):
    return {"traceEvents": events}


def test_validator_flags_structural_problems():
    assert validate_chrome([]) != []
    assert validate_chrome({"traceEvents": {}}) != []
    assert "empty" in validate_chrome(_trace([]))[0]
    bad_ph = _trace([{"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}])
    assert "bad 'ph'" in validate_chrome(bad_ph)[0]
    no_dur = _trace([{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}])
    assert "dur" in validate_chrome(no_dur)[0]
    neg = _trace([{"name": "x", "ph": "i", "ts": -1, "pid": 0, "tid": 0}])
    assert "negative ts" in validate_chrome(neg)[0]


def test_validator_flags_partial_overlap():
    ok = _trace([
        {"name": "outer", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 0},
        {"name": "inner", "ph": "X", "ts": 2, "dur": 3, "pid": 0, "tid": 0},
        {"name": "next", "ph": "X", "ts": 6, "dur": 4, "pid": 0, "tid": 0},
    ])
    assert validate_chrome(ok) == []
    overlap = _trace([
        {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 0},
        {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 0, "tid": 0},
    ])
    errors = validate_chrome(overlap)
    assert len(errors) == 1 and "partially overlaps" in errors[0]
    # same spans on different tracks: no relation, no error
    apart = _trace([
        {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 0},
        {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 0, "tid": 1},
    ])
    assert validate_chrome(apart) == []


# ----------------------------------------------------------------------
# cost attribution
# ----------------------------------------------------------------------

def _span(name, cat, ts, dur, tid=0, pid=0, **args):
    d = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
         "pid": pid, "tid": tid}
    if args:
        d["args"] = args
    return d


def test_span_bucket_mapping():
    assert span_bucket(_span("c", "compute", 0, 1)) == "compute"
    assert span_bucket(_span("c", "compute", 0, 1, mode="grace")) == "grace"
    assert span_bucket(_span("s", "mpi", 0, 1)) == "comm"
    assert span_bucket(_span("b", "coll", 0, 1)) == "comm"
    assert span_bucket(_span("r", "redist", 0, 1)) == "redist"
    assert span_bucket(_span("k", "ckpt", 0, 1)) == "ckpt"
    assert span_bucket(_span("v", "recover", 0, 1)) == "recovery"
    assert span_bucket(_span("y", "cycle", 0, 1)) == "other"


def test_attribute_exclusive_time_and_sticky_buckets():
    events = [
        _span("cycle", "cycle", 0.0, 10.0),
        _span("compute", "compute", 0.0, 4.0),
        _span("coll.allreduce", "coll", 4.0, 3.0),
        _span("mpi.send", "mpi", 4.5, 1.0),          # inside the collective
        _span("redist.apply", "redist", 7.0, 2.0),
        _span("mpi.send", "mpi", 7.5, 1.0),          # sticky: charges redist
        _span("adapt.drop", "adapt", 9.0, 0.0, pid=-1),  # job track, skipped
    ]
    report = attribute(events)
    sums = report["per_rank"]["0"]
    assert sums["compute"] == pytest.approx(4.0)
    assert sums["comm"] == pytest.approx(3.0)    # coll excl. 2.0 + mpi 1.0
    assert sums["redist"] == pytest.approx(2.0)  # nested send absorbed
    assert sums["other"] == pytest.approx(1.0)   # cycle minus children
    assert sums["total"] == pytest.approx(10.0)
    assert report["wall"] == pytest.approx(10.0)
    assert report["adaptations"] == {"drop": 1}


def test_attribution_covers_rank_wall_time(removal):
    _, cluster = removal
    report = attribute(e.to_dict() for e in cluster.obs.sorted_events())
    for sums in report["per_rank"].values():
        assert sums["total"] <= report["wall"] * (1 + 1e-9)
        assert sums["total"] > 0
    assert report["total"]["redist"] > 0
    assert report["total"]["grace"] > 0


def test_diff_reports_deltas():
    a = attribute([_span("c", "compute", 0, 4.0)])
    b = attribute([_span("c", "compute", 0, 5.0),
                   _span("r", "redist", 5.0, 1.0)])
    diff = diff_reports(a, b)
    assert diff["phases"]["compute"]["delta"] == pytest.approx(1.0)
    assert diff["phases"]["compute"]["pct"] == pytest.approx(25.0)
    assert diff["phases"]["redist"]["a"] == 0.0
    assert diff["phases"]["redist"]["pct"] is None  # no baseline
    assert diff["wall"]["delta"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# simulator tracks: CPU slices and wire flights
# ----------------------------------------------------------------------

def test_replay_lays_overlapping_messages_into_lanes():
    rec = ObsRecorder(clock=lambda: 0.0)
    rec.slices.append((0, "rank0", 0.0, 1.0))
    rec.flights += [
        (0, 1, 64, 2.5, 4.0),   # lane 0 free again (listed out of order)
        (0, 1, 64, 0.0, 2.0),
        (1, 0, 64, 1.0, 3.0),   # overlaps the first -> lane 1
    ]
    assert rec.events == []
    events = trace_events(rec)
    net = [e for e in events if e.pid == NET_PID]
    assert [(e.ts, e.tid) for e in net] == [(0.0, 0), (1.0, 1), (2.5, 0)]
    assert net[0].args == {"src": 0, "dst": 1, "nbytes": 64}
    (cpu,) = [e for e in events if e.pid == 0]
    assert cpu.tid == CPU_TID and cpu.name == "cpu.rank0"
    assert cpu.dur == pytest.approx(1.0)
    # lanes never partially overlap: the chrome schema stays valid
    assert validate_chrome(chrome_trace(rec)) == []
