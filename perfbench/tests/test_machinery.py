"""Tests of the benchmark's own machinery; none starts a workload run."""

import json
import math
import threading
from pathlib import Path

import pytest

from gate import check_metrics
from run import paired_ratio, recorded_digests, result_path
from tracing import MEMBER, Tracer, layer_metrics, pool_efficiency, self_times
from workloads import WORKLOADS, make_config, phase_for_seed

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_sets_only_the_phase(name):
    from szego_lab.cli import validate_config

    w = WORKLOADS[name]
    a, b = make_config(w, 7), make_config(w, 8)
    assert a == make_config(w, 7)
    assert a["soliton"]["phi0"] == phase_for_seed(7)
    assert 0.0 <= a["soliton"]["phi0"] < 2 * math.pi
    assert a["soliton"]["phi0"] != b["soliton"]["phi0"]
    b["soliton"]["phi0"] = a["soliton"]["phi0"]
    assert a == b
    assert validate_config(a, need_sweep=w.command == "sweep") == []


def test_workload_arguments_keep_their_layer_mix():
    assert WORKLOADS["sweep"].cli_args("c", "o")[-2:] == ["--parallel", "2"]
    assert "--plots" in WORKLOADS["dense"].cli_args("c", "o")
    assert make_config(WORKLOADS["dense"], 0)["stride"] == 1
    sweep_cfg = make_config(WORKLOADS["sweep"], 0)
    assert [k for k, _ in WORKLOADS["sweep"].members(sweep_cfg)] \
        == sorted(REFERENCE["sweep"], reverse=True)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_nesting_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def mid():
        clock.now += 2.0
        leaf_w()
        leaf_w()

    def top():
        mid_w()
        clock.now += 3.0

    leaf_w = tracer.wrap("leaf", leaf)
    mid_w = tracer.wrap("mid", mid)
    tracer.wrap(MEMBER, top)()
    tracer.wrap("outside", leaf)()

    spans = {s[1] + str(i): s for i, s in enumerate(tracer.spans)}
    leaf1, leaf2, mid_s, top, outside = (spans["leaf0"], spans["leaf1"],
                                         spans["mid2"], spans[MEMBER + "3"],
                                         spans["outside4"])
    assert leaf1[4] == leaf2[4] == mid_s[0]
    assert mid_s[4] == top[0] and top[4] == 0 and outside[4] == 0
    assert leaf1[5] == mid_s[5] == top[5] == top[0]
    assert outside[5] == 0
    st = self_times(tracer.spans)
    assert (top[3] - top[2], st[top[0]]) == (7.0, 3.0)
    assert (mid_s[3] - mid_s[2], st[mid_s[0]]) == (4.0, 2.0)
    assert st[leaf1[0]] == 1.0


def test_member_id_is_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    member = tracer.wrap(MEMBER, inner)
    threads = [threading.Thread(target=member) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    members = {s[0] for s in tracer.spans if s[1] == MEMBER}
    inners = [s for s in tracer.spans if s[1] == "inner"]
    assert len(members) == 2
    assert {s[5] for s in inners} == members
    assert all(s[4] == s[5] for s in inners)


def test_wrapper_records_extra_and_passes_results_through():
    tracer = Tracer()
    f = tracer.wrap("f", lambda x: (x, x + 1), lambda r: {"iters": r[1]})
    assert f(3) == (3, 4)
    assert tracer.spans[0][6] == {"iters": 4}


def test_pool_efficiency_arithmetic():
    # three members on two workers: busy 4 + 3 + 3 = 10 over 6 s x 2
    members = [(0.0, 4.0), (0.0, 3.0), (3.0, 6.0)]
    assert pool_efficiency(members, 0.0, 2) == pytest.approx(10.0 / 12.0)
    assert pool_efficiency([(1.0, 5.0)], 1.0, 1) == pytest.approx(1.0)
    # time before the first member starts counts against the pool
    assert pool_efficiency([(1.0, 5.0)], 0.0, 1) == pytest.approx(0.8)


def _span(sid, name, start, end, parent=0, member=0, extra=None):
    return [sid, name, start, end, parent, member, extra]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span(1, "cli.command", 0.0, 10.0),
        _span(2, MEMBER, 0.0, 6.0, 0, 2),
        _span(3, MEMBER, 0.0, 5.0, 0, 3),
        _span(4, MEMBER, 5.0, 9.0, 0, 4),
        _span(5, "dynamics.integrate", 0.0, 4.0, 2, 2,
              {"steps": 1000, "samples": 11, "sample_bytes": 2**20}),
        _span(6, "spectral_core.transform", 1.0, 2.0, 5, 2),
        _span(7, "spectral_core.transform", 2.0, 3.0, 5, 2),
        _span(8, "decomposition.newton", 4.0, 4.5, 2, 2, {"iters": 2}),
        _span(9, "decomposition.newton", 4.5, 4.6, 2, 2, {"iters": 1}),
        _span(10, "cli.emit", 9.0, 9.8, 1),
        _span(11, "cli.write_json", 9.1, 9.2, 10),
        _span(12, "plots.svg", 9.2, 9.7, 10),
        _span(13, "cli.write_json", 9.8, 9.9, 1),
        _span(14, "plots.svg", 9.9, 10.0, 1),
    ]
    m = layer_metrics(spans, parallel=2)
    assert m["spectral_core.transform_calls"] == 2
    assert m["spectral_core.transform_us"] == pytest.approx(1e6)
    assert m["dynamics.steps"] == 1000
    assert m["dynamics.step_us"] == pytest.approx(2.0 / 1000 * 1e6)
    assert m["dynamics.sample_mb"] == pytest.approx(1.0)
    assert m["decomposition.decompose_ms"] == pytest.approx(300.0)
    assert m["decomposition.newton_iters_total"] == 3
    assert m["decomposition.newton_iters_max"] == 2
    assert m["cli.write_s"] == pytest.approx(0.8 - 0.5 + 0.1)
    assert m["plots.svg_s"] == pytest.approx(0.6)
    assert m["cli.member_s"] == pytest.approx(15.0)
    assert m["cli.pool_wait_s"] == pytest.approx(5.0)
    assert m["cli.pool_efficiency"] == pytest.approx(15.0 / (9.0 * 2))


def test_gate_accepts_reference_and_flags_drift():
    ref = REFERENCE["dense"]["run"]
    assert check_metrics(dict(ref), ref) == []
    moved = dict(ref, sup_dev_alpha=ref["sup_dev_alpha"] * 1.02)
    assert any("sup_dev_alpha" in p for p in check_metrics(moved, ref))
    assert check_metrics(dict(ref, sup_dev_alpha=ref["sup_dev_alpha"] * 1.005), ref) == []
    broken = dict(ref, mass_drift=2e-8)
    assert any("not below" in p for p in check_metrics(broken, ref))
    assert any("mu_window_ok" in p
               for p in check_metrics(dict(ref, mu_window_ok=False), ref))
    missing = {k: v for k, v in ref.items() if k != "c_fit"}
    assert any("keys differ" in p for p in check_metrics(missing, ref))


def test_paired_ratio_is_the_median_of_the_pair_ratios():
    # machine speed halves after the second pair; each pair still reads 1.1
    pairs = [(2.0, 2.2), (2.0, 2.2), (4.0, 4.4), (4.0, 4.4)]
    assert paired_ratio(pairs) == pytest.approx(1.1)
    assert paired_ratio([(1.0, 1.5), (1.0, 1.0), (2.0, 2.0)]) == pytest.approx(1.0)


def test_digests_are_taken_from_a_record_of_the_same_sources(tmp_path):
    env = {"workload": "dense", "seed": 3, "config_sha256": "c",
           "src_sha256": "abc"}
    assert recorded_digests(tmp_path, env) is None
    other = dict(env, src_sha256="def")
    result_path(tmp_path, "dense", 3, 0).write_text(
        json.dumps({"environment": other, "digests": {"run/track.csv": "x"}}))
    assert recorded_digests(tmp_path, env) is None
    result_path(tmp_path, "dense", 3, 1).write_text(
        json.dumps({"environment": env, "digests": {"run/track.csv": "y"}}))
    assert recorded_digests(tmp_path, env) == {"run/track.csv": "y"}
    assert recorded_digests(tmp_path, dict(env, seed=4)) is None
    assert recorded_digests(tmp_path, dict(env, config_sha256="d")) is None
