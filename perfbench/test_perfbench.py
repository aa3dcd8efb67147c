"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run each workload for about a second, traced and untraced, and check
that the wrappers see every layer they claim to, that span arithmetic is
consistent, and that the output matches BENCHMARK.json.
"""

import shutil
from random import Random

import pytest

import run

run.use_source_tree()

import mvphe.circuit  # noqa: E402
import tracing  # noqa: E402
from hostspeed import REF_S, HostSpeed  # noqa: E402
import workloads  # noqa: E402
from netlist import make_netlist  # noqa: E402

SEED = 7
SPEC = run.spec()


@pytest.fixture(scope="module")
def workdir():
    path = run.ROOT / ".perfbench" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(workdir):
    """name -> (tracer, per-layer metrics) from a short traced loop."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        d = workdir / name
        d.mkdir()
        w = cls(SEED, str(d))
        w.setup()
        tracer, speed = tracing.Tracer(), HostSpeed()
        ops = run.timed_loop(w, 1.0, speed, tracer)
        assert all(o.ok for o in ops)
        evk, path = w.evalkey()
        out[name] = tracer, run.per_layer(tracer, ops, speed, evk, path)
    return out


def test_netlist_shape_is_fixed():
    for seed in range(20):
        text = make_netlist(Random(seed), 8, 12, 20, 2, 4)
        circ = mvphe.circuit.parse_circuit(text)
        ops = [g.op for g in circ.gates]
        assert ops.count("AND") == 12 and ops.count("XOR") == 20
        assert circ.level_need == 2 and len(circ.inputs) == 8
        assert len(set(circ.outputs)) == 4
    assert make_netlist(Random(3), 2, 2, 2, 2, 3) == make_netlist(Random(3), 2, 2, 2, 2, 3)


def test_layer_metrics_nonzero_on_their_workload(traced):
    for metric, name in run.LAYER_METRICS.items():
        assert traced[name][1][metric] > 0, (metric, name)
    for name, (_, metrics) in traced.items():
        for metric in list(run.COMPUTED_METRICS) + ["trace.overhead_ratio"]:
            assert metrics[metric] > 0, (metric, name)


def test_rank_checks_at_least_one_per_condition(traced):
    assert traced["keyring"][1]["keys.keygen.rank_checks_per_key"] >= 4


def test_layer_stats_on_known_spans():
    # op 0 (0..10) holds a (1..5, which holds b 2..3) and a (6..8);
    # op 1 (20..24) holds b (21..22)
    spans = [[tracing.OP, 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["a", 6.0, 8.0, 0, 0],
             [tracing.OP, 20.0, 24.0, -1, 1], ["b", 21.0, 22.0, 4, 1]]
    stats = tracing.layer_stats(spans)
    assert stats[tracing.OP] == {"calls": 2, "busy_s": 14.0, "self_s": 7.0}
    assert stats["a"] == {"calls": 2, "busy_s": 6.0, "self_s": 5.0}
    assert stats["b"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}
    scaled = tracing.layer_stats(spans, scale=[1.0, 2.0])
    assert scaled[tracing.OP] == {"calls": 2, "busy_s": 18.0, "self_s": 10.0}
    assert scaled["b"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


def test_self_times_are_consistent(traced):
    for name, (tracer, _) in traced.items():
        stats = tracing.layer_stats(tracer.spans)
        assert all(s["self_s"] >= 0 for s in stats.values()), name
        layers_self = sum(s["self_s"] for n, s in stats.items() if n != tracing.OP)
        assert stats[tracing.OP]["calls"] > 0
        assert layers_self <= stats[tracing.OP]["busy_s"], name


def test_host_scale_uses_nearby_readings():
    speed = HostSpeed()
    speed.readings = [REF_S] * 20 + [2 * REF_S] * 20
    assert speed.scale(0) == 1.0
    assert speed.scale(39) == 0.5
    assert speed.read() == 40 and speed.readings[40] > 0


def test_shares_confirm_why_each_workload_was_chosen(traced):
    def largest(name, skip=()):
        m = traced[name][1]
        busy = {k: v for k, v in m.items() if k.endswith(".ms_per_op")
                and k.rsplit(".", 2)[0] not in skip}
        return max(busy, key=busy.get)

    assert traced["circuit-toy"][1]["she.eval_mult.op_share"] > 0.5
    assert largest("cli-eval", skip=("cli.main",)) == "serialize.load_evalkey.ms_per_op"
    assert largest("keyring") == "keys.build_evalkey.ms_per_op"


def test_tracer_restores_every_binding():
    before = [getattr(mod, attr) for mod, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(mod, attr) is not orig
               for (mod, attr, _), orig in zip(tracing.TARGETS, before))
    tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr, _ in tracing.TARGETS] == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_matches_spec(name):
    res, notes, digest = run.run(name, SEED, 0.5, trace=False)
    assert res["correct"] and res["failed"] == 0 and notes["ops"] >= run.MIN_OPS
    assert digest == workloads.EXPECTED_DIGESTS[name]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_metrics_match_spec(traced):
    want = {m["name"] for m in SPEC["per_layer"]}
    for _, metrics in traced.values():
        assert set(metrics) == want
    assert want == {*run.LAYER_METRICS, *run.COMPUTED_METRICS, "trace.overhead_ratio"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
