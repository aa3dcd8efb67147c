#!/usr/bin/env python3
"""Closed-loop benchmark of mvphe, one workload per process.

    python3 perfbench/run.py --workload circuit-toy --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One client runs ops back to back: the next op starts when the
previous one has finished and been checked.  With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  Names
and units come from BENCHMARK.json.  Lines before it, prefixed with ``#``,
record the environment and the sample counts.  See README.md next to this
file for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from hostspeed import READ_EVERY, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15  # set-ups per run; setup_s is their median
MIN_OPS = 2      # the timed loop always completes at least this many ops

# per-layer metric -> the workload on which it must show nonzero calls.
# The end-to-end metric each should move is given in README.md.
LAYER_METRICS = {
    "cli.main.calls_per_op": "cli-eval",
    "cli.main.self_ms_per_op": "cli-eval",
    "circuit.parse_circuit.ms_per_op": "cli-eval",
    "circuit.eval_homomorphic.ms_per_op": "circuit-toy",
    "circuit.eval_homomorphic.self_ms_per_op": "circuit-toy",
    "she.eval_mult.calls_per_op": "circuit-toy",
    "she.eval_mult.us_per_call": "circuit-toy",
    "she.eval_mult.ms_per_op": "circuit-toy",
    "she.eval_mult.op_share": "circuit-toy",
    "she.eval_add.calls_per_op": "circuit-toy",
    "she.eval_add.us_per_call": "circuit-toy",
    "she.decrypt.us_per_call": "circuit-toy",
    "she.encrypt.calls_per_op": "keyring",
    "she.encrypt.us_per_call": "keyring",
    "she.pk_keygen.ms_per_op": "keyring",
    "she.pk_encrypt.us_per_call": "keyring",
    "keys.keygen.ms_per_op": "keyring",
    "keys.keygen.rank_checks_per_key": "keyring",
    "keys.build_evalkey.ms_per_op": "keyring",
    "keys.build_evalkey.self_ms_per_op": "keyring",
    "keys.build_evalkey.op_share": "keyring",
    "keys.mat_mul_exact.ms_per_op": "keyring",
    "linalg.inverse_mod_q.calls_per_op": "keyring",
    "linalg.inverse_mod_q.ms_per_op": "keyring",
    "linalg.mat_mul.calls_per_op": "keyring",
    "linalg.mat_mul.ms_per_op": "keyring",
    "linalg.rank_mod_q.calls_per_op": "keyring",
    "linalg.rank_mod_q.ms_per_op": "keyring",
    "mvpoly.reduce_by_set.ms_per_op": "keyring",
    "serialize.load_evalkey.ms_per_op": "cli-eval",
    "serialize.load_evalkey.op_share": "cli-eval",
    "serialize.load_secret_key.ms_per_op": "cli-eval",
    "serialize.load_ciphertext.us_per_call": "cli-eval",
    "serialize.save_ciphertext.us_per_call": "cli-eval",
    "serialize.save_evalkey.ms_per_op": "keyring",
    "serialize.save_public_key.ms_per_op": "keyring",
    "serialize.save_secret_key.ms_per_op": "keyring",
}
# computed from the parameters and the key file, not timed
COMPUTED_METRICS = ("she.eval_mult.columns_dot_muls", "serialize.evalkey_bytes")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def use_source_tree() -> None:
    """Import mvphe from ROOT/src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "mvphe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/mvphe")
    sys.path.insert(0, str(src))
    import mvphe
    if Path(mvphe.__file__).resolve().parent != (src / "mvphe").resolve():
        raise SystemExit(f"perfbench: imported mvphe from {mvphe.__file__}, not {src}")


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "loadavg_start": os.getloadavg()}


class Op(NamedTuple):
    ok: bool
    seconds: float  # wall time
    reading: int    # index of the host-speed reading taken before it
    traced: bool


def timed_loop(w, seconds: float, speed: HostSpeed, tracer=None) -> list[Op]:
    """Run ops back to back for ``seconds``, one record per op.

    A host-speed reading is taken between ops every READ_EVERY seconds,
    and once more at the end.  With a tracer, even ops run plain and odd
    ops run traced, so the two halves see the same host and their ratio
    is the overhead.
    """
    ops: list[Op] = []
    start = last = time.perf_counter()
    k = speed.read()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        if time.perf_counter() - last >= READ_EVERY:
            k, last = speed.read(), time.perf_counter()
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            ok, _ = tracer.op(i, w.op, i) if traced else w.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"# op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        ops.append(Op(ok, time.perf_counter() - t0, k, traced))
        i += 1
    speed.read()
    return ops


def end_to_end(setup_s: list[float], op_s: list[float], n_ok: int,
               evk_path: str) -> dict:
    lat_ms = sorted(t * 1e3 for t in op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": n_ok / sum(op_s),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "evalkey_kb": os.path.getsize(evk_path) / 1e3,
    }


def per_layer(tracer, ops: list[Op], speed: HostSpeed, evk, evk_path: str) -> dict:
    from tracing import OP, has_ancestor, layer_stats

    stats = layer_stats(tracer.spans, [speed.scale(o.reading) for o in ops])
    n_traced = sum(o.traced for o in ops)
    op_ms = stats[OP]["busy_s"] * 1e3 / n_traced
    out = {}
    for name in LAYER_METRICS:
        span, stat = name.rsplit(".", 1)
        s = stats.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if stat == "rank_checks_per_key":
            checks = sum(1 for sp in tracer.spans if sp[0] == "linalg.rank_mod_q"
                         and has_ancestor(tracer.spans, sp, "keys.keygen"))
            value = checks / s["calls"] if s["calls"] else 0.0
        elif stat == "calls_per_op":
            value = s["calls"] / n_traced
        elif stat == "ms_per_op":
            value = s["busy_s"] * 1e3 / n_traced
        elif stat == "self_ms_per_op":
            value = s["self_s"] * 1e3 / n_traced
        elif stat == "us_per_call":
            value = s["busy_s"] * 1e6 / s["calls"] if s["calls"] else 0.0
        else:  # op_share
            value = s["busy_s"] * 1e3 / n_traced / op_ms
        out[name] = value
    out["she.eval_mult.columns_dot_muls"] = 2 * evk.input_dim * evk.params.t
    out["serialize.evalkey_bytes"] = os.path.getsize(evk_path)
    # ops/s traced over ops/s plain, i.e. mean plain op time over mean traced
    out["trace.overhead_ratio"] = (
        statistics.mean(o.seconds for o in ops if not o.traced)
        / statistics.mean(o.seconds for o in ops if o.traced))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        trace_out: str | None = None) -> tuple[dict, dict, str]:
    """One benchmark run in this process.

    Returns the result object, notes for the ``#`` lines (op count and
    unscaled times), and the digest of the default-seed outputs.
    """
    import workloads
    from tracing import Tracer

    cls = workloads.WORKLOADS[workload]
    metrics = spec()["per_layer" if trace else "end_to_end"]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "golden").mkdir(parents=True)
    speed = HostSpeed()
    try:
        setups = []  # (reading before, wall seconds)
        for _ in range(SETUP_REPS):
            k = speed.read()
            w = cls(seed, str(workdir))
            t0 = time.perf_counter()
            w.setup()
            setups.append((k, time.perf_counter() - t0))
        speed.read()

        digest, g_attempted, g_failed = workloads.golden_digest(
            workload, str(workdir / "golden"))
        if digest != workloads.EXPECTED_DIGESTS[workload]:
            print(f"# digest mismatch: {digest}", file=sys.stderr)
            g_failed = g_attempted

        tracer = Tracer() if trace else None
        ops = timed_loop(w, seconds, speed, tracer)
        evk, evk_path = w.evalkey()
        notes = {"ops": sum(o.traced for o in ops) if trace else len(ops),
                 "unscaled_op_p50_ms": statistics.median(o.seconds for o in ops) * 1e3,
                 "median_scale": statistics.median(speed.scale(o.reading) for o in ops)}
        if trace:
            values = per_layer(tracer, ops, speed, evk, evk_path)
            if trace_out:
                tracer.write(trace_out)
        else:
            values = end_to_end([t * speed.scale(k) for k, t in setups],
                                [o.seconds * speed.scale(o.reading) for o in ops],
                                sum(o.ok for o in ops), evk_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = g_failed + sum(not o.ok for o in ops)
    res = {
        "correct": failed == 0,
        "attempted": g_attempted + len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return res, notes, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("circuit-toy", "cli-eval", "keyring"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    use_source_tree()
    env = environment()
    trace_out = None
    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_out = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    res, notes, digest = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), trace_out)
    env["loadavg_end"] = os.getloadavg()
    print("# env " + json.dumps(env))
    print(f"# workload {args.workload} seed {args.seed} "
          f"{'traced ' if args.trace else ''}ops {notes['ops']} digest {digest}"
          + (f" spans {os.path.relpath(trace_out, ROOT)}" if trace_out else ""))
    print(f"# host scale {notes['median_scale']:.4g} (median over ops), "
          f"unscaled op p50 {notes['unscaled_op_p50_ms']:.6g} ms")
    print(f"# fail_ratio {res['failed'] / res['attempted']}")
    for k, m in res["metrics"].items():
        note = " (computed)" if k in COMPUTED_METRICS else ""
        print(f"# {k} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
