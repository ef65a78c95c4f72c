"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

One workload, in this process (what the pipeline's driver calls)::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The whole suite, each workload in a fresh child interpreter::

    python3 benchmarks/suite/run.py [--seed N] [--repeat K] [--workload W]
                                    [--traced] [--smoke] [--out PATH]

writes ``results/suite_*.json``; ``--compare A.json B.json`` judges two
such files against the bounds in ``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))


def prepare_process() -> None:
    """Called before numpy or ``repro`` load.  Pins BLAS to one thread:
    two BLAS threads beside a server child and two client threads
    oversubscribe a 2-core box, and the scheduler noise lands in every
    timing (children inherit the setting).  Makes ``src/`` importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: ``name -> (dataset, full scale, smoke scale, set-ups per run)``.
#: Set-up is repeated so ``setup_s`` is a median: seven or five times
#: where one takes well under a second, three times for the dense graph
#: (4 s to generate, a third of it page faults, and one in ten takes 11 s).  ``serve_read`` uses papers 0.5: at 1.0 a server start swung
#: between 1.0 and 2.7 s inside one ten-run set.  ``serve_mixed`` uses
#: 0.25: at 0.5 an edge update (a full recompute) takes about as long over
#: HTTP as the second between updates, so a slow minute on the host made
#: updates queue, the drain never end and reads time out.
SIZES = {
    "train_sparse": ("ogbn-products", 0.5, 0.05, 7),
    "train_dense": ("reddit", 4.0, 0.05, 3),
    "train_dist": ("ogbn-products", 0.5, 0.05, 3),
    "train_minibatch": ("ogbn-papers", 1.0, 0.05, 7),
    "serve_read": ("ogbn-papers", 0.5, 0.05, 5),
    "serve_mixed": ("ogbn-papers", 0.25, 0.05, 5),
}
SMOKE_SECONDS = 2.0
#: a traced run spends this share of --seconds in the workload's main
#: loop and the rest on stand-alone calls into single layers
TRACED_SHARE = 0.5


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- one workload, in this process ---------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Dispatch to the workload; returns ``(RunResult, SpanRecorder)``."""
    import suite_harness as harness
    import suite_serve as serve
    import suite_train as train

    dataset, full, tiny, repeats = SIZES[name]
    scale = tiny if smoke else full
    if smoke or trace:
        repeats = 1  # only the untraced pass reports setup_s
    if trace and name != "serve_mixed":  # whose layer calls are cheap
        seconds *= TRACED_SHARE
    rec = harness.SpanRecorder(workload=name, enabled=trace)
    common = dict(seed=seed, seconds=seconds, trace=trace, rec=rec)
    if name in ("train_sparse", "train_dense"):
        result = train.run_fullbatch(dataset, scale, repeats, **common)
    elif name == "train_dist":
        result = train.run_dist(dataset, scale, repeats, smoke=smoke, **common)
    elif name == "train_minibatch":
        result = train.run_minibatch(dataset, scale, repeats, **common)
    elif name == "serve_read":
        result = serve.run_serve_read(scale, repeats, **common)
    elif name == "serve_mixed":
        result = serve.run_serve_mixed(scale, repeats, **common)
    else:
        raise KeyError(name)
    return result, rec


def declared_metrics(spec: dict, trace: bool, measured: Dict[str, float]) -> dict:
    """Every declared metric of the pass, by name with its unit.  A
    layer a workload never calls did no work there: its metrics read 0.
    A missing end-to-end metric, or an undeclared name, is a bug."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise KeyError(f"measured but not declared in BENCHMARK.json: {unknown}")
    if not trace:
        missing = sorted(names - set(measured))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main_single(args) -> int:
    prepare_process()
    import suite_harness as harness

    spec = load_spec()
    trace = bool(args.trace)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    t0 = time.perf_counter()
    result, rec = run_workload(args.workload, args.seed, seconds, trace, args.smoke)
    wall = time.perf_counter() - t0
    metrics = declared_metrics(
        spec, trace, result.per_layer if trace else result.end_to_end
    )
    samples = result.detail.get("samples", {})
    for name, m in metrics.items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{args.workload:16s} {name:36s} {m['value']:14.6g} {m['unit']}{n}")
    raw = result.detail.get("as_measured")
    if raw and not trace and raw["op_slowness"] != 1.0:
        print(f"{args.workload:16s} as measured: setup_s {raw['setup_s']:.6g}, "
              f"op_p50_ms {raw['op_p50_ms']:.6g}, ops_per_s {raw['ops_per_s']:.6g}; "
              f"machine slowness beside them {raw['setup_slowness']:.3f}, "
              f"{raw['op_slowness']:.3f}, {raw['rate_slowness']:.3f}")
    for c in result.checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + ("" if c["ok"] else f": {c['detail']}"))
    if trace:
        os.makedirs(harness.RESULTS_DIR, exist_ok=True)
        rec.dump(os.path.join(harness.RESULTS_DIR, f"trace_{args.workload}.json"))
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed, "seconds": seconds,
                "trace": trace, "smoke": args.smoke, "wall_s": wall,
                "end_to_end": result.end_to_end, "per_layer": result.per_layer,
                "checks": result.checks, "detail": result.detail,
                "span_totals": rec.totals(),
                "environment": harness.environment(args.seed),
            }, f)
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


# -- the suite: one child interpreter per run ----------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import suite_harness as harness

    fd, detail_path = tempfile.mkstemp(
        prefix="detail-", suffix=".json", dir=harness.scratch_root()
    )
    os.close(fd)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--detail", detail_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=harness.child_env(), cwd=REPO_ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} (seed {seed}) exited {proc.returncode}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(detail_path) as f:
            detail = json.load(f)
    finally:
        os.unlink(detail_path)
    return {"summary": summary, **detail}


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def collect(runs: List[dict], key: str) -> Dict[str, dict]:
    names = list(runs[0][key])
    out = {}
    for name in names:
        values = [r[key][name] for r in runs if name in r[key]]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "values": values}
    return out


def main_suite(args) -> int:
    prepare_process()
    import suite_harness as harness

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    seeds = list(range(args.seed, args.seed + args.repeat))
    t0 = time.perf_counter()
    workloads = {}
    all_correct = True
    for name in selected:
        passes = {"end_to_end": [run_child(name, s, seconds, False, args.smoke)
                                 for s in seeds]}
        if args.traced:
            passes["per_layer"] = [run_child(name, s, seconds, True, args.smoke)
                                   for s in seeds[:1]]
        entry = {"seeds": seeds}
        for key, runs in passes.items():
            entry[key] = collect(runs, key)
            entry[f"{key}_runs"] = [
                {k: r[k] for k in ("seed", "wall_s", "checks", "detail", "summary",
                                   "span_totals")}
                for r in runs
            ]
            all_correct &= all(r["summary"]["correct"] for r in runs)
        samples = passes["end_to_end"][0]["detail"].get("samples", {})
        for key in passes:
            for metric, row in entry[key].items():
                if key == "per_layer" and row["median"] == 0.0:
                    continue  # layer not called on this workload
                sp = "" if row["spread"] is None else f"  spread {row['spread']:.3f}"
                n = f"  n={samples[metric]}" if key == "end_to_end" else ""
                print(f"{name:16s} {metric:36s} {row['median']:14.6g} "
                      f"{units[metric]}{n}{sp}", flush=True)
        failed = [c for runs in passes.values() for r in runs for c in r["checks"]
                  if not c["ok"]]
        print(f"{name:16s} checks: "
              + ("all ok" if not failed else f"FAILED {[c['name'] for c in failed]}"),
              flush=True)
        workloads[name] = entry
    env = harness.environment(args.seed)
    env["total_wall_s"] = time.perf_counter() - t0
    out = args.out or os.path.join(
        harness.RESULTS_DIR,
        f"suite_seed{args.seed}{'_smoke' if args.smoke else ''}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"environment": env, "seconds": seconds, "smoke": args.smoke,
                   "workloads": workloads, "correct": all_correct}, f, indent=1)
    print(f"wrote {out} ({env['total_wall_s']:.0f} s)")
    return 0 if all_correct else 1


# -- compare two results files -------------------------------------------------------


def verdict(metric: dict, a: dict, b: dict) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for B against base A.
    As in the pipeline, ``setup_s`` is judged on its medians alone."""
    worse = (b["median"] - a["median"]) / a["median"]
    if metric["better"] == "higher":
        worse = -worse
    spreads = [s for s in (a["spread"], b["spread"]) if s is not None]
    if metric["name"] != "setup_s" and spreads and max(spreads) > metric["bound"]:
        return "unresolved"
    return "regressed" if worse > metric["bound"] else "ok"


def compare(spec: dict, res_a: dict, res_b: dict) -> List[dict]:
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = res_a["workloads"].get(name), res_b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in spec["end_to_end"]:
            a, b = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": a["median"], "b": b["median"], "ratio_b_over_a": b["median"] / a["median"],
                "spread_a": a["spread"], "spread_b": b["spread"],
                "bound": metric["bound"], "verdict": verdict(metric, a, b),
            })
    return rows


def main_compare(args) -> int:
    spec = load_spec()
    with open(args.compare[0]) as f:
        res_a = json.load(f)
    with open(args.compare[1]) as f:
        res_b = json.load(f)
    rows = compare(spec, res_a, res_b)
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} unit   B/A (base A)  "
          "spread A/B     bound  verdict")
    for r in rows:
        sp = "/".join("n<4" if s is None else f"{s:.3f}" for s in (r["spread_a"], r["spread_b"]))
        print(f"{r['workload']:16s} {r['metric']:14s} {r['a']:12.5g} {r['b']:12.5g} "
              f"{r['unit']:6s} {r['ratio_b_over_a']:8.3f}      {sp:13s} {r['bound']:5.2f}  "
              f"{r['verdict']}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(f"{len(rows)} pairs: {len(rows) - len(bad)} ok, "
          f"{sum(r['verdict'] == 'regressed' for r in bad)} regressed, "
          f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved")
    return 1 if bad else 0


def build_parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0,
                   help="all inputs derive from it (dataset, schedules, payloads)")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="run ONE workload in this process: 0 = end-to-end metrics, "
                   "1 = per-layer metrics + Chrome trace")
    p.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true",
                   help="suite: add the traced per-layer pass")
    p.add_argument("--repeat", type=int, default=1,
                   help="suite: runs per workload, seeds SEED..SEED+K-1")
    p.add_argument("--smoke", action="store_true",
                   help="tiny scales, 1 s phases; still emits every metric name")
    p.add_argument("--out", default=None, help="suite: results file")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser(load_spec()).parse_args(argv)
    if args.compare:
        return main_compare(args)
    if args.trace is not None:
        if args.workload is None:
            raise SystemExit("--trace needs --workload")
        return main_single(args)
    return main_suite(args)


if __name__ == "__main__":
    sys.exit(main())
