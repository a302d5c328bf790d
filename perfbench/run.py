#!/usr/bin/env python3
"""tcnsoc benchmark: one workload per process, or every workload over many seeds.

One measured run (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Every workload over seeds 1..10 in fresh processes, plus one traced run each,
with medians and quartiles:

    python3 perfbench/run.py --all --seeds 1-10 --seconds 35

Rewrite the stored references from the current code:

    python3 perfbench/run.py --record-references 0-99

See perfbench/README.md for the workloads, the metrics and the trace.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("windows_per_s", "1/s", "higher", 0.25),
    ("predict_ms_p50", "ms", "lower", 0.25),
    ("predict_ms_p90", "ms", "lower", 0.25),
]
E2E_UNITS = {n: u for n, u, _, _ in END_TO_END}

# The shared machine's speed drifts by tens of percent over seconds and
# minutes. Each round times oracle.SpeedReference around its set-up and
# operation and around its predicts, and every timed end-to-end figure is
# scaled by NOMINAL_REFERENCE_S / (mean reference time): it reads as time
# on the baseline machine at its nominal speed. The unscaled figures are
# printed beside them and kept in the result file as "wall_clock".
NOMINAL_REFERENCE_S = 0.029

_UNITS = {"calls": "count", "draws": "count", "spans": "count", "file_bytes": "B",
          "self_s": "s", "wall_s": "s", "self_pct": "%", "s_pct": "%",
          "coverage_pct": "%", "overhead_pct": "%",
          "computed_gflop": "GFLOP", "computed_tap_mb": "MB", "computed_mb": "MB"}
_DILATIONS = ("d1", "d2", "d4", "d8")

# Per-layer statistics reported in the traced run's result line, per traced
# round. Seconds appear only for layers every workload calls; the rest are
# shares of the round's wall time, so a layer a workload never calls reads
# 0 calls and 0 %. The full table, seconds included, is in the result file.
RUN_LAYERS = [
    ("kernels.causal_conv_forward", ("calls", "self_s", "self_pct", "computed_gflop", "computed_tap_mb")),
    *((f"kernels.causal_conv_forward.{d}", ("self_s",)) for d in _DILATIONS),
    ("kernels.causal_conv_backward", ("calls", "self_pct", "computed_gflop")),
    *((f"kernels.causal_conv_backward.{d}", ("self_pct",)) for d in _DILATIONS),
    ("kernels.relu", ("calls", "self_s", "self_pct")),
    ("kernels.relu_backward", ("calls", "self_pct")),
    ("kernels.dropout", ("calls", "self_s", "self_pct")),
    ("kernels.dropout.train", ("calls",)),
    ("kernels.dropout_backward", ("calls", "self_pct")),
    ("kernels.linear_head_forward", ("calls", "self_s", "self_pct")),
    ("kernels.linear_head_backward", ("calls", "self_pct")),
    ("kernels.mse_loss", ("calls", "self_pct")),
    ("kernels.adam_step", ("calls", "self_pct")),
    ("rng.SplitMix64.uniform", ("calls", "draws", "self_pct")),
    ("rng.SplitMix64.permutation", ("calls", "self_pct")),
    ("model.forward", ("calls", "self_s", "self_pct")),
    ("model.forward_with_cache", ("calls", "self_pct")),
    ("model.backward", ("calls", "self_pct")),
    ("model.predict", ("calls", "self_s", "self_pct")),
    ("training.train", ("calls", "self_pct")),
    ("training.evaluate.teacher", ("calls", "self_pct")),
    ("training.evaluate.closed-loop", ("calls", "self_pct")),
    ("data.make_windows", ("calls", "s_pct", "computed_mb")),
    ("data.apply_normalization", ("calls", "s_pct")),
    ("trace", ("wall_s", "coverage_pct", "spans", "overhead_pct")),
]
# Per-layer statistics of one traced set-up, prefixed "setup.".
SETUP_LAYERS = [
    ("simulate.generate_profile", ("s_pct",)),
    ("simulate.simulate_ecm", ("s_pct",)),
    ("data.fit_normalization", ("s_pct",)),
    ("data.make_windows", ("s_pct", "computed_mb")),
    ("data.build_hybrid", ("s_pct",)),
    ("rng.SplitMix64.permutation", ("s_pct",)),
    ("model.build_model", ("s_pct",)),
    ("model.forward", ("s_pct",)),
    ("modelio.serialize", ("s_pct", "file_bytes")),
    ("modelio.deserialize", ("s_pct",)),
    ("trace", ("wall_s", "coverage_pct")),
]


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.{stat}", _UNITS[stat]) for layer, stats in RUN_LAYERS for stat in stats]
    names += [(f"setup.{layer}.{stat}", _UNITS[stat]) for layer, stats in SETUP_LAYERS for stat in stats]
    return names


def describe() -> dict:
    """The BENCHMARK.json this benchmark satisfies."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 35,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if n.endswith("coverage_pct") else "lower"}
                      for n, u in per_layer_names()],
    }


def _import_package():
    """Import tcnsoc from this checkout's src/, or exit without a result."""
    if not (SRC / "tcnsoc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tcnsoc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tcnsoc

    if SRC not in Path(tcnsoc.__file__).resolve().parents:
        sys.exit(f"perfbench: imported tcnsoc from {tcnsoc.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


class Gate:
    """Counts operations attempted and failed, keeping the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages += [f"{what}: {p}" for p in problems[:3]]


def measure(cls, seed: int, work_dir: Path, seconds: float, reference: dict | None,
            tracer=None) -> dict:
    """Rounds until time is up: a fresh set-up, one operation, single-window predicts.

    With a tracer, odd rounds are traced and even rounds are not; both count.
    """
    import gc

    import numpy as np
    import tcnsoc.model as tm

    import oracle
    from tracer import median_stats

    gate = Gate()
    speed = oracle.SpeedReference()
    rounds = []
    first = None
    predict_ref = None
    deadline = time.perf_counter() + seconds
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        workload = None
        gc.collect()
        ref0 = None if traced else speed.seconds()
        if traced:
            tracer.install()
            setup_root = tracer.open("setup")
        t0 = time.perf_counter()
        workload = cls(seed, work_dir)
        t1 = time.perf_counter()
        if traced:
            tracer.close(setup_root)
            root = tracer.open("round")
        n, output = workload.run()
        t2 = time.perf_counter()
        ref1 = None if traced else speed.seconds()
        calls = [w[None] for w in workload.windows]
        latencies, preds = [], []
        for j in range(workload.predicts_per_round):
            window = calls[j % len(calls)]
            t = time.perf_counter()
            preds.append(tm.predict(workload.model, window))
            latencies.append(time.perf_counter() - t)
        t3 = time.perf_counter()
        if traced:
            tracer.close(root)
            tracer.restore()
        else:
            ref2 = speed.seconds()

        fp = workload.fingerprint(output)
        problems = workload.check(output)
        if reference is not None:
            problems += oracle.compare(fp, reference)
        if first is None:
            first = fp
        elif traced and fp != first:
            problems.append("traced output differs from the untraced output")
        else:
            problems += [f"not deterministic: {p}" for p in oracle.compare(fp, first)]
        gate.record(problems, f"{cls.name} round {len(rounds)}")

        if predict_ref is None:
            # every round's set-up is identical, so the first round's model serves all
            x = np.stack([c[0] for c in calls])
            full = tm.forward(workload.model, x)[:, -1]
            bad = np.abs(full - oracle.forward_last(workload.model, x)) > oracle.ABS_TOL
            predict_ref = full, [f"forward differs from oracle on window {i}" for i in np.flatnonzero(bad)]
        full, ref_problems = predict_ref
        for j, p in enumerate(preds):
            want = full[j % len(full)]
            problems = list(ref_problems)
            if p.shape != (1,) or not abs(float(p[0]) - want) <= oracle.ABS_TOL:
                problems.append(f"predict {p!r} != forward(...)[:, -1] {want!r}")
            gate.record(problems, f"{cls.name} predict {j}")

        rounds.append({"setup_s": t1 - t0, "op_s": t2 - t1, "windows": n, "round_s": t3 - t1,
                       "latencies": latencies, "traced": traced,
                       # factors that bring each time to the nominal machine speed
                       "reference_s": None if traced else [ref0, ref1, ref2],
                       "op_scale": None if traced else 2 * NOMINAL_REFERENCE_S / (ref0 + ref1),
                       "predict_scale": None if traced else 2 * NOMINAL_REFERENCE_S / (ref1 + ref2),
                       "stats": tracer.layer_stats(root) if traced else None,
                       "setup_stats": tracer.layer_stats(setup_root) if traced else None})

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "gate": gate,
        "fingerprint": first,
        "rounds": len(rounds),
        "predict_samples": sum(len(r["latencies"]) for r in plain),
        "end_to_end": _figures(plain, "op_scale", "predict_scale"),
        "wall_clock": _figures(plain, None, None),
        "samples": {key: [r[key] for r in plain] for key in
                    ("setup_s", "op_s", "windows", "latencies", "reference_s", "op_scale", "predict_scale")},
    }
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        stats = median_stats([r["stats"] for r in traced])
        stats["trace"]["overhead_pct"] = 100.0 * (
            statistics.median(r["round_s"] for r in traced)
            / statistics.median(r["round_s"] for r in plain) - 1.0)
        result["layers"] = _with_shares(stats)
        result["setup_layers"] = _with_shares(median_stats([r["setup_stats"] for r in traced]))
    return result


def _figures(rounds: list[dict], op_scale: str | None, predict_scale: str | None) -> dict:
    """The timed end-to-end figures, scaled per round by the given factors (or not)."""
    def scale(r, key):
        return r[key] if key else 1.0

    latencies = [1e3 * x * scale(r, predict_scale) for r in rounds for x in r["latencies"]]
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "setup_s": statistics.median(r["setup_s"] * scale(r, op_scale) for r in rounds),
        "windows_per_s": statistics.median(r["windows"] / (r["op_s"] * scale(r, op_scale)) for r in rounds),
        "predict_ms_p50": statistics.median(latencies),
        "predict_ms_p90": deciles[8],
    }


def _with_shares(stats: dict) -> dict:
    wall = stats["trace"]["wall_s"]
    for entry in stats.values():
        if "self_s" in entry:
            entry["self_pct"] = 100.0 * entry["self_s"] / wall
            entry["s_pct"] = 100.0 * entry["s"] / wall
    return stats


def _select(stats: dict, layers, prefix: str = "") -> dict:
    """Named per-layer metrics; a layer never called reads 0."""
    return {f"{prefix}{layer}.{stat}": {"value": stats.get(layer, {}).get(stat, 0), "unit": _UNITS[stat]}
            for layer, names in layers for stat in names}


def run_one(args) -> int:
    _import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    reference = load_references().get(cls.name, {}).get(str(args.seed))
    work_dir = OUT_DIR / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        result = measure(cls, args.seed, work_dir, float(args.seconds), reference, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    gate = result["gate"]
    e2e = dict(result["end_to_end"], peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    e2e = {name: e2e[name] for name in E2E_UNITS}
    record = {
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "end_to_end": e2e,
        "wall_clock": result["wall_clock"],
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "aliases": {cls.throughput: e2e["windows_per_s"]},
        "fingerprint": result["fingerprint"],
        "reference_checked": reference is not None,
        "rounds": result["rounds"], "predict_samples": result["predict_samples"],
        "samples": result["samples"],
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.messages,
    }
    if tracer is not None:
        run_stats, setup_stats = result["layers"], result["setup_layers"]
        metrics = _select(run_stats, RUN_LAYERS)
        metrics.update(_select(setup_stats, SETUP_LAYERS, "setup."))
        record.update(layers=run_stats, setup_layers=setup_stats, absent_layers=tracer.absent)
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{cls.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(Path(f"{stem}-spans.json"))
        print(layer_table(run_stats, setup_stats), file=sys.stderr)
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)

    for name, value in e2e.items():
        raw = result["wall_clock"].get(name)
        print(f"{name} {value:.6g} {E2E_UNITS[name]}"
              + (f" (wall clock {raw:.6g})" if raw is not None else ""))
    print(f"{cls.throughput} {e2e['windows_per_s']:.6g} 1/s")
    print(f"{cls.quality} {result['fingerprint'][cls.quality]!r} (reference "
          f"{'checked' if reference is not None else 'not stored for this seed'})")
    print("environment " + json.dumps(record["environment"], separators=(",", ":")))
    for message in gate.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}, separators=(",", ":")))
    return 0


def layer_table(stats: dict, setup_stats: dict) -> str:
    lines = [f"{'layer (per traced round)':44s} {'calls':>8s} {'s':>10s} {'self_s':>10s} {'self%':>6s}"]
    for title, table in (("", stats), ("setup.", setup_stats)):
        for key in sorted(k for k in table if k != "trace"):
            e = table[key]
            lines.append(f"{title + key:44s} {e['calls']:8.0f} {e['s']:10.5f} {e['self_s']:10.5f} "
                         f"{e['self_pct']:6.2f}")
    t = stats["trace"]
    lines.append(f"round wall {t['wall_s']:.4f} s, span coverage {t['coverage_pct']:.1f} %, "
                 f"tracing overhead {t['overhead_pct']:+.1f} %, {t['spans']:.0f} spans per round")
    return "\n".join(lines)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(args) -> int:
    """Every workload and seed in a fresh process, then one traced run each."""
    _import_package()
    seeds = _seed_range(args.seeds)
    workloads = [w["name"] for w in describe()["workloads"]]
    runs = []
    for name in workloads:
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            line = json.loads(last) if proc.returncode == 0 else {}
            runs.append({"workload": name, "seed": seed, "trace": trace,
                         "returncode": proc.returncode, **line})
            status = "ok" if line.get("correct") else f"FAILED rc={proc.returncode}"
            print(f"{name} seed={seed} trace={trace}: {status}", file=sys.stderr)
            if proc.returncode != 0 or not line.get("correct"):
                print(proc.stderr[-2000:], file=sys.stderr)

    summary = {}
    for name in workloads:
        plain = [r for r in runs if r["workload"] == name and r["trace"] == 0 and r.get("metrics")]
        for metric, unit, _, bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in plain]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary.setdefault(name, {})[metric] = {
                "unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "bound": bound, "values": values}
    out = {"environment": environment(), "seconds": args.seconds, "seeds": seeds,
           "summary": summary, "runs": runs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"{'workload':10s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            flag = "" if metric == "setup_s" or s["spread"] <= s["bound"] / 3 else "  WIDE"
            print(f"{name:10s} {metric:16s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {s['bound']:6.2f}{flag}")
    failed = [r for r in runs if not r.get("correct")]
    print(f"{len(runs)} runs, {len(failed)} failed or incorrect; written to {args.out}")
    return 1 if failed else 0


def record_references(args) -> int:
    """Store each workload's fingerprint for every seed in the range."""
    _import_package()
    from workloads import WORKLOADS

    refs = load_references()
    work_dir = OUT_DIR / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in _seed_range(args.record_references):
            for cls in WORKLOADS.values():
                workload = cls(seed, work_dir)
                _, output = workload.run()
                problems = workload.check(output)
                if problems:
                    sys.exit(f"{cls.name} seed {seed} fails its oracle checks: {problems}")
                refs.setdefault(cls.name, {})[str(seed)] = workload.fingerprint(output)
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["train", "eval-deep", "stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload over --seeds")
    parser.add_argument("--seeds", default="1-10", help="seed range for --all, e.g. 1-10")
    parser.add_argument("--out", default=str(OUT_DIR / "summary.json"), help="--all summary file")
    parser.add_argument("--record-references", metavar="SEEDS",
                        help="rewrite references.json for a seed range, e.g. 0-99")
    parser.add_argument("--describe", action="store_true", help="print the BENCHMARK.json content")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.describe:
        _import_package()
        print(json.dumps(describe(), indent=2))
        return 0
    if args.record_references:
        return record_references(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all, --record-references or --describe")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
