"""Benchmark of the cqf compiler, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a fresh
interpreter (``workload.py``): cqf keeps a module-global expansion cache, so
a second round in one process would skip most of the compile time that
every real invocation pays.  Rounds repeat until the next one would end
after ``--seconds``; at least one always runs.  End-to-end metrics are the
medians over the rounds; ``setup_s`` also takes in processes that stop after
set-up: a few before the first round and, after the last, as many as fit in
the time that is left.

With ``--trace 1`` untraced and traced rounds alternate, and the per-layer
metrics (medians over the traced rounds) replace the end-to-end ones.
``trace.overhead_s`` is the traced minus the untraced median wall time.

No workload draws random inputs, so ``--seed`` selects nothing; it is
accepted so that every run names one.  The last line of output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODELS = os.path.join(ROOT, "models")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOAD = os.path.join(HERE, "workload.py")

# Set-up probes are processes that stop after set-up.  One uncounted probe
# warms the byte-code cache; WARM_PROBES more run before the first round, and
# up to MAX_PROBES after the last one, while the time lasts.
WARM_PROBES = 4
MAX_PROBES = 40
# every run must end within 180 s; rounds that outlive this are killed
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "compile_s": "s", "solve_s": "s", "wall_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {name: unit for name, (unit, *_) in tracer.LAYERS.items()}
PER_LAYER["trace.overhead_s"] = "s"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, deadline):
    """Run workload.py; return (set-up seconds, result dict or None)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise HarnessError("no time left to start a process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKLOAD, "--started", repr(time.time())] + args,
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError("round exceeded the time limit") from None
    setup = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            setup = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or setup is None:
        raise HarnessError(f"workload process exited with {proc.returncode}: "
                           + " ".join(args))
    return setup, result


def model_file(workload: str, cfg: dict) -> str:
    if workload == "laser-spectrum":
        return os.path.join(MODELS, "laser.cqm")
    if workload == "optomech-cooling":
        return os.path.join(MODELS, "optomech.cqm")
    path = os.path.join(WORK, f"tavis{cfg['atoms']}.cqm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.tavis_model_text(cfg["atoms"]))
    return path


def _median(values):
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def report(workload, args, setups, rounds):
    """Print the human-readable summary; return the metrics dict."""
    plain = [r for traced, r in rounds if not traced]
    traced = [r for t, r in rounds if t]
    print(f"perfbench {workload}: seed {args.seed} (no workload draws random "
          f"inputs), {len(rounds)} rounds, {len(setups)} set-up samples")
    for k, (is_traced, r) in enumerate(rounds, 1):
        failed = sum(1 for op in r["ops"] if not op[1])
        print(f"  round {k}{' traced' if is_traced else ''}: wall {r['wall_s']:.3f} s, "
              f"compile {r['compile_s']:.3f} s, solve {r['solve_s']:.3f} s, "
              f"oracle {r['oracle_s']:.3f} s, set-up {r['setup_s']:.3f} s, "
              f"peak RSS {r['peak_rss_mb']:.1f} MB, {len(r['ops'])} operations, "
              f"{failed} failed")
    seen = set()
    for _, r in rounds:
        for name, ok, detail in r["ops"]:
            line = f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}"
            if detail and line not in seen:
                seen.add(line)
                print(line)
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("compile_s", "solve_s", "wall_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in plain)
        units = END_TO_END
    else:
        metrics = {name: _median([r["layers"][name] for r in traced])
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            print("  MISSING hooks (their layers report null): " + ", ".join(missing))
        print(f"  {'span':<28}{'calls':>9}{'total s':>11}{'self s':>11}   (first traced round)")
        table = traced[0]["self_times"]
        for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<28}{calls:>9}{total:>11.4f}{own:>11.4f}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "cqf", "__init__.py"),
              os.path.join(MODELS, "laser.cqm"), os.path.join(MODELS, "optomech.cqm")]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print("perfbench: run from the root of a cqf checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in absent), file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    cfg = (inputs.QUICK if args.quick else inputs.FULL)[args.workload]
    base = ["--workload", args.workload, "--model", model_file(args.workload, cfg)]
    if args.quick:
        base.append("--quick")
    start = time.perf_counter()
    deadline, hard = start + args.seconds, start + HARD_LIMIT_S
    try:
        probe = base + ["--probe"]
        run_child(probe, hard)
        setups = [run_child(probe, hard)[0] for _ in range(WARM_PROBES)]
        rounds, durations = [], []
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            extra = []
            if traced:
                spans = os.path.join(WORK, f"spans-{args.workload}-{len(rounds) + 1}.json")
                extra = ["--trace", "--spans", spans]
            t0 = time.perf_counter()
            setup, result = run_child(base + extra, hard)
            if result is None:
                raise HarnessError("round printed no result")
            durations.append(time.perf_counter() - t0)
            result["setup_s"] = setup
            rounds.append((traced, result))
            if not traced:
                setups.append(setup)
            if args.trace and len(rounds) < 2:
                continue
            if time.perf_counter() + statistics.median(durations) > deadline:
                break
        before = len(setups)
        while (not args.trace and len(setups) - before < MAX_PROBES
               and time.perf_counter() < deadline):
            setups.append(run_child(probe, hard)[0])
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    metrics = report(args.workload, args, setups, rounds)
    ops = [op for _, r in rounds for op in r["ops"]]
    print(json.dumps({"correct": all(r["correct"] for _, r in rounds),
                      "attempted": len(ops),
                      "failed": sum(1 for op in ops if not op[1]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
