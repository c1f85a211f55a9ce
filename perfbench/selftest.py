"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny ``QUICK`` size through ``run.py``, untraced
and traced, and checks the result line: every metric named in
``BENCHMARK.json`` is present with its unit, and every stage and check ran
and passed.  It also checks that a round whose stage raises is reported
incorrect, that a hook whose target is gone reports its layer as missing,
and that the benchmark refuses to run in a directory that holds only its
own files.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import inputs
import run

sys.path.insert(0, run.SRC)

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
# layers the tavis and optomech workloads never enter
LASER_ONLY = ("steppers.steady", "correlation.", "oracle.")


def _run(argv, cwd=run.ROOT):
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_result(workload, trace, declared, problems):
    code, lines = _run([run.__file__, "--workload", workload, "--seed", "0",
                        "--seconds", "0.1", "--trace", str(trace), "--quick"])
    tag = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        problems.append(f"{tag}: exit {code}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{tag}: not correct")
    failures = [ln.split()[1].rstrip(":") for ln in lines if ln.startswith("  FAIL ")]
    if failures or result["failed"] != 0:
        problems.append(f"{tag}: failed {failures}")
    metrics = result["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        problems.append(f"{tag}: metrics differ from BENCHMARK.json")
    for name, entry in metrics.items():
        value = entry["value"]
        exercised = workload == "laser-spectrum" or not name.startswith(LASER_ONLY)
        if not isinstance(value, (int, float)):
            problems.append(f"{tag}: {name} = {value!r}")
        elif exercised and value <= 0 and name != "trace.overhead_s":
            problems.append(f"{tag}: {name} = {value!r}, expected > 0")
    print(f"ok {tag}: {result['attempted']} operations, {result['failed']} failed")


def check_broken_stage(problems):
    """A stage that raises makes the round incorrect, not only failed."""
    import workload
    from cqf.numerics import steppers

    def broken(*args, **kwargs):
        raise RuntimeError("stage broken on purpose")

    model = os.path.join(run.MODELS, "optomech.cqm")
    out = io.StringIO()
    saved, steppers.integrate = steppers.integrate, broken
    try:
        with contextlib.redirect_stdout(out):
            workload.main(["--workload", "optomech-cooling", "--model", model,
                           "--started", "0", "--quick"])
    finally:
        steppers.integrate = saved
    result = json.loads(out.getvalue().splitlines()[-1][len("RESULT "):])
    failed = [name for name, ok, _ in result["ops"] if not ok]
    if result["correct"] is not False or "integrate" not in failed:
        problems.append(f"broken stage not reported: correct {result['correct']}, "
                        f"failed {failed}")
    else:
        print(f"ok a broken stage makes the round incorrect ({len(failed)} failed)")


def check_missing_hook(problems):
    from tracer import HOOKS, Tracer

    tracer = Tracer()
    tracer.install(HOOKS + (("cqf.meanfield", "no_such_function",
                             "meanfield.qle_rhs", "span"),))
    tracer.uninstall()
    layers = tracer.layer_metrics()
    if layers["meanfield.qle_rhs_s"] is not None or layers["cli.parse_s"] != 0.0:
        problems.append(f"missing hook not reported: {layers}")
    else:
        print("ok missing hook reports its layer as null")


def check_bare_directory(problems):
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    code, lines = _run(["perfbench/run.py", "--workload", "tavis-pulse", "--seed",
                        "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(ln.startswith("{") for ln in lines):
        problems.append(f"bare directory: exit {code}, output {lines}")
    else:
        print(f"ok bare directory exits with {code} and prints no result")


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py")
    if [w["name"] for w in bench["workloads"]] != list(inputs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from inputs.py")
    os.makedirs(run.WORK, exist_ok=True)
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, declared[trace], problems)
    check_broken_stage(problems)
    check_missing_hook(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
