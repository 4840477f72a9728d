"""One fresh process running one batch of a workload.

Usage: python3 perfbench/child.py SPEC RESULT LAUNCH

SPEC is a JSON file written by ``run.py`` holding the mode (``setup``,
``plain`` or ``traced``), the workload, its operations and a scratch cache
directory; RESULT is where this process writes its JSON result; LAUNCH is
the parent's ``time.monotonic()`` just before it started this process.

Set-up time runs from LAUNCH to the end of set-up: interpreter start,
``import zerohecke`` and ``build_root_system`` for the workload's types,
minus the time spent loading the benchmark's own code and SPEC.  A short
calibration loop runs after set-up and after the batch, outside both timed
phases; ``run.py`` uses it to correct for the host's speed.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

CALIBRATION_REPEATS = 5


def calibrate() -> list[float]:
    """Times of a fixed pure-Python loop: the speed of the host right now.

    The loop does what the library's hot paths do (tuple arithmetic, hashing,
    dict updates) and touches nothing of the library.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        table = {}
        for i in range(20_000):
            key = (i % 61, i % 59)  # a small table: no mark on peak memory
            vec = tuple(a * 3 + b for a, b in zip(key, (2, 5)))
            table[key] = table.get(key, 0) + sum(vec)
        times.append(time.perf_counter() - t0)
    return times


def main(spec_path, result_path, launch):
    t0 = time.monotonic()
    import tracer
    import workloads

    with open(spec_path) as fh:
        spec = json.load(fh)
    input_s = time.monotonic() - t0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import zerohecke

    if not os.path.abspath(zerohecke.__file__).startswith(src + os.sep):
        raise SystemExit(f"zerohecke imported from {zerohecke.__file__}, not {src}")
    # load every module, so that the tracer finds and patches all of them
    from zerohecke import checks, cli, coeffs, hecke, kmodule, rootdata, weyl  # noqa: F401

    trace = tracer.Tracer(zerohecke) if spec["mode"] == "traced" else None
    if trace:
        trace.install()
    systems = {
        (t, r): rootdata.build_root_system(t, r)
        for t, r in workloads.SYSTEMS[spec["workload"]]
    }
    t_setup = time.monotonic()
    result = {"setup_s": t_setup - launch - input_s}
    calibration = calibrate()

    if spec["mode"] != "setup":
        t_start = time.monotonic()
        records = workloads.run_batch(
            spec["workload"], spec["ops"], zerohecke, systems, spec["cache_dir"]
        )
        result["wall_s"] = time.monotonic() - t_start
        calibration += calibrate()
        if trace:
            trace.uninstall()
            result["trace"] = trace.stats
            result["caches"] = trace.cache_report()
        result["problems"] = workloads.verify(spec["workload"], records, zerohecke, systems)
        result["ops"] = [
            {"kind": r["kind"], "label": r["label"], "ms": r["ms"], "error": r["error"],
             "digest": hashlib.sha256(json.dumps(r.get("output")).encode()).hexdigest()}
            for r in records
        ]
    result["calibration_s"] = statistics.median(calibration)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
