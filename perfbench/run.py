"""zerohecke benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {relations,algebra,cli} --seed N \
        --seconds S --trace {0,1}

Each batch of a workload runs in a fresh child process (``child.py``), one
at a time and single-threaded, so the library's caches start cold as they
do for a CLI user and peak memory is per batch.  HOME, ZEROHECKE_CACHE and
TMPDIR point into a scratch directory inside the checkout, removed at exit,
so no earlier run's ball cache can turn a cold ``enumerate`` warm.

With ``--trace 0`` the run repeats the batch for S seconds (at least
MIN_BATCHES times) after SETUP_PROBES set-up-only processes, and reports
medians over batches.  With ``--trace 1`` it alternates plain and traced
batches of the same inputs and reports the per-layer counters of the
traced ones, the tracing overhead, and a failure for every operation whose
traced outcome differs from the plain one.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 2, with no result, when the checkout has no zerohecke sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_BATCHES = 4
SETUP_PROBES = 5
TAIL_BEYOND = 10
TAIL_POOL = 50
RUN_BUDGET_S = 160  # start no batch that would end after this, to exit within 180 s
CHILD_TIMEOUT_S = 170
CALIBRATION_NOMINAL_S = 0.025
TIME_FIELDS = ("self_s", "build_s", "write_s", "read_s")
CLI_COMMANDS = workloads.COMPUTE_KINDS + ("enumerate-cold", "enumerate-warm", "graph")


class BenchError(RuntimeError):
    pass


# -- child processes ----------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = workloads.generate(workload, seed)
        self.count = 0
        self.started = self.mark = time.monotonic()

    def child(self, mode: str) -> dict:
        self.count += 1
        d = self.work / f"{self.count:03d}-{mode}"
        for sub in ("home", "env-cache", "balls", "tmp"):
            (d / sub).mkdir(parents=True)
        spec = {"mode": mode, "workload": self.workload, "ops": self.ops,
                "cache_dir": str(d / "balls")}
        (d / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, HOME=str(d / "home"), ZEROHECKE_CACHE=str(d / "env-cache"),
                   TMPDIR=str(d / "tmp"), PYTHONHASHSEED=str(self.seed % 2**32))
        env.pop("PYTHONPATH", None)
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(d / "spec.json"),
             str(d / "result.json"), repr(launch)],
            cwd=str(d), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} batch exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not (d / "result.json").exists():
            raise BenchError(f"{mode} batch exited {proc.returncode}:\n{err.strip()}")
        for line in err.splitlines():
            print(f"# child: {line}")
        result = json.loads((d / "result.json").read_text())
        shutil.rmtree(d)
        return result

    def more(self, seconds: float, done: int, minimum: int) -> bool:
        """Whether to start another step (a batch, or a plain and traced pair)."""
        now = time.monotonic()
        step, self.mark = now - self.mark, now
        elapsed = now - self.started
        return done < minimum or (elapsed < seconds and elapsed + step < RUN_BUDGET_S)


# -- statistics -------------------------------------------------------------------


def speed(child: dict) -> float:
    """Factor that turns a child's times into times at nominal host speed.

    The host's speed drifts by a fifth and more over seconds and minutes,
    and a pure-Python calibration loop slows down with the workload, so a
    time scaled by nominal over measured calibration time is steadier
    across runs than the raw time.
    """
    return CALIBRATION_NOMINAL_S / child["calibration_s"]


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_percentiles(batches: list[dict]) -> tuple[float, float, float, int]:
    """op_p50_ms, op_tail_ms, the tail's percentile and its sample count.

    Every batch runs the same session, so each operation's latency is first
    reduced to its median over the batches.  The tail is the highest
    percentile that leaves TAIL_BEYOND samples beyond it in a pool of the
    fewest batches that hold TAIL_POOL operations: one batch on cli, a few
    on the suite workloads, whose batches hold 16 to 18 suite calls.  The
    percentile depends on the batch size only, never on how many batches
    fit in the run.
    """
    n_ops = len(batches[0]["ops"])
    per_op = [statistics.median(b["ops"][i]["ms"] * speed(b) for b in batches)
              for i in range(n_ops)]
    pool = n_ops * -(-TAIL_POOL // n_ops)
    pct = 100 * (1 - TAIL_BEYOND / pool)
    return percentile(per_op, 50), percentile(per_op, pct), pct, pool


def outcomes(batch: dict) -> list:
    return [(op["error"], op["digest"]) for op in batch["ops"]]


def judge(batches: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """attempted, failed and the problems that make the run incorrect.

    An operation fails when it raised, exited non-zero, or its output
    failed verification.  Only failures attributed to a defect listed in
    the ROADMAP keep the run correct.
    """
    attempted = failed = 0
    problems = []
    defects = Counter()
    for batch in batches:
        attempted += len(batch["ops"])
        bad = {index for index, _ in batch["problems"]}
        problems += [f"{batch['ops'][i]['label']}: {msg}" for i, msg in batch["problems"]]
        for index, op in enumerate(batch["ops"]):
            if op["error"] is not None:
                failed += 1
                defect = workloads.known_defect(op["kind"], op["error"])
                if defect:
                    defects[defect] += 1
                else:
                    problems.append(f"{op['label']}: unattributed failure {op['error']}")
            elif index in bad:
                failed += 1
        if outcomes(batch) != outcomes(reference):
            diff = sum(a != b for a, b in zip(outcomes(batch), outcomes(reference)))
            problems.append(f"{diff} operations differ from the first plain batch")
    for defect, n in defects.items():
        print(f"# failed by known defect: {defect}: {n}")
    return attempted, failed, problems


# -- the two kinds of run -------------------------------------------------------------


def plain_run(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
    batches = []
    while runner.more(seconds, len(batches), MIN_BATCHES):
        batches.append(runner.child("plain"))
    setups = probes + batches
    p50, tail, pct, pool = latency_percentiles(batches)
    metrics = {
        "setup_s": (statistics.median(b["setup_s"] * speed(b) for b in setups), "s"),
        "wall_s": (statistics.median(b["wall_s"] * speed(b) for b in batches), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (statistics.median(b["peak_rss_kb"] for b in batches) / 1024, "MB"),
    }
    walls = " ".join(f"{b['wall_s']:.3f}" for b in batches)
    print(f"# batches: {len(batches)}, raw wall_s each: {walls}")
    print(f"# raw medians: setup_s {statistics.median(b['setup_s'] for b in setups):.4f} s, "
          f"wall_s {statistics.median(b['wall_s'] for b in batches):.4f} s; "
          f"host speed factor {statistics.median(speed(b) for b in setups):.3f}")
    print(f"# set-ups: {len(setups)}, operations per batch: {len(batches[0]['ops'])}")
    print(f"# op_tail_ms is p{pct:.2f}: {TAIL_BEYOND} of {pool} samples beyond it")
    return metrics, batches


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[dict]]:
    plain, traced = [], []
    while runner.more(seconds, len(traced), 1):
        plain.append(runner.child("plain"))
        traced.append(runner.child("traced"))
    overhead = statistics.median(b["wall_s"] * speed(b) for b in traced) / \
        statistics.median(b["wall_s"] * speed(b) for b in plain)
    print(f"# pairs of plain and traced batches: {len(traced)}")
    return layer_metrics(traced, plain, overhead), plain, traced


def layer_metrics(traced: list[dict], plain: list[dict], overhead: float) -> dict:
    """Per-layer counters: medians over the traced batches, times at nominal
    host speed.  The per-command latencies come from the plain batches."""
    def med(name, field):
        scale = speed if field in TIME_FIELDS else lambda b: 1
        return statistics.median(
            b["trace"].get(name, {}).get(field, 0) * scale(b) for b in traced)

    def cache(name, field):
        return statistics.median(b["caches"].get(name, {}).get(field, 0) for b in traced)

    def hit_ratio(name):
        hits, misses = cache(name, "hits"), cache(name, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    m = {}
    count, secs, ratio = "count", "s", "ratio"
    m["rootdata.build_root_system.self_s"] = (med("rootdata.build_root_system", "self_s"), secs)
    for name in ("rootdata.pairing", "weyl.mul", "weyl.hash_eq", "weyl.length",
                 "weyl.is_right_descent", "weyl.reduced_word", "weyl.bruhat_leq",
                 "kmodule.demazure_basis_target", "kmodule.demazure_apply",
                 "kmodule.hecke_act", "hecke.multiply_hecke", "hecke.demazure_product",
                 "coeffs.group_ring_mul", "coeffs.group_ring_add", "coeffs.is_prime"):
        m[f"{name}.calls"] = (med(name, "calls"), count)
        m[f"{name}.self_s"] = (med(name, "self_s"), secs)
    # bruhat_leq recurses past its wrapper; its cache counts every level
    bruhat = cache("weyl.bruhat_leq", "hits") + cache("weyl.bruhat_leq", "misses")
    if bruhat:
        m["weyl.bruhat_leq.calls"] = (bruhat, count)
    m["weyl.is_right_descent.hit_ratio"] = (hit_ratio("weyl.is_right_descent"), ratio)
    m["kmodule.demazure_basis_target.hit_ratio"] = (
        hit_ratio("kmodule.demazure_basis_target"), ratio)
    elements, build_s = med("weyl.enumerate_ball", "elements"), med("weyl.enumerate_ball", "build_s")
    m["weyl.enumerate_ball.elements_per_s"] = (elements / build_s if build_s else 0.0, "1/s")
    m["weyl.cache_entries"] = (statistics.median(
        sum(c["entries"] for c in b["caches"].values()) for b in traced), count)
    terms_in = med("kmodule.demazure_apply", "terms_in")
    m["kmodule.demazure_apply.terms_out_per_in"] = (
        med("kmodule.demazure_apply", "terms_out") / terms_in if terms_in else 0.0, ratio)
    m["kmodule.specialize.self_s"] = (med("kmodule.specialize", "self_s"), secs)
    m["kmodule.spherical_act.self_s"] = (med("kmodule.spherical_act", "self_s"), secs)
    m["hecke.multiply_hecke.term_pairs"] = (med("hecke.multiply_hecke", "term_pairs"), count)
    m["coeffs.field_ops.calls"] = (med("coeffs.field_ops", "calls"), count)
    for suite in workloads.SUITE_FUNCTIONS:
        m[f"checks.{suite}.instances"] = (med(f"checks.{suite}", "instances"), count)
        m[f"checks.{suite}.self_s"] = (med(f"checks.{suite}", "self_s"), secs)
        m[f"checks.{suite}.failures"] = (med(f"checks.{suite}", "failures"), count)
    m["cli.main.self_s"] = (med("cli.main", "self_s"), secs)
    for command in CLI_COMMANDS:
        per_batch = [[op["ms"] * speed(b) for op in b["ops"] if op["kind"] == command]
                     for b in plain]
        m[f"cli.{command}.p50_ms"] = (
            statistics.median(statistics.median(v) for v in per_batch) if per_batch[0] else 0.0,
            "ms")
    m["cli.ball_cache.write_s"] = (med("cli.ball_cache", "write_s"), secs)
    m["cli.ball_cache.read_s"] = (med("cli.ball_cache", "read_s"), secs)
    m["cli.ball_cache.bytes_written"] = (med("cli.ball_cache", "bytes_written"), "B")
    m["cli.ball_cache.bytes_read"] = (med("cli.ball_cache", "bytes_read"), "B")
    m["trace.overhead_ratio"] = (overhead, ratio)
    return m


# -- context and output ------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zerohecke" / "__init__.py").is_file():
        print(f"error: no zerohecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"# zerohecke benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git {git_sha()}")
    print(f"# why: {workloads.WHY[args.workload]}")

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics, plain, traced = traced_run(runner, args.seconds)
            attempted, failed, problems = judge(plain + traced, plain[0])
        else:
            metrics, batches = plain_run(runner, args.seconds)
            attempted, failed, problems = judge(batches, batches[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in problems[:20]:
        print(f"# PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
