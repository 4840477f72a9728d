"""Identity harness: one digest per observable output of the library.

Each record is one JSON line, ``{"name": ..., "sha256": ...}``.  The digest
is taken over:

- for a check report, its JSON with ``elapsed`` dropped;
- after a seeded suite, the state of the generator it drew from;
- for a command-line call, its exit status, stdout and stderr, with each
  ``elapsed`` value of a check report blanked.

Run it once per version of the library and compare the two files; equal
files mean the change kept every output byte-identical.

    python3 tools/identity.py [--src DIR] > records.jsonl
    python3 tools/identity.py --compare A.jsonl B.jsonl

``--src`` imports ``zerohecke`` from DIR, the ``src`` of another checkout,
so one copy of this script measures any commit; the default is this
repository's ``src``.  ``--compare`` prints every name whose digest differs
or that only one file holds, and exits 1 if there is any.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (type, rank, truncation N) of every suite run; the suites also run under
# each broken rule
SYSTEMS = (("A", 2, 5), ("A", 3, 5), ("C", 2, 5), ("G", 2, 5), ("B", 3, 4),
           ("D", 4, 3), ("E", 6, 3))
PRIMES, SEEDS = (2, 3), (0, 1)
BROKEN_SUITES = ("braid", "words", "compose", "xi", "spherical")
# compute calls for the operations the cli workload does not make
EXTRA_COMPUTE = [
    ["compute", "--type", t, "--rank", str(r), "--prime", "3", op, operand]
    for t, r in (("A", 2), ("G", 2))
    for op, operand in (("xi", "Y[0,1,2,1]"), ("xi-inv", "S[0,1,2,1]"))
]
# check calls, (type, rank, truncation N, suite), each in json and table format
CHECK_CALLS = (("A", 2, 3, "all"), ("G", 2, 3, "compose"))
# a report's run time, as JSON ("elapsed": 0.0123) and as a table (elapsed=0.01s)
ELAPSED = re.compile(r'(elapsed"?[:=] ?)[-+.0-9e]+')


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Broken Demazure rules, as tests/test_checks.py defines them: each suite
# must report the same failures under them on both versions.
BROKEN_RULES = ("_flip_descent_branch", "_swap_branches", "_stall_length_three",
                "_fix_letter_zero_at_length_two")


def _broken_rule(weyl, true_rule, name: str):
    return {
        "_flip_descent_branch": lambda w, i: weyl._mul_gen(w, i),
        "_swap_branches": lambda w, i: weyl._mul_gen(w, i) if weyl.is_right_descent(w, i) else w,
        "_stall_length_three": lambda w, i: w if weyl.length(w) == 3 else true_rule(w, i),
        "_fix_letter_zero_at_length_two":
            lambda w, i: w if i == 0 and weyl.length(w) == 2 else true_rule(w, i),
    }[name]


def _suite(zh, name, lie_type, rank, n, p, seed, rule=None):
    """The suite's report without ``elapsed``, and the generator's state after
    it, under the true Demazure rule or the broken one named ``rule``."""
    kmodule = zh.kmodule
    true_rule = kmodule.demazure_basis_target
    rng = random.Random(seed)
    system = zh.rootdata.build_root_system(lie_type, rank)
    if rule:
        kmodule.demazure_basis_target = _broken_rule(zh.weyl, true_rule, rule)
    try:
        report = zh.checks.SUITES[name](system, p, n, rng, 1_000_000).to_jsonable()
    finally:
        kmodule.demazure_basis_target = true_rule
    del report["elapsed"]
    return {"": json.dumps(report), "rng": repr(rng.getstate())}


def _cli(zh, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zh.cli.main(argv)
    return json.dumps([code, ELAPSED.sub(r"\1_", out.getvalue()), err.getvalue()])


def _enumerate(zh, lie_type, rank, n, cache):
    argv = ["enumerate", "--type", lie_type, "--rank", str(rank), "--max-length", str(n),
            "--cache", cache]
    return {"cold": _cli(zh, argv), "warm": _cli(zh, argv)}


def _check(zh, lie_type, rank, n, suite):
    argv = ["check", "--type", lie_type, "--rank", str(rank), "--max-length", str(n), suite]
    return {fmt: _cli(zh, argv + ["--format", fmt]) for fmt in ("json", "table")}


def corpus(suites, tiny: bool = False, cache: str = ""):
    """(name, thunk) pairs over the named suites, ``checks.SUITES`` when run; a
    thunk takes the ``zerohecke`` package and returns {suffix: text}, each text
    one record named by the name and the suffix.  Balls are cached in ``cache``."""
    if tiny:
        return [
            ("suite compose A2 N=3 p=3 seed=0",
             lambda zh: _suite(zh, "compose", "A", 2, 3, 3, 0)),
            ("broken _fix_letter_zero_at_length_two compose A2 N=3 p=3 seed=0",
             lambda zh: _suite(zh, "compose", "A", 2, 3, 3, 0, BROKEN_RULES[-1])),
            ("cli compute --type A --rank 2 --prime 3 len [0,1,2]",
             lambda zh: {"": _cli(zh, ["compute", "--type", "A", "--rank", "2", "--prime", "3",
                                       "len", "[0,1,2]"])}),
            ("cli enumerate --type A --rank 2 --max-length 2",
             lambda zh: _enumerate(zh, "A", 2, 2, cache)),
            ("cli check --type A --rank 2 --max-length 3 compose",
             lambda zh: _check(zh, "A", 2, 3, "compose")),
        ]
    entries = []
    for t, r, n in SYSTEMS:
        for name in suites:
            for p in PRIMES:
                for seed in SEEDS:
                    entries.append((f"suite {name} {t}{r} N={n} p={p} seed={seed}",
                                    lambda zh, a=(name, t, r, n, p, seed): _suite(zh, *a)))
                    if name not in BROKEN_SUITES:
                        continue
                    for rule in BROKEN_RULES:
                        entries.append((f"broken {rule} {name} {t}{r} N={n} p={p} seed={seed}",
                                        lambda zh, a=(name, t, r, n, p, seed, rule): _suite(zh, *a)))
    workloads = _workloads()
    for t, r, n in workloads.BALLS + (("E", 8, 6),):
        entries.append((f"cli enumerate --type {t} --rank {r} --max-length {n}",
                        lambda zh, a=(t, r, n): _enumerate(zh, *a, cache)))
    for t, r, n, suite in CHECK_CALLS:
        entries.append((f"cli check --type {t} --rank {r} --max-length {n} {suite}",
                        lambda zh, a=(t, r, n, suite): _check(zh, *a)))
    calls = [op["argv"] for op in workloads.generate("cli", 0) if "argv" in op] + EXTRA_COMPUTE
    for argv in calls:
        entries.append(("cli " + " ".join(argv), lambda zh, argv=argv: {"": _cli(zh, argv)}))
    return entries


def run(src: Path, tiny: bool, out) -> None:
    sys.path.insert(0, str(src))
    import zerohecke.cli  # the package, with every module the corpus reaches

    if Path(zerohecke.__file__).resolve().parent.parent != src:
        raise SystemExit(f"zerohecke was imported from {zerohecke.__file__}, not from {src}")
    with tempfile.TemporaryDirectory(prefix="identity-") as cache:
        for name, thunk in corpus(list(zerohecke.checks.SUITES), tiny, cache):
            for suffix, text in thunk(zerohecke).items():
                digest = hashlib.sha256(text.encode()).hexdigest()
                print(json.dumps({"name": f"{name} {suffix}".strip(), "sha256": digest}),
                      file=out, flush=True)


def compare(a: Path, b: Path) -> int:
    def load(path):
        return {rec["name"]: rec["sha256"] for rec in map(json.loads, path.read_text().splitlines())}

    left, right = load(a), load(b)
    differ = [name for name in {**left, **right} if left.get(name) != right.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(left.keys() | right.keys())} records differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run(args.src.resolve(), False, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
