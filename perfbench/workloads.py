"""The three workloads: input generation, execution and output verification.

Generation runs in the benchmark's parent process and uses only the seed;
it never imports zerohecke.  Execution and verification run in a fresh
child process (see ``child.py``) that has the library loaded.  An operation
is one call the user would wait for: one check-suite call on ``relations``
and ``algebra``, one ``cli.main(argv)`` call on ``cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

WHY = {
    "relations": "Demazure relation suites at criterion-2 scale: time goes to basis "
                 "walks and element hashing, so element interning shows here",
    "algebra": "Hecke, specialization, theta and spherical suites at p=3 and "
               "p=1000003: torus-ring convolution, sparse sums and prime tests",
    "cli": "closed loop of one-shot cli.main calls on elements of length 10-2000, "
           "cold and warm ball caches up to E8: what an interactive user waits for",
}

# -- relations / algebra: suite calls -------------------------------------

LARGE_PRIME = 1000003

# Instance counts are fixed by the scale of each call (ball sizes, pair
# counts, random-layer sizes), so a suite that silently skips work fails.
RELATIONS = (
    [("compose", t, r, p, {"pair_bound": 5, "basis_bound": 6})
     for t, r in (("A", 2), ("A", 3), ("C", 2), ("G", 2)) for p in (2, 3, 5)]
    + [("words", t, r, 3, {"word_bound": 5, "basis_bound": 7}) for t, r in (("A", 2), ("C", 2))]
    + [("braid", t, r, 3, {}) for t, r in (("A", 2), ("A", 3), ("C", 2), ("G", 2))]
)
ALGEBRA = (
    [("xi", "A", 2, p, {"exhaustive_bound": 4, "n_random": 1000}) for p in (3, LARGE_PRIME)]
    + [("specialize", t, r, p, {"n_instances": 1000})
       for p in (3, LARGE_PRIME) for t, r in (("A", 1), ("A", 2), ("C", 2), ("G", 2))]
    + [("spherical", t, r, p, {"max_coord": 4, "pair_coord": 2})
       for p in (3, LARGE_PRIME) for t, r in (("A", 1), ("A", 2))]
    + [("theta", t, r, 3, {"max_coord": 2}) for t, r in (("A", 2), ("C", 2))]
)
EXPECTED_INSTANCES = {
    ("compose", "A", 2): 16724, ("compose", "A", 3): 165770,
    ("compose", "C", 2): 12845, ("compose", "G", 2): 10264,
    ("words", "A", 2): 2160, ("words", "C", 2): 2025,
    ("braid", "A", 2): 252, ("braid", "A", 3): 1290,
    ("braid", "C", 2): 231, ("braid", "G", 2): 216,
    ("xi", "A", 2): 1961,
    ("specialize", "A", 1): 1000, ("specialize", "A", 2): 1000,
    ("specialize", "C", 2): 1000, ("specialize", "G", 2): 1000,
    ("spherical", "A", 1): 24, ("spherical", "A", 2): 64,
    ("theta", "A", 2): 75, ("theta", "C", 2): 66,
}
SUITE_FUNCTIONS = {
    "compose": "check_compose", "words": "check_words", "braid": "check_braid",
    "xi": "check_xi", "specialize": "check_specialize",
    "theta": "check_theta", "spherical": "check_spherical",
}
SEEDED_SUITES = {"compose", "words", "braid", "xi", "specialize", "theta"}

# -- cli: one-shot commands -----------------------------------------------

# Reduced words of dominant translations t^lam, with their lengths.  A power
# of such a word is again reduced (lengths add on dominant translations), so
# elements of any length come from repeating it.  Verified in the child.
BASES = {
    ("A", 2): [((1, 1), (0, 1, 2, 1)), ((1, 2), (0, 1, 2, 0, 1, 2)),
               ((2, 1), (0, 2, 1, 0, 2, 1))],
    ("C", 2): [((1, 1), (0, 1, 2, 1)), ((1, 2), (0, 1, 2, 0, 1, 2))],
    ("G", 2): [((1, 2), (0, 2, 1, 2, 1, 2))],
    ("A", 3): [((1, 1, 1), (0, 1, 2, 3, 2, 1))],
}
COMPUTE_KINDS = ("len", "word", "mul", "inv", "bruhat", "hecke-mul",
                 "demazure", "pullback", "specialize", "theta")
OPS_PER_KIND = 16
MIN_LENGTH, MAX_LENGTH = 10, 2000
BALLS = (("A", 2, 10), ("A", 3, 6), ("B", 3, 5), ("D", 4, 4), ("E", 6, 3), ("E", 8, 3))
GRAPHS = (("A", 2, 5), ("C", 2, 4), ("G", 2, 5))
PRIMES = (2, 3, 5, 7)

SYSTEMS = {
    "relations": sorted({(t, r) for _, t, r, _, _ in RELATIONS}),
    "algebra": sorted({(t, r) for _, t, r, _, _ in ALGEBRA}),
    "cli": sorted(set(BASES) | {(t, r) for t, r, _ in BALLS + GRAPHS}),
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's fixed batch of operations, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("relations", "algebra"):
        table = RELATIONS if workload == "relations" else ALGEBRA
        return [
            {"kind": kind, "type": t, "rank": r, "p": p, "kwargs": kwargs,
             "rng_seed": rng.randrange(2**32)}
            for kind, t, r, p, kwargs in table
        ]
    if workload == "cli":
        return _generate_cli(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _stratum_lengths(n: int) -> list[float]:
    """n lengths, one at the middle of each of n log-uniform strata of
    [MIN_LENGTH, MAX_LENGTH]: the same on every seed, so that a seed does
    not move the work of a session (the cost of most commands grows with
    length, and whether bruhat recurses past the stack limit depends on it).
    """
    span = MAX_LENGTH / MIN_LENGTH
    return [MIN_LENGTH * span ** ((j + 0.5) / n) for j in range(n)]


def _power(base, target_length):
    word = base[1]
    k = max(1, round(target_length / len(word)))
    return k, list(word) * k


def _word_token(word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def _generate_cli(rng: random.Random) -> list[dict]:
    """A balanced session: per command kind, one operation per length stratum.

    Each kind cycles through the systems and their bases.  Two-operand
    kinds take their operands from neighbouring strata, the first the
    shorter in every other stratum.  The session order is a fixed shuffle.
    The seed draws the finite suffixes, primes and signs, so every seed
    puts the same load on each layer, and cache reuse between operations
    follows the same pattern.
    """
    systems = sorted(BASES)
    ops = []
    for n_kind, kind in enumerate(COMPUTE_KINDS):
        strata = _stratum_lengths(OPS_PER_KIND + 1)
        for j, (la, lb) in enumerate(zip(strata, strata[1:])):
            t, r = systems[(j + n_kind) % len(systems)]
            if j % 2:
                la, lb = max(la, lb), min(la, lb)
            else:
                la, lb = min(la, lb), max(la, lb)
            bases = BASES[(t, r)]
            base = bases[(j // len(systems)) % len(bases)]
            lam = base[0]
            ka, wa = _power(base, la)
            kb, wb = _power(base, lb)
            suffix = [rng.randint(1, r) for _ in range(rng.randrange(3))]
            meta = {"type": t, "rank": r, "lam": lam, "ka": ka, "kb": kb}
            if kind in ("len", "word", "inv"):
                args, meta["word"] = [_word_token(wa + suffix)], wa + suffix
                meta["translation"] = not suffix
            elif kind == "mul":
                args = [_word_token(wa + suffix), _word_token(wb)]
                meta["word"] = wa + suffix + wb
            elif kind == "bruhat":
                args = [_word_token(wa), _word_token(wb)]
            elif kind == "hecke-mul":
                args = ["Y" + _word_token(wa), "Y" + _word_token(wb)]
            elif kind == "demazure":
                args = ["S" + _word_token(wa), _word_token(wb)]
            elif kind == "specialize":
                args = ["S" + _word_token(wa)]
            elif kind == "theta":
                args = ["e{" + ",".join(str(ka * c) for c in lam) + "}"]
            else:  # pullback: a dominant or antidominant coweight
                sign = rng.choice((1, -1))
                meta["coweight"] = [sign * ka * c for c in lam]
                args = ["e{" + ",".join(map(str, meta["coweight"])) + "}"]
            prime = rng.choice(PRIMES)
            argv = ["compute", "--type", t, "--rank", str(r), "--prime", str(prime),
                    kind, *args]
            ops.append({"kind": kind, "argv": argv, "meta": meta})
    for t, r, n in BALLS:
        ops.append({"kind": "enumerate", "type": t, "rank": r, "n": n})
    for t, r, n in GRAPHS:
        argv = ["graph", "--type", t, "--rank", str(r), "--max-length", str(n)]
        ops.append({"kind": "graph", "argv": argv,
                    "meta": {"type": t, "rank": r, "n": n}})
    random.Random("cli session order").shuffle(ops)
    return ops


# -- execution (child process) ---------------------------------------------

RECURSION_DEFECT = "bruhat_leq recursion depth (ROADMAP item 4)"


def known_defect(kind: str, error: str | None) -> str | None:
    """The listed defect a failed operation is attributed to, if any."""
    if kind == "bruhat" and error == "RecursionError":
        return RECURSION_DEFECT
    return None


def run_batch(workload: str, ops: list[dict], zh, systems: dict, cache_dir: str) -> list[dict]:
    """Run the batch; one record per operation with its latency and output."""
    if workload == "cli":
        return _run_cli(ops, zh, cache_dir)
    checks = zh.checks
    records = []
    for op in ops:
        fn = getattr(checks, SUITE_FUNCTIONS[op["kind"]])
        kwargs = dict(op["kwargs"])
        if op["kind"] in SEEDED_SUITES:
            kwargs["rng"] = random.Random(op["rng_seed"])
        system = systems[(op["type"], op["rank"])]
        t0 = time.perf_counter()
        try:
            report = fn(system, op["p"], **kwargs)
            error = None
        except Exception as exc:  # a raising suite is a failed operation
            report, error = None, type(exc).__name__
        ms = (time.perf_counter() - t0) * 1000
        rec = {"kind": f"check-{op['kind']}",
               "label": f"{op['kind']} {op['type']}{op['rank']} p={op['p']}",
               "ms": ms, "error": error}
        if report is not None:
            rec["output"] = [report.instance_count, len(report.failures)]
        records.append(rec)
    return records


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # escaping cli.main is a failed op, not a crash
        rc, error = None, type(exc).__name__
    ms = (time.perf_counter() - t0) * 1000
    return ms, rc, out.getvalue(), err.getvalue(), error


def _run_cli(ops, zh, cache_dir):
    records = []
    for op in ops:
        if op["kind"] == "enumerate":
            argv = ["enumerate", "--type", op["type"], "--rank", str(op["rank"]),
                    "--max-length", str(op["n"]), "--cache", cache_dir]
            for kind in ("enumerate-cold", "enumerate-warm"):
                records.append(_cli_record(zh.cli, kind, argv, op))
        else:
            records.append(_cli_record(zh.cli, op["kind"], op["argv"], op))
    return records


def _cli_record(cli, kind, argv, op):
    ms, rc, out, err, error = _call_cli(cli, argv)
    if error is None and rc != 0:
        error = f"exit {rc}: {err.strip()[:200]}"
    return {"kind": kind, "label": " ".join(argv)[:120], "ms": ms, "error": error,
            "output": out if error is None else None, "op": op}


# -- verification (child process, after the timed phase) -------------------


def verify(workload: str, records: list[dict], zh, systems: dict) -> list[tuple[int, str]]:
    """Check every output; return (operation index, mismatch) pairs."""
    problems = []
    if workload != "cli":
        table = RELATIONS if workload == "relations" else ALGEBRA
        for index, (rec, (kind, t, r, _, _)) in enumerate(zip(records, table)):
            if rec["error"] is not None:
                continue
            instances, failures = rec["output"]
            expected = EXPECTED_INSTANCES[(kind, t, r)]
            if failures:
                problems.append((index, f"report has {failures} failures"))
            if instances != expected:
                problems.append((index, f"{instances} instances, expected {expected}"))
        return problems
    for base_system, bases in BASES.items():
        system = systems[base_system]
        for lam, word in bases:
            if zh.weyl.from_word(system, word) != zh.weyl.translation_element(system, lam):
                raise AssertionError(f"base word {word} is not t^{lam} in {base_system}")
    cold = {}
    for index, rec in enumerate(records):
        if rec["error"] is not None:
            continue
        try:
            problem = _verify_cli(rec, zh, systems, cold)
        except Exception as exc:  # malformed output is a mismatch, not a crash
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            problems.append((index, problem))
    return problems


def _verify_cli(rec, zh, systems, cold):
    weyl = zh.weyl
    kind, op, out = rec["kind"], rec["op"], rec["output"]
    if kind == "enumerate-cold":
        cold[op["type"], op["rank"], op["n"]] = out
        groups = json.loads(out)
        if [g["length"] for g in groups] != list(range(op["n"] + 1)) or \
                [g["count"] for g in groups[:2]] != [1, op["rank"] + 1]:
            return "ball shells have the wrong lengths or sizes"
        return None
    if kind == "enumerate-warm":
        if out != cold.get((op["type"], op["rank"], op["n"])):
            return "warm-cache output differs from cold-cache output"
        return None
    meta = op["meta"]
    system = systems[(meta["type"], meta["rank"])]
    if kind == "graph":
        return _verify_graph(out, weyl, system, meta["n"])
    data = json.loads(out)
    lam = tuple(meta["lam"])
    if kind in ("len", "word", "inv", "mul"):
        x = weyl.from_word(system, meta["word"])
        if kind == "len":
            if data != len(weyl.reduced_word(x)):
                return f"length {data} differs from its reduced word's"
            if meta["translation"] and data != system.pairing(
                    tuple(meta["ka"] * c for c in lam), system.two_rho):
                return f"translation length {data} is not its pairing with 2rho"
        elif kind == "word":
            if weyl.from_word(system, data) != x or len(data) != weyl.length(x):
                return "word does not multiply back to its element at its length"
        elif kind == "inv":
            if data != weyl.element_to_jsonable(weyl.from_word(system, meta["word"][::-1])):
                return "inverse differs from the reversed word's element"
        elif data != weyl.element_to_jsonable(x):
            return "product differs from the concatenated word's element"
        return None
    if kind == "bruhat":
        if data != (meta["ka"] <= meta["kb"]):
            return f"t^{meta['ka']}lam <= t^{meta['kb']}lam answered {data}"
        return None
    (term,) = data
    elem = weyl.element_from_jsonable(system, term["elem"])
    if kind == "pullback":
        anti = weyl.antidominant_orbit_rep(system, tuple(meta["coweight"]))
        expected = system.pairing(tuple(-c for c in anti), system.two_rho) + \
            system.num_positive_roots
        if weyl.length(elem) != expected:
            return f"pulled-back class has length {weyl.length(elem)}, expected {expected}"
        return None
    total = {"hecke-mul": meta["ka"] + meta["kb"], "demazure": meta["ka"] + meta["kb"],
             "specialize": meta["ka"], "theta": meta["ka"]}[kind]
    if elem != weyl.translation_element(system, tuple(total * c for c in lam)):
        return f"result is not the class of t^({total}*{list(lam)})"
    coeff = term["coeff"]
    if coeff != 1 and coeff != [{"exp": [0] * (system.rank + 1), "coeff": 1}]:
        return f"coefficient {coeff} is not one"
    return None


def _verify_graph(out, weyl, system, n):
    lines = out.splitlines()
    if lines[:2] != ["digraph bruhat {", "  rankdir=BT;"] or lines[-1] != "}":
        return "not a DOT digraph"
    labels = {}
    for line in lines[2:-1]:
        if "[label=" in line:
            node, label = line.split(" [label=")
            word = label.split('"')[1]
            labels[node.strip()] = 0 if word == "e" else len(word.split("."))
    size = sum(len(shell) for shell in weyl.enumerate_ball(system, n))
    if len(labels) != size:
        return f"{len(labels)} nodes, ball has {size}"
    for line in lines[2:-1]:
        if "->" in line:
            u, w = line.strip().rstrip(";").split(" -> ")
            if labels[w] != labels[u] + 1:
                return f"edge {u} -> {w} does not raise length by one"
    return None
