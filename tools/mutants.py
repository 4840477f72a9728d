"""Mutation check: each mutant must make the tier-1 tests fail.

Each mutant is a list of exact text edits to files under the repository
root.  For each one, in order, the repository is copied to a temporary
directory, the edits are applied (an edit whose text is not found the
stated number of times, or a mutated file that does not compile, is an
error, so a broken mutant cannot pass as killed), and the tier-1 tests
run there with a timeout, stopping at the first failure, with
``tests/test_acceptance.py`` after the other test files.  The report
gives one line per mutant: killed, survived or timeout.

Run from anywhere, with the standard library only:

    python3 tools/mutants.py

The exit status is 0 when every mutant was killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WEYL, ROOTDATA = "src/zerohecke/weyl.py", "src/zerohecke/rootdata.py"
CHECKS, KMODULE, CLI = "src/zerohecke/checks.py", "src/zerohecke/kmodule.py", "src/zerohecke/cli.py"
COEFFS, HECKE = "src/zerohecke/coeffs.py", "src/zerohecke/hecke.py"
# the acceptance suites run last: the unit tests kill most mutants within
# seconds, before a mutant that makes the suites run away meets the timeout.
# test_mutants.py, which applies every mutant to the source, stays out: on a
# mutated tree its own mutant's edits no longer apply, so it would kill them all.
TESTS = sorted((str(path.relative_to(ROOT)) for path in (ROOT / "tests").glob("test_*.py")
                if path.name != "test_mutants.py"),
               key=lambda name: (name.endswith("test_acceptance.py"), name))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *TESTS]
TIMEOUT = 300  # seconds per tier-1 run
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", ".perfbench-work", "*.egg-info")

# name: [(file, old text, new text, expected occurrences), ...]
MUTANTS = {
    # class tables and the live Demazure rule
    "class-table-shared-across-calls": [
        (CHECKS, "class _ClassTable:", "class _FreshTable:", 1),
        (CHECKS, "def _wordstr(x) -> list:",
         "_SHARED = {}\n\n\ndef _ClassTable(system, basis):\n"
         "    key = system, tuple(basis)\n"
         "    if key not in _SHARED:\n        _SHARED[key] = _FreshTable(system, basis)\n"
         "    return _SHARED[key]\n\n\ndef _wordstr(x) -> list:", 1),
    ],
    "basis-column-drops-last-class": [
        (CHECKS, "self.basis = range(len(self.elements))",
         "self.basis = range(len(self.elements) - 1)", 1),
    ],
    "class-record-lhs-rhs-swapped": [
        (CHECKS, '"lhs": _wordstr(table.elements[lhs]),\n',
         '"lhs": _wordstr(table.elements[right[k]]),\n', 1),
        (CHECKS, '"rhs": _wordstr(table.elements[right[k]])}',
         '"rhs": _wordstr(table.elements[lhs])}', 1),
    ],
    "class-records-stop-at-first-difference": [
        (CHECKS, '"rhs": _wordstr(table.elements[right[k]])})\n',
         '"rhs": _wordstr(table.elements[right[k]])})\n                return\n', 1),
    ],
    # random inputs: randrange's stream, drawn straight from getrandbits
    "below-accepts-n": [
        (CHECKS, "while r >= n:", "while r > n:", 1),
    ],
    "random-coefficient-drawn-after-key": [
        (CHECKS, "        coeff = 1 + _below(rng, ring.p - 1)\n"
                 "        terms[pool[_below(rng, len(pool))]] = GroupRingElement._from_canonical(\n"
                 "            ring.p, ring.nvars, {exps: coeff})",
         "        key = pool[_below(rng, len(pool))]\n"
         "        terms[key] = GroupRingElement._from_canonical(\n"
         "            ring.p, ring.nvars, {exps: 1 + _below(rng, ring.p - 1)})", 1),
    ],
    # the suite table: each name's call at truncation N
    "words-basis-one-short": [
        (CHECKS, "basis_bound=n + 2", "basis_bound=n + 1", 1),
    ],
    # the canonical-word tree that compose, xi and words share
    "compose-column-steps-first-letter": [
        (CHECKS, "table.walk(columns[wx[:-1]], wx[-1:])", "table.walk(columns[wx[:-1]], wx[:1])", 1),
    ],
    # compose's length-additive pairs: (u, v' s_j) from (u, v') by one descent test of uv'
    "compose-pairs-skip-the-descent-test": [
        (CHECKS, "                if weyl.is_right_descent(uv, wv[-1]):\n                    continue\n",
         "", 1),
    ],
    "compose-pairs-keep-the-parent-product": [
        (CHECKS, "pooled[weyl._mul_gen(uv, wv[-1])]", "pooled[uv]", 1),
    ],
    # and (u, v' s_j)'s column from (u, v')'s: tree edges keep "uv's tree column",
    # each non-tree edge is walked once, and below a pair that differed columns walk on
    "compose-edge-memo-drops-its-letter": [
        (CHECKS, "if (wx, wv[-1]) not in edges:", "if wx not in edges:", 1),
        (CHECKS, "edges[wx, wv[-1]]", "edges[wx]", 2),
    ],
    "compose-resumes-tree-column-after-a-difference": [
        (CHECKS, "walked[wv] = uv, wuv, column", "walked[wv] = uv, wuv, None", 1),
    ],
    # words on the weak-order DAG: every descent edge, and reduced words listed over all
    # of them, whose list also gives the random layer its cases
    "words-compares-one-descent-pair": [
        (CHECKS, "for j, w in below[1:]]", "for j, w in below[1:2]]", 1),
    ],
    "words-paths-over-one-descent": [
        (CHECKS, "for j, wb in below for w in words[wb]]",
         "for j, wb in below[:1] for w in words[wb]]", 1),
    ],
    "words-random-layer-skips-last-word": [
        (CHECKS, "other) for other in others]", "other) for other in others[:-1]]", 1),
    ],
    "vector-walk-compares-first-case-only": [
        (CHECKS, "for inputs, letters in cases:\n        right = kmodule.",
         "for inputs, letters in cases[:1]:\n        right = kmodule.", 1),
    ],
    "rule-bound-at-import": [
        (KMODULE, "def _walk(terms: dict, letters):",
         "def _walk(terms: dict, letters, rule=demazure_basis_target):", 1),
        (KMODULE, "w = demazure_basis_target(w, i)\n        yield",
         "w = rule(w, i)\n        yield", 1),
    ],
    "letters-validated-first-only": [
        (KMODULE, 'weyl._read_letters(v.system, letters, "operator")',
         'weyl._read_letters(v.system, letters[:1], "operator") + tuple(letters[1:])', 1),
    ],
    # the right Hecke action and specialization
    "hecke-act-drops-scalar": [
        (KMODULE, "add_raw(acc.get(w), d, c)", "add_raw(acc.get(w), d, h.ring.one())", 1),
    ],
    "specialize-keeps-zero-sums": [
        (KMODULE, "{w: s for w, c in v.terms.items() if (s := specialize_at_identity(c))}",
         "{w: specialize_at_identity(c) for w, c in v.terms.items()}", 1),
    ],
    "check-ignores-max-elements": [
        (CLI, "args.seed, args.max_elements)", "args.seed)", 1),
    ],
    "spherical-bound-ignores-pair-box": [
        (CHECKS, '"spherical", system, max(max_coord, pair_coord)',
         '"spherical", system, max_coord', 1),
    ],
    "suite-ball-ignores-max-elements": [
        (CHECKS, "weyl.enumerate_ball(system, n, max_elements)", "weyl.enumerate_ball(system, n)", 3),
    ],
    # raw accumulation and unvalidated relabels
    "raw-sums-not-reduced": [
        (COEFFS, "if (r := e % p)}", "if (r := e)}", 1),
        (COEFFS, "if (r := raw % p)}", "if (r := raw)}", 1),
    ],
    "cancelled-class-kept": [
        (COEFFS, "if (t := _reduced(raw, p))}", "if (t := _reduced(raw, p)) or True}", 1),
    ],
    "accumulator-writes-into-input": [
        (COEFFS, "    if raw is None:\n        raw = {}\n",
         "    if raw is None and type(s) is FieldElement and s.residue == 1:\n"
         "        return c.terms\n    if raw is None:\n        raw = {}\n", 1),
    ],
    "relabel-shares-term-dict": [
        (KMODULE, "SchubertVector._from_canonical(h.system, h.ring, dict(h.terms))",
         "SchubertVector._from_canonical(h.system, h.ring, h.terms)", 1),
    ],
    # sparse values: parameters in two direct slots
    "sparse-eq-skips-second-param": [
        (COEFFS, "and (self._first, self._second) == (other._first, other._second)",
         "and self._first == other._first", 1),
    ],
    # the ring descriptors, keyed by their fields in one base, and the check report's JSON
    "prime-field-skips-primality-check": [
        (COEFFS, "super().__init__(_check_prime(p))", "super().__init__(p)", 1),
    ],
    "torus-ring-eq-ignores-nvars": [
        (COEFFS, "return self._values == other._values",
         "return self._values[:1] == other._values[:1]", 1),
    ],
    "check-report-drops-failures-from-json": [
        (CHECKS, '"failures": list(self.failures)', '"failures": []', 1),
    ],
    # the ball cache: a hit serves the stored element JSON
    "cache-hit-skips-element-check": [
        (CLI, "                for shell in shells:\n                    for e in shell:\n"
              "                        weyl.check_element_jsonable(system, e)\n", "", 1),
    ],
    "cache-accepts-any-shell-count": [
        (CLI, "                and len(shells) == n + 1\n", "", 1),
    ],
    # Coxeter orders off the affine Cartan matrix, spherical keys off the key
    "coxeter-orders-4-and-6-swapped": [
        (WEYL, "_COXETER_ORDERS = (2, 3, 4, 6)", "_COXETER_ORDERS = (2, 3, 6, 4)", 1),
    ],
    "spherical-key-skips-dominance": [
        (KMODULE, "w.finite is weyl.longest_finite_element(system).finite\n"
                  "            and system.is_dominant([-c for c in w.translation]))",
         "w.finite is weyl.longest_finite_element(system).finite)", 1),
    ],
    "spherical-key-drops-the-sign": [
        (KMODULE, "system.is_dominant([-c for c in w.translation])",
         "system.is_dominant(w.translation)", 1),
    ],
    # interned finite parts, keyed by root indices: B3's and C3's keys coincide
    "one-part-table-for-all-systems": [
        (WEYL, "_FINITE_PARTS.setdefault(system, {})", "_FINITE_PARTS.setdefault(system.rank, {})", 1),
        (WEYL, "table = _FINITE_PARTS[system]\n", "table = _FINITE_PARTS[system.rank]\n", 1),
    ],
    "product-drops-a-letter": [
        (WEYL, "for j in _part_word(system, v):", "for j in _part_word(system, v)[1:]:", 1),
    ],
    "inverse-bypasses-the-table": [
        (WEYL, "return AffineWeylElement(system, trans, inv)",
         "return AffineWeylElement(system, trans, FinitePart(inv.key))", 1),
    ],
    "inverse-drops-a-letter": [
        (WEYL, "reversed(_part_word(system, self.finite))",
         "reversed(_part_word(system, self.finite)[1:])", 1),
    ],
    # the per-type table's Dynkin bonds, and the greedy walk to w0 and to coset minima
    "f4-bond-short-and-long-swapped": [
        (ROOTDATA, "(1, 2, -1, -2)", "(1, 2, -2, -1)", 1),
    ],
    "b-end-bond-flipped": [
        (ROOTDATA, "(l - 2, l - 1, -1, -2)", "(l - 2, l - 1, -2, -1)", 1),
    ],
    "greedy-walk-runs-the-wrong-way": [
        (WEYL, "if is_right_descent(x, i) == descend:", "if is_right_descent(x, i) != descend:", 1),
    ],
    # the root table: dual rows, coroots, negated rows and the reflection memo
    "identity-records-untransposed": [
        (ROOTDATA, "zip(units, units, self.cartan)", "zip(units, units, zip(*self.cartan))", 1),
        (ROOTDATA, "zip(dual, self.cartan[i])", "zip(dual, [row[i] for row in self.cartan])", 1),
    ],
    "affine-cartan-row-0-sign-flip": [
        (ROOTDATA, "sum(map(mul, self.coroot[j], self.dual[i]))",
         "sum(map(mul, self.coroot[j] if j else self.highest_coroot, self.dual[i]))", 1),
    ],
    "i0-shift-dropped": [
        (WEYL, "    if i == 0:\n        lam = tuple(map(sub, lam, system.coroot[u.key[0]]))\n",
         "", 1),
    ],
    "shift-update-dropped": [
        (ROOTDATA, "coroot[:i] + (coroot[i] - d,) + coroot[i + 1:]", "coroot", 1),
    ],
    "rank-one-column-sign-for-j0": [
        (ROOTDATA, "table = [negated[t], *found,",
         "table = [(negated[t][0], found[t][1], negated[t][2]), *found,", 1),
    ],
    "negative-root-dual-rows-unnegated": [
        (ROOTDATA, "negated = [tuple(tuple(map(neg, row)) for row in record) for record in found]",
         "negated = [(*(tuple(map(neg, row)) for row in record[:2]), record[2]) for record in found]",
         1),
    ],
    "reflection-memo-sign-flip": [
        (ROOTDATA, "tuple(x - a * y for x, y in zip(system.roots[g], system.roots[b]))",
         "tuple(x + a * y for x, y in zip(system.roots[g], system.roots[b]))", 1),
    ],
    # ball enumeration and element identity
    "ball-keeps-largest-descent-parent": [
        (WEYL, "enumerate(zip(pairs, rows[i][:i + 1]))",
         "reversed(list(enumerate(zip(pairs, rows[i])))[i:])", 1),
    ],
    "ball-seeds-length-one-short": [
        (WEYL, "x._word + (i,), depth\n", "x._word + (i,), depth - 1\n", 1),
    ],
    "ball-seeds-word-reversed": [
        (WEYL, "y._word, y._length = x._word + (i,)", "y._word, y._length = (i,) + x._word", 1),
    ],
    # the one ball per root system: keyed by the system, a prefix per call, the
    # bound on every shell a call reaches, kept or new
    "ball-table-keyed-by-rank": [
        (WEYL, "_BALLS.setdefault(system, [", "_BALLS.setdefault(system.rank, [", 1),
    ],
    "ball-prefix-one-short": [
        (WEYL, "tuple(shells[:max(max_len, 0) + 1])", "tuple(shells[:max(max_len, 0)])", 1),
    ],
    "ball-bound-skips-kept-shells": [
        (WEYL, "(total := total + len(nxt))", "(total := total + grow * len(nxt))", 1),
    ],
    "element-equality-compares-matrices": [
        (WEYL, "and self.finite is other.finite", "and self.finite.key == other.finite.key", 1),
    ],
    # descents, length and reduced words
    "descent-index-unchecked": [
        (WEYL, "    if type(i) is not int or i not in x.system.letters:\n"
               "        _read_letters(x.system, (i,))\n", "", 1),
    ],
    "word-letters-unchecked": [
        (WEYL, "letters, e = _read_letters(system, letters), identity_element(system)",
         "e = identity_element(system)", 1),
    ],
    # the one check of letters, the one reader of integer vectors, the one int
    # rule of coefficients
    "letter-check-admits-bool": [
        (WEYL, "set(map(type, letters)) <= {int}", "set(map(type, letters)) <= {int, bool}", 1),
        (WEYL, "if type(i) is not int or i not in x.system.letters:",
         "if not isinstance(i, int) or i not in x.system.letters:", 1),
    ],
    "vector-reader-skips-length-test": [
        (ROOTDATA, "    if len(vec) != n:\n", "    if False:\n", 1),
    ],
    "vector-reader-admits-float": [
        (ROOTDATA, "set(map(type, vec)) <= {int}", "set(map(type, vec)) <= {int, float}", 1),
    ],
    "coefficient-rule-admits-bool": [
        (COEFFS, "        if type(c) is not int:\n            raise ValueError(f\"coefficient {c!r} is not an int\")",
         "        if not isinstance(c, int):\n            raise ValueError(f\"coefficient {c!r} is not an int\")",
         1),
    ],
    # Bruhat order and its Hasse diagram
    "bruhat-peels-word-forward": [
        (WEYL, "for i in reversed(word):", "for i in word:", 1),
    ],
    # the expression evaluator's operation table
    "xi-inv-ignores-basis": [
        (CLI, "kmodule.hecke_from_schubert(v), basis=env.basis)",
         "kmodule.hecke_from_schubert(v))", 1),
    ],
    "graph-keeps-non-covers": [
        (CLI, "for u in deletions if u in below]", "for u in deletions]", 1),
    ],
    "subword-set-skips-last-letter": [
        (CHECKS, "for q in letters:\n        products |=",
         "for q in letters[:-1]:\n        products |=", 1),
    ],
    "length-sign-on-negative-images": [
        (WEYL, "abs(level - 1) if height < 0", "abs(level + 1) if height < 0", 1),
    ],
    "length-chain-drops-the-parent-level": [
        (WEYL, "level, height = level + pl, height + ph", "height = height + ph", 1),
    ],
    "peel-largest-descent": [
        (WEYL, "for i, pair in enumerate(pairs):\n            if pair < (0, 0):",
         "for i, pair in reversed(list(enumerate(pairs))):\n            if pair < (0, 0):", 1),
    ],
    "peel-skips-height-update": [
        (WEYL, "pairs[k] = (pairs[k][0] - a * level, pairs[k][1] - a * height)",
         "pairs[k] = (pairs[k][0] - a * level, pairs[k][1])", 1),
    ],
    # a finite part's word, read off the heights of u(alpha_1), ..., u(alpha_rank)
    "part-word-scans-node-zero": [
        (WEYL, "nodes = [system.height[r] for r in u.key], [], range(1, len(u.key))",
         "nodes = [system.height[r] for r in u.key], [], range(len(u.key))", 1),
    ],
    "part-word-peels-largest-descent": [
        (WEYL, "for i in nodes:", "for i in reversed(nodes):", 1),
    ],
    # the writer: json.dumps(indent=2) text, exact ints by str, tuples as lists
    "dump-int-fast-path-admits-bool": [
        (CLI, "set(map(type, data)) == {int}", "set(map(type, data)) <= {int, bool}", 1),
    ],
    "dump-tuple-not-a-list": [
        (CLI, "isinstance(data, (list, tuple)) and data", "isinstance(data, list) and data", 1),
    ],
    # the greedy product, a path of its own beside the Demazure walk
    "demazure-product-steps-on-a-descent": [
        (HECKE, "if not weyl._descends(system, lam, u, i):",
         "if not moved or not weyl._descends(system, lam, u, i):", 1),
    ],
}


def apply(tree: Path, edits) -> None:
    """Apply the edits; a stale or uncompilable mutant is an error, not a kill."""
    for name, old, new, count in edits:
        path = tree / name
        text = path.read_text()
        if text.count(old) != count:
            raise SystemExit(f"stale mutant: {old!r} occurs {text.count(old)} times "
                             f"in {name}, expected {count}")
        path.write_text(text.replace(old, new))
    for name in {name for name, *_ in edits}:
        compile((tree / name).read_text(), name, "exec")


def run(name: str) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        apply(tree, MUTANTS[name])
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(TIER1, cwd=tree, env=env, timeout=TIMEOUT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    killed = 0
    for name in MUTANTS:
        t0 = time.monotonic()
        outcome = run(name)
        killed += outcome == "killed"
        print(f"{outcome:8s} {name} ({time.monotonic() - t0:.1f} s)", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
