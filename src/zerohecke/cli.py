"""Command-line front end.

Subcommands: ``enumerate`` (length balls, with a JSON cache), ``compute``
(a small expression language over the algebra), ``check`` (the property
suites), and ``graph`` (the Bruhat Hasse diagram as DOT).

Exit codes: 0 success, 1 a check suite reported failures, 2 usage/config
errors (including expression parse errors, violated preconditions and
unexpected errors), 3 resource bound exceeded.

Expression grammar, one operation per invocation, whitespace separated:

    element   ::= [i,j,...]        product of generators, [] is the identity
    coweight  ::= e{a,b,...}       integer coordinates in the simple-coroot basis
    hecke     ::= Y[i,j,...]       basis element at the word's product
    schubert  ::= S[i,j,...]       basis class at the word's product

    mul x y | inv x | len x | word x | bruhat x y
    hecke-mul h h [h ...] | theta c | xi h | xi-inv s
    demazure s x | pullback c | specialize s

Operators act on the right, so ``demazure S[1] [0,1]`` applies the index-0
operator first.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from . import checks, hecke, kmodule, weyl
from .coeffs import is_prime, monoid_monomial, torus_ring
from .rootdata import RootSystem, build_root_system
from .weyl import ResourceBoundError

CACHE_ENV_VAR = "ZEROHECKE_CACHE"
CACHE_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Root-system construction grows steeply with rank; rank 32 builds in well
# under a second, and no shipped example goes past rank 8.
MAX_RANK = 32


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", default="A", dest="lie_type",
                        help="Lie type, one of A B C D E F G (default A)")
    common.add_argument("--rank", type=int, default=2, help="rank (default 2)")
    common.add_argument("--prime", type=int, default=3,
                        help="coefficient characteristic p (default 3)")
    common.add_argument("--max-length", type=int, default=4, dest="max_length",
                        help="length truncation N (default 4)")
    common.add_argument("--cache", default=None,
                        help=f"cache directory (default ${CACHE_ENV_VAR} or ~/.cache/zerohecke)")
    common.add_argument("--format", default="json", choices=("json", "table", "dot"),
                        dest="output_format", help="output format (default json)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized parts of check suites")
    common.add_argument("--basis", default="Y", choices=("Y", "Ytilde"),
                        help="basis labels for Hecke output (default Y)")
    common.add_argument("--max-elements", type=int, default=200_000,
                        dest="max_elements", help="enumeration resource bound")

    parser = argparse.ArgumentParser(
        prog="zerohecke",
        description="Affine Weyl groups, 0-parameter Hecke algebras and "
                    "Demazure operators, in exact arithmetic mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", parents=[common], help="list the ball of elements of length <= N"
                   ).set_defaults(handler=cmd_enumerate)
    p_compute = sub.add_parser("compute", parents=[common],
                               help="evaluate one expression")
    p_compute.add_argument("expression", nargs="+",
                           help="operation and arguments, e.g. len [0,1]")
    p_compute.set_defaults(handler=cmd_compute)
    p_check = sub.add_parser("check", parents=[common], help="run a property suite")
    p_check.add_argument("suite", choices=(*checks.SUITES, "all"))
    p_check.set_defaults(handler=cmd_check)
    sub.add_parser("graph", parents=[common],
                   help="Bruhat Hasse diagram of the ball as DOT").set_defaults(handler=cmd_graph)
    return parser


def _config_system(args) -> RootSystem:
    if not is_prime(args.prime):
        raise UsageError(f"--prime {args.prime} is not prime")
    if args.rank > MAX_RANK:
        raise UsageError(f"--rank must be <= {MAX_RANK}, got {args.rank}")
    if args.max_length < 0:
        raise UsageError(f"--max-length must be >= 0, got {args.max_length}")
    if args.max_elements < 1:
        raise UsageError(f"--max-elements must be >= 1, got {args.max_elements}")
    if args.output_format == "dot" and args.command != "graph":
        raise UsageError("--format dot applies to the graph command only")
    return build_root_system(args.lie_type, args.rank)


def _dump(data) -> str:
    """Exactly ``json.dumps(data, indent=2)``, keys str, at one join per list, tuple or dict:
    json's own encoder runs in pure Python whenever it indents."""
    return _indented(data, "\n")


def _indented(data, newline: str) -> str:
    """data at indent 2 after newline: exact ints by str, other leaves and keys by json.dumps."""
    inner = newline + "  "
    if isinstance(data, dict) and data:
        items = (f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in data.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(data, (list, tuple)) and data:
        ints = set(map(type, data)) == {int}
        items = map(str, data) if ints else (_indented(v, inner) for v in data)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(data)


# -- ball cache -------------------------------------------------------------


def _cache_dir(args) -> Path:
    return Path(args.cache or os.environ.get(CACHE_ENV_VAR) or Path.home() / ".cache/zerohecke")


def _digest(body: dict) -> str:
    """sha256 of the canonical JSON of a cache body."""
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_or_build_ball(system: RootSystem, n: int, cache_dir: Path, max_elements: int):
    """The ball's shells as element JSON, and the cache file's path.

    A hit checks the file and returns its lists; a miss serializes each element once.
    """
    head = {"type": system.lie_type, "rank": system.rank, "maxlen": n, "version": CACHE_VERSION}
    path = cache_dir / f"ball-{system.lie_type}{system.rank}-N{n}.json"
    if path.exists():
        try:
            data = json.loads(path.read_text())
            if (
                isinstance(data, dict)
                and data.pop("hash", None) == _digest(data)
                and head.items() <= data.items()
                and isinstance(shells := data.get("elements"), list)
                and len(shells) == n + 1
                and all(isinstance(shell, list) for shell in shells)
            ):
                if (total := sum(map(len, shells))) > max_elements:
                    raise ResourceBoundError(
                        f"cached ball {path} holds {total} elements, more than {max_elements}")
                for shell in shells:
                    for e in shell:
                        weyl.check_element_jsonable(system, e)
                return shells, path
        except (OSError, ValueError, RecursionError):
            pass  # stale or corrupt (or too deeply nested) cache regenerates silently
    ball = weyl.enumerate_ball(system, n, max_elements=max_elements)
    shells = [[weyl.element_to_jsonable(x) for x in shell] for shell in ball]
    body = {**head, "elements": shells}
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({**body, "hash": _digest(body)}))
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write cache file {path}: {exc}") from exc
    return shells, path


def cmd_enumerate(args) -> int:
    system = _config_system(args)
    shells, _ = _load_or_build_ball(system, args.max_length, _cache_dir(args), args.max_elements)
    groups = [{"length": k, "count": len(shell), "elements": shell}
              for k, shell in enumerate(shells)]
    if args.output_format == "table":
        for g in groups:
            print(f"length {g['length']}: {g['count']} elements")
    else:
        print(_dump(groups))
    return EXIT_OK


# -- expression language ------------------------------------------------------


# Operand kinds by bracket; a word names a group element, which the kind's
# wrap (if any) turns into a basis element over the torus ring.
_OPERANDS = (
    ("Y[", "]", "hecke", hecke.basis_y),
    ("S[", "]", "schubert", kmodule.basis_class),
    ("e{", "}", "coweight", None),
    ("[", "]", "element", None),
)


# what an operation reads besides its operands
_Env = namedtuple("_Env", "system ring basis")


def _parse_operand(env: _Env, token: str, pos: int):
    where = f"parse error at token {pos} ({token!r})"
    for opening, closing, kind, wrap in _OPERANDS:
        if token.startswith(opening) and token.endswith(closing):
            break
    else:
        raise UsageError(f"{where}: expected [..], e{{..}}, Y[..] or S[..]")
    body = token[len(opening):-1]
    try:  # int and strip alone would also read +1, 1_0 and non-ASCII digits and spaces
        if not re.fullmatch(r"[0-9,\s-]*", body, re.ASCII):
            raise ValueError(body)
        values = [int(t) for t in body.split(",")] if body.strip() else []
    except ValueError:
        raise UsageError(f"{where}: expected comma-separated integers")
    if kind == "coweight":
        if len(values) != env.system.rank:
            raise UsageError(f"{where}: coweight needs {env.system.rank} coordinates")
        return kind, tuple(values)
    try:
        w = weyl.from_word(env.system, values)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc
    return kind, wrap(w, env.ring) if wrap else w


def _dominant(system: RootSystem, lam):
    """theta's precondition: lam is a dominant coweight."""
    if not system.is_dominant(lam):
        raise UsageError(
            f"precondition violated: theta needs a dominant coweight, got {list(lam)}")
    return lam


# name: (operand kinds, function of the environment and the operands giving the JSON
# result); hecke-mul, the one variadic operation, is evaluated on its own
_OPERATIONS = {
    "mul": (("element", "element"), lambda env, x, y: weyl.element_to_jsonable(x * y)),
    "inv": (("element",), lambda env, x: weyl.element_to_jsonable(x.inverse())),
    "len": (("element",), lambda env, x: weyl.length(x)),
    "word": (("element",), lambda env, x: list(weyl.reduced_word(x))),
    "bruhat": (("element", "element"), lambda env, x, y: weyl.bruhat_leq(x, y)),
    "theta": (("coweight",), lambda env, lam: hecke.to_jsonable(hecke.embed_dominant(
        monoid_monomial(env.system, env.ring.p, _dominant(env.system, lam))), basis=env.basis)),
    "xi": (("hecke",),
           lambda env, h: kmodule.schubert_to_jsonable(kmodule.schubert_from_hecke(h))),
    "xi-inv": (("schubert",), lambda env, v: hecke.to_jsonable(
        kmodule.hecke_from_schubert(v), basis=env.basis)),
    "demazure": (("schubert", "element"), lambda env, v, x: kmodule.schubert_to_jsonable(
        kmodule.demazure_word_apply(v, x))),
    "pullback": (("coweight",), lambda env, lam: kmodule.schubert_to_jsonable(
        kmodule.grassmannian_pullback(kmodule.grassmannian_class(env.system, lam, env.ring)))),
    "specialize": (("schubert",),
                   lambda env, v: kmodule.schubert_to_jsonable(kmodule.specialize(v))),
}


def evaluate_expression(system: RootSystem, p: int, tokens: list[str], basis: str = "Y"):
    if not tokens:
        raise UsageError("empty expression")
    op = tokens[0]
    env = _Env(system, torus_ring(system, p), basis)
    operands = [_parse_operand(env, tok, pos) for pos, tok in enumerate(tokens[1:], 1)]
    kinds = tuple(kind for kind, _ in operands)
    values = [value for _, value in operands]
    if op == "hecke-mul":
        if len(kinds) < 2 or set(kinds) != {"hecke"}:
            raise UsageError("operation 'hecke-mul' expects two or more Y[..] operands")
        return hecke.to_jsonable(functools.reduce(hecke.multiply_hecke, values), basis=basis)
    if op not in _OPERATIONS:
        raise UsageError(f"parse error at token 0 ({op!r}): unknown operation")
    expected, operation = _OPERATIONS[op]
    if kinds != expected:
        got = ", ".join(kinds) or "nothing"
        raise UsageError(f"operation {op!r} expects operands ({', '.join(expected)}), got {got}")
    return operation(env, *values)


def cmd_compute(args) -> int:
    system = _config_system(args)
    result = evaluate_expression(system, args.prime, args.expression, basis=args.basis)
    print(_dump(result))
    return EXIT_OK


# -- check suites --------------------------------------------------------------


def cmd_check(args) -> int:
    system = _config_system(args)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    reports = [
        checks.run_suite(name, system, args.prime, args.max_length, args.seed, args.max_elements)
        for name in names
    ]
    payload = [r.to_jsonable() for r in reports]
    if args.output_format == "table":
        for r in reports:
            status = "ok" if r.passed else "FAIL"
            print(f"{r.check_name}: {status} instances={r.instance_count} "
                  f"failures={len(r.failures)} elapsed={r.elapsed:.2f}s")
    else:
        print(_dump(payload if args.suite == "all" else payload[0]))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# -- Bruhat graph ----------------------------------------------------------------


def bruhat_dot(system: RootSystem, max_length: int, max_elements: int) -> str:
    """The Hasse diagram of the ball, edges sorted by (lower, upper) node.

    By the subword property (Bjorner-Brenti, GTM 231, Thm 2.2.2), the
    elements that w covers are those of length l(w) - 1 got by deleting one
    letter of a reduced word of w; every one of them lies in the shell below.
    """
    shells = weyl.enumerate_ball(system, max_length, max_elements=max_elements)
    nodes = [x for shell in shells for x in shell]
    index = {x: k for k, x in enumerate(nodes)}
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for k, x in enumerate(nodes):
        label = ".".join(f"s{i}" for i in weyl.reduced_word(x)) or "e"
        lines.append(f'  n{k} [label="{label}"];')
    edges = []
    for lower, shell in zip(shells, shells[1:]):
        below = set(lower)
        for w in shell:
            word = weyl.reduced_word(w)
            deletions = {weyl.from_word(system, word[:k] + word[k + 1:]) for k in range(len(word))}
            edges += [(index[u], index[w]) for u in deletions if u in below]
    lines += [f"  n{u} -> n{w};" for u, w in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    system = _config_system(args)
    print(bruhat_dot(system, args.max_length, args.max_elements), end="")
    return EXIT_OK


# -- entry points ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does: no error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return EXIT_OK
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # last resort: no input may end in a traceback
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
