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
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import checks, hecke, kmodule, weyl
from .coeffs import is_prime, torus_ring
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
    sub.add_parser("enumerate", parents=[common],
                   help="list the ball of elements of length <= N")
    p_compute = sub.add_parser("compute", parents=[common],
                               help="evaluate one expression")
    p_compute.add_argument("expression", nargs="+",
                           help="operation and arguments, e.g. len [0,1]")
    p_check = sub.add_parser("check", parents=[common], help="run a property suite")
    p_check.add_argument("suite", choices=checks.SUITES + ("all",))
    sub.add_parser("graph", parents=[common],
                   help="Bruhat Hasse diagram of the ball as DOT")
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
    return json.dumps(data, indent=2, sort_keys=False)


# -- ball cache -------------------------------------------------------------


def _cache_dir(args) -> Path:
    if args.cache:
        return Path(args.cache)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zerohecke"


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
    shells, _ = _load_or_build_ball(
        system, args.max_length, _cache_dir(args), args.max_elements
    )
    groups = [{"length": k, "count": len(shell), "elements": shell}
              for k, shell in enumerate(shells)]
    if args.output_format == "table":
        for g in groups:
            print(f"length {g['length']}: {g['count']} elements")
    else:
        print(_dump(groups))
    return EXIT_OK


# -- expression language ------------------------------------------------------


def _parse_int_list(body: str, token: str, pos: int) -> list[int]:
    body = body.strip()
    if not body:
        return []
    try:
        return [int(t) for t in body.split(",")]
    except ValueError:
        raise UsageError(
            f"parse error at token {pos} ({token!r}): expected comma-separated integers"
        )


def _parse_operand(system: RootSystem, p: int, token: str, pos: int):
    ring = torus_ring(system, p)
    try:
        if token.startswith("Y[") and token.endswith("]"):
            w = weyl.from_word(system, _parse_int_list(token[2:-1], token, pos))
            return ("hecke", hecke.basis_y(w, ring))
        if token.startswith("S[") and token.endswith("]"):
            w = weyl.from_word(system, _parse_int_list(token[2:-1], token, pos))
            return ("schubert", kmodule.basis_class(w, ring))
        if token.startswith("e{") and token.endswith("}"):
            coords = _parse_int_list(token[2:-1], token, pos)
            if len(coords) != system.rank:
                raise UsageError(
                    f"parse error at token {pos} ({token!r}): coweight needs "
                    f"{system.rank} coordinates"
                )
            return ("coweight", tuple(coords))
        if token.startswith("[") and token.endswith("]"):
            letters = _parse_int_list(token[1:-1], token, pos)
            return ("element", weyl.from_word(system, letters))
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"parse error at token {pos} ({token!r}): {exc}") from exc
    raise UsageError(
        f"parse error at token {pos} ({token!r}): expected [..], e{{..}}, Y[..] or S[..]"
    )


def _expect(kinds, operands, op):
    if len(operands) != len(kinds) or any(
        k != kind for (k, _), kind in zip(operands, kinds)
    ):
        got = ", ".join(k for k, _ in operands) or "nothing"
        raise UsageError(
            f"operation {op!r} expects operands ({', '.join(kinds)}), got {got}"
        )
    return [v for _, v in operands]


def evaluate_expression(system: RootSystem, p: int, tokens: list[str], basis: str = "Y"):
    if not tokens:
        raise UsageError("empty expression")
    op, raw_args = tokens[0], tokens[1:]
    operands = [
        _parse_operand(system, p, tok, i + 1) for i, tok in enumerate(raw_args)
    ]
    ring = torus_ring(system, p)

    if op == "mul":
        x, y = _expect(("element", "element"), operands, op)
        return weyl.element_to_jsonable(x * y)
    if op == "inv":
        (x,) = _expect(("element",), operands, op)
        return weyl.element_to_jsonable(x.inverse())
    if op == "len":
        (x,) = _expect(("element",), operands, op)
        return weyl.length(x)
    if op == "word":
        (x,) = _expect(("element",), operands, op)
        return list(weyl.reduced_word(x))
    if op == "bruhat":
        x, y = _expect(("element", "element"), operands, op)
        return weyl.bruhat_leq(x, y)
    if op == "hecke-mul":
        if len(operands) < 2 or any(k != "hecke" for k, _ in operands):
            raise UsageError("operation 'hecke-mul' expects two or more Y[..] operands")
        acc = operands[0][1]
        for _, h in operands[1:]:
            acc = hecke.multiply_hecke(acc, h)
        return hecke.to_jsonable(acc, basis=basis)
    if op == "theta":
        (lam,) = _expect(("coweight",), operands, op)
        if not system.is_dominant(lam):
            raise UsageError(
                f"precondition violated: theta needs a dominant coweight, got {list(lam)}"
            )
        from .coeffs import monoid_monomial

        return hecke.to_jsonable(
            hecke.embed_dominant(monoid_monomial(system, p, lam)), basis=basis
        )
    if op == "xi":
        (h,) = _expect(("hecke",), operands, op)
        return kmodule.schubert_to_jsonable(kmodule.schubert_from_hecke(h))
    if op == "xi-inv":
        (v,) = _expect(("schubert",), operands, op)
        return hecke.to_jsonable(kmodule.hecke_from_schubert(v), basis=basis)
    if op == "demazure":
        v, x = _expect(("schubert", "element"), operands, op)
        return kmodule.schubert_to_jsonable(kmodule.demazure_word_apply(v, x))
    if op == "pullback":
        (lam,) = _expect(("coweight",), operands, op)
        g = kmodule.grassmannian_class(system, lam, ring)
        return kmodule.schubert_to_jsonable(kmodule.grassmannian_pullback(g))
    if op == "specialize":
        (v,) = _expect(("schubert",), operands, op)
        return kmodule.schubert_to_jsonable(kmodule.specialize(v))
    raise UsageError(f"parse error at token 0 ({op!r}): unknown operation")


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
    handlers = {
        "enumerate": cmd_enumerate,
        "compute": cmd_compute,
        "check": cmd_check,
        "graph": cmd_graph,
    }
    try:
        return handlers[args.command](args)
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
