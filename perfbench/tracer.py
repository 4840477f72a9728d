"""Outside-in tracer for the zerohecke layers.

The tracer patches public functions and methods of the zerohecke modules,
and the CLI's ball-cache loader, with wrappers that aggregate a call count
and self time per layer, instead of storing one span per call: the hot
primitives (element hashing, the Demazure basis rule) run millions of
times per workload.  Self time is a wrapper's duration minus the time its
traced callees took.

A module-level function is rebound under every name that refers to it in
any loaded zerohecke module (``is_prime`` and ``build_root_system`` in
``cli``, the re-exports in the package), so calls cannot slip past the
wrapper.  Every patched attribute is restored by
:meth:`Tracer.uninstall`.

Nothing here imports zerohecke; the caller passes the loaded package in.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, stat): functions traced by count and self time.
FUNCTIONS = (
    ("rootdata", "build_root_system", "rootdata.build_root_system"),
    ("weyl", "length", "weyl.length"),
    ("weyl", "is_right_descent", "weyl.is_right_descent"),
    ("weyl", "reduced_word", "weyl.reduced_word"),
    ("weyl", "enumerate_ball", "weyl.enumerate_ball"),
    ("kmodule", "demazure_basis_target", "kmodule.demazure_basis_target"),
    ("kmodule", "demazure_apply", "kmodule.demazure_apply"),
    ("kmodule", "hecke_act", "kmodule.hecke_act"),
    ("kmodule", "specialize", "kmodule.specialize"),
    ("kmodule", "spherical_act", "kmodule.spherical_act"),
    ("hecke", "multiply_hecke", "hecke.multiply_hecke"),
    ("hecke", "demazure_product", "hecke.demazure_product"),
    ("coeffs", "is_prime", "coeffs.is_prime"),
    ("checks", "check_compose", "checks.compose"),
    ("checks", "check_words", "checks.words"),
    ("checks", "check_braid", "checks.braid"),
    ("checks", "check_xi", "checks.xi"),
    ("checks", "check_specialize", "checks.specialize"),
    ("checks", "check_theta", "checks.theta"),
    ("checks", "check_spherical", "checks.spherical"),
    ("cli", "main", "cli.main"),
    ("cli", "_load_or_build_ball", "cli.ball_cache"),
)

# (module, class, method, stat): methods traced by count and self time.
METHODS = (
    ("rootdata", "RootSystem", "pairing", "rootdata.pairing"),
    ("rootdata", "RootSystem", "__hash__", "weyl.hash_eq"),
    ("rootdata", "RootSystem", "__eq__", "weyl.hash_eq"),
    ("weyl", "AffineWeylElement", "__mul__", "weyl.mul"),
    ("weyl", "AffineWeylElement", "__hash__", "weyl.hash_eq"),
    ("weyl", "AffineWeylElement", "__eq__", "weyl.hash_eq"),
    ("weyl", "FinitePart", "__hash__", "weyl.hash_eq"),
    ("weyl", "FinitePart", "__eq__", "weyl.hash_eq"),
    ("coeffs", "GroupRingElement", "__mul__", "coeffs.group_ring_mul"),
    ("coeffs", "GroupRingElement", "__add__", "coeffs.group_ring_add"),
)

# Traced without hooks or keyword arguments, to keep the overhead down.
HOT = ("weyl.length", "weyl.is_right_descent", "kmodule.demazure_basis_target")

# Methods traced by count only: too cheap for a clock read to be useful.
COUNTED = (
    ("coeffs", "FieldElement", "__add__", "coeffs.field_ops"),
    ("coeffs", "FieldElement", "__sub__", "coeffs.field_ops"),
    ("coeffs", "FieldElement", "__mul__", "coeffs.field_ops"),
    ("coeffs", "FieldElement", "__neg__", "coeffs.field_ops"),
)

# Self-recursive through its module global: the wrapper steps aside while
# the outermost call runs, so that tracing adds no stack frame per level of
# recursion and the depth at which the recursion fails stays where it was.
RECURSIVE = (("weyl", "bruhat_leq", "weyl.bruhat_leq"),)


def find_caches(package) -> dict:
    """Every object with ``cache_info()`` in a loaded zerohecke module.

    Scans module attributes and class attributes, so counters follow the
    caches wherever the library keeps them, and vanish when it drops them.
    """
    found = {}
    for mod_name, module in _modules(package):
        if module is package:
            continue  # re-exports only; name each cache by its own module
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                owners += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            for name, obj in owners:
                if callable(getattr(obj, "cache_info", None)):
                    found.setdefault(id(obj), (f"{mod_name}.{name}", obj))
    return dict(found.values())


def cache_counts(caches: dict) -> dict:
    return {name: obj.cache_info() for name, obj in caches.items()}


_INHERITED = object()


def _missing(what: str, stat: str):
    print(f"tracer: {what} not found; {stat} reads 0", file=sys.stderr)


def _modules(package):
    prefix = package.__name__
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == prefix or name.startswith(prefix + ".")):
            yield name[len(prefix) + 1:] or prefix, module


class Tracer:
    """Aggregating wrappers around the zerohecke layer boundaries."""

    def __init__(self, package):
        self.package = package
        self._stats: dict[str, list] = {}  # name -> [calls, self_s]
        self._extra: dict[str, dict] = {}  # name -> layer-specific counters
        self._stack = [0.0]  # time spent in traced callees, per active wrapper
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict = {}
        self._caches_before: dict = {}

    # -- stats --------------------------------------------------------------

    def stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0])

    def add(self, name: str, field: str, value):
        extra = self._extra.setdefault(name, {})
        extra[field] = extra.get(field, 0) + value

    def get(self, name: str, field: str):
        if field in ("calls", "self_s"):
            return self.stat(name)[field == "self_s"]
        return self._extra.get(name, {}).get(field, 0)

    @property
    def stats(self) -> dict:
        return {
            name: {"calls": calls, "self_s": self_s, **self._extra.get(name, {})}
            for name, (calls, self_s) in self._stats.items()
        }

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, stat, before=None, after=None):
        """Count and self time, with optional hooks around the call."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
            if after:
                after(args, result, dt, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, fn, stat):
        """:meth:`_timed` without hooks or keywords, for the hottest calls."""
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        def wrapper(*args):
            push(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                inner = pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, stat):
        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _stepping_aside(self, module, attr, fn, stat):
        timed = self._timed(fn, stat)

        def wrapper(*args, **kwargs):
            setattr(module, attr, fn)
            try:
                return timed(*args, **kwargs)
            finally:
                setattr(module, attr, wrapper)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, value):
        """Set owner.attr; uninstall restores it, or removes it when it was
        inherited rather than set on owner itself."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for _, module in _modules(self.package):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        pkg = self.package
        self._caches = find_caches(pkg)
        self._caches_before = cache_counts(self._caches)
        hooks = {
            "kmodule.demazure_apply": (None, self._after_demazure_apply),
            "hecke.multiply_hecke": (None, self._after_multiply_hecke),
            "weyl.enumerate_ball": (self._before_enumerate, self._after_enumerate),
            "cli.ball_cache": (self._before_ball_cache, self._after_ball_cache),
        }
        for mod_name, attr, name in FUNCTIONS:
            module = getattr(pkg, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                _missing(f"{mod_name}.{attr}", name)
                continue
            if name.startswith("checks."):
                hooks[name] = (None, self._suite_recorder(name))
            if name in hooks:
                wrapper = self._timed(original, self.stat(name), *hooks[name])
            elif name in HOT:
                wrapper = self._hot(original, self.stat(name))
            else:
                wrapper = self._timed(original, self.stat(name))
            self._rebind_everywhere(original, wrapper)
        for mod_name, attr, name in RECURSIVE:
            module = getattr(pkg, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                _missing(f"{mod_name}.{attr}", name)
                continue
            wrapper = self._stepping_aside(module, attr, original, self.stat(name))
            self._rebind_everywhere(original, wrapper)
        for table, make in ((METHODS, self._hot), (COUNTED, self._counted)):
            for mod_name, cls_name, attr, name in table:
                cls = getattr(getattr(pkg, mod_name), cls_name, None)
                method = getattr(cls, attr, None)
                if method is None:
                    _missing(f"{mod_name}.{cls_name}.{attr}", name)
                    continue
                self._patch(cls, attr, make(method, self.stat(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- per-layer observers ----------------------------------------------------

    def _after_demazure_apply(self, args, result, dt, token):
        self.add("kmodule.demazure_apply", "terms_in", len(args[0].terms))
        self.add("kmodule.demazure_apply", "terms_out", len(result.terms))

    def _after_multiply_hecke(self, args, result, dt, token):
        self.add("hecke.multiply_hecke", "term_pairs", len(args[0].terms) * len(args[1].terms))

    def _before_enumerate(self, args):
        cache = self._caches.get("weyl.enumerate_ball")
        return cache.cache_info().misses if cache else None

    def _after_enumerate(self, args, result, dt, misses_before):
        cache = self._caches.get("weyl.enumerate_ball")
        if cache and cache.cache_info().misses == misses_before:
            return  # served from the library's cache: nothing was enumerated
        self.add("weyl.enumerate_ball", "elements", sum(len(shell) for shell in result))
        self.add("weyl.enumerate_ball", "build_s", dt)

    def _before_ball_cache(self, args):
        return self.get("weyl.enumerate_ball", "calls"), self.get("weyl.enumerate_ball", "build_s")

    def _after_ball_cache(self, args, result, dt, token):
        calls_before, build_before = token
        try:
            size = result[1].stat().st_size  # returns (shells, cache file path)
        except (TypeError, IndexError, AttributeError, OSError):
            return _missing("the ball cache's file path", "cli.ball_cache bytes and times")
        if self.get("weyl.enumerate_ball", "calls") > calls_before:  # built, then wrote
            build_s = self.get("weyl.enumerate_ball", "build_s") - build_before
            self.add("cli.ball_cache", "write_s", dt - build_s)
            self.add("cli.ball_cache", "bytes_written", size)
        else:
            self.add("cli.ball_cache", "read_s", dt)
            self.add("cli.ball_cache", "bytes_read", size)

    def _suite_recorder(self, name):
        def after(args, report, dt, token):
            self.add(name, "instances", report.instance_count)
            self.add(name, "failures", len(report.failures))

        return after

    # -- report -------------------------------------------------------------

    def cache_report(self) -> dict:
        """Entries held by every cache, and hits and misses since install."""
        now = cache_counts(self._caches)
        out = {}
        for name, info in now.items():
            before = self._caches_before.get(name)
            out[name] = {
                "entries": info.currsize,
                "hits": info.hits - (before.hits if before else 0),
                "misses": info.misses - (before.misses if before else 0),
            }
        return out
