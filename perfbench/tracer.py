"""Outside-in span tracer for the depthsr package.

`Tracer.install()` replaces every public function of every loaded depthsr
module, and every public method of the classes those modules define, with a
timing wrapper. The wrapper is set at each module attribute that refers to
the function, so a function imported into another module (for example
`fusion.match_order` or `cli.read_ppm8`) is traced there too. `uninstall()`
puts the originals back, so untraced ops run the unmodified program.

Spans are aggregated as they close: self time (span minus the time covered
by its child spans), call count, bytes for the functions that have a byte
hook, calls per immediate parent, and calls made while a scope function is
active. The aggregate covers one op and is reset by `take()`.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "depthsr"

# Calls counted separately while one of these spans is active anywhere
# up the stack, e.g. the match_order calls made inside one fit gradient.
SCOPES = ("trainer.SceneLoss.gradient",)


def _file_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _matrix_bytes(args, kwargs, result) -> int:
    return result.rows * result.cols * 8


# Functions whose work is also measured in bytes: dense correlation
# matrices (rows x cols x 8) and files read or written. A span nested in
# another hooked span (read_depth_pfm -> read_pfm) is not counted twice.
BYTE_HOOKS = {
    "matcher.correlation_set": _matrix_bytes,
    "fileio.read_pgm16": _file_bytes,
    "fileio.read_ppm8": _file_bytes,
    "fileio.read_pfm": _file_bytes,
    "fileio.read_depth_pfm": _file_bytes,
    "fileio.write_pgm16": _file_bytes,
    "fileio.write_ppm8": _file_bytes,
    "fileio.write_pfm": _file_bytes,
    "fileio.write_depth_pfm": _file_bytes,
}


class OpTrace:
    """Aggregate of the spans closed during one op."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        self.max_bytes: Counter = Counter()
        self.parent_calls: Counter = Counter()
        self.scoped_calls: Counter = Counter()


class Tracer:
    """Wraps the public callables of depthsr; aggregates spans per op."""

    def __init__(self):
        self.current = OpTrace()
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[int, tuple[str, object]]:
        """Public functions and methods defined in the package, by id."""
        prefix = PACKAGE + "."
        out: dict[int, tuple[str, object]] = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(prefix):
                continue
            short = modname[len(prefix):]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    out[id(obj)] = (f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out[id(fn)] = (f"{short}.{attr}.{meth}", fn)
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        prefix = PACKAGE + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(prefix)):
                continue
            owners = [module] + [
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and getattr(obj, "__module__", None) == modname
            ]
            for owner in owners:
                for attr, obj in list(vars(owner).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        self._patches.append((owner, attr, obj))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> OpTrace:
        """Return the aggregate since the last take and start a new one."""
        done, self.current = self.current, OpTrace()
        return done

    def _wrap(self, name: str, fn):
        stack = self._stack
        active = self._active
        hook = BYTE_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else ""
            frame = [0.0, name]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += span
                agg = tracer.current
                agg.self_s[name] += span - frame[0]
                agg.calls[name] += 1
                agg.parent_calls[(parent, name)] += 1
                for scope in SCOPES:
                    if active[scope]:
                        agg.scoped_calls[(scope, name)] += 1
            if hook is not None and parent not in BYTE_HOOKS:
                size = hook(args, kwargs, result)
                agg.bytes[name] += size
                agg.max_bytes[name] = max(agg.max_bytes[name], size)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced
