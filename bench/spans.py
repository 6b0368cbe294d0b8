"""In-memory call spans around the public functions of the package's layers.

``Tracer.install`` wraps every public module-level function of each layer
module and puts the wrapper wherever a ``vortex_align.*`` module holds a
reference to the original, found by object identity.  A name imported into
another module (``from .channel import delta``, or an alias such as
``gamma as pose_gamma``) is therefore wrapped too, and a refactor that moves
or re-imports a function stays covered without touching this file.  Calls
made through a private helper are attributed to the public caller's span.

Spans (name, start, end, parent) live in flat arrays while the run is
measured and are written out by ``write_csv`` afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "vortex_align"
LAYERS = ("geometry", "channel", "estimator", "correction", "harness")

NO_PARENT = -1


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself, keyed by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records one span per call of a wrapped function.

    ``hooks`` maps a span name such as ``"estimator.estimate"`` to a
    callable ``hook(span_index, args, kwargs, result)`` run after a call
    returns, for facts that only the arguments or the result carry.
    """

    def __init__(self, hooks=None) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.hooks = dict(hooks or {})
        self._stack = [NO_PARENT]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, index: int) -> str:
        return self.names[self.name_of[index]]

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        hook = self.hooks.get(name)
        stack, name_of, start, end, parent = (
            self._stack, self.name_of, self.start, self.end, self.parent
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every package module."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.span_name(i)},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] != NO_PARENT:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], reach), min(end[c], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append((hi - lo) - covered)
    return out
