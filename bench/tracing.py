"""Per-layer tracing for the benchmark, applied from outside the package.

A Tracer rebinds public functions of the ``wlcnoise`` modules to timing
wrappers for the length of a ``with`` block and restores them on exit.
Modules import each other's functions by name, so every module-level
reference to a wrapped function is rebound, not only its definition.

Each call is a span. Spans are kept in memory as per-layer aggregates:
call count, busy time, self time (busy time minus the part covered by
traced callees), and every duration and start time, from which the
harness derives percentiles and per-cell intervals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Layer:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)


class Tracer:
    """Wraps functions of loaded ``wlcnoise`` modules until closed."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._open: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Restore every rebound name, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def patch(self, original: object, replacement: object) -> None:
        """Rebind every package-level reference to ``original``."""
        targets = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "wlcnoise" or mod_name.startswith("wlcnoise."):
                targets.extend((module, attr) for attr, value in vars(module).items()
                               if value is original)
        if not targets:
            raise LookupError(f"{original!r} is not bound in any wlcnoise module")
        for module, attr in targets:
            self._undo.append((module, attr, original))
            setattr(module, attr, replacement)

    def wrap(self, module_name: str, func_name: str, before=None, after=None,
             on_error=None) -> None:
        """Trace ``wlcnoise.<module_name>.<func_name>`` as layer
        ``<module_name>.<func_name>``.

        ``before(args, kwargs)`` runs ahead of each call,
        ``after(args, kwargs, result)`` after a normal return and
        ``on_error(exc)`` before an exception propagates.
        """
        original = getattr(sys.modules[f"wlcnoise.{module_name}"], func_name)
        layer = self.layer(f"{module_name}.{func_name}")
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                layer.calls += 1
                layer.busy_s += duration
                layer.self_s += duration - children[0]
                layer.durations.append(duration)
                layer.starts.append(start)
            if after is not None:
                after(args, kwargs, result)
            return result

        self.patch(original, traced)
