"""Span recording for the traced run, from outside the package.

``Tracer.patch`` replaces a public function of ``localzeta`` with a timing
wrapper in every ``localzeta`` module that holds a reference to it, so
calls the package makes internally (``verify_theorem1`` calling
``series_of``, ``coset_audit`` calling ``kernels.group_closure``) nest
under their caller.  ``restore`` puts the originals back.  Spans are kept
in memory as ``[name, start, end, parent, check]`` and reduced to self
times: a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.check = None
        self.counts = defaultdict(int)
        self.values = {}
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.check])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, module, attr: str, name=None, on_result=None) -> None:
        """Wrap ``module.attr`` wherever the package refers to it.

        ``name`` is the span name, or a callable taking the call's
        arguments; ``on_result(result, args)`` records counts after the
        span has closed.
        """
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(label(*args, **kwargs) if callable(label) else label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "localzeta" or mod_name.startswith("localzeta.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_times(self, since: int = 0, scale=None) -> dict:
        """Total self time per span name over spans[since:]; ``scale(start,
        end)``, if given, weights each span's self time."""
        spans = self.spans
        covered = defaultdict(float)
        for name, start, end, parent, _ in spans[since:]:
            if parent >= since:
                covered[parent] += end - start
        totals = defaultdict(float)
        for i in range(since, len(spans)):
            name, start, end, _, _ = spans[i]
            own = end - start - covered[i]
            totals[name] += own * scale(start, end) if scale else own
        return totals

    def max_duration(self, name: str, since: int = 0, scale=None) -> float:
        return max(
            (
                (end - start) * (scale(start, end) if scale else 1.0)
                for n, start, end, _, _ in self.spans[since:]
                if n == name
            ),
            default=0.0,
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
