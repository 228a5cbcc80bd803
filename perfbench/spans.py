"""Spans around juna's public calls, recorded from the benchmark's own files.

``Tracer.installed`` swaps each listed function or method for a wrapper
that records a span (name, parent span, start, end) and puts the original
back on exit.  A function is patched under every name a ``juna`` module
bound it to (``juna.attacks.digest``, ``juna.params.is_probable_prime``,
...), so calls between modules are seen as well as the benchmark's own.
``ModContext.mod_mul`` is deliberately not wrapped: it runs hundreds of
times per digest, and the context's ``mulcount`` already counts it.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "bitcodec.bit_long_shadow": ("juna.bitcodec", "bit_long_shadow"),
    "compress.digest": ("juna.compress", "digest"),
    "numtheory.is_probable_prime": ("juna.numtheory", "is_probable_prime"),
    "numtheory.find_safe_prime": ("juna.numtheory", "find_safe_prime"),
    "params.parse": ("juna.params", "parse"),
    "params.validate": ("juna.params", "validate"),
    "params.initialize": ("juna.params", "initialize"),
    "coprime.verify": ("juna.coprime", "verify"),
    "coprime.generate": ("juna.coprime", "generate"),
    "cli.main": ("juna.cli", "main"),
    "attacks.birthday_search": ("juna.attacks", "birthday_search"),
}

# span name -> (module, class, attribute) of a method
METHODS = {
    "bitcodec.from_int": ("juna.bitcodec", "BitString", "from_int"),
    "numtheory.mod_pow": ("juna.numtheory", "ModContext", "mod_pow"),
    "params.context": ("juna.params", "PublicParams", "context"),
}

# Index of each field in a span record.
NAME, PARENT, START, END, TAG = range(5)


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def open(self, name: str, tag=None) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1], perf_counter(), 0.0, tag])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, kwargs), if given, is read before and
        after the call and its difference stored as the span's tag."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            before = count(args, kwargs) if count else 0
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if count:
                    rec[TAG] = count(args, kwargs) - before

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every listed call of the loaded juna modules, then restore."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "juna"]
        saved = []
        context = sys.modules["juna.params"].PublicParams.context

        def digest_muls(args, kwargs):
            ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
            return (ctx if ctx is not None else context(args[0])).mulcount

        counters = {"compress.digest": digest_muls}
        try:
            for name, (mod, attr) in FUNCTIONS.items():
                original = getattr(sys.modules[mod], attr)
                traced = self.wrap(name, original, counters.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, value))
                            setattr(m, key, traced)
            for name, (mod, cls_name, attr) in METHODS.items():
                cls = getattr(sys.modules[mod], cls_name)
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, parent, start, end, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "tag": tag}) + "\n")


class Totals:
    """Per span name: calls, total time and self time, over chosen roots.

    A span's self time is its duration minus its children's.  Spans are
    grouped by their root span, the benchmark's own "setup" or "op" span.
    """

    def __init__(self, spans, roots: set[int]):
        n = len(spans)
        root = [0] * n
        child = [0.0] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += s[END] - s[START]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.tags: dict[str, list] = {}
        self._spans, self._root, self._roots = spans, root, roots
        for i, s in enumerate(spans):
            if root[i] not in roots:
                continue
            name = s[NAME]
            dur = s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            if s[TAG] is not None:
                self.tags.setdefault(name, []).append(s[TAG])

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called name that have an ancestor called ancestor."""
        spans = self._spans
        count = 0
        for i, s in enumerate(spans):
            if s[NAME] != name or self._root[i] not in self._roots:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            count += p >= 0
        return count
