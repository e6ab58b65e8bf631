"""Per-layer timing from outside the program.

`Tracer.wrap(module, name, key)` replaces the module-level name with a timing
wrapper, so every caller that looks the name up in that module at call time
goes through it: `sampling.apply_state` is the name `_sample_value` calls,
`haar.leaf_count` the one `predict_freeness_limit` calls. No file of the
program changes. Spans stay in memory and are written out once, at the end.

Times are inclusive: `invariants.eta_of_split` contains the three
`invariants.leaf_count` calls it makes. Calls made from the `mc` worker pool
overlap, so their summed time is busy time, not wall time.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time

CALLS, SECONDS, EXTRA = range(3)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list[list] = []
        self.op = -1
        self._seen: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin_op(self, op_id: int):
        """Spans opened from now on belong to operation `op_id`."""
        self.op = op_id
        self._seen = set()

    def repeat(self, result) -> int:
        """1 when the operation in progress has returned `result` before."""
        if result in self._seen:
            return 1
        self._seen.add(result)
        return 0

    def wrap(self, module, name: str, key: str, extra=None, spans=True):
        """Time calls to `module.name` under `key`.

        extra(result) adds to the key's third counter (partitions returned,
        comparable pairs, repeated results). spans=False keeps only the
        counters, for functions called millions of times.
        """
        fn = getattr(module, name, None)
        if fn is None:
            print(f"perfbench: {module.__name__}.{name} not found; "
                  f"{key} reads 0", file=sys.stderr)
            return
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        lock, local, clock = self._lock, self._local, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = None
            if spans:
                stack = local.__dict__.setdefault("stack", [])
                with lock:
                    span = [key, threading.get_ident(), self.op,
                            stack[-1] if stack else None, clock(), None]
                    stack.append(len(self.spans))
                    self.spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if span is not None:
                    span[5] = t1
                    local.stack.pop()
            with lock:
                stat[CALLS] += 1
                stat[SECONDS] += t1 - t0
                if extra is not None:
                    stat[EXTRA] += extra(result)
            return result

        setattr(module, name, timed)

    def total(self, *keys, field=CALLS) -> float:
        return sum(self.stats[k][field] for k in keys if k in self.stats)

    def write(self, path):
        """A header naming the span fields, one JSON array per span (parent
        is the index of the enclosing span in the same thread), then the
        counters as [calls, seconds, extra]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "thread", "op", "parent",
                                            "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": self.stats}) + "\n")
