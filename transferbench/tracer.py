"""In-process tracer for the transfer benchmark.

The tracer replaces public functions and methods of `demo2dex` with timing
wrappers, inside the benchmark process only, and puts every original back on
`uninstall`. Where a caller bound a name at import (`pipeline` importing
`retarget_sequence`, `simworld` importing `segment_piece_signed`, `retarget`
importing `minimize`), the wrapper replaces the binding that caller uses.

Every wrapped call is aggregated per (phase, name): calls, total seconds and
self seconds (total minus the wrapped calls made inside it). Stage-level calls
also keep an individual span (name, phase, start, end, parent span) in memory;
`write` puts spans and aggregates into one JSON-lines file when the benchmark
ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Stage-level names that get an individual span; everything else only aggregates.
SPAN_NAMES = frozenset(
    {
        "retarget_sequence",
        "fit_smooth_trajectory",
        "to_control_sequence",
        "replay",
        "train_residual_policy",
        "plan_wrist",
        "track_manipulation",
        "GraspEnv.__init__",
        "GraspEnv.reset",
        "resolve_hand",
        "resolve_demo",
        "dump_json",
        "load_json",
        "sha256_file",
        "sha256_of",
    }
)

# Ancestors under which calls of any wrapped name are also counted.
WATCHED = ("GraspEnv.step", "train_residual_policy", "track_manipulation")


class Tracer:
    def __init__(self):
        self.phase = "idle"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> calls, total, self
        self.direct = defaultdict(lambda: [0, 0.0])  # (phase, parent, name) -> calls, total
        self.nested = defaultdict(lambda: [0, 0.0])  # (phase, ancestor, name) -> calls, total
        self.spans: list[dict] = []
        self.marks: dict[str, float] = {}
        self.env_dims: tuple[int, int] | None = None  # (dim_obs, dim_act) of the first GraspEnv
        self.extra = defaultdict(float)  # (phase, counter name) -> value
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._open = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_exit=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, on_exit))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name: str, on_exit):
        tr = self
        stack = self._stack
        open_ = self._open
        keep_span = name in SPAN_NAMES

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = len(tr.spans)
                tr.spans.append(None)
            else:  # children's spans hang off the nearest enclosing span
                span_id = parent[2] if parent is not None else -1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                open_[name] -= 1
                tr._record(name, parent, frame, t0, t1, keep_span)
            if on_exit is not None:
                on_exit(args, kwargs, out, t1 - t0)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, parent, frame, t0, t1, keep_span) -> None:
        phase = self.phase
        dur = t1 - t0
        s = self.stats[(phase, name)]
        s[0] += 1
        s[1] += dur
        s[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
            d = self.direct[(phase, parent[0], name)]
            d[0] += 1
            d[1] += dur
        for anc in WATCHED:
            if self._open[anc]:
                n = self.nested[(phase, anc, name)]
                n[0] += 1
                n[1] += dur
        if keep_span:
            self.spans[frame[2]] = {
                "type": "span",
                "id": frame[2],
                "parent": parent[2] if parent is not None else -1,
                "name": name,
                "phase": phase,
                "start": t0,
                "end": t1,
            }

    # -- queries --------------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.stats[(phase, name)][0]

    def total(self, phase: str, name: str) -> float:
        return self.stats[(phase, name)][1]

    def per_call_us(self, phase: str, name: str) -> float:
        n = self.calls(phase, name)
        return 1e6 * self.total(phase, name) / n if n else 0.0

    def write(self, path, header: dict, append: bool = False) -> None:
        with open(path, "a" if append else "w") as fh:
            fh.write(json.dumps({"type": "header", **header}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
            for (phase, name), (calls, total, self_s) in sorted(self.stats.items()):
                fh.write(
                    json.dumps(
                        {"type": "agg", "phase": phase, "name": name, "calls": calls,
                         "total_s": total, "self_s": self_s}
                    )
                    + "\n"
                )
