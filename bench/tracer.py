"""Outside-in span tracer for the mherz layers.

The tracer replaces every public function of the layer modules (``cli``,
``verification``, ``operators``, ``norms``, ``weights``, ``grid``) by a
timing wrapper, at every place the function object is bound: the defining
module, every module that imported the name (the package ``__init__``
included), and registry dicts such as ``cli.SUITES``, whose frozen
``SuiteDef`` entries hold the suite runners.  Nothing inside the library is
edited; :meth:`Tracer.restore` puts the original objects back.

Each wrapped call records one span ``(name, start, end, parent)`` in memory.
Per-layer statistics are derived from the spans afterwards: call counts,
self time (span duration minus the time covered by its child spans), and the
work count ``cells`` (N**2 of the call's grid, summed over calls).  Two
redundancy counters hash call inputs: distinct ``(variant, input table)``
pairs per ``strong_maximal`` call and distinct grids per ``window_mask``
call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "verification", "operators", "norms", "weights", "grid")


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span


def _n_cells(args) -> int | None:
    """Cells per axis of the grid a call works on, if its first argument has one."""
    if not args:
        return None
    first = args[0]
    spec = getattr(first, "spec", first)
    n = getattr(spec, "n_cells", None)
    return n if isinstance(n, int) else None


def _variant_kind(args, kwargs) -> str:
    variant = args[1] if len(args) > 1 else kwargs.get("variant", "dyadic-sides")
    return getattr(variant, "kind", variant)


def _maximal_key(args, kwargs):
    values = args[0].values
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()
    return _variant_kind(args, kwargs), values.shape, digest


def _window_mask_key(args, kwargs):
    return args[0]  # GridSpec is frozen and hashable


# span-name suffix per function (strong_maximal is split by variant)
LABELS = {"operators.strong_maximal": _variant_kind}
# input keys whose distinct share is reported as <name>.distinct_ratio
DISTINCT_KEYS = {
    "operators.strong_maximal": _maximal_key,
    "grid.window_mask": _window_mask_key,
}


def layer_functions(package) -> dict:
    """``{original function: "layer.name"}`` for every public layer function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found[value] = f"{layer}.{attr}"
    return found


def package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None
    ]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.cells: Counter = Counter()
        self.keys: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._rebound: list[tuple[dict, object, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, qualname: str, fn):
        layer = qualname.split(".", 1)[0]
        label = LABELS.get(qualname)
        key = DISTINCT_KEYS.get(qualname)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{qualname}.{label(args, kwargs)}" if label else qualname
            if key:
                self.keys[qualname].append(key(args, kwargs))
            n = _n_cells(args)
            if n is not None:
                self.cells[name] += n * n
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Rebind every public layer function of ``package`` to a traced wrapper."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        by_id = {id(fn): (fn, self.wrap(q, fn)) for fn, q in layer_functions(package).items()}

        def swap(container: dict, key, value) -> None:
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                container[key] = hit[1]
                self._rebound.append((container, key, value))
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                changes = {}
                for f in dataclasses.fields(value):
                    hit = by_id.get(id(getattr(value, f.name)))
                    if hit is not None and hit[0] is getattr(value, f.name):
                        changes[f.name] = hit[1]
                if changes:
                    container[key] = dataclasses.replace(value, **changes)
                    self._rebound.append((container, key, value))

        for module in package_modules(package):
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        swap(value, k, v)
                else:
                    swap(namespace, attr, value)

    def restore(self) -> None:
        while self._rebound:
            container, key, original = self._rebound.pop()
            container[key] = original

    # -- statistics -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-layer metrics: ``<name>.calls``, ``.self_s``, ``.cells``,
        ``<layer>.errors`` and ``<name>.distinct_ratio``."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self_times(self.spans).items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, cells in self.cells.items():
            out[f"{name}.cells"] = cells
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        for name, keys in self.keys.items():
            out[f"{name}.distinct_ratio"] = len(set(keys)) / len(keys)
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self seconds)}``; self time excludes child spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for s, child in zip(spans, covered):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - child
    return {name: (calls[name], self_s[name]) for name in calls}
