"""Spans around the calls the benchmark makes into the library.

The library itself is not instrumented: a traced run swaps every public
function the benchmark uses for a wrapper that records a span (name, start,
end, parent span, op id). Spans stay in memory and are written out once, at
exit. An untraced run calls the library functions directly.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

# The public functions the benchmark calls, by module of src/groupoidalg.
LAYERS = {
    "groups": ("builtin_group",),
    "groupoid": ("validate_groupoid", "quotient_by_isotropy", "selection_to_groupoid"),
    "morphism": ("verify_morphism", "find_isomorphism"),
    "semidirect": ("semidirect_product", "prop1_equivalence", "J_map"),
    "algebra": (
        "groupoid_convolve",
        "twisted_convolve",
        "semidirect_convolve_pairform",
        "K_map",
        "carrier_weights",
    ),
    "representation": (
        "random_operator_from",
        "operator_norm",
        "norm_bound",
        "check_equivariance",
        "simple_extension",
        "validate_rep",
        "commutant",
        "block_diagonal_generators",
    ),
    "gauge": (
        "gauge_groupoid",
        "lorentz_subgroupoid",
        "translation_subgroupoid",
        "poincare_decomposition",
        "verify_poincare_decomposition",
        "poincare_convolve",
    ),
    "io": ("groupoid_to_dict", "dump_json", "load_json", "groupoid_from_dict"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder. A span is (name, start, end, parent, op),
    where parent is the index of the enclosing span or None. Start and end
    are CPU times of the calling thread, the clock the ops are timed with."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.thread_time()
        try:
            yield
        finally:
            end = time.thread_time()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def wrap(self, label: str, fn):
        tracer = self

        if label == "cli.main":
            # one span name per subcommand: cli.<subcommand>
            def traced(argv):
                with tracer.span(f"cli.{argv[0]}"):
                    return fn(argv)
        else:
            def traced(*args, **kwargs):
                with tracer.span(label):
                    return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library functions in LAYERS, wrapped in spans when traced."""
    ns = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"groupoidalg.{module}")
        for name in names:
            fn = getattr(mod, name)
            ns[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
    return SimpleNamespace(**ns)
