"""In-memory span recorder for the traced runs of the d8index benchmark.

`Tracer.install()` wraps the public functions of each d8index layer and
`Tracer.uninstall()` puts the originals back.  A wrapper is installed
wherever a caller looks the name up: in every d8index module namespace
that holds the original function object (so `poly`'s own imported
`howell_solve` and `bounds`'s imported `ideal_contains` are traced too),
and on the class for methods, so `self.normal_form(...)` and the `*`
operator reach the wrapper.

The hot layers open around a million spans per pass, so spans are
aggregated as they close rather than stored one by one.  Per span name
the tracer keeps the call count, the inclusive time, the self time (the
inclusive time minus the time covered by child spans) and any work
counters of that layer; per caller -> callee edge it keeps the call
count and inclusive time.  Everything stays in memory until `dump()`.

Run as a script, it traces one CLI invocation and writes the spans as
JSON; stdout is the CLI's own output, unchanged:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json -- table --j-max 4 --format json
"""

import functools
import json
import sys
import time


def _criterion(args, kwargs):
    return kwargs["criterion"] if "criterion" in kwargs else args[2]


def _suite(args, kwargs):
    return kwargs["name"] if "name" in kwargs else args[0]


def _howell_pivots(args, kwargs, result):
    return {"pivots": len(result),
            "pivots2": sum(1 for col, row in result if row[col] == 2)}


# (span name, module under d8index, attribute path, tag, counters).
# `tag(args, kwargs)` suffixes the span name with an argument value;
# `counters(args, kwargs, result)` returns work counts to add up.
TARGETS = (
    ("rings.all_exponents", "rings", "RingPresentation.all_exponents", None,
     lambda a, k, r: {"exponents": len(r)}),
    ("rings.monomials", "rings", "RingPresentation.monomials", None, None),
    ("rings.normal_form", "rings", "RingPresentation.normal_form", None, None),
    ("rings.graded_slice", "rings", "RingPresentation.graded_slice", None,
     lambda a, k, r: {"dim": len(r)}),
    ("rings.RingElement.__mul__", "rings", "RingElement.__mul__", None, None),
    ("linalg.gf2_in_span", "linalg", "gf2_in_span", None,
     lambda a, k, r: {"vectors": len(a[0])}),
    ("linalg.howell_solve", "linalg", "howell_solve", None,
     lambda a, k, r: {"columns": len(a[0])}),
    ("linalg.howell_form", "linalg", "howell_form", None, _howell_pivots),
    ("poly.graded_ideal_slice", "poly", "graded_ideal_slice", None,
     lambda a, k, r: {"span_vectors": len(r)}),
    ("poly.ideal_contains", "poly", "ideal_contains", None, None),
    ("poly.element_bitmask", "poly", "element_bitmask", None, None),
    ("poly.element_coeffs", "poly", "element_coeffs", None, None),
    ("poly.contains_by_enumeration", "poly", "contains_by_enumeration", None,
     None),
    ("homs.RingHom.__call__", "homs", "RingHom.__call__", None, None),
    ("indexes.pi_poly", "indexes", "pi_poly", None, None),
    ("indexes.index_sphere_r4j_z", "indexes", "index_sphere_r4j_z", None, None),
    ("indexes.index_product_spheres_z", "indexes", "index_product_spheres_z",
     None, None),
    ("bounds.admissible", "bounds", "admissible", _criterion, None),
    ("bounds.min_certified_d", "bounds", "min_certified_d", None, None),
    ("verify.run_suite", "verify", "run_suite", _suite, None),
    ("cli.main", "cli", "main", None, None),
)


class Tracer:
    """Wraps the d8index layers and aggregates their spans in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = {}    # name -> [calls, total_ns, self_ns, {counter: n}]
        self.edges = {}    # (parent, child) -> [calls, total_ns]
        self._stack = []   # open spans: [name, ns covered by children]
        self._patches = []  # (holder, attribute, original)

    def _wrap(self, name, func, tag, counters):
        spans, edges, stack = self.spans, self.edges, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = name if tag is None else f"{name}.{tag(args, kwargs)}"
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get(span)
                if rec is None:
                    rec = spans[span] = [0, 0, 0, {}]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                edge = edges.get((parent, span))
                if edge is None:
                    edge = edges[(parent, span)] = [0, 0]
                edge[0] += 1
                edge[1] += elapsed
            if counters is not None:
                counts = rec[3]
                for key, value in counters(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self):
        """Wrap every target found in the loaded d8index modules.

        A target missing from the program is skipped; its metrics then
        read zero.  Returns the span names installed.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "d8index" or n.startswith("d8index.")]
        installed = []
        for name, module_name, path, tag, counters in self.targets:
            owner = sys.modules.get(f"d8index.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(name, original, tag, counters)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)
            installed.append(name)
        return installed

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def dump(self):
        return {
            "spans": {name: {"calls": calls, "total_ns": total,
                             "self_ns": self_ns, "counters": counts}
                      for name, (calls, total, self_ns, counts)
                      in sorted(self.spans.items())},
            "edges": [{"parent": parent, "child": child, "calls": calls,
                       "total_ns": total}
                      for (parent, child), (calls, total)
                      in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
        }


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- <d8index arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from d8index import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
