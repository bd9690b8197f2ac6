"""Run one superharrison CLI command with its public functions timed from outside.

Usage: python3 perfbench/traced_cli.py SPANS_OUT -- <superharrison arguments>

The program is not changed.  Every public function of every module is
wrapped, and the wrapper is bound in each module that imports the function
by name, so a call through any of those names is recorded.  Modules are
reached through ``sys.modules``: ``superharrison.cohomology`` as an
attribute is the function, because the package rebinds that name.  Hot
cached functions are read through ``cache_info()`` deltas instead of
wrappers.  Spans stay in memory and are written to SPANS_OUT as JSON when
the command returns; the exit code and stdout are the command's own.

A span is ``[name index, start, end, parent span index, exception name]``.
Time spent in the counting hooks below is taken off the clock, so it shows
in no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("cli", "serialize", "algebras", "shuffles", "cochains", "cohomology", "linalg", "deformations")
# Called per coefficient or per permutation, where a wrapper would cost more
# than the work it times; ``main`` is never reached through ``run``.
UNWRAPPED = {
    "as_rational", "parse_rational", "format_rational", "multiply", "act", "right_action",
    "permutation_sign", "odd_subpermutation", "is_shuffle", "identity", "compose", "main",
}
CACHE_ONLY = ("shuffles.sigma_o_sign", "shuffles.enumerate_shuffles")
METHODS = {
    "linalg.RationalMatrix": ("from_columns", "from_rows", "matmul"),
    "linalg.SubspaceBasis": ("coordinates",),
}
CONSTRUCTORS = {"linalg.RationalMatrix.from_columns", "linalg.RationalMatrix.from_rows", "linalg.RationalMatrix.matmul"}


class Tracer:
    """Spans and counters of one process, kept in memory until it ends."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.paused = 0.0
        self.nonzeros: dict = {}  # id(matrix) -> (matrix, nnz); cached matrices are counted once

    def nnz(self, matrix) -> int:
        if id(matrix) not in self.nonzeros:
            count = sum(len(row) - row.count(0) for row in matrix.entries)
            self.nonzeros[id(matrix)] = (matrix, count)
        return self.nonzeros[id(matrix)][1]

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self, record) -> str:
        return self.names[self.spans[record[3]][0]] if record[3] >= 0 else ""

    def wrap(self, name: str, fn, on_result=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, self.clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = self.clock()
                stack.pop()
            if on_result is not None:
                start = time.perf_counter()
                on_result(record, args, result)
                self.paused += time.perf_counter() - start
            return result

        return traced

    # Counting hooks: (span record, call arguments, result) -> None.

    def count_matrix(self, record, args, matrix) -> None:
        if self.parent_name(record) not in CONSTRUCTORS:
            self.add("linalg.cells", matrix.rows * matrix.cols)
            self.add("linalg.nnz", self.nnz(matrix))

    def count_coboundary(self, record, args, matrix) -> None:
        self.add("cohomology.coboundary_matrix.rows", matrix.rows)
        self.add("cohomology.coboundary_matrix.cols", matrix.cols)
        self.add("cohomology.coboundary_matrix.nnz", self.nnz(matrix))

    def count_kernel(self, record, args, basis) -> None:
        self.add("linalg.kernel_basis.rank", args[0].cols - basis.dim)

    def count_image(self, record, args, basis) -> None:
        self.add("linalg.image_basis.rank", basis.dim)


def install(tracer: Tracer) -> dict:
    """Wrap the package's public functions; return the cached functions to read at the end."""
    modules = {short: sys.modules[f"superharrison.{short}"] for short in MODULES}
    importers = [mod for key, mod in sys.modules.items() if key == "superharrison" or key.startswith("superharrison.")]

    def rebind(original, replacement) -> None:
        for mod in importers:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, replacement)

    hooks = {
        "cohomology.coboundary_matrix": tracer.count_coboundary,
        "linalg.kernel_basis": tracer.count_kernel,
        "linalg.image_basis": tracer.count_image,
    }
    cached = {name: getattr(modules[name.split(".")[0]], name.split(".")[1]) for name in CACHE_ONLY}
    for short, mod in modules.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            name = f"{short}.{attr}"
            if attr in UNWRAPPED or name in CACHE_ONLY:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if name == "cochains.parity_offsets":
                # A fresh cache around a counting body: hits cost what they
                # cost before, and each miss adds the offsets it builds.
                def build(*args, _body=obj.__wrapped__):
                    offsets = _body(*args)
                    tracer.add("cochains.parity_offsets.entries", len(offsets))
                    return offsets

                replacement = functools.lru_cache(maxsize=None)(build)
                cached[name] = replacement
            elif hasattr(obj, "cache_info"):
                replacement = tracer.wrap(name, obj, _miss_counter(tracer, name, obj))
                cached[name] = obj
            else:
                replacement = tracer.wrap(name, obj, hooks.get(name))
            rebind(obj, replacement)
    for owner, methods in METHODS.items():
        short, cls_name = owner.split(".")
        cls = getattr(modules[short], cls_name)
        for attr in methods:
            raw = inspect.getattr_static(cls, attr)
            name = f"{owner}.{attr}"
            hook = tracer.count_matrix if name in CONSTRUCTORS else None
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, hook)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw, hook))
    return {name: (fn, fn.cache_info()) for name, fn in cached.items()}


def _miss_counter(tracer: Tracer, name: str, fn):
    """Hook for a wrapped cached function: on a miss, add the size of the subspace built."""
    seen = [fn.cache_info().misses]

    def hook(record, args, basis) -> None:
        misses = fn.cache_info().misses
        if misses > seen[0]:
            tracer.add(f"{name}.cols", basis.ambient_dim)
            tracer.add(f"{name}.dim", basis.dim)
        seen[0] = misses

    return hook


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[2:]
    import superharrison.cli  # noqa: F401  (imports every module of the package)

    tracer = Tracer()
    caches = install(tracer)
    code = sys.modules["superharrison.cli"].run(args)
    for name, (fn, before) in caches.items():
        after = fn.cache_info()
        tracer.add(f"{name}.hits", after.hits - before.hits)
        tracer.add(f"{name}.misses", after.misses - before.misses)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "names": tracer.names, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
