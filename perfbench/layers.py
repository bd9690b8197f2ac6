"""Per-layer metrics from the span files that ``traced_cli.py`` writes.

``<function>.calls`` counts spans, ``<function>.s`` is inclusive time
(spans nested in a span of the same function are not counted twice) and
``<function>.self_s`` is inclusive time minus the time of wrapped children.
Everything else is a counter the traced process summed itself, such as
cache hits and misses read from ``cache_info()`` deltas.  A refusal is a
span that ended in ``ResourceCeilingError`` directly under ``cli.run``.
"""

from __future__ import annotations

import json

# (name, unit, better).  Each line of the benchmark README maps these to the
# end-to-end metric and workload they should move.
PER_LAYER = [
    ("cli.run.self_s", "s", "lower"),
    ("serialize.load_algebra.s", "s", "lower"),
    ("serialize.load_cochain.s", "s", "lower"),
    ("serialize.cochain_to_dict.s", "s", "lower"),
    ("algebras.validate_superalgebra.calls", "count", "lower"),
    ("algebras.validate_superalgebra.s", "s", "lower"),
    ("algebras.validate_supermodule.s", "s", "lower"),
    ("shuffles.sigma_o_sign.hits", "count", "higher"),
    ("shuffles.sigma_o_sign.misses", "count", "lower"),
    ("shuffles.enumerate_shuffles.misses", "count", "lower"),
    ("cochains.harrison_space.calls", "count", "lower"),
    ("cochains.harrison_space.hits", "count", "higher"),
    ("cochains.harrison_space.s", "s", "lower"),
    ("cochains.harrison_space.cols", "count", "lower"),
    ("cochains.harrison_space.dim", "count", "lower"),
    ("cochains.parity_offsets.misses", "count", "lower"),
    ("cochains.parity_offsets.entries", "count", "lower"),
    ("cochains.hochschild_coboundary.calls", "count", "lower"),
    ("cochains.hochschild_coboundary.s", "s", "lower"),
    ("cochains.super_shuffle_sum.calls", "count", "lower"),
    ("cochains.super_shuffle_sum.s", "s", "lower"),
    ("cohomology.coboundary_matrix.calls", "count", "lower"),
    ("cohomology.coboundary_matrix.s", "s", "lower"),
    ("cohomology.coboundary_matrix.self_s", "s", "lower"),
    ("cohomology.coboundary_matrix.rows", "count", "lower"),
    ("cohomology.coboundary_matrix.cols", "count", "lower"),
    ("cohomology.coboundary_matrix.nnz", "count", "lower"),
    ("cohomology.cohomology.self_s", "s", "lower"),
    ("cohomology.derivation_space.s", "s", "lower"),
    ("cohomology.refusals", "count", "lower"),
    ("cohomology.refuse_s", "s", "lower"),
    ("cohomology.refuse_entries", "count", "lower"),
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("linalg.kernel_basis.s", "s", "lower"),
    ("linalg.kernel_basis.rank", "count", "lower"),
    ("linalg.image_basis.s", "s", "lower"),
    ("linalg.image_basis.rank", "count", "lower"),
    ("linalg.quotient_representatives.s", "s", "lower"),
    ("linalg.RationalMatrix.from_columns.s", "s", "lower"),
    ("linalg.cells", "count", "lower"),
    ("linalg.nnz", "count", "lower"),
    ("linalg.density", "ratio", "higher"),
    ("linalg.SubspaceBasis.coordinates.calls", "count", "lower"),
    ("linalg.SubspaceBasis.coordinates.s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.s", "s", "lower"),
    ("linalg.RationalMatrix.matmul.s", "s", "lower"),
    ("deformations.first_order_deformation_check.calls", "count", "lower"),
    ("deformations.first_order_deformation_check.s", "s", "lower"),
    ("deformations.deformation_iff_cocycle.s", "s", "lower"),
    ("deformations.extension_valid_iff_cocycle.s", "s", "lower"),
    ("deformations.extension_equivalence.s", "s", "lower"),
    ("deformations.square_zero_extension.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def totals(paths: list) -> dict:
    """Sum the spans and counters of several traced processes into flat metrics."""
    out: dict = {}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + value

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        refused = False
        for idx, (n, start, end, parent, error) in enumerate(spans):
            name = names[n]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - child[idx])
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != n:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                add(f"{name}.s", end - start)
            if error == "ResourceCeilingError" and parent >= 0 and names[spans[parent][0]] == "cli.run":
                refused = True
                add("cohomology.refusals", 1)
                add("cohomology.refuse_s", end - start)
        for key, value in doc["counts"].items():
            add(key, value)
        if refused:
            add("cohomology.refuse_entries", doc["counts"].get("cochains.parity_offsets.entries", 0))
    out["linalg.density"] = out.get("linalg.nnz", 0) / out["linalg.cells"] if out.get("linalg.cells") else 0.0
    return out
