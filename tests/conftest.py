"""Shared fixtures: the standard small-algebra corpus and the bad inputs.

The corpus is defined here once, by CLI spec, and every test module that
needs it imports it from here.  The algebras are built once at module
load, so the library's module-level caches (parity offsets and signed
shuffles) are shared across the whole run.  A ``cohomology.Complex`` keeps
its spaces and coboundary matrices only while it lives, so tests that
build their own complexes share none of them.
``BAD_FILES`` holds broken algebras and deformation directions as JSON
documents, and one direction that passes, ``psi_cocycle.json``; the
``bad_inputs`` fixture writes them into a temporary directory and runs the
test from inside it.

``dense`` is the reference reader of the sparse forms, with
``dense_vectors`` and ``dense_tensor`` built on it: the library keeps
structure constants and bases sparse only, and tests that compare against
plain dense loops read them through here.  ``sparse`` goes the other way:
it writes a dense test vector as ``{position: value}``, the one vector
form ``linalg`` takes.  ``entry`` and ``vector_at`` read one value, or one
module vector, of a cochain through ``cochains.encode``, the one
flat-index codec.

``act``, ``multiply`` and ``right_action`` evaluate the action, the
product and the Koszul right action on coefficient vectors, summed over the
sparse tables; ``cochain_apply`` evaluates a cochain on coefficient vectors
by multilinear expansion.  With ``parity_basis`` and ``harrison_basis``
(the elementary parity-preserving cochains and the rows of
``harrison_space`` as cochains), ``is_shuffle``, ``ground_field`` and
``dump_algebra``, they are the tests' own: the library has no caller for
them, so a reference built on them does not move with the code it checks.

``parity_shift`` gives the module PiA, the algebra on itself with its
parities flipped, whose cochains are the odd cochains of A.

``reference_coboundary_matrix`` is the coboundary matrix as it was built
before d_n read its codomain at ``harrison_pivots``: it builds S_{n+1} and
expands every column in it with ``sparse_coordinates``, which also checks
that the column lies in S_{n+1}.

``reference_coboundary_scatter`` and ``reference_action_law_violations``
are the coboundary and the associativity/module-law checker as they were
written before the library moved them to integer arithmetic: the same
loops, summing ``Fraction`` values.  ``reference_unit_violations`` and
``reference_supercommutativity_violations`` are the unit-law and
supercommutativity checks as they were written before every law compared
its sparse rows through ``algebras._differences``: each walked the union
of two rows' positions itself.  ``rebased`` gives an algebra in a
rational change of basis, so that its structure constants are not
integers.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from superharrison.algebras import (
    SuperAlgebra,
    SuperModule,
    Violation,
    _table_from_cells,
    self_module,
    truncated_polynomial,
)
from superharrison.cli import resolve_algebra
from superharrison.cochains import Cochain, coboundary_scatter, encode, harrison_space, parity_offsets
from superharrison.cohomology import Complex
from superharrison.linalg import RationalMatrix
from superharrison.serialize import algebra_to_dict
from superharrison.shuffles import Permutation

CORPUS_SPECS: dict[str, str] = {
    "exterior1": "builtin:exterior:1",
    "exterior2": "builtin:exterior:2",
    "truncpoly2": "builtin:truncpoly:2",
    "truncpoly3": "builtin:truncpoly:3",
    "mixed": "builtin:tensor:truncpoly:2:exterior:1",
}

CORPUS: dict[str, SuperAlgebra] = {name: resolve_algebra(spec) for name, spec in CORPUS_SPECS.items()}

EVEN_CORPUS = ("truncpoly2", "truncpoly3")


def dense(row, width: int) -> tuple:
    """A sparse row, as (k, c) pairs or a {k: c} dict, as a tuple of ``width`` entries."""
    return tuple(dict(row).get(k, 0) for k in range(width))


def sparse(vector) -> dict:
    """A dense vector as {position: value}, zeros kept, so that ``linalg`` coerces every entry."""
    return dict(enumerate(vector))


def dense_vectors(basis) -> tuple:
    """The canonical rows of a ``SubspaceBasis`` as dense tuples."""
    return tuple(dense(row, basis.ambient_dim) for row in basis.rows)


def dense_tensor(table, width: int) -> tuple:
    """A sparse table, such as ``products`` or ``action_sparse``, as the dense tensor t[i][j][k]."""
    return tuple(tuple(dense(row, width) for row in plane) for plane in table)


def entry(f: Cochain, t: tuple, l: int):
    """The value of cochain f at entry (t, l)."""
    return f.data.get(encode(t, l, f.algebra.dim, f.module.dim), 0)


def vector_at(f: Cochain, t: tuple) -> tuple:
    """The module vector f(e_{t_1}, ..., e_{t_n})."""
    return tuple(entry(f, t, l) for l in range(f.module.dim))


def act(module: SuperModule, a, m) -> tuple:
    """Left action of an algebra vector on a module vector."""
    assert len(a) == module.algebra.dim and len(m) == module.dim, "vector length mismatch"
    out = [0] * module.dim
    for i, ai in enumerate(a):
        for k, mk in enumerate(m):
            for l, c in module.action_sparse[i][k] if ai and mk else ():
                out[l] += ai * mk * c
    return tuple(out)


def multiply(algebra: SuperAlgebra, x, y) -> tuple:
    """Product of two coefficient vectors: x acting on y in the self-module."""
    return act(self_module(algebra), x, y)


def right_action(module: SuperModule, m, a) -> tuple:
    """Koszul-induced right action, m*a = (-1)^{|a||m|} a*m per homogeneous component."""
    assert len(a) == module.algebra.dim and len(m) == module.dim, "vector length mismatch"
    a_par, m_par = module.algebra.parity, module.parity
    out = [0] * module.dim
    for i, ai in enumerate(a):
        for k, mk in enumerate(m):
            sign = -1 if a_par[i] and m_par[k] else 1
            for l, c in module.action_sparse[i][k] if ai and mk else ():
                out[l] += sign * ai * mk * c
    return tuple(out)


def cochain_apply(f: Cochain, args) -> tuple:
    """f on coefficient vectors, by multilinear expansion over its nonzero entries."""
    assert len(args) == f.degree and all(len(a) == f.algebra.dim for a in args), "argument shape mismatch"
    out = [0] * f.module.dim
    for t, l, v in f.iter_nonzero():
        for a, i in zip(args, t):
            v *= a[i]
        out[l] += v
    return tuple(out)


def parity_basis(module: SuperModule, degree: int) -> list:
    """Elementary parity-preserving cochains, one per parity-consistent entry."""
    return [Cochain(degree, module, {off: 1}) for off in parity_offsets(module, degree)]


def harrison_basis(module: SuperModule, degree: int) -> list:
    """The graded Harrison subspace as explicit cochains."""
    return [Cochain(degree, module, row) for row in harrison_space(module, degree).rows]


def parity_shift(algebra: SuperAlgebra) -> SuperModule:
    """The parity shift of the self-module: the basis of A with each parity flipped.

    Of the two actions that make it a supermodule, a*pi(m) = pi(am) and
    (-1)^|a| pi(am), this is the first: it shares the algebra's products.
    """
    names = tuple(f"pi({name})" for name in algebra.basis_names)
    return SuperModule(algebra, algebra.dim, [1 - p for p in algebra.parity], algebra.products, names)


def is_shuffle(perm: Permutation, p: int) -> bool:
    """Whether both runs of ``perm``, split after position p, increase."""
    first, second = perm.images[:p], perm.images[p:]
    return list(first) == sorted(first) and list(second) == sorted(second)


def ground_field() -> SuperAlgebra:
    """The rationals as a one-dimensional algebra."""
    return truncated_polynomial(1)


def dump_algebra(algebra: SuperAlgebra, path) -> None:
    """Write ``algebra`` to ``path`` in the JSON format that ``load_algebra`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_coboundary_matrix(cx: Complex, degree: int) -> RationalMatrix:
    """d_n: S_n -> S_{n+1}, each scattered column expanded in the built basis of S_{n+1}."""
    module = cx.module
    domain, codomain = cx.space(degree), cx.space(degree + 1)
    rows = [{i: 1} for i in range(module.algebra.dim**degree * module.dim)] if domain is None else domain.rows
    columns = []
    for index, row in enumerate(rows):
        image = coboundary_scatter(module, degree, row)
        column = image if codomain is None else codomain.sparse_coordinates(image)
        assert column is not None, f"the coboundary of basis row {index} in degree {degree} left S_{degree + 1}"
        columns.append(column)
    height = module.algebra.dim ** (degree + 1) * module.dim if codomain is None else codomain.dim
    return RationalMatrix.from_columns(columns, rows=height)


def reference_coboundary_scatter(algebra, module, degree, entries) -> dict:
    """``cochains.coboundary_scatter`` in plain rational arithmetic; values are not normalised."""
    dim_a, dim_m = algebra.dim, module.dim
    action = module.action_sparse
    pairs = [[] for _ in range(dim_a)]
    for i, plane in enumerate(algebra.products):
        for j, row in enumerate(plane):
            for k, c in row:
                pairs[k].append((i, j, c))
    a_par = algebra.parity
    m_par = module.parity
    last_sign = -1 if degree % 2 == 0 else 1
    tuples = dim_a**degree
    weights = [dim_a ** (degree - 1 - s) for s in range(degree)]
    out = {}

    for flat, v in entries.items():
        idx, l = divmod(flat, dim_m)
        for j in range(dim_a):
            last_coeff = -last_sign * v if a_par[j] and m_par[l] else last_sign * v
            first = (j * tuples + idx) * dim_m
            last = (idx * dim_a + j) * dim_m
            for l2, c in action[j][l]:
                out[first + l2] = out.get(first + l2, 0) + c * v
                out[last + l2] = out.get(last + l2, 0) + c * last_coeff
        for s, w in enumerate(weights):
            coeff = v if s % 2 else -v
            high, rest = divmod(idx, w * dim_a)
            k, low = divmod(rest, w)
            base = high * dim_a * dim_a
            for a, b, c in pairs[k]:
                off = ((base + a * dim_a + b) * w + low) * dim_m + l
                out[off] = out.get(off, 0) + c * coeff

    return {off: x for off, x in out.items() if x}


def reference_action_law_violations(products, table, x: str, kind: str) -> list:
    """``algebras._action_law_violations`` in plain rational arithmetic, on the unscaled tables."""
    rows = []
    producing = [[] for _ in range(len(table[0]))]
    for j, plane in enumerate(table):
        rows.append([(k, row) for k, row in enumerate(plane) if row])
        for k, row in enumerate(plane):
            for mid, coeff in row:
                producing[mid].append((j, k, coeff))
    out = []
    for i, plane in enumerate(products):
        lhs = {}
        for j, prod in enumerate(plane):
            for mid, coeff in prod:
                for k, row in rows[mid]:
                    acc = lhs.setdefault((j, k), {})
                    for l, c2 in row:
                        acc[l] = acc.get(l, 0) + coeff * c2
        rhs = {}
        for mid, row in rows[i]:
            for j, k, coeff in producing[mid]:
                acc = rhs.setdefault((j, k), {})
                for l, c2 in row:
                    acc[l] = acc.get(l, 0) + coeff * c2
        for j, k in sorted(lhs.keys() | rhs.keys()):
            left = lhs.get((j, k), {})
            right = rhs.get((j, k), {})
            if left == right:
                continue
            for l in sorted(left.keys() | right.keys()):
                if left.get(l, 0) != right.get(l, 0):
                    out.append(
                        Violation(
                            kind,
                            (i, j, k),
                            f"(e{i}e{j}){x}{k} and e{i}(e{j}{x}{k}) differ at {x}{l}: "
                            f"{left.get(l, 0)} vs {right.get(l, 0)}",
                        )
                    )
                    break
    return out


def reference_supercommutativity_violations(algebra: SuperAlgebra) -> list:
    """The supercommutativity violations of ``validate_superalgebra``, by its own row walk."""
    parity, table = algebra.parity, algebra.products
    out = []
    for i, plane in enumerate(table):
        for j, forward in enumerate(plane):
            if parity[i] and parity[j]:
                forward = tuple((k, -c) for k, c in forward)
            backward = table[j][i]
            if backward == forward:
                continue
            ji, ij = dict(backward), dict(forward)
            for k in sorted(ji.keys() | ij.keys()):
                got, want = ji.get(k, 0), ij.get(k, 0)
                if got != want:
                    text = f"coefficient of e{k}: e{j}*e{i} = {got}, expected {want}"
                    out.append(Violation("supercommutativity", (i, j, k), text))
    return out


def reference_unit_violations(x) -> list:
    """The unit-law violations of an algebra, as ``validate_superalgebra`` reports them, or of a module."""
    out = []
    if isinstance(x, SuperModule):
        table, u = x.action_sparse, x.algebra.unit_index
        for k in range(x.dim) if u is not None else ():
            if table[u][k] == ((k, 1),):
                continue
            image = dict(table[u][k])
            for l in sorted(image.keys() | {k}):
                want = 1 if l == k else 0
                if image.get(l, 0) != want:
                    out.append(Violation("unit", (u, k, l), f"e_unit*m{k} is not m{k}"))
        return out
    products, u = x.products, x.unit_index
    if u is None:
        return out
    if x.parity[u] != 0:
        out.append(Violation("unit", (u,), "unit element must be even"))
    for i in range(x.dim):
        if products[u][i] == products[i][u] == ((i, 1),):
            continue
        left, right = dict(products[u][i]), dict(products[i][u])
        for k in sorted(left.keys() | right.keys() | {i}):
            want = 1 if k == i else 0
            if left.get(k, 0) != want:
                out.append(Violation("unit", (u, i, k), f"e_unit*e{i} is not e{i}"))
            if right.get(k, 0) != want:
                out.append(Violation("unit", (i, u, k), f"e{i}*e_unit is not e{i}"))
    return out


def rebased(algebra: SuperAlgebra, p) -> SuperAlgebra:
    """``algebra`` in the basis f_i = sum_j p[i][j] e_j, with no unit declared.

    ``p`` is upper triangular with a nonzero diagonal, and p[i][j] is zero
    unless e_i and e_j have the same parity, so each f_i is homogeneous.
    """
    dim = algebra.dim
    # q = p^-1 by back substitution: e_i = (f_i - sum_{j > i} p[i][j] e_j) / p[i][i].
    q = [[Fraction(0)] * dim for _ in range(dim)]
    for i in reversed(range(dim)):
        q[i][i] = 1 / Fraction(p[i][i])
        for j in range(i + 1, dim):
            for k in range(j, dim):
                q[i][k] -= p[i][j] * q[j][k] / p[i][i]
    cells = {}
    for i in range(dim):
        for j in range(dim):
            cell = cells.setdefault((i, j), {})
            for a in range(dim):
                for b in range(dim):
                    for k, c in algebra.products[a][b] if p[i][a] and p[j][b] else ():
                        for l in range(dim):
                            cell[l] = cell.get(l, 0) + p[i][a] * p[j][b] * c * q[k][l]
    return SuperAlgebra(dim, algebra.basis_names, algebra.parity, _table_from_cells(cells, dim, dim))


@pytest.fixture(params=sorted(CORPUS))
def corpus_algebra(request) -> SuperAlgebra:
    return CORPUS[request.param]


@pytest.fixture(params=sorted(CORPUS))
def corpus_named(request) -> tuple[str, SuperAlgebra]:
    return request.param, CORPUS[request.param]


def _products(table: dict[tuple[int, int], list[tuple[int, int]]]) -> list[dict]:
    return [
        {"i": i, "j": j, "terms": [{"k": k, "coeff": str(c)} for k, c in terms]}
        for (i, j), terms in sorted(table.items())
    ]


_UNIT_PRODUCTS = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)]}

BAD_FILES: dict[str, dict] = {
    # x*x = y lands on an odd element: parity only.
    "parity.json": {
        "dim": 3, "basis": ["1", "x", "y"], "parity": [0, 0, 1], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (0, 2): [(2, 1)], (2, 0): [(2, 1)], (1, 1): [(2, 1)]}),
    },
    # The Clifford algebra t*t = 1: supercommutativity only.
    "clifford.json": {
        "dim": 2, "basis": ["1", "t"], "parity": [0, 1], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (1, 1): [(0, 1)]}),
    },
    # truncpoly(3) with x*x = 1 + x^2: associativity and the module law.
    "nonassoc.json": {
        "dim": 3, "basis": ["1", "x", "x^2"], "parity": [0, 0, 0], "unit": 0,
        "products": _products({**_UNIT_PRODUCTS, (0, 2): [(2, 1)], (2, 0): [(2, 1)], (1, 1): [(0, 1), (2, 1)]}),
    },
    # exterior(1) with the odd generator declared the unit: unit only.
    "badunit.json": {
        "dim": 2, "basis": ["1", "t"], "parity": [0, 1], "unit": 1,
        "products": _products(_UNIT_PRODUCTS),
    },
    # Graded symmetric and parity-preserving, not a cocycle on truncpoly(3).
    "psi_assoc.json": {"degree": 2, "entries": [{"i": [1, 1], "l": 0, "coeff": "1"}]},
    # psi(e0, e1) = e1 with psi(e1, e0) = 0.
    "psi_symmetry.json": {"degree": 2, "entries": [{"i": [0, 1], "l": 1, "coeff": "1"}]},
    # psi(e0, e0) = e1: odd on the mixed algebra, whose e1 is odd.
    "psi_parity.json": {"degree": 2, "entries": [{"i": [0, 0], "l": 1, "coeff": "1"}]},
    # A Harrison 2-cocycle on both truncpoly(3) and the mixed algebra: every check passes.
    "psi_cocycle.json": {
        "degree": 2,
        "entries": [
            {"i": [1, 2], "l": 1, "coeff": "1"},
            {"i": [2, 1], "l": 1, "coeff": "1"},
            {"i": [2, 2], "l": 2, "coeff": "1"},
        ],
    },
    # On truncpoly(2) its dense data would be 2^22 * 2 entries.
    "psi_degree22.json": {"degree": 22, "entries": []},
}


@pytest.fixture
def bad_inputs(tmp_path, monkeypatch):
    for name, doc in BAD_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
