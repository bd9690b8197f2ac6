"""Superalgebra arithmetic written apart from superharrison.

Everything the benchmark checks the program against is computed here from
structure constants alone: the builtin algebras, seeded changes of basis,
closed forms for Harrison and Hochschild dimensions, and the tests a
degree-1 or degree-2 cochain must pass.  Nothing here imports superharrison.

An algebra is a dict of structure constants ``mult[(i, j)] = {k: c}`` with
only nonzero entries kept.  A cochain is ``{(t, l): c}`` over basis tuples
``t`` and output index ``l``, the shape of the program's JSON documents.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Entries of a change of basis.  The seed picks only signs, so the sparsity
# of the rebased structure constants and the sizes of their fractions, and
# with them the cost of each operation, barely depend on it.
_DIAGONAL = (2, -2)
_OFF_DIAGONAL = (1, -1)


class Algebra:
    """Structure constants, parities and unit index of a superalgebra."""

    def __init__(self, parity, mult, unit=0, names=None):
        self.dim = len(parity)
        self.parity = tuple(parity)
        self.mult = {key: dict(row) for key, row in mult.items() if row}
        self.unit = unit
        self.names = list(names) if names else [f"b{i}" for i in range(self.dim)]

    @property
    def even_dim(self) -> int:
        return self.parity.count(0)

    def times(self, x: dict, y: dict) -> dict:
        """Product of two vectors given as {basis index: coefficient}."""
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in self.mult.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: v for k, v in out.items() if v}

    def to_doc(self) -> dict:
        """The program's JSON algebra format."""
        products = []
        for (i, j) in sorted(self.mult):
            terms = [{"k": k, "coeff": format_rational(c)} for k, c in sorted(self.mult[(i, j)].items())]
            products.append({"i": i, "j": j, "terms": terms})
        return {
            "dim": self.dim,
            "basis": self.names,
            "parity": list(self.parity),
            "products": products,
            "unit": self.unit,
        }


def format_rational(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def truncpoly(m: int) -> Algebra:
    """Q[x]/(x^m), basis 1, x, ..., x^(m-1), all even."""
    mult = {(i, j): {i + j: 1} for i in range(m) for j in range(m) if i + j < m}
    return Algebra([0] * m, mult)


def exterior(k: int) -> Algebra:
    """Grassmann algebra on k odd generators; basis index = bitmask of generators."""
    dim = 1 << k
    parity = [bin(mask).count("1") % 2 for mask in range(dim)]
    mult = {}
    for s in range(dim):
        for t in range(dim):
            if s & t:
                continue
            crossings = sum(1 for a in range(k) for b in range(k) if s >> a & 1 and t >> b & 1 and a > b)
            mult[(s, t)] = {s | t: -1 if crossings % 2 else 1}
    return Algebra(parity, mult)


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Graded tensor product, (x(x)y)(x'(x)y') = (-1)^{|y||x'|} xx' (x) yy'; index i*dim_b + j."""
    parity = [(pa + pb) % 2 for pa in a.parity for pb in b.parity]
    mult: dict = {}
    for (i, k), left in a.mult.items():
        for (j, l), right in b.mult.items():
            sign = -1 if b.parity[j] and a.parity[k] else 1
            cell = mult.setdefault((i * b.dim + j, k * b.dim + l), {})
            for m, ca in left.items():
                for q, cb in right.items():
                    idx = m * b.dim + q
                    cell[idx] = cell.get(idx, 0) + sign * ca * cb
    return Algebra(parity, mult, unit=a.unit * b.dim + b.unit)


def builtin(spec: str) -> Algebra:
    """The algebra a ``builtin:...`` spec names."""
    tokens = spec.split(":")[1:]

    def parse(pos):
        head = tokens[pos]
        if head == "tensor":
            left, pos = parse(pos + 1)
            right, pos = parse(pos)
            return tensor(left, right), pos
        value = int(tokens[pos + 1])
        return (truncpoly(value) if head == "truncpoly" else exterior(value)), pos + 2

    algebra, end = parse(0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens in {spec}")
    return algebra


def _inverse(matrix: list) -> list:
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class Rebased:
    """A seeded change of basis f_i = sum_j P[i][j] e_j that keeps parity and the unit.

    P fixes e_unit, doubles every other basis element, mixes it with every
    later element of the same parity, and adds the unit to the even ones,
    all up to seeded signs.  Adding the unit is what makes the structure
    constants dense: f = 2x + 1 squares to 4x^2 + 4x + 1.  Isomorphic
    algebras have the same cohomology, so the closed forms of the original
    still apply.
    """

    def __init__(self, original: Algebra, rng: random.Random):
        dim, par, u = original.dim, original.parity, original.unit
        self.original = original
        self.p = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            if i == u:
                continue
            self.p[i][i] = Fraction(rng.choice(_DIAGONAL))
            for j in range(i + 1, dim):
                if j != u and par[i] == par[j]:
                    self.p[i][j] = Fraction(rng.choice(_OFF_DIAGONAL))
            if par[i] == 0:
                self.p[i][u] = Fraction(rng.choice(_OFF_DIAGONAL))
        self.q = _inverse(self.p)
        mult = {}
        for i in range(dim):
            for j in range(dim):
                prod = original.times(self.row(i), self.row(j))
                mult[(i, j)] = self.to_new(prod)
        self.algebra = Algebra(par, mult, unit=u)

    def row(self, i: int) -> dict:
        return {j: x for j, x in enumerate(self.p[i]) if x}

    def to_new(self, vector: dict) -> dict:
        """Coordinates in the new basis of a vector given in the old one."""
        out: dict = {}
        for k, v in vector.items():
            for l, x in enumerate(self.q[k]):
                if x:
                    out[l] = out.get(l, 0) + v * x
        return {l: v for l, v in out.items() if v}


# --- closed forms -----------------------------------------------------------
#
# A family is ("truncpoly", m), ("exterior", k) or ("tensor", A, B) with A and
# B families.  None means no closed form is known for that case.


def family_of(spec: str):
    tokens = spec.split(":")[1:]

    def parse(pos):
        if tokens[pos] == "tensor":
            left, pos = parse(pos + 1)
            right, pos = parse(pos)
            return ("tensor", left, right), pos
        return (tokens[pos], int(tokens[pos + 1])), pos + 2

    return parse(0)[0]


def even_dim(family) -> int:
    if family[0] == "truncpoly":
        return family[1]
    if family[0] == "exterior":
        return max(1, 1 << (family[1] - 1))
    a, b = family[1], family[2]
    return even_dim(a) * even_dim(b) + (total_dim(a) - even_dim(a)) * (total_dim(b) - even_dim(b))


def total_dim(family) -> int:
    if family[0] == "truncpoly":
        return family[1]
    if family[0] == "exterior":
        return 1 << family[1]
    return total_dim(family[1]) * total_dim(family[2])


def is_even(family) -> bool:
    if family[0] == "tensor":
        return is_even(family[1]) and is_even(family[2])
    return family[0] == "truncpoly"


def harrison_dim(family, n: int):
    """dim Harr^n(A, A) from the closed forms."""
    if n == 0:
        return even_dim(family)
    if family[0] == "truncpoly":
        m = family[1]
        return m - 1 if n <= 2 else 0
    if family[0] == "exterior":
        k = family[1]
        return k << (k - 1) if n == 1 else 0
    a, b = family[1], family[2]
    ha, hb = harrison_dim(a, n), harrison_dim(b, n)
    if ha is None or hb is None:
        return None
    return ha * even_dim(b) + even_dim(a) * hb


def hochschild_dim(family, n: int):
    """dim HH^n(A, A) for even algebras (Kunneth for tensor products), else None."""
    if not is_even(family):
        return None
    if family[0] == "truncpoly":
        m = family[1]
        return m if n == 0 else m - 1
    a, b = family[1], family[2]
    return sum(hochschild_dim(a, p) * hochschild_dim(b, n - p) for p in range(n + 1))


def parity_consistent_entries(algebra: Algebra, degree: int) -> int:
    """Number of entries (t, l), t of length ``degree``, with parity(t) = parity(l).

    Counted from the numbers of even and odd basis elements alone.
    """
    even = algebra.even_dim
    odd = algebra.dim - even
    even_tuples = ((even + odd) ** degree + (even - odd) ** degree) // 2
    odd_tuples = (even + odd) ** degree - even_tuples
    return even_tuples * even + odd_tuples * odd


# --- cochains ---------------------------------------------------------------


def cochain_values(entries: dict) -> dict:
    """{(t, l): c} regrouped as {t: {l: c}}, zeros dropped."""
    out: dict = {}
    for (t, l), c in entries.items():
        if c:
            out.setdefault(tuple(t), {})[l] = c
    return out


def cochain_from_doc(doc: dict) -> dict:
    return {(tuple(e["i"]), e["l"]): Fraction(e["coeff"]) for e in doc["entries"]}


def cochain_to_doc(entries: dict, degree: int) -> dict:
    rows = [
        {"i": list(t), "l": l, "coeff": format_rational(c)}
        for (t, l), c in sorted(entries.items())
        if c
    ]
    return {"degree": degree, "entries": rows}


def parity_ok(algebra: Algebra, entries: dict) -> bool:
    par = algebra.parity
    return all(sum(par[i] for i in t) % 2 == par[l] for (t, l), c in entries.items() if c)


def evaluate(values: dict, args: list) -> dict:
    """A cochain, given as {t: {l: c}}, on a list of vectors, by multilinear expansion."""
    out: dict = {}
    for combo in itertools.product(*[list(x.items()) for x in args]):
        coeff = 1
        for _, v in combo:
            coeff *= v
        for l, c in values.get(tuple(i for i, _ in combo), {}).items():
            out[l] = out.get(l, 0) + coeff * c
    return {l: v for l, v in out.items() if v}


def combine(*terms) -> dict:
    """The sum of sign * vector over (sign, vector) pairs, zeros dropped."""
    out: dict = {}
    for sign, vector in terms:
        for k, v in vector.items():
            out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def deformation_verdict(algebra: Algebra, psi: dict) -> dict:
    """Decide m_t(a, b) = ab + t psi(a, b) over t^2 = 0 on basis elements.

    Returns the three laws and the first failing pair and triple, scanned in
    lexicographic order.
    """
    values = cochain_values(psi)
    dim, par, times = algebra.dim, algebra.parity, algebra.times
    comm_witness = None
    for i, j in itertools.product(range(dim), repeat=2):
        sign = -1 if par[i] and par[j] else 1
        if combine((1, values.get((j, i), {})), (-sign, values.get((i, j), {}))):
            comm_witness = (i, j)
            break
    assoc_witness = None
    for i, j, k in itertools.product(range(dim), repeat=3):
        a, b, c = {i: 1}, {j: 1}, {k: 1}
        # a psi(b, c) - psi(ab, c) + psi(a, bc) - psi(a, b) c
        if combine(
            (1, times(a, evaluate(values, [b, c]))),
            (-1, evaluate(values, [times(a, b), c])),
            (1, evaluate(values, [a, times(b, c)])),
            (-1, times(evaluate(values, [a, b]), c)),
        ):
            assoc_witness = (i, j, k)
            break
    return {
        "parity_ok": parity_ok(algebra, psi),
        "supercommutative_mod_t2": comm_witness is None,
        "associative_mod_t2": assoc_witness is None,
        "supercommutativity_witness": comm_witness,
        "associativity_witness": assoc_witness,
    }


def is_derivation(algebra: Algebra, f: dict) -> bool:
    """Parity-preserving f with f(ab) = a f(b) + f(a) b on basis elements."""
    values = cochain_values(f)
    times = algebra.times
    if not parity_ok(algebra, f):
        return False
    for i, j in itertools.product(range(algebra.dim), repeat=2):
        a, b = {i: 1}, {j: 1}
        if combine(
            (1, evaluate(values, [times(a, b)])),
            (-1, times(a, evaluate(values, [b]))),
            (-1, times(evaluate(values, [a]), b)),
        ):
            return False
    return True


def is_even_cocycle(algebra: Algebra, f: dict, degree: int) -> bool:
    """df = 0 for the Hochschild coboundary of an algebra with no odd elements.

    (df)(a_1..a_{n+1}) = a_1 f(a_2..) + sum_i (-1)^i f(.., a_i a_{i+1}, ..)
    + (-1)^{n+1} f(a_1..a_n) a_{n+1}; with no odd elements there is no sign
    convention to choose.
    """
    if any(algebra.parity):
        raise ValueError("the ungraded coboundary applies to even algebras only")
    values = cochain_values(f)
    times = algebra.times
    for t in itertools.product(range(algebra.dim), repeat=degree + 1):
        args = [{i: 1} for i in t]
        terms = [(1, times(args[0], evaluate(values, args[1:])))]
        for i in range(1, degree + 1):
            merged = args[: i - 1] + [times(args[i - 1], args[i])] + args[i + 1 :]
            terms.append((-1 if i % 2 else 1, evaluate(values, merged)))
        terms.append((-1 if degree % 2 == 0 else 1, times(evaluate(values, args[:degree]), args[degree])))
        if combine(*terms):
            return False
    return True


def coboundary_of_1cochain(algebra: Algebra, g: dict) -> dict:
    """(dg)(a, b) = a g(b) - g(ab) + g(a) b on basis pairs, for the self-module."""
    values = cochain_values(g)
    times = algebra.times
    out = {}
    for i, j in itertools.product(range(algebra.dim), repeat=2):
        a, b = {i: 1}, {j: 1}
        dg = combine(
            (1, times(a, evaluate(values, [b]))),
            (-1, evaluate(values, [times(a, b)])),
            (1, times(evaluate(values, [a]), b)),
        )
        for l, v in dg.items():
            out[((i, j), l)] = v
    return out
