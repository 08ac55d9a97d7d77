"""Exact arithmetic in prime-power fields, with polynomials and matrices.

Every field is the canonical F_{p^l}: its modulus is the first monic
irreducible of degree l when monic polynomials are enumerated by ascending
coefficient tuple (constant term least significant, digits 0..p-1).  The
canonical primitive element is likewise the first element of full
multiplicative order under the same ordering.  These conventions make every
element encoding and every derived object bit-reproducible across runs.

The module keeps one implementation of each piece of arithmetic, and the
field tower is fixed with it: the modulus search runs Rabin's test in the
ring F_p[x]/(f) that `Field` computes in (see `_is_irreducible`), and
`Embedding` tabulates its map once, so that descent is a dictionary lookup.

Elements are encoded as integers in [0, p^l): the base-p digits of the code
are the coordinates with respect to the power basis of the modulus, and
`Field` methods operate directly on these integer codes.

Matrix elimination, matrix products and the exact-distance search work a
row at a time through three `Field` kernels: `scale`, `sub_scaled` and
`dot`.  A field of order at most 1024 builds full add/mul tables the first
time a kernel or a matrix operation needs them, from discrete logarithms to
its canonical primitive element (see `Field._ensure_tables`), so that a
kernel costs one or two list lookups per entry.  Larger fields run the same
kernels on digit-by-digit arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, islice
from operator import itemgetter
from typing import Sequence

FIELD_ORDER_BUDGET = 2**32
_TABLE_MAX_ORDER = 1024


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2^32)."""
    facts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            facts[p] = facts.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            facts[f] = facts.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        facts[n] = facts.get(n, 0) + 1
    return facts


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p^a with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    facts = factorize(q)
    if len(facts) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, a),) = facts.items()
    return p, a


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------

class Field:
    """F_p[x]/(modulus) acting on integer element codes.

    make_field builds the canonical field F_{p^degree}.  Built directly with
    a monic modulus that is not irreducible, the digit-by-digit arithmetic
    (add, neg, sub, mul, pow) is still that of the quotient ring, which the
    modulus search relies on; inv, the tables and the kernels need a field.
    """

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = p**degree
        # rows for x^(degree+j) reduced mod modulus, j = 0..degree-2
        self._red: list[tuple[int, ...]] = []
        if degree > 1:
            row = [(-c) % p for c in modulus[:degree]]
            self._red.append(tuple(row))
            for _ in range(degree - 2):
                over = row[-1]
                row = [0] + row[:-1]
                if over:
                    row = [(c + over * r) % p for c, r in zip(row, self._red[0])]
                self._red.append(tuple(row))
        self._mul_table: list[int] | None = None
        self._add_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        self._conj_table: list[int] | None = None
        self._primitive: int | None = None
        self._unit_order_facts: dict[int, int] | None = None

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"

    # -- encoding -------------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        """Base-p digits of a code: coordinates in the power basis."""
        digits = []
        for _ in range(self.degree):
            code, c = divmod(code, self.p)
            digits.append(c)
        return tuple(digits)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.degree:
            raise ValueError("too many coordinates")
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + c % self.p
        return code

    # -- arithmetic on codes ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a * self.order + b]
        p = self.p
        out, mult = 0, 1
        for _ in range(self.degree):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += ((ca + cb) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        out, mult = 0, 1
        for _ in range(self.degree):
            a, c = divmod(a, p)
            out += ((-c) % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.order + b]
        p = self.p
        if a == 0 or b == 0:
            return 0
        da, db = self.decode(a), self.decode(b)
        l = self.degree
        conv = [0] * (2 * l - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        for j in range(2 * l - 2, l - 1, -1):
            over = conv[j] % p
            if over:
                red = self._red[j - l]
                for i in range(l):
                    conv[i] += over * red[i]
        return self.encode([c % p for c in conv[:l]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- conjugation (Hermitian levels) -----------------------------------

    @property
    def q_level(self) -> int:
        """q for the field of order q^2; errors on odd-degree fields."""
        if self.degree % 2:
            raise ValueError(f"{self!r} is not a quadratic extension: no conjugation")
        return self.p ** (self.degree // 2)

    def conj(self, a: int) -> int:
        """x -> x^q for the field of order q^2; errors on odd-degree fields."""
        if self._conj_table is not None:  # built only for even degree
            return self._conj_table[a]
        return self.pow(a, self.q_level)

    # -- multiplicative structure -----------------------------------------

    def _order_facts(self) -> dict[int, int]:
        if self._unit_order_facts is None:
            self._unit_order_facts = factorize(self.order - 1)
        return self._unit_order_facts

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.order - 1
        for prime in self._order_facts():
            while order % prime == 0 and self.pow(a, order // prime) == 1:
                order //= prime
        return order

    def primitive_code(self) -> int:
        """Canonically smallest code of full multiplicative order.

        a is primitive iff a^(N/t) != 1 for every prime t dividing
        N = order - 1; a candidate is dropped at the first t that gives 1.
        """
        if self._primitive is None:
            full = self.order - 1
            cofactors = [full // prime for prime in self._order_facts()]
            self._primitive = next(code for code in range(1, self.order)
                                   if all(self.pow(code, e) != 1 for e in cofactors))
        return self._primitive

    # -- row kernels: table lookups, or the per-element methods above the cap

    def scale(self, g: int, ys: Sequence[int]) -> list[int]:
        """[g*y for y in ys]."""
        if not self._has_tables():
            mul = self.mul
            return [mul(g, y) for y in ys]
        n = self.order
        row = self._mul_table[g * n:g * n + n]
        return [row[y] for y in ys]

    def sub_scaled(self, xs: Sequence[int], g: int, ys: Sequence[int]) -> list[int]:
        """[x - g*y for x, y in zip(xs, ys)]."""
        if not self._has_tables():
            add, mul, ng = self.add, self.mul, self.neg(g)
            return [add(x, mul(ng, y)) for x, y in zip(xs, ys)]
        n, add, mul = self.order, self._add_table, self._mul_table
        negmul = self._neg_table[g] * n  # offset of the mul-table row of -g
        return [add[x * n + mul[negmul + y]] for x, y in zip(xs, ys)]

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """sum(x*y for x, y in zip(xs, ys))."""
        if not self._has_tables():
            add, mul = self.add, self.mul
            acc = 0
            for x, y in zip(xs, ys):
                if x and y:
                    acc = add(acc, mul(x, y))
            return acc
        n, add, mul = self.order, self._add_table, self._mul_table
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add[acc * n + mul[x * n + y]]
        return acc

    # -- lookup-table acceleration ----------------------------------------

    def _has_tables(self) -> bool:
        """Build the tables on first use; False above the order cap."""
        if self._mul_table is None:
            self._ensure_tables()
        return self._mul_table is not None

    def _ensure_tables(self) -> None:
        """Build the add/mul/neg/inv/conj tables of a field of order <= 1024.

        Multiplication goes through discrete logarithms to the canonical
        primitive element g: order - 2 digit-by-digit products give
        exp[i] = g^i, and every other product, inverse and conjugate is
        exp[log a + log b], exp[-log a] or exp[q log a].  Addition is
        digit-wise: the row of a one-digit element d*p^i moves digit i of
        every code by d, and the row of any other element composes the row
        of its top digit with the row of the rest.  Both tables are flat,
        indexed [a*order + b].
        """
        if self._mul_table is not None or self.order > _TABLE_MAX_ORDER:
            return
        n, p = self.order, self.p
        codes = list(range(n))  # every table entry refers to one of these
        g = self.primitive_code()
        exp = [1]
        for _ in range(n - 2):
            exp.append(codes[self.mul(exp[-1], g)])
        log = [0] * n
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp  # exp2[i + j] = g^(i+j) for 0 <= i, j < n - 1
        logs = log[1:]
        mul = [0] * (n * n)
        for a in range(1, n):
            la = log[a]
            mul[a * n + 1:a * n + n] = [exp2[la + lb] for lb in logs]

        add = [0] * (n * n)
        add[:n] = codes
        shift: dict[int, itemgetter] = {}
        w = 1
        for a in range(1, n):
            if a == w * p:
                w = a
            low = a % w
            if low == 0:  # one-digit element d*w: move digit log_p(w) by d
                d = a // w
                row = [codes[b + ((b // w + d) % p - b // w % p) * w] for b in codes]
                shift[a] = itemgetter(*row)
            else:
                row = shift[a - low](add[low * n:low * n + n])
            add[a * n:a * n + n] = row

        self._add_table = add
        self._mul_table = mul
        self._neg_table = mul[(p - 1) * n:p * n]  # -a = (p-1)*a
        self._inv_table = [0, 1] + [exp[n - 1 - log[a]] for a in range(2, n)]
        if self.degree % 2 == 0:
            q = self.q_level
            self._conj_table = [0] + [exp[log[a] * q % (n - 1)] for a in range(1, n)]


def _is_irreducible(p: int, f: tuple[int, ...]) -> bool:
    """Rabin's irreducibility test for a monic f of degree d >= 2 over F_p.

    The test runs in the ring R = F_p[x]/(f).  Field(p, d, f) computes in R
    for any monic f, irreducible or not, because its digit-by-digit add, mul
    and pow only reduce by f.  f is irreducible iff x^(p^d) = x in R and,
    for each prime t | d, u = x^(p^(d/t)) - x is a unit of R.  Once
    x^(p^d) = x holds, f is squarefree and its irreducible factors have
    degrees e | d, so R is a product of fields of orders p^e, and p^e - 1
    divides p^d - 1 for each; u is then a unit iff u^(p^d - 1) = 1, which
    needs no polynomial gcd.
    """
    d = len(f) - 1
    ring = Field(p, d, f)
    x = p  # the code of the polynomial x
    frob = [x]  # x^(p^k) for k = 0..d
    for _ in range(d):
        frob.append(ring.pow(frob[-1], p))
    if frob[d] != x:
        return False
    return all(ring.pow(ring.sub(frob[d // t], x), p**d - 1) == 1 for t in factorize(d))


def _canonical_modulus(p: int, degree: int) -> tuple[int, ...]:
    """First irreducible monic of the given degree in coefficient-tuple order."""
    if degree == 1:
        return (0, 1)  # prime-field convention: modulus x
    for enc in range(p**degree):
        low, e = [], enc
        for _ in range(degree):
            e, c = divmod(e, p)
            low.append(c)
        f = (*low, 1)
        if _is_irreducible(p, f):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def make_field(p: int, degree: int = 1) -> Field:
    """The canonical F_{p^degree}; deterministic across runs."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if degree < 1:
        raise ValueError(f"extension degree must be >= 1, got {degree}")
    if p**degree > FIELD_ORDER_BUDGET:
        raise ValueError(f"field order {p}^{degree} exceeds the {FIELD_ORDER_BUDGET} budget")
    return Field(p, degree, _canonical_modulus(p, degree))


# ----------------------------------------------------------------------
# Subfield embeddings
# ----------------------------------------------------------------------

class Embedding:
    """Injective ring homomorphism F_{p^a} -> F_{p^b} (a | b).

    Maps sum(c_i x^i) to sum(c_i rho^i) for the canonically smallest root
    rho of the source modulus inside the target.  The map is tabulated once,
    with its inverse on the image: `descend` is one lookup, and raises for
    elements outside the embedded subfield.
    """

    def __init__(self, src: Field, dst: Field, root: int):
        self.src = src
        self.dst = dst
        self.root = root
        # the map is additive: a = d*p^i + low maps to the image of a - p^i plus rho^i
        image = [0]
        rho_i = 1
        w = 1  # p^i, the place value of a's top digit
        for a in range(1, src.order):
            if a == w * src.p:
                w = a
                rho_i = dst.mul(rho_i, root)
            image.append(dst.add(image[a - w], rho_i))
        self._image = image
        self._preimage = {y: a for a, y in enumerate(image)}

    def __call__(self, code: int) -> int:
        return self._image[code]

    def descend(self, code: int) -> int:
        """Preimage of a target code, or ValueError when not in the image."""
        a = self._preimage.get(code)
        if a is None:
            raise ValueError(f"element {code} of {self.dst!r} is not in the {self.src!r} subfield")
        return a


@lru_cache(maxsize=None)
def extend(base: Field, degree: int) -> tuple[Field, Embedding]:
    """The canonical F_{p^(l*degree)} together with the embedding of base."""
    if degree < 1:
        raise ValueError(f"extension degree must be >= 1, got {degree}")
    top = make_field(base.p, base.degree * degree)
    # Roots of the base modulus live in the unique subfield copy of the
    # base's order, generated by gamma^((|top|-1)/(|base|-1)).
    gamma = top.primitive_code()
    step = (top.order - 1) // (base.order - 1)
    zeta = top.pow(gamma, step)
    subfield = [0, 1]
    for _ in range(base.order - 2):
        subfield.append(top.mul(subfield[-1], zeta))
    roots = [x for x in subfield if _eval_in(top, base.modulus, x) == 0]
    if len(roots) != base.degree:
        raise AssertionError("modulus root count mismatch in subfield")  # unreachable
    return top, Embedding(base, top, min(roots))


def _eval_in(field: Field, prime_coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial with prime-subfield coefficients at a code."""
    acc = 0
    for c in reversed(list(prime_coeffs)):
        acc = field.add(field.mul(acc, x), c % field.p)
    return acc


# ----------------------------------------------------------------------
# Polynomials over a field
# ----------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial; coefficient codes, constant term first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> Poly:
        return cls(field, (1,))

    @classmethod
    def binomial(cls, field: Field, n: int, constant: int) -> Poly:
        """x^n + constant (pass a negated code for x^n - c)."""
        return cls(field, (constant,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"x^{i}" if c == 1 else f"{c}*x^{i}"))
        return "Poly(" + " + ".join(terms) + ")"

    def __add__(self, other: Poly) -> Poly:
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __mul__(self, other: Poly) -> Poly:
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        mul, add = f.mul, f.add
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly(f, out)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            c = f.mul(rem[-1], lead_inv)
            shift = len(rem) - 1 - dd
            quot[shift] = c
            rem[shift:] = f.sub_scaled(rem[shift:], c, other.coeffs)
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]


# ----------------------------------------------------------------------
# Matrices over a field
# ----------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix of element codes with exact elimination."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = [tuple(r) for r in entries]
        if rows:
            if cols is not None and cols != len(rows[0]):
                raise ValueError("column count does not match the rows")
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = tuple(rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and other.field is self.field
                and other.cols == self.cols and other.entries == self.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix(self.field, list(zip(*self.entries)), cols=self.rows)

    def conj_transpose(self) -> Matrix:
        """Entrywise x -> x^q conjugation combined with transposition."""
        f = self.field
        f._ensure_tables()
        cj = f.conj
        return Matrix(f, [[cj(self.entries[i][j]) for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: Matrix) -> Matrix:
        if other.field is not self.field:
            raise ValueError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        f = self.field
        dot = f.dot
        # Slices are taken of lists, not tuples: CPython 3.11 keeps up to 2000
        # freed 20-tuples on a free list that it never takes them back from.
        bcols = [list(col) for col in zip(*other.entries)] if other.rows else [[]] * other.cols
        out = []
        for arow in self.entries:
            s, e = _nonzero_span(arow, 0)  # entries outside [s, e) add nothing
            xs = list(islice(arow, s, e))
            out.append([dot(xs, bcol[s:e]) for bcol in bcols])
        return Matrix(f, out, cols=other.cols)

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        The forward pass scales each pivot row to lead with 1 and clears the
        rows below it; back-substitution then goes from the last pivot up and
        clears the rows above.  A row update x - g*y runs only over the
        pivot row's nonzero span past the pivot column, because x - g*0 = x,
        and by the time a pivot row clears the rows above it, that span
        covers only non-pivot columns.  So a banded matrix costs in
        proportion to its band: for the generator matrix of a code with
        defining set T, the forward pass only scales and back-substitution
        makes about |T| updates of at most |T| entries per pivot.  The
        reduced form is unique, so this equals Gauss-Jordan elimination.
        """
        f = self.field
        f._ensure_tables()
        scale, sub_scaled, inv = f.scale, f.sub_scaled, f.inv
        rows = [list(r) for r in self.entries]
        nrows = self.rows

        def clear(r: int, c: int, targets: list[int]) -> None:
            """Zero column c of the target rows with pivot row r (rows[r][c] == 1)."""
            s, e = _nonzero_span(rows[r], c + 1)
            tail = rows[r][s:e]
            for i in targets:
                row = rows[i]
                g = row[c]
                row[c] = 0
                row[s:e] = sub_scaled(row[s:e], g, tail)

        pivots: list[int] = []
        for c in range(self.cols):
            r = len(pivots)
            if r == nrows:
                break
            hits = list(compress(range(r, nrows), map(itemgetter(c), rows[r:])))
            if not hits:
                continue
            rows[r], rows[hits[0]] = rows[hits[0]], rows[r]
            lead = rows[r][c]
            if lead != 1:
                e = _nonzero_span(rows[r], c)[1]
                rows[r][c:e] = scale(inv(lead), rows[r][c:e])
            clear(r, c, hits[1:])  # the row swapped down to hits[0] is zero at c
            pivots.append(c)
        for r in range(len(pivots) - 1, 0, -1):
            c = pivots[r]
            clear(r, c, list(compress(range(r), map(itemgetter(c), rows[:r]))))
        return Matrix(f, rows, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def right_nullspace(self) -> Matrix:
        """Rows form a basis of {v : self . v^T = 0}."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        f = self.field
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for ri, pc in enumerate(pivots):
                v[pc] = f.neg(red.entries[ri][fc])
            basis.append(v)
        return Matrix(f, basis, cols=self.cols)


def _nonzero_span(row: Sequence[int], start: int) -> tuple[int, int]:
    """[s, e) from the first to just past the last nonzero of row[start:];
    (start, start) when there is none."""
    s = next(compress(count(start), islice(row, start, None)), None)
    if s is None:
        return start, start
    return s, len(row) - next(compress(count(), reversed(row)))
