"""Exact arithmetic in prime-power fields, with polynomials and matrices.

Every field is the canonical F_{p^l}: its modulus is the first monic
irreducible of degree l when monic polynomials are enumerated by ascending
coefficient tuple (constant term least significant, digits 0..p-1).  The
canonical primitive element is likewise the first element of full
multiplicative order under the same ordering.  These conventions make every
element encoding and every derived object bit-reproducible across runs.

Neither the canonical primitive element nor the root that embeds a subfield
needs an exhaustive search (Lidl and Niederreiter, Finite Fields, Thm 2.14
and 2.28).  The norm
N(a) = a^((p^l-1)/(p-1)) lies in F_p and equals the resultant of the modulus
and the digit polynomial of a (see `Field.norm`); so for each prime t | p - 1
the primitive test a^((p^l-1)/t) != 1 reads N(a)^((p-1)/t) != 1 mod p, and
only the other primes take a field power.  The roots of an irreducible
polynomial of degree D over F_p are the Frobenius orbit rho, rho^p, ...,
rho^(p^(D-1)) of any one of them; so `extend`, which embeds by the least
root of the base modulus, walks the subfield copy only up to its first root.

The module keeps one implementation of each piece of arithmetic, and the
field tower is fixed with it: the modulus search runs Rabin's test in the
ring F_p[x]/(f) that `Field` computes in (see `_is_irreducible`), and
`Embedding` tabulates its map once, so that descent is a dictionary lookup.

Elements are encoded as integers in [0, p^l): the base-p digits of the code
are the coordinates with respect to the power basis of the modulus, and
`Field` methods operate directly on these integer codes.

Matrix elimination, matrix and polynomial products, polynomial division and
the exact-distance search work a row at a time through three `Field`
kernels: `scale`, `sub_scaled` and `dot`.  A field of order at most 1024
builds full add/mul tables the first time a kernel or a matrix operation
needs them, from discrete logarithms to its canonical primitive element
(see `Field._ensure_tables`), so that a kernel costs one or two list
lookups per entry.  Larger fields run the same kernels on the per-element
methods: `add` and `neg` work digit by digit, and `mul` is one integer
product of the two operands packed with their base-p digits spaced apart
(Kronecker substitution, see `_packing`), folded back by the modulus.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter
from typing import Sequence

FACTOR_LIMIT = 2**32
_TABLE_MAX_ORDER = 1024
_PACK_TABLE_MAX = 4096


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def unfactorable_message(n: int) -> str:
    return f"cannot factor {n}: trial division takes 1 <= n < 2^32"


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, which takes only 1 <= n < 2^32."""
    if not 1 <= n < FACTOR_LIMIT:
        raise ValueError(unfactorable_message(n))
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
    a monic modulus that is not irreducible, the table-free arithmetic (add,
    neg and sub digit by digit, mul packed and reduced by the modulus, pow)
    is still that of the quotient ring, which the modulus search relies on;
    inv, the tables and the kernels need a field.
    """

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = p**degree
        # rows for x^(degree+j) reduced mod modulus, j = 0..degree-2
        red: list[list[int]] = []
        if degree > 1:
            row = [(-c) % p for c in modulus[:degree]]
            red.append(row)
            for _ in range(degree - 2):
                over = row[-1]
                row = [0] + row[:-1]
                if over:
                    row = [(c + over * r) % p for c, r in zip(row, red[0])]
                red.append(row)
        width, chunk, table = _packing(p, degree)
        lanes = [width * i for i in range(2 * degree - 1)]  # bit offset of coefficient i
        # mul's constants: the chunk table and order, the offsets of an
        # operand's higher chunks, one coefficient's mask, the low `degree`
        # coefficients' mask, (offset of x^(degree+j), its packed reduced
        # row) for each j, the low offsets from the top down, and p
        self._packed = (table, p**chunk, lanes[chunk:degree:chunk], (1 << width) - 1,
                        (1 << width * degree) - 1,
                        [(s, sum(c << t for c, t in zip(row, lanes)))
                         for s, row in zip(lanes[degree:], red)],
                        lanes[degree - 1::-1], p)
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
        if not a or not b:
            return 0
        # one integer product of the packed operands (see `_packing`)
        table, chunk_order, shifts, mask, low_mask, folds, reads, p = self._packed
        pa, pb = table[a % chunk_order], table[b % chunk_order]
        for s in shifts:
            a //= chunk_order
            b //= chunk_order
            pa |= table[a % chunk_order] << s
            pb |= table[b % chunk_order] << s
        prod = pa * pb
        low = prod & low_mask
        for s, row in folds:  # coefficient of x^(degree+j), mod p, times x^(degree+j) reduced
            low += (prod >> s & mask) % p * row
        code = 0
        for s in reads:
            code = code * p + (low >> s & mask) % p
        return code

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
            e >>= 1
            if e:  # no square after the last bit
                base = self.mul(base, base)
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

    def norm(self, a: int) -> int:
        """N(a) = a^((p^d-1)/(p-1)), an element of the prime field: a code below p.

        The roots of the monic modulus f are x, x^p, ..., x^(p^(d-1)), so for
        the digit polynomial A of a the resultant Res(f, A), the product of A
        over those roots, is a * a^p * ... * a^(p^(d-1)) = N(a).  Euclid's
        algorithm computes it on integers mod p, with no field product: for
        r = f mod g, Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r),
        Res(f, c) = c^(deg f) for a constant c and Res(f, 0) = 0.  In a ring
        whose modulus is not irreducible it is the determinant of y -> a*y.
        """
        p = self.p
        f, g = list(self.modulus), list(self.decode(a))
        while g and not g[-1]:
            g.pop()
        res = 1
        while len(g) > 1:
            r, lead_inv = f, pow(g[-1], -1, p)
            while len(r) >= len(g):
                c, shift = r[-1] * lead_inv % p, len(r) - len(g)
                r = r[:shift] + [(x - c * y) % p for x, y in zip(r[shift:-1], g)]
                while r and not r[-1]:
                    r.pop()
            if (len(f) - 1) * (len(g) - 1) % 2:
                res = -res
            res = res * pow(g[-1], len(f) - len(r), p) % p
            f, g = g, r
        return res * pow(g[0], len(f) - 1, p) % p if g else 0

    def primitive_code(self) -> int:
        """Canonically smallest code of full multiplicative order.

        a is primitive iff a^(N/t) != 1 for every prime t dividing
        N = order - 1; a candidate is dropped at the first t that gives 1.
        For t | p - 1, a^(N/t) = N(a)^((p-1)/t) for the norm N(a) = a^(N/(p-1)),
        so that test is integer arithmetic mod p; only a prime t that does not
        divide p - 1 takes a `pow`.  Above degree 1 the search starts at p:
        the codes below it are the prime field, whose orders divide p - 1 < N.
        """
        if self._primitive is None:
            p, full = self.p, self.order - 1
            by_norm = [(p - 1) // t for t in self._order_facts() if (p - 1) % t == 0]
            by_pow = [full // t for t in self._order_facts() if (p - 1) % t]
            for code in range(p if self.degree > 1 else 1, self.order):
                n = self.norm(code)
                if (all(pow(n, e, p) != 1 for e in by_norm)
                        and all(self.pow(code, e) != 1 for e in by_pow)):
                    self._primitive = code
                    break
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
        primitive element g: order - 2 packed products give exp[i] = g^i,
        and every other product, inverse and conjugate is exp[log a + log b],
        exp[-log a] or exp[q log a].  The row of a in the mul table is one
        gather of the window of exp that starts at log a, indexed by log b.
        Addition is digit-wise.  Adding t*w, with w = p^(degree-1) the place
        value of the top digit, moves only the top digit of b, which is
        b + t*w mod order; so the row of a >= w is the row of a mod w
        rotated left by a - a mod w.  Below w, the row of a one-digit
        element d*p^i moves digit i of every code by d, and the row of any
        other element composes the row of its top digit with the row of the
        rest.  Both tables are flat, indexed [a*order + b].
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
        # [0] + exp2[log a:] read at 0 for b = 0 and at 1 + log b otherwise
        gather = itemgetter(0, *[1 + lb for lb in log[1:]])
        mul = [0] * (n * n)
        for a in range(1, n):
            la = log[a]
            mul[a * n:a * n + n] = gather([0] + exp2[la:la + n - 1])

        add = [0] * (n * n)
        add[:n] = codes
        shift: dict[int, itemgetter] = {}
        top = n // p
        w = 1
        for a in range(1, top):
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
        for a in range(top, n):
            low = a % top
            turn = low * n + a - low  # rotate the row of low left by a - low
            add[a * n:a * n + n] = add[turn:low * n + n] + add[low * n:turn]

        self._add_table = add
        self._mul_table = mul
        self._neg_table = mul[(p - 1) * n:p * n]  # -a = (p-1)*a
        self._inv_table = [0, 1] + [exp[n - 1 - log[a]] for a in range(2, n)]
        if self.degree % 2 == 0:
            q = self.q_level
            self._conj_table = [0] + [exp[log[a] * q % (n - 1)] for a in range(1, n)]


@lru_cache(maxsize=None)
def _packing(p: int, degree: int) -> tuple[int, int, Sequence[int]]:
    """(width, chunk, table) of the packed product in every ring F_p[x]/(f) of this degree.

    A polynomial of degree < `degree` packs into one integer with coefficient
    i at bit width*i (Kronecker substitution), so the product of two packed
    operands carries coefficient k of the product polynomial at bit width*k.
    That coefficient is at most degree*(p-1)^2; folding the degree - 1 high
    coefficients, each taken mod p, onto the low ones through the reduced
    powers of x adds at most (degree-1)*(p-1)^2 more.  The width keeps
    (2*degree-1)*(p-1)^2 below 2^width, so no coefficient ever carries into
    the next.

    An operand packs a chunk of base-p digits at a time: table[c] is the
    packed form of every code c < p^chunk.  A chunk is half the digits,
    rounded up, or fewer where that table would pass _PACK_TABLE_MAX entries.
    One digit packs as itself, so a one-digit chunk past that size is
    range(p), which holds no entries.  The table is shared by the field and
    by every candidate ring of its modulus search.
    """
    width = ((2 * degree - 1) * (p - 1) ** 2).bit_length()
    chunk = (degree + 1) // 2
    while chunk > 1 and p**chunk > _PACK_TABLE_MAX:
        chunk -= 1
    if p**chunk > _PACK_TABLE_MAX:
        return width, chunk, range(p)
    table = [0]
    for i in range(chunk):  # codes below p^(i+1) from those below p^i
        table = [t | d << width * i for d in range(p) for t in table]
    return width, chunk, table


def _is_irreducible(p: int, f: tuple[int, ...]) -> bool:
    """Rabin's irreducibility test for a monic f of degree d >= 2 over F_p.

    The test runs in the ring R = F_p[x]/(f).  Field(p, d, f) computes in R
    for any monic f, irreducible or not, because its table-free add, mul
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
    # _order_facts factorizes order - 1, which factorize takes below FACTOR_LIMIT
    if p**degree > FACTOR_LIMIT:
        raise ValueError(f"field order {p}^{degree} exceeds the {FACTOR_LIMIT} budget")
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
    """The canonical F_{p^(l*degree)} together with the embedding of base.

    The embedding sends x to the least root of the base modulus in the top
    field.  The roots lie in the unique subfield copy of the base's order: 0
    and the powers zeta, zeta^2, ..., zeta^(|base|-1) = 1 of
    zeta = gamma^((|top|-1)/(|base|-1)).  The modulus is irreducible of
    degree D = l, so its roots are the Frobenius orbit rho, rho^p, ...,
    rho^(p^(D-1)) of any one of them: the walk over the copy stops at its
    first root, and the D conjugates of that root are the rest.
    """
    if degree < 1:
        raise ValueError(f"extension degree must be >= 1, got {degree}")
    top = make_field(base.p, base.degree * degree)
    zeta = top.pow(top.primitive_code(), (top.order - 1) // (base.order - 1))
    # 0 first: the prime field's modulus is x, with root 0
    copy = chain([0], accumulate(repeat(zeta, base.order - 1), top.mul))
    orbit = [next(x for x in copy if _eval_in(top, base.modulus, x) == 0)]
    for _ in range(base.degree):
        orbit.append(top.pow(orbit[-1], base.p))
    if orbit[-1] != orbit[0] or len(set(orbit)) != base.degree:
        raise AssertionError("modulus root orbit mismatch in subfield")  # unreachable
    return top, Embedding(base, top, min(orbit))


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
    Products and division run on the `Field` row kernels: a product is one
    `sub_scaled` update per nonzero term of the shorter factor, a division
    one per nonzero quotient term.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

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

    def __mul__(self, other: Poly) -> Poly:
        f = self.field
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):  # out[i:] += x b, one row update per nonzero term
            if x:
                out[i:i + len(b)] = f.sub_scaled(out[i:i + len(b)], f.neg(x), b)
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
        bcols = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = [[self.field.dot(arow, bcol) for bcol in bcols] for arow in self.entries]
        return Matrix(self.field, out, cols=other.cols)

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Rows are filed under the column of their first nonzero, and the
        forward pass takes the columns in ascending order: the first row
        filed under c is scaled to lead with 1 and clears column c of the
        others, which are filed again.  The back pass takes the pivot rows
        bottom up and clears a row's nonzeros at later pivot columns, found
        by one scan, with those columns' rows, already reduced: each is 0
        at every other pivot column, so a clear changes no entry the scan
        found.  A reduced matrix makes no row update, and one with no free
        column before its last pivot, such as the generator matrix of
        `codes.build_code`, costs a scan of each row and no copy.  The
        reduced form is unique, so this equals Gauss-Jordan elimination.
        """
        f = self.field
        f._ensure_tables()
        scale, sub_scaled, inv = f.scale, f.sub_scaled, f.inv

        waiting: dict[int, list[Sequence[int]]] = {}  # rows by their first nonzero column
        for row in self.entries:
            s = next(compress(count(), row), None)
            if s is not None:
                waiting.setdefault(s, []).append(row)
        rows: list[Sequence[int]] = []
        pivots: list[int] = []
        for c in range(self.cols):
            if c not in waiting:
                continue
            pivot, *rest = waiting.pop(c)
            if pivot[c] != 1:
                pivot = [0] * c + scale(inv(pivot[c]), pivot[c:])
            tail = pivot[c + 1:]
            for row in rest:  # zero before column c as well, being filed under c
                row = [0] * (c + 1) + sub_scaled(row[c + 1:], row[c], tail)
                s = next(compress(count(c + 1), islice(row, c + 1, None)), None)
                if s is not None:
                    waiting.setdefault(s, []).append(row)
            rows.append(pivot)
            pivots.append(c)

        end = pivots[-1] + 1 if pivots else 0
        index = {c: i for i, c in enumerate(pivots)}  # pivot column -> its row
        for i in range(len(pivots) - 1, -1, -1):
            c, row = pivots[i], rows[i]
            if any(islice(row, c + 1, end)):  # unlike compress, makes no int per column
                row = rows[i] = list(row)
                for j in compress(range(c + 1, end), row[c + 1:end]):
                    if j in index:  # that row, already reduced, has 1 at j: x - x*1 zeroes it
                        row[j:] = sub_scaled(row[j:], row[j], rows[index[j]][j:])
        rows += [(0,) * self.cols] * (self.rows - len(rows))
        return Matrix(f, rows, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def right_nullspace(self) -> Matrix:
        """Rows form a basis of {v : self . v^T = 0}.

        rref gives R = E . self with E invertible.  The vector of free column
        fc has 1 there and -R[i][fc] at the i-th pivot column, so R . v^T = 0
        and hence self . v^T = E^-1 . R . v^T = 0: no product needs checking.
        Each vector is the free column of R, negated by one `scale` and
        read into place by its pivot columns.
        """
        red, pivots = self.rref()
        f, rank = self.field, len(pivots)
        place = [rank] * self.cols  # pivot column i reads entry i, the rest the 0 after them
        for i, pc in enumerate(pivots):
            place[pc] = i
        pivot_rows = red.entries[:rank]
        basis = []
        for fc in range(self.cols):
            if place[fc] == rank:
                column = f.scale(f.neg(1), map(itemgetter(fc), pivot_rows)) + [0]
                v = list(map(column.__getitem__, place))
                v[fc] = 1
                basis.append(v)
        return Matrix(f, basis, cols=self.cols)

