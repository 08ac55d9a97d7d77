"""Constacyclic code construction and minimum-distance verification.

A code is built from its defining set T, a union of q^2-cyclotomic cosets
of classes modulo rn.  The generator polynomial g is the product over those
cosets of their minimal polynomials over F_{q^2}: a coset's factors
(x - omega^j), at most m of them, are multiplied in F_{q^(2m)} one linear
factor at a time, in place, the product is descended coefficientwise to
F_{q^2}, and the minimal polynomials are multiplied there.  Descent doubles
as the closure check, because a set that splits a coset leaves a
coefficient outside F_{q^2}.  The defining sets of one construction are
nested, so `minimal_polynomial` caches each coset's descended factor by
(spec, orbit) for the life of the process, like `build_tower`: a sweep of
K rows builds each of its cosets once, not once per row.  The roots are
read from `Tower.powers`, the table of omega^s for the n classes s of
Omega, built with the tower by n multiplications by omega^r.  The caches
grow by one entry per coset built and one tower of n powers per spec.  A
failed descent raises and is not cached, so a set that splits a coset is
rejected on every build.  The top-field products stay per-element calls:
the row kernels would tabulate a top field that nothing else tabulates.

The generator matrix is built already reduced, the systematic encoder of
a cyclic code: row i is x^i - x^k (x^(i-k) mod g), the unit vector e_i on
the first k columns and -x^(i-k) mod g on the last |T|, with k = n - |T|.
The remainders come from one recurrence, u_j = -x^-j mod g, each the
previous one times x^-1 mod g at one row update of length |T| + 1, so the k
rows cost O(k |T|) field operations.  Run on to j = n, the same recurrence
replaces the division of x^n - eta by g (h is the power series of 1/g,
truncated; MacWilliams & Sloane, ch. 7): the constants it consumes are the
coefficients of the check polynomial h = (x^n - eta)/g, of degree k, up to
one factor, and u_n = -eta^-1, that is x^n = eta mod g, certifies that g
divides x^n - eta.  The parity-check matrix H is the null-space basis of
the reduced generator matrix (`Matrix.right_nullspace`), whose row
reduction finds nothing to eliminate; the reduced form is unique, so H is
entry for entry the null space of the banded matrix of the shifts of g.
The shifts of the reversed h span the same row space as H, which
`eaq.ebits_rank_oracle` uses instead of H itself.

A failed or unfinished check raises a VerificationError.  This module, the
lowest that raises one, defines it and the three VERIFIED_* level names it
carries; eaq, families and catalog import them from here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .cosets import CodeSpec, DefiningSet, cosets_meeting, in_omega
from .fields import Embedding, Field, Matrix, Poly, extend, make_field

DEFAULT_DISTANCE_BUDGET = 10**6

# the verification levels, weakest first, that EaqParams.verified and a
# VerificationError carry
VERIFIED_BCH = "bch-only"
VERIFIED_RANK = "rank-oracle"
VERIFIED_EXACT = "exact-distance"


class VerificationError(RuntimeError):
    """A check failed or did not finish.  The CLI exits 1 on it, and 2 on
    a ValueError, which is bad input.

    verified is the strongest verification level that had run, as
    EaqParams.verified would have carried it.  Its default lets the error
    unpickle from its message alone when it crosses a process pool.
    """

    def __init__(self, message: str, verified: str = VERIFIED_BCH):
        super().__init__(message)
        self.verified = verified


class CoefficientDescentError(VerificationError):
    """A generator-polynomial coefficient failed to land in F_{q^2},
    which signals a defining set not closed under multiplication by q^2."""


class InconsistentRootSystemError(VerificationError):
    """omega or eta = omega^n has the wrong multiplicative order, or x^n - eta
    was not divisible by the generator polynomial; either signals an
    omega/eta inconsistency."""


class DistanceBudgetExceeded(VerificationError):
    """The column-subset enumeration hit its evaluation budget before the
    requested weight cap was settled."""


@dataclass(frozen=True)
class Tower:
    """Field tower F_p <= F_{q^2} <= F_{q^(2m)} with the rn-th root omega.

    omega = gamma^e for the canonical primitive gamma of the top field and
    e = (q^(2m)-1)/rn; eta = omega^n, descended into F_{q^2}.  powers[i] is
    omega^(1 + ri) for 0 <= i < n, the roots of Omega in index order.
    """

    q2: Field
    top: Field
    embed: Embedding
    omega: int
    eta: int
    powers: tuple[int, ...]


@lru_cache(maxsize=None)
def build_tower(spec: CodeSpec) -> Tower:
    q2 = make_field(spec.p, 2 * spec.ell)
    top, embed = extend(q2, spec.m)
    omega = top.pow(top.primitive_code(), (top.order - 1) // spec.rn)
    if top.element_order(omega) != spec.rn:
        raise InconsistentRootSystemError(f"omega does not have order rn={spec.rn}")
    eta = embed.descend(top.pow(omega, spec.n))
    if q2.element_order(eta) != spec.r:
        raise InconsistentRootSystemError(f"eta = omega^n does not have order r={spec.r}")
    step = top.pow(omega, spec.r)
    powers = [omega]
    for _ in range(spec.n - 1):
        powers.append(top.mul(powers[-1], step))
    return Tower(q2=q2, top=top, embed=embed, omega=omega, eta=eta, powers=tuple(powers))


@lru_cache(maxsize=None)
def minimal_polynomial(spec: CodeSpec, orbit: tuple[int, ...]) -> Poly:
    """The product of (x - omega^j) over j in orbit, descended to F_{q^2}.

    Raises ValueError when a coefficient is outside F_{q^2}, which happens
    when orbit is not a whole coset; the error is not cached.
    """
    tower = build_tower(spec)
    top, powers, r, rn = tower.top, tower.powers, spec.r, spec.rn
    mul, add = top.mul, top.add
    # times (x + a), a = -omega^j, in place: new_i = c_(i-1) + a c_i, new_0 = a c_0;
    # per-element calls, so that no top-field table is built (module docstring)
    c = [1]
    for j in orbit:
        a = top.neg(powers[(j - 1) % rn // r])
        c.append(1)
        for i in range(len(c) - 2, 0, -1):
            c[i] = add(c[i - 1], mul(a, c[i]))
        c[0] = mul(a, c[0])
    return Poly(tower.q2, [tower.embed.descend(x) for x in c])


@dataclass(frozen=True)
class ConstacyclicCode:
    """An eta-constacyclic code of length n over F_{q^2}.

    gen_poly is g, check_poly is h = (x^n - eta)/g of degree dim, and the
    rows of check_matrix are the basis of the kernel of the generator matrix
    that is the identity on the last n - dim columns: the null space of the
    reduced generator matrix, whose rows come from x^(i-dim) mod g at
    O(dim |T|) field operations.  h comes from the same x^-1 mod g
    recurrence run on to n steps, whose last state, -eta^-1, certifies that
    g divides x^n - eta (see the module docstring).
    """

    spec: CodeSpec
    defining_set: DefiningSet
    gen_poly: Poly
    dim: int
    check_matrix: Matrix
    check_poly: Poly

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def bch_delta(self) -> int:
        """The BCH bound of the defining set, computed on each access."""
        return bch_delta(self.defining_set)

    def __str__(self) -> str:
        return f"[{self.n}, {self.dim}, >={self.bch_delta}] over GF({self.spec.q}^2)"

    def __repr__(self) -> str:
        return f"ConstacyclicCode({self})"


def build_code(spec: CodeSpec, t: DefiningSet) -> ConstacyclicCode:
    """Construct the code with defining set t and verify its structure."""
    if t.spec != spec:
        raise ValueError(f"defining set belongs to {t.spec!r}, not {spec!r}")
    if not t.elements:
        raise ValueError("defining set is empty")
    if any(not in_omega(spec, s) for s in t.elements):
        raise ValueError("defining set leaves Omega")
    tower = build_tower(spec)
    q2 = tower.q2

    # one minimal polynomial per coset; a coset T only partly covers has a
    # factor with a coefficient outside F_{q^2}, and descent rejects it
    gen_poly = Poly(q2, (1,))
    for c in cosets_meeting(spec, t.elements):
        orbit = tuple(j for j in c if j in t.elements)
        try:
            factor = minimal_polynomial(spec, orbit)
        except ValueError as exc:
            raise CoefficientDescentError(
                f"generator coefficients left F_{spec.q}^2; defining set "
                f"{sorted(t.elements)} is not closed under multiplication by q^2") from exc
        gen_poly = gen_poly * factor

    # u_j = -x^-j mod g from u_0 = -1: u_j = u_(j-1) x^-1 mod g, where the
    # constant c_j of u_(j-1) cancels against c_j g/g_0 (g_0 != 0, as no root
    # is 0) and the zero left in front is dropped.  Telescoped, -1 = x^n u_n
    # + (g/g_0) sum_j c_j x^(j-1): u_n = -eta^-1 exactly when g divides
    # x^n - eta, and then h = (eta/g_0) sum_j c_j x^(j-1).  Row k - j of the
    # reduced generator matrix is x^(k-j) + x^k u_j, a multiple of g.  Rows
    # are tuples, which Matrix keeps as its entries without a copy
    n, k = spec.n, spec.n - len(t.elements)
    sub_scaled = q2.sub_scaled
    g0_inv = q2.inv(gen_poly.coeffs[0])
    g_unit_const = q2.scale(g0_inv, gen_poly.coeffs)
    u = [q2.neg(1)] + [0] * (gen_poly.degree - 1)
    consumed = []
    rows = [None] * k
    for j in range(1, n + 1):
        c = u[0]
        consumed.append(c)
        u = sub_scaled(u + [0], c, g_unit_const)[1:] if c else u[1:] + [0]
        if j <= k:
            rows[k - j] = (0,) * (k - j) + (1,) + (0,) * (j - 1) + tuple(u)
    if u != [q2.neg(q2.inv(tower.eta))] + [0] * (gen_poly.degree - 1):
        raise InconsistentRootSystemError(
            "generator polynomial does not divide x^n - eta")
    check_poly = Poly(q2, q2.scale(q2.mul(tower.eta, g0_inv), consumed[:k + 1]))
    check_matrix = Matrix(q2, rows, cols=spec.n).right_nullspace()

    return ConstacyclicCode(spec=spec, defining_set=t, gen_poly=gen_poly, dim=k,
                            check_matrix=check_matrix, check_poly=check_poly)


def bch_delta(t: DefiningSet) -> int:
    """BCH lower bound: 1 + the longest run of consecutive classes in T.

    Classes 1 + ri are consecutive in the index i, with wrap-around
    modulo n allowed.  A run starts at an index whose predecessor is absent.
    When T has at most one run start (t.run_starts, kept by the defining
    set's builders) T is empty, Omega or a single run, and the bound is
    |T| + 1 at once.  Only a set of several runs is scanned for the longest.
    Every s in Omega has 0 <= s < rn and s = 1 mod r, so i < n already.
    """
    if t.run_starts <= 1:
        return len(t.elements) + 1
    n, r, rn = t.spec.n, t.spec.r, t.spec.rn
    idx = {(s - 1) % rn // r for s in t.elements}
    best = 0
    for i in idx:
        if (i - 1) % n not in idx:
            run = 1
            while (i + run) % n in idx:
                run += 1
            best = max(best, run)
    return best + 1


def exact_distance_small(code: ConstacyclicCode, cap: int | None = None,
                         budget: int = DEFAULT_DISTANCE_BUDGET) -> int | None:
    """Exact minimum distance by smallest-dependent-column search.

    Returns the minimum number of linearly dependent columns of the
    parity-check matrix.  Without a cap the result is always an int, since
    any rows(H) + 1 columns are dependent; None comes back only when a cap
    is given and every subset of size <= cap is independent (distance
    exceeds the cap).  Raises DistanceBudgetExceeded when more than `budget`
    column subsets would have to be evaluated.

    Only subsets that contain column 0 are searched.  The code is closed
    under the weight-keeping shift (c_0, ..., c_{n-1}) -> (eta*c_{n-1},
    c_0, ..., c_{n-2}), which `build_code` guarantees by rejecting any g
    that does not divide x^n - eta; so some minimum-weight codeword has 0
    in its support, and that support is a smallest dependent column set.
    Row transforms A*H of the check matrix keep the code, and so the proof.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    n, k = code.n, code.dim
    if not 0 < k < n:
        raise ValueError("distance oracle needs a nondegenerate code")
    h = code.check_matrix
    m = h.rows
    limit = m + 1 if cap is None else min(cap, m + 1)
    f = h.field
    mul, sub_scaled, inv = f.mul, f.sub_scaled, f.inv

    # the smallest dependent subset size found so far; limit + 1 while
    # no subset of size <= limit has been found
    best = limit + 1
    visits = 0

    passed = f"distance search passed {budget} subset evaluations"

    # Depth-first over column subsets in index order, with column 0 the only
    # first column (see the docstring).  A level at depth d is the m - d rows
    # of the columns after the last pivot, reduced against all d pivots: the
    # child of column i keeps row r[i+1:] less (col[r]/col[pos]) times the
    # pivot row r_pos[i+1:], one sub_scaled call per other row where col is
    # nonzero, and drops the pivot row, which that reduction zeroes.  A
    # reduced-to-zero column closes a dependent subset; pruning at `best`
    # is sound because deeper subsets are strictly larger.
    #
    # When d + 3 >= best the child of column i can close a subset only on
    # its own first level: it visits its columns in order until the first
    # one that reduced to zero, sets best = d + 2 there, and then stops.
    # Column j > i reduces to zero exactly when it is a multiple of column i
    # (zero included): c - (c[pos]/col[pos]) col = 0 forces c = a col, and
    # every a col cancels.  Nonzero multiples share the key "scaled so the
    # first nonzero is 1", so one right-to-left pass over the level finds
    # that j for every i, and the child's visits are added in one step.
    # The budget is checked after the batch, which raises exactly when the
    # visit-by-visit count would have.
    def dfs(rows: Sequence[Sequence[int]], depth: int) -> None:
        nonlocal best, visits
        cols = list(zip(*rows))
        width = len(cols)
        firsts = None  # firsts[i]: the j that closes column i's child, or width
        for i, col in enumerate(cols if depth else cols[:1]):
            if depth + 1 >= best:
                return
            visits += 1
            if visits > budget:
                raise DistanceBudgetExceeded(passed)
            if not any(col):
                best = depth + 1
                continue
            if i + 1 == width or depth + 2 >= best:
                continue
            if depth + 1 == m:
                # the child would hold no row: with m pivots any later
                # column is a certain dependency
                best = m + 1
                continue
            if depth + 3 >= best:
                if firsts is None:
                    firsts = _first_multiples(f, cols)
                j = firsts[i]
                visits += (j if j < width else width - 1) - i
                if visits > budget:
                    raise DistanceBudgetExceeded(passed)
                if j < width:
                    best = depth + 2
                continue
            pos = 0 if col[0] else next(r for r, x in enumerate(col) if x)
            lead_inv = inv(col[pos])
            pivot = rows[pos][i + 1:]
            dfs([sub_scaled(row[i + 1:], mul(x, lead_inv), pivot) if x else row[i + 1:]
                 for r, (row, x) in enumerate(zip(rows, col)) if r != pos], depth + 1)

    dfs(h.entries, 0)
    return best if best <= limit else None


def _first_multiples(f: Field, cols: list[tuple[int, ...]]) -> list[int]:
    """For each column i, the first later column that is zero or a scalar
    multiple of column i, or len(cols) when there is none."""
    mul, inv = f.mul, f.inv
    width = len(cols)
    out = [width] * width
    seen: dict[tuple[int, ...], int] = {}
    zero_at = width
    for j in range(width - 1, -1, -1):
        col = cols[j]
        lead = col[0] or next((x for x in col if x), 0)
        if not lead:
            zero_at = j
            continue
        if lead != 1:
            g = inv(lead)
            col = tuple([mul(g, x) for x in col])
        later = seen.get(col, width)
        out[j] = later if later < zero_at else zero_at
        seen[col] = j
    return out


def distance_check_feasible(n: int, redundancy: int, budget: int) -> bool:
    """True when the full independence sweep fits the evaluation budget.

    It still counts all C(n, w) subsets per weight, not the about
    C(n-1, w-1) of the search rooted at column 0: this model decides which
    rows reach `exact-distance`, so a tighter one would change the output.
    """
    total = 0
    for w in range(1, redundancy + 1):
        total += math.comb(n, w)
        if total > budget:
            return False
    return True


MDS_BY_BCH = "mds-bch"
MDS_BY_EXACT = "mds-exact"
NOT_MDS = "not-mds"
DEGENERATE = "degenerate"


def classical_mds_verdict(code: ConstacyclicCode,
                          budget: int = DEFAULT_DISTANCE_BUDGET,
                          distance: int | None = None) -> str:
    """MDS status with the certificate that settled it.

    The BCH bound alone certifies MDS when it reaches n - k + 1; otherwise
    the minimum `distance` decides, searched for unless the caller found it.
    Dimension-0 and dimension-n codes get an explicit degenerate verdict.
    """
    n, k = code.n, code.dim
    if k == 0 or k == n:
        return DEGENERATE
    target = n - k + 1
    if code.bch_delta >= target:
        return MDS_BY_BCH
    if distance is None:
        distance = exact_distance_small(code, budget=budget)
    return MDS_BY_EXACT if distance == target else NOT_MDS
