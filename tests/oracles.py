"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms:
determinants go through permutation expansion, row reduction through
schoolbook Gauss-Jordan, matrix and polynomial products one term at a
time, generator polynomials through one linear factor and one root power
at a time, divisibility through schoolbook long division, multiplicative
orders and q^2-orbits through repeated multiplication, field products
through the base-p digits of each code, primitive elements and the roots
of a subfield's modulus through full scans, run lengths through exhaustive
window scans, and the rooted distance search one column reduction at a
time.
"""

from __future__ import annotations

import itertools

from eaqmds.codes import build_tower
from eaqmds.fields import Matrix, factorize


def perm_det(field, rows):
    """Determinant by permutation expansion (fine up to 4x4)."""
    n = len(rows)
    det = 0
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, rows[i][j])
        det = field.add(det, term) if sign > 0 else field.sub(det, term)
    return det


def _perm_sign(perm) -> int:
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def minor_rank(field, entries):
    """Rank as the largest k with a nonzero k x k minor."""
    nrows, ncols = len(entries), len(entries[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[entries[i][j] for j in csel] for i in rsel]
                if perm_det(field, sub) != 0:
                    return k
    return 0


def long_division_remainder(field, dividend, divisor):
    """Schoolbook polynomial remainder on raw coefficient code lists."""
    rem = list(dividend)
    while rem and rem[-1] == 0:
        rem.pop()
    dd = len(divisor) - 1
    lead_inv = field.inv(divisor[-1])
    while len(rem) - 1 >= dd and rem:
        c = field.mul(rem[-1], lead_inv)
        shift = len(rem) - 1 - dd
        for i, fc in enumerate(divisor):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, fc))
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def schoolbook_mul(field, a, b):
    """Product of two codes of F_p[x]/(modulus): decode both to their base-p
    digits, convolve, cancel the terms of degree >= l against the monic
    modulus from the top down, and encode the low l digits."""
    p, l = field.p, field.degree
    conv = [0] * (2 * l - 1)
    for i, x in enumerate(field.decode(a)):
        for j, y in enumerate(field.decode(b)):
            conv[i + j] += x * y
    for k in range(2 * l - 2, l - 1, -1):  # subtract c * x^(k-l) * modulus
        c = conv[k] % p
        for i, m in enumerate(field.modulus):
            conv[k - l + i] -= c * m
    return field.encode([c % p for c in conv[:l]])


def schoolbook_pow(field, a, e):
    """a^e for e >= 0 by e schoolbook products."""
    acc = 1
    for _ in range(e):
        acc = schoolbook_mul(field, acc, a)
    return acc


def order_by_iteration(field, code) -> int:
    """Multiplicative order by repeated multiplication."""
    acc, order = code, 1
    while acc != 1:
        acc = field.mul(acc, code)
        order += 1
    return order


def primitive_code_by_scan(field) -> int:
    """The least code of full multiplicative order: every code from 1 up,
    each tested by a field power on every cofactor (order - 1)/t."""
    full = field.order - 1
    cofactors = [full // t for t in factorize(full)]
    return next(code for code in range(1, field.order)
                if all(field.pow(code, e) != 1 for e in cofactors))


def subfield_roots_by_scan(top, base) -> list[int]:
    """The roots in top of base's modulus, found by evaluating it on every
    element of the subfield copy of base: 0 and the powers of
    gamma^((|top|-1)/(|base|-1)) for the scanned primitive gamma of top."""
    zeta = top.pow(primitive_code_by_scan(top), (top.order - 1) // (base.order - 1))
    copy, x = [0], 1
    for _ in range(base.order - 1):
        copy.append(x)
        x = top.mul(x, zeta)
    return sorted(x for x in copy if horner(top, base.modulus, x) == 0)


def horner(field, coeffs, x) -> int:
    """The polynomial with prime-field coefficients (constant term first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def irreducible_by_trial_division(p: int, coeffs) -> bool:
    """Monic irreducibility by exhausting all lower-degree monic divisors."""
    degree = len(coeffs) - 1
    for d in range(1, degree // 2 + 1):
        for enc in range(p**d):
            cand, e = [], enc
            for _ in range(d):
                e, c = divmod(e, p)
                cand.append(c)
            cand.append(1)
            if not _prime_field_remainder(p, list(coeffs), cand):
                return False
    return True


def _prime_field_remainder(p: int, rem, divisor):
    dd = len(divisor) - 1
    while rem and rem[-1] == 0:
        rem.pop()
    while len(rem) - 1 >= dd and rem:
        c = rem[-1] % p
        shift = len(rem) - 1 - dd
        for i, fc in enumerate(divisor):
            rem[shift + i] = (rem[shift + i] - c * fc) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def longest_consecutive_window(spec, elements) -> int:
    """Longest wrap-around run of classes 1 + ri present in the set, found
    by scanning every (start, length) window exhaustively."""
    present = {(((s - 1) % spec.rn) // spec.r) % spec.n for s in elements}
    n = spec.n
    if len(present) == n:
        return n
    best = 0
    for start in range(n):
        length = 0
        while length < n and (start + length) % n in present:
            length += 1
        best = max(best, length)
    return best


def orbits_by_iteration(spec, classes):
    """The distinct orbits under s -> q^2 s (mod rn) that meet classes, each a
    sorted tuple found by repeated multiplication, ordered by the least of
    classes it holds."""
    classes = set(classes)
    qq = spec.q * spec.q % spec.rn
    orbits = set()
    for s in classes:
        if any(s in orbit for orbit in orbits):
            continue
        orbit, x = {s}, s * qq % spec.rn
        while x != s:
            orbit.add(x)
            x = x * qq % spec.rn
        orbits.add(frozenset(orbit))
    return sorted((tuple(sorted(orbit)) for orbit in orbits),
                  key=lambda orbit: min(classes.intersection(orbit)))


def dependent_subset_min_size(field, h_entries, max_size, rank=minor_rank) -> int | None:
    """Smallest dependent column set size up to max_size, or None, by
    ranking every column subset in size order.  The default minor-expansion
    rank suits only tiny matrices; pass `rref_rank` for larger ones."""
    m, n = len(h_entries), len(h_entries[0])
    for w in range(1, max_size + 1):
        for csel in itertools.combinations(range(n), w):
            sub = [[h_entries[i][j] for j in csel] for i in range(m)]
            if rank(field, sub) < w:
                return w
    return None


def rooted_dependent_search(field, h_entries, cap=None):
    """(distance, visits) of the rooted dependent-column search, reducing
    one column at a time, entry by entry, and building every child level.

    Columns are visited depth first in index order with column 0 the only
    first column; each level holds the columns after the last pivot,
    reduced against every pivot.  `visits` counts each column visited, so a
    budget of `visits` settles `exact_distance_small` on the same matrix and
    one less does not.  The distance is None when a cap is given and no
    subset of size <= cap is dependent.
    """
    m = len(h_entries)
    limit = m + 1 if cap is None else min(cap, m + 1)
    zero = [0] * m
    best, visits = limit + 1, 0

    def dfs(remaining, depth):
        nonlocal best, visits
        if depth == m:
            if remaining and m + 1 < best:
                best = m + 1
            return
        for idx, col in enumerate(remaining if depth else remaining[:1]):
            if depth + 1 >= best:
                return
            visits += 1
            if col == zero:
                best = depth + 1
                continue
            if idx + 1 == len(remaining) or depth + 2 >= best:
                continue
            pos = next(i for i in range(m) if col[i])
            lead_inv = field.inv(col[pos])
            norm = [field.mul(lead_inv, x) for x in col]
            dfs([[field.sub(x, field.mul(c[pos], y)) for x, y in zip(c, norm)] if c[pos] else c
                 for c in remaining[idx + 1:]], depth + 1)

    dfs([list(col) for col in zip(*h_entries)], 0)
    return (best if best <= limit else None), visits


def gauss_jordan_rref(field, rows):
    """Reduced row echelon form by schoolbook Gauss-Jordan elimination: each
    pivot row is normalised and its column cleared in every other row over
    the whole row width, one entry at a time.  Returns (rows, pivots)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead_inv = field.inv(m[r][c])
        m[r] = [field.mul(lead_inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                g = m[i][c]
                m[i] = [field.sub(v, field.mul(g, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def times_transpose_is_zero(field, a_rows, b_rows) -> bool:
    """Whether A . B^T = 0: each entry summed one Field.mul and Field.add
    at a time, with no row kernel."""
    for a in a_rows:
        for b in b_rows:
            acc = 0
            for x, y in zip(a, b, strict=True):
                acc = field.add(acc, field.mul(x, y))
            if acc:
                return False
    return True


def rref_rank(field, rows) -> int:
    """Rank as the number of Gauss-Jordan pivots."""
    return len(gauss_jordan_rref(field, rows)[1])


def matrix_product(field, a_rows, b_rows, cols):
    """A . B for a B of `cols` columns, which may have no rows; each entry
    is summed one Field.mul and Field.add at a time."""
    if any(len(b) != cols for b in b_rows):
        raise ValueError(f"every row of B must have {cols} entries")
    out = []
    for a in a_rows:
        row = []
        for j in range(cols):
            acc = 0
            for x, b in zip(a, b_rows, strict=True):
                acc = field.add(acc, field.mul(x, b[j]))
            row.append(acc)
        out.append(row)
    return out


def hermitian_gram(field, rows):
    """H . H^dagger by matrix_product, with H^dagger conjugated entry by entry."""
    return matrix_product(field, rows, [[field.conj(x) for x in col] for col in zip(*rows)],
                          len(rows))


def poly_product(field, a, b):
    """Schoolbook product of two coefficient lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _linear_factor_product(tower, roots):
    """Coefficients of prod (x - root), multiplied one linear factor at a
    time in the tower's top field, then descended."""
    top = tower.top
    coeffs = [1]
    for root in roots:
        # (c_0 + c_1 x + ...) (x - root)
        shifted = [0] + coeffs
        scaled = [top.mul(root, c) for c in coeffs] + [0]
        coeffs = [top.sub(a, b) for a, b in zip(shifted, scaled)]
    return [tower.embed.descend(c) for c in coeffs]


def constacyclic_generator_product(tower, elements):
    """prod (x - omega^j) over the elements, each root omega^j taken by j
    repeated multiplications."""
    roots = []
    for j in sorted(elements):
        root = 1
        for _ in range(j):
            root = tower.top.mul(root, tower.omega)
        roots.append(root)
    return _linear_factor_product(tower, roots)


def generator_poly(spec, t):
    """g of the defining set t, each root omega^j taken by its own
    top.pow(omega, j) rather than read from a table stepped by omega^r."""
    tower = build_tower(spec)
    return _linear_factor_product(tower, [tower.top.pow(tower.omega, j)
                                          for j in sorted(t.elements)])


def generator_matrix(code):
    """The banded generator matrix: its k rows are the shifts of g."""
    g, k = list(code.gen_poly.coeffs), code.dim
    rows = [[0] * i + g + [0] * (k - 1 - i) for i in range(k)]
    return Matrix(code.gen_poly.field, rows, cols=code.n)
