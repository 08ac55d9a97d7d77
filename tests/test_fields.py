import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from eaqmds import fields
from eaqmds.catalog import TABLE_ENTRIES, TABLE_FAMILY, table1_family
from eaqmds.codes import build_code
from eaqmds.cosets import DefiningSet, all_cosets, make_spec
from eaqmds.families import family_spec
from eaqmds.fields import (_PACK_TABLE_MAX, _TABLE_MAX_ORDER, Field, Matrix, Poly,
                           _is_irreducible, _packing, extend, factorize, is_prime,
                           make_field, prime_power_split)

import oracles


F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F27 = make_field(3, 3)
F49 = make_field(7, 2)

SMALL_FIELDS = [F5, F7, F25, F27, F49]


def codes_of(field):
    return st.integers(min_value=0, max_value=field.order - 1)


# ---------------------------------------------------------------------------
# construction and canonical choices
# ---------------------------------------------------------------------------

def test_prime_field_modulus_is_x():
    assert F5.modulus == (0, 1)
    assert F5.order == 5


def test_f25_modulus_is_first_irreducible_quadratic():
    # x^2 + 1 has root 2 mod 5; x^2 + 2 has none (3 is a non-residue)
    assert F25.modulus == (2, 0, 1)


@pytest.mark.parametrize("p,l", [(2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (13, 4)])
def test_modulus_matches_exhaustive_scan(p, l):
    field = make_field(p, l)
    for enc in range(field.encode(field.modulus[:l])):
        cand, e = [], enc
        for _ in range(l):
            e, c = divmod(e, p)
            cand.append(c)
        cand.append(1)
        assert not oracles.irreducible_by_trial_division(p, cand)
    assert oracles.irreducible_by_trial_division(p, field.modulus)


@pytest.mark.parametrize("p,d", [(2, d) for d in range(2, 7)] + [(3, d) for d in range(2, 7)]
                         + [(5, d) for d in range(2, 5)])
def test_rabin_test_equals_trial_division_on_every_monic(p, d):
    for low in itertools.product(range(p), repeat=d):
        f = (*low, 1)
        assert _is_irreducible(p, f) == oracles.irreducible_by_trial_division(p, f), f


def test_only_the_unit_condition_rejects_a_product_of_divisor_degrees():
    # x (x^2+x+1) (x^3+x+1) = x^6 + x^5 + x over F_2: its factor degrees 1, 2
    # and 3 all divide 6, so x^(2^6) = x holds in F_2[x]/(f), and only the
    # unit condition rejects f: x^(2^3) - x is zero on the factor x
    f = (0, 1, 0, 0, 0, 1, 1)
    ring = Field(2, 6, f)
    x = 2
    assert ring.pow(x, 2**6) == x
    assert ring.pow(ring.sub(ring.pow(x, 2**3), x), 2**6 - 1) != 1
    assert not _is_irreducible(2, f)
    assert not oracles.irreducible_by_trial_division(2, f)


# make_field(p, d).modulus for every (p, d) that the towers of
# `verify --q-max 13` and of tables 1, 2, 4, 5 and 6 reach, as computed by
# the gcd-based Rabin test on raw coefficient lists that preceded the
# ring-based one
TOWER_MODULI = {
    (3, 1): (0, 1), (3, 4): (2, 1, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (11, 1): (0, 1), (11, 2): (1, 0, 1), (11, 4): (2, 1, 0, 0, 1),
    (13, 1): (0, 1), (13, 2): (2, 0, 1), (13, 4): (2, 0, 0, 0, 1),
    (17, 1): (0, 1), (17, 2): (3, 0, 1), (17, 4): (3, 0, 0, 0, 1),
    (19, 1): (0, 1), (19, 2): (1, 0, 1), (19, 4): (8, 1, 0, 0, 1),
    (23, 1): (0, 1), (23, 2): (1, 0, 1), (23, 4): (2, 1, 0, 0, 1),
    (29, 1): (0, 1), (29, 2): (2, 0, 1), (29, 4): (2, 0, 0, 0, 1),
    (31, 1): (0, 1), (31, 2): (1, 0, 1), (31, 4): (1, 1, 0, 0, 1),
    (37, 1): (0, 1), (37, 2): (2, 0, 1), (37, 4): (2, 0, 0, 0, 1),
    (41, 1): (0, 1), (41, 2): (3, 0, 1),
    (43, 1): (0, 1), (43, 2): (1, 0, 1), (43, 4): (3, 1, 0, 0, 1),
    (47, 1): (0, 1), (47, 2): (1, 0, 1), (47, 4): (5, 1, 0, 0, 1),
    (53, 1): (0, 1), (53, 2): (2, 0, 1), (53, 4): (2, 0, 0, 0, 1),
}


def test_tower_moduli_are_pinned():
    assert {pd: make_field(*pd).modulus for pd in TOWER_MODULI} == TOWER_MODULI


def test_is_prime_small_values():
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_make_field_rejects_bad_input():
    for p in (0, 1, 6, 9):
        with pytest.raises(ValueError):
            make_field(p)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(2, 64)  # exceeds the order budget


def test_make_field_is_deterministic_and_cached():
    assert make_field(5, 2) is F25


def test_factorize_takes_only_n_below_2_to_the_32():
    assert factorize(2**32 - 1) == {3: 1, 5: 1, 17: 1, 257: 1, 65537: 1}
    assert factorize(1) == {}
    for n in (0, -7, 2**32, 1000000000000000009):
        with pytest.raises(ValueError, match="trial division"):
            factorize(n)


def test_prime_power_split():
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(13) == (13, 1)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_primitive_elements():
    assert F5.primitive_code() == 2   # ord(2) = 4, ord(1) = 1
    assert F7.primitive_code() == 3   # ord(2) = 3, ord(3) = 6
    g = F25.primitive_code()
    # canonically smallest element of order 24, by iteration oracle
    for code in range(1, g):
        assert oracles.order_by_iteration(F25, code) != 24
    assert oracles.order_by_iteration(F25, g) == 24
    assert F25.element_order(g) == 24


# (p, degree of F_q^2, m) of every tower F_p <= F_q^2 <= F_q^2m that the 25
# published entries of tables 1, 2, 4, 5 and 6 reach
PUBLISHED_TOWERS = sorted({(s.p, 2 * s.ell, s.m) for s in (
    family_spec(TABLE_FAMILY[table] or table1_family(q), q, h)
    for table, entries in TABLE_ENTRIES.items() for q, h in entries)})
# extensions of prime fields, and towers in characteristic 2 and 3
SMALL_TOWERS = [(5, 1, 2), (7, 1, 2), (3, 1, 4), (2, 1, 5), (2, 2, 3), (2, 3, 2), (2, 4, 2),
                (3, 2, 3), (3, 3, 2)]


@pytest.mark.parametrize("p,d,m", PUBLISHED_TOWERS + SMALL_TOWERS)
def test_tower_set_up_equals_the_full_scans(p, d, m):
    base = make_field(p, d)
    top, emb = extend(base, m)
    assert base.primitive_code() == oracles.primitive_code_by_scan(base)
    assert top.primitive_code() == oracles.primitive_code_by_scan(top)
    roots = oracles.subfield_roots_by_scan(top, base)
    assert len(roots) == d and emb.root == roots[0]
    assert [emb(a) for a in range(base.order)] == [
        oracles.horner(top, base.decode(a), roots[0]) for a in range(base.order)]


@pytest.mark.parametrize("field", [F5, F25, F27, make_field(2, 6), make_field(3, 6),
                                   make_field(13, 4), make_field(17, 4), make_field(53, 2)],
                         ids=repr)
def test_norm_is_the_power_and_the_multiplication_determinant(field):
    p, d = field.p, field.degree
    prime = make_field(p)
    rng = random.Random(31 + field.order)
    for a in [0, 1, p - 1] + [rng.randrange(field.order) for _ in range(12)]:
        n = field.norm(a)
        assert 0 <= n < p
        assert n == field.pow(a, (field.order - 1) // (p - 1))
        # the rows are the coordinates of a * x^j: the matrix of y -> a*y
        rows = [field.decode(field.mul(a, p**j)) for j in range(d)]
        assert n == oracles.perm_det(prime, rows)


def test_norm_of_a_zero_divisor_is_zero():
    # in F_13[x]/(x^4 + 1) the resultant is still the determinant of y -> a*y
    prime, ring = make_field(13), Field(13, 4, (1, 0, 0, 0, 1))
    for coeffs in [(5, 0, 1), (8, 0, 1), (3, 1, 4, 1), (0, 1)]:
        a = ring.encode(coeffs)
        rows = [ring.decode(ring.mul(a, 13**j)) for j in range(4)]
        assert ring.norm(a) == oracles.perm_det(prime, rows)
    assert ring.norm(ring.encode((5, 0, 1))) == 0


def test_tower_set_up_work_is_pinned(monkeypatch):
    # F_{17^4}: the full scans take 455 field powers in the primitive search
    # and evaluate the modulus of F_{17^2} on all 289 elements of its copy
    modulus, expected = make_field(17, 4).modulus, make_field(17, 4).primitive_code()
    base = make_field(17, 2)
    root = extend(base, 2)[1].root
    counts = {"pow": 0, "eval": 0}
    field_pow, eval_in = Field.pow, fields._eval_in

    def counted_pow(self, a, e):
        counts["pow"] += 1
        return field_pow(self, a, e)

    def counted_eval(*args):
        counts["eval"] += 1
        return eval_in(*args)

    monkeypatch.setattr(Field, "pow", counted_pow)
    assert Field(17, 4, modulus).primitive_code() == expected
    assert counts["pow"] <= 150
    monkeypatch.setattr(fields, "_eval_in", counted_eval)
    assert extend.__wrapped__(base, 2)[1].root == root
    assert counts["eval"] <= 100


@pytest.mark.parametrize("field", [F25, make_field(3, 6), make_field(37, 2), make_field(2, 11)],
                         ids=repr)
def test_pow_equals_schoolbook_below_and_above_the_table_cap(field):
    # below the cap through the lookup tables, above it through packed products
    assert field._has_tables() == (field.order <= _TABLE_MAX_ORDER)
    rng = random.Random(field.order)
    exponents = [0, 1, 2, field.order - 2, rng.randrange(field.order)]
    for a in [0, 1] + [rng.randrange(2, field.order) for _ in range(3)]:
        for e in exponents:
            assert field.pow(a, e) == oracles.schoolbook_pow(field, a, e)


@pytest.mark.parametrize("field", [F25, make_field(37, 2)], ids=repr)
def test_zero_has_no_inverse_or_order_and_negative_powers_invert(field):
    # below the cap inv reads its table, above it inv is a power
    assert field._has_tables() == (field.order <= _TABLE_MAX_ORDER)
    with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
        field.inv(0)
    with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
        field.pow(0, -1)
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        field.element_order(0)
    rng = random.Random(field.order)
    for a in [1] + [rng.randrange(2, field.order) for _ in range(3)]:
        for e in [1, 2, 7, field.order - 2]:
            assert field.pow(a, -e) == field.pow(field.inv(a), e)
            assert oracles.schoolbook_mul(field, field.pow(a, -e), field.pow(a, e)) == 1


def test_pow_squares_only_between_exponent_bits(monkeypatch):
    products = []
    field_mul = Field.mul

    def counted(self, a, b):
        products.append((a, b))
        return field_mul(self, a, b)

    monkeypatch.setattr(Field, "mul", counted)
    make_field(37, 2).pow(5, 0b1011)  # above the cap: no table
    assert len(products) == 6  # three into the result, three squares between the bits


# ---------------------------------------------------------------------------
# field axioms and Frobenius
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_field_axioms_random_triples(field):
    rng = random.Random(20240 + field.order)
    for _ in range(60):
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(a, field.neg(a)) == 0
    for a in range(1, field.order):
        assert field.mul(a, field.inv(a)) == 1


@given(a=codes_of(F27), b=codes_of(F27))
def test_frobenius_is_ring_homomorphism(a, b):
    def frob(c):
        return F27.pow(c, F27.p)
    assert frob(F27.add(a, b)) == F27.add(frob(a), frob(b))
    assert frob(F27.mul(a, b)) == F27.mul(frob(a), frob(b))


@given(a=codes_of(F27))
def test_frobenius_power_l_is_identity(a):
    assert F27.pow(a, F27.order) == a


def test_field_code_operators():
    x, y = 7, 12
    assert F25.add(x, y) == F25.add(y, x)
    assert F25.mul(x, y) == F25.mul(y, x)
    assert F25.add(F25.sub(x, y), y) == x
    assert F25.mul(F25.mul(x, F25.inv(y)), y) == x
    assert F25.add(F25.neg(x), x) == 0
    assert F25.pow(x, 3) == F25.mul(x, F25.mul(x, x))
    assert F25.encode(F25.decode(x)) == x
    with pytest.raises(ValueError):
        F25.encode((1, 2, 3))  # more coordinates than the degree


# ---------------------------------------------------------------------------
# the packed product against the schoolbook product
# ---------------------------------------------------------------------------

# fields above the lookup-table cap, a 65537-element prime field, and
# F_13[x]/(x^4 + 1), which is not a field (13 = 1 mod 8, so x^4 + 1 splits)
PACKED_FIELDS = [make_field(p, d) for p, d in
                 [(3, 8), (13, 4), (17, 4), (37, 2), (53, 2), (53, 4), (65537, 1)]]
X4_PLUS_1 = Field(13, 4, (1, 0, 0, 0, 1))


@pytest.mark.parametrize("field", PACKED_FIELDS + [X4_PLUS_1], ids=repr)
@given(data=st.data())
def test_packed_mul_and_pow_equal_schoolbook(field, data):
    a, b = data.draw(codes_of(field)), data.draw(codes_of(field))
    e = data.draw(st.integers(min_value=0, max_value=40))
    assert field.mul(a, b) == oracles.schoolbook_mul(field, a, b)
    assert field.pow(a, e) == oracles.schoolbook_pow(field, a, e)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
@given(data=st.data())
def test_packed_inv_is_a_schoolbook_inverse(field, data):
    a = data.draw(st.integers(min_value=1, max_value=field.order - 1))
    assert oracles.schoolbook_mul(field, a, field.inv(a)) == 1


def test_packed_ring_is_the_quotient_ring():
    # x^4 = -1 in F_13[x]/(x^4 + 1), and x^4 + 1 = (x^2 + 5)(x^2 + 8) has zero divisors
    assert not oracles.irreducible_by_trial_division(13, X4_PLUS_1.modulus)
    x = 13
    assert X4_PLUS_1.pow(x, 4) == 12
    assert X4_PLUS_1.mul(X4_PLUS_1.encode((5, 0, 1)), X4_PLUS_1.encode((8, 0, 1))) == 0


def test_packing_tables_are_shared_and_bounded():
    # one table per (p, degree): the modulus search's rings use the field's own
    assert X4_PLUS_1._packed[0] is make_field(13, 4)._packed[0]
    for field in PACKED_FIELDS:
        assert len(_packing(field.p, field.degree)[2]) <= max(_PACK_TABLE_MAX, field.p)
    # one digit packs as itself: a large prime field keeps no entries
    table = _packing(65537, 1)[2]
    assert table == range(65537) and isinstance(table, range)


def test_packing_shrinks_the_chunk_to_the_table_bound():
    # half of six digits is three, but a table of 17^3 = 4913 entries would
    # pass the bound, so a chunk is two digits
    _, chunk, table = _packing(17, 6)
    assert 17**3 > _PACK_TABLE_MAX >= 17**2
    assert (chunk, len(table)) == (2, 17**2)
    field = make_field(17, 6)
    assert field._packed[1] == 17**2
    rng = random.Random(17)
    for _ in range(200):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        assert field.mul(a, b) == oracles.schoolbook_mul(field, a, b)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conj_fixed_points_and_involution():
    assert F25.conj(0) == 0 and F25.conj(1) == 1
    assert all(F25.conj(F25.conj(a)) == a for a in range(F25.order))
    assert all(F25.conj(a) == F25.pow(a, 5) for a in range(F25.order))
    assert sum(1 for a in range(F25.order) if F25.conj(a) == a) == 5


def test_conj_rejected_on_odd_degree():
    with pytest.raises(ValueError):
        F27.conj(1)
    Matrix(F27, [[1]]).rank()  # builds the lookup tables, which have no conj table
    with pytest.raises(ValueError):
        F27.conj(1)
    with pytest.raises(ValueError):
        F5.conj(2)


# ---------------------------------------------------------------------------
# extensions and embeddings
# ---------------------------------------------------------------------------

def test_extend_prime_field_embeds_constants():
    top, emb = extend(F5, 2)
    assert top is F25
    assert emb.root == 0  # the root of the prime field's modulus x
    assert [emb(a) for a in range(5)] == [0, 1, 2, 3, 4]


def test_extend_is_ring_homomorphism_on_random_pairs():
    top, emb = extend(F25, 2)
    assert top.order == 625
    assert emb(1) == 1
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randrange(25), rng.randrange(25)
        assert emb(F25.mul(a, b)) == top.mul(emb(a), emb(b))
        assert emb(F25.add(a, b)) == top.add(emb(a), emb(b))


def test_extend_preserves_multiplicative_order():
    top, emb = extend(F25, 2)
    for a in range(1, 25):
        assert top.element_order(emb(a)) == F25.element_order(a)


def test_descend_inverts_embedding_and_rejects_outsiders():
    top, emb = extend(F25, 2)
    image = {emb(a) for a in range(25)}
    for a in range(25):
        assert emb.descend(emb(a)) == a
    outside = next(x for x in range(top.order) if x not in image)
    with pytest.raises(ValueError):
        emb.descend(outside)


@pytest.mark.parametrize("base,degree", [(F7, 2), (make_field(3, 4), 2)], ids=repr)
def test_descent_round_trip_and_rejection_over_the_whole_top_field(base, degree):
    # a prime-field base, and F_{3^4} inside F_{3^8}
    top, emb = extend(base, degree)
    image = {emb(a): a for a in range(base.order)}
    assert len(image) == base.order
    for y in range(top.order):
        if y in image:
            assert emb.descend(y) == image[y]
        else:
            with pytest.raises(ValueError):
                emb.descend(y)


def test_embedding_commutes_with_frobenius_tower():
    top, emb = extend(F25, 2)
    for a in (3, 7, 19, 24):
        assert emb(F25.pow(a, F25.p)) == top.pow(emb(a), top.p)


def test_extend_budget():
    with pytest.raises(ValueError):
        extend(F49, 6)  # 49^6 > 2^32


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_degree_respects_multiplication():
    rng = random.Random(11)
    for _ in range(40):
        a = Poly(F25, [rng.randrange(25) for _ in range(rng.randrange(1, 6))])
        b = Poly(F25, [rng.randrange(25) for _ in range(rng.randrange(1, 6))])
        if a and b:
            assert (a * b).degree == a.degree + b.degree


# F_{13^2} multiplies by table lookups; F_{37^2} is above the table cap and
# F_{13^4} is a tower top, both multiplied by packed products
@pytest.mark.parametrize("field", [make_field(13, 2), make_field(37, 2), make_field(13, 4)],
                         ids=repr)
@given(a=st.lists(st.one_of(st.just(0), st.integers(1, 13**4 - 1)), max_size=6),
       b=st.lists(st.one_of(st.just(0), st.integers(1, 13**4 - 1)), max_size=6))
@example(a=[], b=[0, 3])  # an empty operand
@example(a=[0, 0, 5, 0], b=[7, 0, 1])  # zero coefficients
def test_poly_product_is_schoolbook_with_one_row_update_per_term(field, a, b):
    pa = Poly(field, [c % field.order for c in a])
    pb = Poly(field, [c % field.order for c in b])
    for x, y in [(pa, pb), (pb, pa)]:
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            sub_scaled = Field.sub_scaled
            patch.setattr(Field, "sub_scaled",
                          lambda self, *args: calls.append(args) or sub_scaled(self, *args))
            product = x * y
        assert product == Poly(field, oracles.poly_product(field, x.coeffs, y.coeffs))
        shorter = min(x.coeffs, y.coeffs, key=len)
        assert len(calls) == sum(map(bool, shorter))


@given(a=st.lists(codes_of(F49), max_size=8),
       b=st.lists(codes_of(F49), min_size=1, max_size=5))
def test_poly_divmod_roundtrip(a, b):
    pa, pb = Poly(F49, a), Poly(F49, b)
    if not pb:
        return
    q, r = divmod(pa, pb)
    total = itertools.zip_longest((q * pb).coeffs, r.coeffs, fillvalue=0)
    assert Poly(F49, [F49.add(x, y) for x, y in total]) == pa
    assert r.degree < pb.degree


def test_zero_poly_conventions():
    z = Poly(F25, [0, 0])
    assert not z and z.coeffs == () and z.degree == -1


# ---------------------------------------------------------------------------
# matrices: rank and nullspace
# ---------------------------------------------------------------------------

def test_identity_rank_and_empty_nullspace():
    m = Matrix(F25, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.rank() == 3
    assert m.right_nullspace().rows == 0


def test_matrix_rejects_ragged_mismatched_and_shapeless_entries():
    for entries, cols, message in [
            ([[1, 0], [1]], None, "ragged rows"),
            ([[1, 0], [0, 1]], 3, "column count does not match the rows"),
            ([], None, "empty matrix needs an explicit column count")]:
        with pytest.raises(ValueError) as err:
            Matrix(F25, entries, cols=cols)
        assert str(err.value) == message
    empty = Matrix(F25, [], cols=3)
    assert (empty.rows, empty.cols, empty.entries) == (0, 3, ())


def test_zero_matrix_rank_and_full_nullspace():
    z = Matrix(F25, [[0, 0, 0, 0], [0, 0, 0, 0]])
    assert z.rank() == 0
    ns = z.right_nullspace()
    assert ns.rows == 4 and ns.rank() == 4


def test_rank_matches_minor_expansion_oracle():
    rng = random.Random(4949)
    for _ in range(8):
        entries = [[rng.randrange(49) for _ in range(6)] for _ in range(4)]
        m = Matrix(F49, entries)
        assert m.rank() == oracles.minor_rank(F49, entries)


def _random_invertible(field, size, rng):
    while True:
        entries = [[rng.randrange(field.order) for _ in range(size)] for _ in range(size)]
        m = Matrix(field, entries)
        if m.rank() == size:
            return m


def test_rank_invariant_under_invertible_left_factor():
    rng = random.Random(321)
    entries = [[rng.randrange(25) for _ in range(6)] for _ in range(4)]
    m = Matrix(F25, entries)
    for _ in range(5):
        a = _random_invertible(F25, 4, rng)
        assert (a @ m).rank() == m.rank()


def test_rank_of_product_bounded():
    rng = random.Random(5)
    for _ in range(10):
        a = Matrix(F25, [[rng.randrange(25) for _ in range(5)] for _ in range(3)])
        b = Matrix(F25, [[rng.randrange(25) for _ in range(4)] for _ in range(5)])
        assert (a @ b).rank() <= min(a.rank(), b.rank())


def test_conj_transpose_entries():
    m = Matrix(F25, [[2, 7], [11, 0]])
    h = m.conj_transpose()
    assert h.entries[0][0] == F25.conj(2)
    assert h.entries[1][0] == F25.conj(7)
    assert h.entries[0][1] == F25.conj(11)


# ---------------------------------------------------------------------------
# lookup tables and row kernels
# ---------------------------------------------------------------------------

def _tables_off(field):
    """A second instance of the field that never builds its lookup tables."""
    return Field(field.p, field.degree, field.modulus)


@pytest.mark.parametrize("p,l", [(3, 1), (3, 2), (5, 2), (3, 4), (3, 6), (13, 2), (17, 2),
                                 (31, 2), (2, 10)])
def test_log_built_tables_equal_digitwise_arithmetic(p, l):
    field = Field(p, l, make_field(p, l).modulus)
    field._ensure_tables()
    ref = _tables_off(field)
    n = field.order
    # every cell up to order 169; above that, every (n // 100)-th code
    stride = 1 if n <= 169 else n // 100
    grid = range(0, n, stride)
    for a in grid:
        for b in grid:
            assert field._mul_table[a * n + b] == ref.mul(a, b), (a, b)
            assert field._add_table[a * n + b] == ref.add(a, b), (a, b)
    assert field._neg_table == [ref.neg(a) for a in range(n)]
    assert field._inv_table[1:] == [ref.pow(a, n - 2) for a in range(1, n)]
    if l % 2 == 0:
        assert field._conj_table == [ref.pow(a, ref.q_level) for a in range(n)]
    else:
        assert field._conj_table is None


F169 = make_field(13, 2)     # table-driven
F1369 = make_field(37, 2)    # above the lookup-table cap
KERNEL_FIELDS = [F169, F1369]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
def test_row_kernels_equal_per_element_definitions(field, data):
    ref = _tables_off(field)
    size = data.draw(st.integers(min_value=0, max_value=12))
    vec = st.lists(codes_of(field), min_size=size, max_size=size)
    g, xs, ys = data.draw(codes_of(field)), data.draw(vec), data.draw(vec)
    assert field.scale(g, ys) == [ref.mul(g, y) for y in ys]
    assert field.sub_scaled(xs, g, ys) == [ref.sub(x, ref.mul(g, y)) for x, y in zip(xs, ys)]
    acc = 0
    for x, y in zip(xs, ys):
        acc = ref.add(acc, ref.mul(x, y))
    assert field.dot(xs, ys) == acc
    # kernels never leave a field under the cap without its tables
    assert (field._mul_table is None) == (field.order > _TABLE_MAX_ORDER)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
def test_rank_over_kernel_fields_matches_minor_expansion_oracle(field, data):
    ref = _tables_off(field)
    row = st.lists(codes_of(field), min_size=4, max_size=4)
    rows = data.draw(st.lists(row, min_size=1, max_size=3))
    if len(rows) == 3:  # make the last row dependent on the first two
        a, b = data.draw(codes_of(field)), data.draw(codes_of(field))
        rows[2] = [ref.add(ref.mul(a, x), ref.mul(b, y)) for x, y in zip(rows[0], rows[1])]
    assert Matrix(field, rows).rank() == oracles.minor_rank(ref, rows)


def _dense(field, data, rows, cols):
    return [data.draw(st.lists(codes_of(field), min_size=cols, max_size=cols))
            for _ in range(rows)]


def _banded_toeplitz(field, data, rows, cols):
    """Shifts of one band, like a generator matrix; never wider than cols."""
    width = data.draw(st.integers(min_value=1, max_value=max(1, cols - rows + 1)))
    band = data.draw(st.lists(codes_of(field), min_size=width, max_size=width))
    return [([0] * i + band + [0] * cols)[:cols] for i in range(rows)]


def _rank_deficient(field, data, rows, cols):
    """Every row past the first two combines the first two."""
    base = _dense(field, data, min(rows, 2), cols)
    out = list(base)
    while len(out) < rows:
        a, b = data.draw(codes_of(field)), data.draw(codes_of(field))
        out.append([field.add(field.mul(a, x), field.mul(b, y))
                    for x, y in zip(base[0], base[-1])])
    return out


def _with_zero_rows(field, data, rows, cols):
    out = _dense(field, data, rows, cols)
    for i in data.draw(st.lists(st.integers(min_value=0, max_value=rows - 1), max_size=rows)):
        out[i] = [0] * cols
    return out


def _reduced(field, data, rows, cols):
    """A random reduced row echelon form: free columns between and after
    the pivots, and zero rows below."""
    pivots = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=cols - 1),
                                       max_size=rows, unique=True)))
    out = []
    for c in pivots:
        row = [0] * cols
        row[c] = 1
        for j in range(c + 1, cols):
            if j not in pivots:
                row[j] = data.draw(codes_of(field))
        out.append(row)
    return out + [[0] * cols for _ in range(rows - len(pivots))]


MATRIX_SHAPES = [_dense, _banded_toeplitz, _rank_deficient, _with_zero_rows, _reduced]


@pytest.mark.parametrize("shape", MATRIX_SHAPES, ids=lambda s: s.__name__.strip("_"))
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
def test_rref_and_nullspace_match_schoolbook_gauss_jordan(field, shape, data):
    ref = _tables_off(field)
    rows = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=1, max_value=8))
    entries = shape(ref, data, rows, cols)
    m = Matrix(field, entries)

    red, pivots = m.rref()
    expected, expected_pivots = oracles.gauss_jordan_rref(ref, entries)
    assert pivots == tuple(expected_pivots)
    assert red.entries == tuple(tuple(r) for r in expected)

    ns = m.right_nullspace()
    assert ns.rows == cols - len(expected_pivots)
    assert oracles.times_transpose_is_zero(ref, entries, ns.entries)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
def test_rref_of_a_reduced_matrix_makes_no_row_update(field, data):
    # build_code's generator matrix arrives reduced; its rref must only scan
    rows = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=1, max_value=8))
    entries = _reduced(field, data, rows, cols)
    fresh = Field(field.p, field.degree, field.modulus)

    def no_update(*args):
        raise AssertionError("row update on a reduced matrix")

    fresh.scale = fresh.sub_scaled = no_update
    m = Matrix(fresh, entries)
    red, pivots = m.rref()
    assert red == m
    assert pivots == tuple(row.index(1) for row in entries if any(row))


def _padded_rows(field, data, rows, cols):
    """Random entries between runs of zeros at either end of each row."""
    out = []
    for _ in range(rows):
        lead = data.draw(st.integers(min_value=0, max_value=cols))
        trail = data.draw(st.integers(min_value=0, max_value=cols - lead))
        width = cols - lead - trail
        mid = data.draw(st.lists(codes_of(field), min_size=width, max_size=width))
        out.append([0] * lead + mid + [0] * trail)
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
def test_matmul_equals_entrywise_product(field, data):
    ref = _tables_off(field)
    rows, inner, cols = (data.draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    a = _padded_rows(ref, data, rows, inner)
    b = _padded_rows(ref, data, inner, cols)
    product = Matrix(field, a, cols=inner) @ Matrix(field, b, cols=cols)
    expected = oracles.matrix_product(ref, a, b, cols)
    assert (product.rows, product.cols) == (rows, cols)
    assert product.entries == tuple(tuple(r) for r in expected)


@pytest.mark.parametrize("shapes", [(0, 3, 2), (2, 0, 3), (0, 0, 2), (3, 2, 0)],
                         ids=lambda s: "x".join(map(str, s)))
def test_matmul_with_an_empty_dimension(shapes):
    rows, inner, cols = shapes
    a = Matrix(F1369, [[1] * inner] * rows, cols=inner)
    b = Matrix(F1369, [[2] * cols] * inner, cols=cols)
    product = a @ b
    assert (product.rows, product.cols, product.entries) == (rows, cols, ((0,) * cols,) * rows)


NULLSPACE_FIELDS = [F9, F25, F49, F1369]
# one spec per field order for random codes over that field: q = 3, 5, 7, 37
NULLSPACE_SPECS = {9: (3, 4, 10), 25: (5, 2, 13), 49: (7, 2, 10), 1369: (37, 2, 12)}


def _code_generator(field, data, rows, cols):
    """The banded generator matrix of a random code over field, of
    dimension at least 1; the drawn shape is not used."""
    spec = make_spec(*NULLSPACE_SPECS[field.order])
    leaders = [c[0] for c in all_cosets(spec)]
    pick = data.draw(st.lists(st.sampled_from(leaders), min_size=1,
                              max_size=len(leaders) - 1, unique=True))
    code = build_code(spec, DefiningSet.from_leaders(spec, pick))
    return oracles.generator_matrix(code).entries


def _assert_nullspace_is_kernel_basis(field, entries):
    m = Matrix(field, entries)
    ns = m.right_nullspace()
    assert ns.cols == m.cols
    assert oracles.times_transpose_is_zero(field, entries, ns.entries)
    assert oracles.rref_rank(field, entries) + ns.rows == m.cols
    assert oracles.rref_rank(field, ns.entries) == ns.rows


@pytest.mark.parametrize("field", NULLSPACE_FIELDS, ids=repr)
@given(data=st.data())
def test_right_nullspace_is_a_basis_of_the_kernel(field, data):
    shape = data.draw(st.sampled_from(MATRIX_SHAPES + [_code_generator]))
    rows = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=1, max_value=8))
    _assert_nullspace_is_kernel_basis(field, shape(field, data, rows, cols))


@pytest.mark.parametrize("field", NULLSPACE_FIELDS, ids=repr)
def test_right_nullspace_of_a_dense_4x7_matrix(field):
    # Hypothesis favours small shapes and the property test above cannot
    # take an @example, so this fixes one dense draw of at least 4x7
    rng = random.Random(field.order)
    entries = [[rng.randrange(field.order) for _ in range(7)] for _ in range(4)]
    _assert_nullspace_is_kernel_basis(field, entries)


def test_rank_of_a_1x1_matrix_builds_the_lookup_tables():
    # bench/micro.py builds a field's tables with a 1x1 rank() before it
    # times table-driven Field calls; a 1x1 reduction makes no kernel call
    field = Field(13, 2, make_field(13, 2).modulus)
    assert field._mul_table is None
    Matrix(field, [[1]]).rank()
    assert field._mul_table is not None
