"""Entanglement-assisted quantum code parameters from constacyclic codes.

The ebit count is computed two independent ways: combinatorially as |T_ss|
from the defining-set decomposition, and algebraically as rank(H H^dagger)
of a parity-check matrix.  The two must agree; a mismatch is a hard error
because it can only come from an implementation defect.  ebit_mismatches is
the one place the exact oracles are compared with |T_ss|, for derive_eaq and
families.instance_params alike; a further exact oracle is added there only.

The rank oracle takes H from the check polynomial h = (x^n - eta)/g that
`codes.build_code` keeps.  The |T| shifts of the reversed h, h~, span the
kernel of the generator matrix, so their Gram matrix H H^dagger is Hermitian
Toeplitz: entry (i, j) is the lag a(j - i) = sum_u h~_{u+j-i} conj(h~_u),
and a(-d) = conj(a(d)).  Any other parity-check matrix is A H with A
invertible, and rank(A M A^dagger) = rank(M), so the count does not depend
on the basis.  It costs |T| dot products of length at most k + 1 and one
|T| x |T| rank, and it shares nothing with the |T_ss| set arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import ConstacyclicCode, bch_delta
from .cosets import DefiningSet
from .fields import Matrix


class EbitOracleMismatch(RuntimeError):
    """|T_ss| and rank(H H^dagger) disagreed; both count the needed ebits."""


VERIFIED_BCH = "bch-only"
VERIFIED_RANK = "rank-oracle"
VERIFIED_EXACT = "exact-distance"


@dataclass(frozen=True)
class EaqParams:
    """[[n, k, d; c]]_q parameters with the strongest check that ran on them.

    from_defining_set reads all of them from the defining set T: c = |T_ss|,
    k = n - 2|T| + c and d = delta(T), the BCH bound of the source code.
    mds is the EA-Singleton equality n + c - k = 2(d - 1); as n + c - k =
    2|T|, it says d = |T| + 1, which holds exactly when T is a single run of
    consecutive classes, and then d is the exact distance.  verified is
    VERIFIED_BCH when only the set arithmetic ran, VERIFIED_RANK when
    rank(H H^dagger) matched |T_ss| as well, and VERIFIED_EXACT when the
    exhaustive distance sweep confirmed d = n - k + 1 of the source code.
    """

    q: int
    n: int
    k: int
    d: int
    c: int
    mds: bool
    verified: str = VERIFIED_BCH

    def __post_init__(self) -> None:
        if not 0 <= self.c <= self.n - 1:
            raise ValueError(f"ebit count {self.c} outside [0, {self.n - 1}]")

    def __str__(self) -> str:
        return f"[[{self.n}, {self.k}, {self.d}; {self.c}]]_{self.q}"

    @classmethod
    def from_defining_set(cls, t: DefiningSet, verified: str) -> EaqParams:
        """[[n, n - 2|T| + |T_ss|, delta(T); |T_ss|]]_q for the defining set t."""
        spec, c, d = t.spec, len(t.t_ss), bch_delta(t)
        k = spec.n - 2 * len(t.elements) + c
        return cls(q=spec.q, n=spec.n, k=k, d=d, c=c,
                   mds=spec.n + c - k == 2 * (d - 1), verified=verified)


def ebits_rank_oracle(code: ConstacyclicCode) -> int:
    """Needed ebits as rank(H H^dagger) over F_{q^2}.

    H is the banded matrix whose |T| rows are the shifts of the reversed
    check polynomial h~, so H H^dagger is the Hermitian Toeplitz matrix of
    the lags a(d) = sum_u h~_{u+d} conj(h~_u) (module docstring).  It has
    the rank of N N^dagger for every other basis N of the same row space.
    """
    f = code.check_poly.field
    h = code.check_poly.coeffs[::-1]
    h_conj = [f.conj(x) for x in h]
    size = code.n - code.dim
    upper = [f.dot(h[d:], h_conj) for d in range(min(size, len(h)))]
    upper += [0] * (size - len(upper))
    lower = [f.conj(a) for a in upper]
    # row i is conj(a(i)), ..., conj(a(1)), a(0), ..., a(size - 1 - i)
    gram = [lower[i:0:-1] + upper[:size - i] for i in range(size)]
    return Matrix(f, gram, cols=size).rank()


def ebit_mismatches(code: ConstacyclicCode) -> list[str]:
    """One message per exact ebit oracle that disagrees with |T_ss| on code."""
    tss = len(code.defining_set.t_ss)
    c_rank = ebits_rank_oracle(code)
    return [f"rank oracle {c_rank} != |T_ss| {tss}"] if c_rank != tss else []


def derive_eaq(code: ConstacyclicCode) -> EaqParams:
    """[[n, n - 2|T| + |T_ss|, d >= bch; |T_ss|]]_q with both ebit oracles run."""
    mismatches = ebit_mismatches(code)
    if mismatches:
        raise EbitOracleMismatch(f"{code!r}: " + "; ".join(mismatches))
    return EaqParams.from_defining_set(code.defining_set, VERIFIED_RANK)
