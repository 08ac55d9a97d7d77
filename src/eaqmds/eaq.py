"""Entanglement-assisted quantum code parameters from constacyclic codes.

The ebit count is computed two independent ways: combinatorially as |T_ss|
from the defining-set decomposition, and algebraically as rank(H H^dagger)
of the parity-check matrix.  The two must agree; a mismatch is a hard error
because it can only come from an implementation defect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import ConstacyclicCode
from .cosets import CodeSpec, DefiningSet


class EbitOracleMismatch(RuntimeError):
    """|T_ss| and rank(H H^dagger) disagreed; both count the needed ebits."""


VERIFIED_BCH = "bch-only"
VERIFIED_RANK = "rank-oracle"
VERIFIED_EXACT = "exact-distance"


@dataclass(frozen=True)
class EaqParams:
    """[[n, k, d; c]]_q parameters with the strongest check that ran on them.

    d is the BCH lower bound of the source code; when the EA-Singleton bound
    holds with equality that bound is the exact distance.  verified is
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
    def from_defining_set(cls, spec: CodeSpec, t: DefiningSet, d: int,
                          verified: str) -> EaqParams:
        """[[n, n - 2|T| + |T_ss|, d; |T_ss|]]_q for the defining set t."""
        c = len(t.t_ss)
        k = spec.n - 2 * len(t.elements) + c
        return cls(q=spec.q, n=spec.n, k=k, d=d, c=c,
                   mds=spec.n + c - k == 2 * (d - 1), verified=verified)


def ebits_rank_oracle(code: ConstacyclicCode) -> int:
    """Needed ebits as rank(H H^dagger) over F_{q^2}."""
    h = code.check_matrix
    return (h @ h.conj_transpose()).rank()


def derive_eaq(code: ConstacyclicCode) -> EaqParams:
    """[[n, n - 2|T| + |T_ss|, d >= bch; |T_ss|]]_q with both ebit oracles run."""
    t = code.defining_set
    c_comb = len(t.t_ss)
    c_rank = ebits_rank_oracle(code)
    if c_comb != c_rank:
        raise EbitOracleMismatch(
            f"|T_ss| = {c_comb} but rank(H H^dagger) = {c_rank} for "
            f"defining set {sorted(t.elements)} of {code.spec!r}")
    return EaqParams.from_defining_set(code.spec, t, code.bch_delta, VERIFIED_RANK)
