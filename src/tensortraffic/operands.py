"""Tensor operands, state descriptions and permutations of indices or legs.

An operand is an element of the K-fold tensor power of N x N matrices,
stored as a weighted sum of elementary tensor products (one term covers the
plain single-product case).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .partitions import ENUMERATION_CAP, SetPartition

def permutation_matrix(perm) -> np.ndarray:
    """Real N x N matrix of a permutation of 0..N-1: column j is e_{perm[j]}."""
    n = len(perm)
    p = np.zeros((n, n))
    p[np.asarray(perm), np.arange(n)] = 1.0
    return p


def check_permutation(sigma) -> tuple[int, ...]:
    sigma = tuple(int(x) for x in sigma)
    if sorted(sigma) != list(range(len(sigma))):
        raise InvalidArgumentError(f"not a permutation of 0..{len(sigma) - 1}: {sigma}")
    return sigma


def inverse_permutation(sigma) -> tuple[int, ...]:
    """sigma^{-1} of a permutation of 0..d-1, given as its image tuple."""
    out = [0] * len(sigma)
    for k, img in enumerate(sigma):
        out[img] = k
    return tuple(out)


def compose(a, b) -> tuple[int, ...]:
    """a after b, as image tuples."""
    return tuple(a[i] for i in b)


def cycles_of(sigma) -> list[list[int]]:
    """Cycles of a permutation of 0..d-1, each from its smallest element."""
    sigma = check_permutation(sigma)
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = sigma[cur]
        out.append(cyc)
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


class TensorOperand:
    """Weighted sum of factored tensors on (C^N)^{tensor K}."""

    __slots__ = ("n", "legs", "terms")

    def __init__(self, n, legs, terms):
        if n < 1 or legs < 0:
            raise InvalidArgumentError("need N >= 1 and legs >= 0")
        self.n = int(n)
        self.legs = int(legs)
        frozen = []
        for weight, factors in terms:
            factors = tuple(_freeze(f) for f in factors)
            if len(factors) != legs:
                raise InvalidArgumentError(
                    f"term has {len(factors)} factors, expected {legs}")
            for f in factors:
                if f.shape != (n, n):
                    raise InvalidArgumentError(
                        f"factor shape {f.shape} != ({n},{n})")
            frozen.append((complex(weight), factors))
        self.terms = tuple(frozen)

    @classmethod
    def factored(cls, factors, weight=1.0) -> "TensorOperand":
        factors = [np.asarray(f) for f in factors]
        if not factors:
            raise InvalidArgumentError("need at least one factor")
        n = factors[0].shape[0]
        return cls(n, len(factors), [(weight, factors)])

    @classmethod
    def identity(cls, n, legs) -> "TensorOperand":
        return cls.factored([np.eye(n)] * legs)

    def conjugated_by(self, u: np.ndarray) -> "TensorOperand":
        """Apply U^{x K} . U*^{x K} legwise."""
        uh = u.conj().T
        return TensorOperand(self.n, self.legs, [
            (w, [u @ f @ uh for f in fs]) for w, fs in self.terms])


@dataclass
class StateSpec:
    """Description of a linear functional on the K-fold tensor matrix space.

    Kinds:
      tracial                 product of normalized traces, one per leg
      max_entangled_vector    vector state of the maximally entangled pairing
                              of adjacent legs (1,2), (3,4), ...; K even
      diagonal_uniform        uniform average of the full diagonal entries
      elementary_combination  an explicit combination of the permutation-
                              invariant elementary trace forms, indexed by
                              partitions of [2K]

    Only unitality is verified for elementary combinations; positivity is
    not decidable from the coefficients alone and is the caller's
    responsibility.
    """

    kind: str
    k: int
    n: int
    coeffs: dict = field(default_factory=dict)  # SetPartition -> complex

    KINDS = ("tracial", "max_entangled_vector", "diagonal_uniform",
             "elementary_combination")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidArgumentError(f"unknown state kind {self.kind!r}")
        if self.k < 1 or self.n < 1:
            raise InvalidArgumentError("need K >= 1 and N >= 1")
        if self.kind == "max_entangled_vector" and self.k % 2 != 0:
            raise InvalidArgumentError(
                "the entangled-pair state needs an even number of legs")
        if self.kind == "elementary_combination":
            if 2 * self.k > ENUMERATION_CAP:
                raise ResourceLimitError(
                    f"coefficient states are capped at 2K <= {ENUMERATION_CAP}")
            if not self.coeffs:
                raise InvalidArgumentError("elementary_combination needs coefficients")
            for pi in self.coeffs:
                if not isinstance(pi, SetPartition) or pi.n != 2 * self.k:
                    raise InvalidArgumentError(
                        "coefficients must be indexed by partitions of [2K]")
            # psi(1) = 1 is checked here; see traces.state_unitality_defect
            from .traces import state_unitality_defect
            defect = state_unitality_defect(self)
            if not defect <= 1e-9:  # NaN from non-finite coefficients too
                raise InvalidArgumentError(
                    f"elementary combination is not unital: |psi(1)-1| = {defect:.2e}")
