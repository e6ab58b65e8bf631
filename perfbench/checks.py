"""Reference values and output checks for the benchmark workloads.

Every reference is computed apart from the path it checks: exact rational
Weingarten values (Collins, IMRN 2003, math-ph/0205010) through
`tensortraffic.weingarten`, and closed forms for the decomposition
coefficients. Nothing is compared with a saved copy of earlier output.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

from tensortraffic.weingarten import weingarten

# A Monte-Carlo estimate passes when it lies within this many of its own
# standard errors of the exact value. Over 1,500 seeded `mc` estimates at 40
# samples the largest |z| seen was 4.3 (3.2 over 1,200 at 100 samples), so 6
# keeps false failures far below one per benchmark campaign while a real
# bias still shows, at the latest in the estimates pooled over a run.
Z_BAND = 6.0


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def permutation_of_type(cycle_type) -> tuple[int, ...]:
    """A permutation of 0..p-1 whose cycles have the given lengths."""
    out: list[int] = []
    for length in cycle_type:
        start = len(out)
        out.extend(start + (i + 1) % length for i in range(length))
    return tuple(out)


def wg(cycle_type, n: int) -> Fraction:
    """Exact Wg(sigma, N) for any sigma of the given cycle type."""
    return weingarten(permutation_of_type(cycle_type), n)


def injective_cycle_exact(k: int, n: int) -> Fraction:
    """Exact E[N^-1 Tr0_inj] on the directed 2k-cycle whose edges alternate
    U, U* for one Haar unitary U.

    On an injective labeling only the pairing (sigma, tau) = (id, k-cycle)
    of the Weingarten sum survives, so each of the N!/(N-2k)! labelings
    contributes Wg(k-cycle, N).
    """
    return wg((k,), n) * Fraction(math.perm(n, 2 * k), n)


def injective_cycle_direct(k: int, n: int) -> Fraction:
    """The same expectation as `injective_cycle_exact`, by a direct sum over
    injective labelings with the full Weingarten sum for each. Exponential
    in k and N; a reference for tiny cases.

    Edge v runs from vertex v to v+1 and reads A(label(v+1), label(v)):
    U[i_{2a+1}, i_{2a}] on even edges, conj U[i_{2a+1}, i_{2a+2}] on odd ones.
    """
    perms = list(itertools.permutations(range(k)))
    total = Fraction(0)
    for labels in itertools.permutations(range(n), 2 * k):
        rows = [labels[2 * a + 1] for a in range(k)]
        cols = [labels[2 * a] for a in range(k)]
        conj_cols = [labels[(2 * a + 2) % (2 * k)] for a in range(k)]
        for sigma in perms:
            if any(rows[a] != rows[sigma[a]] for a in range(k)):
                continue
            for tau in perms:
                if any(cols[a] != conj_cols[tau[a]] for a in range(k)):
                    continue
                inv = [0] * k
                for i, s in enumerate(sigma):
                    inv[s] = i
                total += weingarten(tuple(tau[i] for i in inv), n)
    return total / n


def _rgs(labels) -> str:
    """Restricted-growth string of the partition grouping equal labels."""
    seen: dict = {}
    return ",".join(str(seen.setdefault(x, len(seen))) for x in labels)


def pairing_coefficient(state: str, k: int, n: int) -> tuple[str, float]:
    """The one nonzero elementary coefficient of the tracial or entangled
    state on K legs, with its partition of [2K].

    Edge i of the minimal graph runs from vertex K+i to vertex i. The
    tracial state prod_i tr(A_i)/N ties vertex i to K+i, with coefficient
    N^-K. The entangled state prod_m sum(A_m * A_m+1)/N over leg pairs ties
    rows m, m+1 and columns K+m, K+m+1, with coefficient N^-(K/2).
    """
    if state == "tracial":
        return _rgs([i % k for i in range(2 * k)]), float(n) ** -k
    if state == "entangled":
        if k % 2:
            raise ValueError("the entangled state needs an even K")
        return (_rgs([(i >= k, (i % k) // 2) for i in range(2 * k)]),
                float(n) ** -(k // 2))
    raise ValueError(f"no closed form for state {state!r}")


def z_score(estimate: complex, stderr: float, exact) -> float:
    gap = abs(estimate - complex(exact))
    if stderr > 0:
        return gap / stderr
    return 0.0 if gap == 0 else math.inf


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_estimate(label: str, estimate: complex, stderr: float, exact):
    z = z_score(estimate, stderr, exact)
    require(z <= Z_BAND, f"{label}: estimate {estimate:.6g} is {z:.2f} "
                         f"standard errors from the exact {float(exact):.6g}")


def check_decomposition(doc: dict, state: str, k: int, n: int):
    """`decompose` output against its closed form and its own residual."""
    require(doc["reconstruction_residual"] <= 1e-9,
            f"reconstruction residual {doc['reconstruction_residual']:.2e}")
    part, want = pairing_coefficient(state, k, n)
    coeffs = {p: complex(re, im) for p, (re, im) in doc["coefficients"].items()}
    require(part in coeffs, f"no coefficient for the pairing {part}")
    for p, got in coeffs.items():
        target = want if p == part else 0.0
        require(abs(got - target) <= 1e-9 * want,
                f"{state} K={k} N={n}: coefficient {p} is {got}, "
                f"expected {target}")


def check_certificate(doc: dict):
    """The paper's theorem: the word's contribution vanishes, no quotient is
    dangerous (eta = 0 with a valid T1), and every eta is <= 0."""
    require(doc["verdict"] == "VANISHES", f"verdict {doc['verdict']}")
    require(bool(doc["quotients"]), "empty quotient ledger")
    for q in doc["quotients"]:
        eta = Fraction(q["eta"])
        require(eta <= 0, f"quotient {q['partition']} has eta {eta} > 0")
        require(not (eta == 0 and q["validity"] == "valid"),
                f"quotient {q['partition']} is dangerous")


class Pool:
    """Pools equal-size estimates of one quantity over a run's operations,
    so a bias too small for one operation's band still shows."""

    def __init__(self):
        self._items: dict = defaultdict(list)
        self._exact: dict = {}

    def add(self, key, estimate: complex, stderr: float, exact):
        self._items[key].append((estimate, stderr))
        self._exact[key] = exact

    def worst(self) -> tuple[object, float]:
        """(key, |z|) of the pooled estimate farthest from its exact value."""
        worst = (None, 0.0)
        for key, items in self._items.items():
            m = len(items)
            mean = sum(e for e, _ in items) / m
            stderr = math.sqrt(sum(s * s for _, s in items)) / m
            z = z_score(mean, stderr, self._exact[key])
            if z > worst[1]:
                worst = (key, z)
        return worst
