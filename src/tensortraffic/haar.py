"""Symbolic pipeline for the large-N limit of words in tensor-power unitaries.

Pieces: linearization of a word against a base graph (each base edge becomes
a path, transpose blocks reversed), splitting a quotient into the two colored
subgraphs, the exact rational limit of injective traces of Haar words on
cactus graphs, and an exhaustive quotient ledger that certifies when every
contribution vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import LinearGraph, adjoint_graph, disjoint_union, quotient
from .invariants import (VALID, _blocks, _classify, _leaves, leaf_count,
                         split_by_color, splitting_exponent)
from .operands import TensorOperand, permutation_matrix
from .partitions import _normalize, enumerate_partitions
from .sampling import MCReport, haar_sweep, symmetrize
from .traces import injective_graph_trace
from .words import StarWord, is_trivial

PREDICT_VERTEX_CAP = 10  # Bell(10) = 115975 quotients


@dataclass(frozen=True)
class EdgeMeta:
    block: str  # "u", "t" or "v"
    letter: int
    star: bool


@dataclass(frozen=True)
class Linearization:
    graph: LinearGraph
    meta: tuple[EdgeMeta, ...]


def _block_of(k: int, k1: int, k2: int) -> str:
    if k <= k1:
        return "u"
    if k <= k1 + k2:
        return "t"
    return "v"


def linearize(base: LinearGraph, word: StarWord, k1: int, k2: int,
              k3: int) -> Linearization:
    """Replace each base edge by a path spelling the word.

    Edge k of the base becomes p edges numbered (k,1)..(k,p) in alphabetical
    order. For u- and v-block edges the path runs against the displayed
    arrows (edge (k,1) ends at the base target); for t-block edges the
    orientation of every path edge is reversed. Each path introduces p-1
    fresh interior vertices.
    """
    p = len(word)
    if p < 1:
        raise InvalidArgumentError("cannot linearize the empty word")
    if k1 < 1 or k2 < 0 or k3 < 0:
        raise InvalidArgumentError("need K1 >= 1 and K2, K3 >= 0")
    if base.order != k1 + k2 + k3:
        raise InvalidArgumentError(
            f"base graph has {base.order} edges, blocks sum to {k1 + k2 + k3}")
    nv = base.vertex_count
    edges = []
    meta = []
    for k, (src, tgt) in enumerate(base.edges, start=1):
        interior = [nv + (k - 1) * (p - 1) + i for i in range(p - 1)]
        chain = [tgt] + interior + [src]  # chain[i] between edges (k,i) and (k,i+1)
        block = _block_of(k, k1, k2)
        for i in range(1, p + 1):
            a, b = chain[i], chain[i - 1]  # runs toward the base target
            if block == "t":
                a, b = b, a
            edges.append((a, b))
            letter, star = word.letters[i - 1]
            meta.append(EdgeMeta(block, letter, star))
    graph = LinearGraph(nv + base.order * (p - 1), tuple(edges))
    return Linearization(graph, tuple(meta))


def doubled(lin: Linearization) -> Linearization:
    """Linearized graph together with its edge-reversed copy (edges of the
    copy numbered after the originals, labels star-flipped); this is the
    index graph of the squared-modulus trace used for variance control.
    """
    graph = disjoint_union(lin.graph, adjoint_graph(lin.graph))
    meta2 = tuple(EdgeMeta(m.block, m.letter, not m.star) for m in lin.meta)
    return Linearization(graph, lin.meta + meta2)


def t1_labels(lin: Linearization):
    """(delta, eps) along the u/t-block edges, in their edge order."""
    delta = tuple(m.letter for m in lin.meta if m.block in ("u", "t"))
    eps = tuple(m.star for m in lin.meta if m.block in ("u", "t"))
    return delta, eps


# --------------------------------------------------------------------------
# exact Haar limit of injective traces
# --------------------------------------------------------------------------

def cycle_limit_coefficient(length: int) -> Fraction:
    """Limit weight of one alternating cycle of even length 2k:
    (-1)^(k-1) (2k-2)! / ((k-1)! k!), the signed Catalan number C_{k-1}.
    """
    if length % 2 != 0 or length < 2:
        raise InvalidArgumentError("cycles of a valid labeling have even length")
    k = length // 2
    return Fraction((-1) ** (k - 1) * math.factorial(2 * k - 2),
                    math.factorial(k - 1) * math.factorial(k))


def haar_limit_injective(graph: LinearGraph, delta, eps) -> Fraction:
    """Exact limit of N^{-c} E[injective trace] for a word tensor of
    independent Haar unitaries: zero unless the labeled graph is a valid
    well-oriented forest of cacti, in which case it is the product of the
    per-cycle signed Catalan coefficients.
    """
    return _labeled_limit(graph.edges, _blocks(graph.vertex_count, graph.edges),
                          tuple(delta), tuple(eps))[1]


def _labeled_limit(edges, blocks, delta, eps) -> tuple[str, Fraction]:
    """Validity and Haar limit of a labeled graph from its blocks; only a
    VALID labeling has cycles, and its limit is their weights' product."""
    validity, cycles = _classify(edges, blocks, delta, eps)
    out = Fraction(int(validity == VALID))
    for cyc in cycles:
        out *= cycle_limit_coefficient(len(cyc))
    return validity, out


# --------------------------------------------------------------------------
# quotient ledger and the vanishing certificate
# --------------------------------------------------------------------------

@dataclass
class QuotientEntry:
    partition: str        # restricted-growth string of a representative
    multiplicity: int
    eta: Fraction
    leaves_total: int     # L(T')
    leaves_t1: int
    leaves_t2: int
    leaf_defect: int      # L(T_M) - L(T'), always >= 0
    validity: str         # classification of (T1, delta, eps)
    limit_coefficient: Fraction

    @property
    def dangerous(self) -> bool:
        """A surviving contribution: eta = 0 together with a valid T1."""
        return self.eta == 0 and self.validity == VALID


@dataclass
class FreenessCertificate:
    word: str
    blocks: tuple[int, int, int]
    doubled: bool
    verdict: str  # "VANISHES" or "INCONCLUSIVE"
    base_leaves: int
    entries: list[QuotientEntry] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "blocks": list(self.blocks),
            "doubled": self.doubled,
            "verdict": self.verdict,
            "base_leaves": self.base_leaves,
            "quotients": [{
                "partition": e.partition,
                "multiplicity": e.multiplicity,
                "eta": str(e.eta),
                "leaves": [e.leaves_total, e.leaves_t1, e.leaves_t2],
                "leaf_defect": e.leaf_defect,
                "validity": e.validity,
                "limit_coefficient": str(e.limit_coefficient),
            } for e in self.entries],
        }


def _quotient_class(pi, touched) -> tuple:
    """Equal iff the quotients have equal canonical forms: the edges fix pi
    on the touched vertices; isolated vertices only add blocks."""
    return pi.num_blocks, _normalize([pi.rgs[v] for v in touched])


def predict_freeness_limit(word: StarWord, base: LinearGraph, k1: int,
                           k2: int, k3: int, *,
                           include_variance_graph: bool = False) -> FreenessCertificate:
    """Enumerate every quotient of the linearized graph and certify that no
    contribution to the normalized expected trace survives the limit.

    Each quotient is scored by its splitting exponent and the validity of
    its Haar-colored subgraph; the verdict is VANISHES exactly when no
    quotient has simultaneously a zero exponent and a valid subgraph.
    Order-isomorphic quotients are deduplicated (multiplicities kept).
    """
    if is_trivial(word):
        raise InvalidArgumentError("the word reduces to the identity")
    lin = linearize(base, word, k1, k2, k3)
    if include_variance_graph:
        lin = doubled(lin)
    graph = lin.graph
    if graph.vertex_count > PREDICT_VERTEX_CAP:
        raise ResourceLimitError(
            f"quotient enumeration capped at {PREDICT_VERTEX_CAP} vertices "
            f"(linearized graph has {graph.vertex_count})")
    delta, eps = t1_labels(lin)
    ids1 = [i for i, m in enumerate(lin.meta) if m.block != "v"]
    ids2 = [i for i, m in enumerate(lin.meta) if m.block == "v"]
    touched = sorted(graph.touched_vertices())
    base_leaves = leaf_count(graph)
    ledger: dict = {}  # isomorphism class -> entry of its first quotient
    for pi in enumerate_partitions(graph.vertex_count):
        tprime = quotient(graph, pi)
        key = _quotient_class(pi, touched)
        if key in ledger:
            ledger[key].multiplicity += 1
            continue
        nv, edges = tprime.vertex_count, tprime.edges
        blocks = _blocks(nv, edges)
        lt = _leaves(nv, edges, blocks)
        if ids2:
            e1, e2 = (tuple(edges[i] for i in ids) for ids in (ids1, ids2))
            blocks1 = _blocks(nv, e1)
            l1, l2 = _leaves(nv, e1, blocks1), _leaves(nv, e2, _blocks(nv, e2))
        else:  # no V block: T1 is T' and T2 is edgeless
            e1, blocks1, l1, l2 = edges, blocks, lt, 2 * nv
        validity, coeff = _labeled_limit(e1, blocks1, delta, eps)
        ledger[key] = QuotientEntry(
            partition=pi.to_string(),
            multiplicity=1,
            eta=splitting_exponent(lt, l1, l2, nv),
            leaves_total=lt, leaves_t1=l1, leaves_t2=l2,
            leaf_defect=base_leaves - lt,
            validity=validity,
            limit_coefficient=coeff)
    entries = sorted(ledger.values(), key=lambda e: e.partition)
    verdict = "VANISHES" if not any(e.dangerous for e in entries) \
        else "INCONCLUSIVE"
    return FreenessCertificate(word.to_string(), (k1, k2, k3),
                               include_variance_graph, verdict, base_leaves,
                               entries)


# --------------------------------------------------------------------------
# splitting identity (independent families factor through injective traces)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingReport:
    lhs: complex
    rhs: complex
    residual: float
    stderr: float | None  # None on the exact path
    degenerate: bool      # both sides vanish for dimensional reasons


def _joint_operand(b1: TensorOperand, b2: TensorOperand) -> TensorOperand:
    """B1 x B2: the legs of b1, then those of b2."""
    return TensorOperand(b1.n, b1.legs + b2.legs,
                         [(w1 * w2, f1 + f2) for w1, f1 in b1.terms
                          for w2, f2 in b2.terms])


def splitting_identity_check(tprime: LinearGraph, color, b1: TensorOperand,
                             b2: TensorOperand, *, mode: str = "exact",
                             samples: int = 200, seed: int = 0) -> SplittingReport:
    """Check that the expected injective trace of an independent pair
    factors: E Tr0_{T'}(B1 x B2) = (N-|V'|)!/N! * Tr0_{T1}(B1) * Tr0_{T2}(B2),
    with B2 averaged over permutation conjugations: all N! of them for
    mode="exact" (through `symmetrize`, N <= 5), `samples` random ones for
    mode="sampled".
    """
    if mode not in ("exact", "sampled"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 2:
        raise InvalidArgumentError("need samples >= 2")
    n = b1.n
    color = tuple(color)
    ids1 = tuple(i for i, c in enumerate(color) if c == 1)
    ids2 = tuple(i for i, c in enumerate(color) if c == 2)
    if len(ids1) != b1.legs or len(ids2) != b2.legs:
        raise InvalidArgumentError("coloring does not match operand legs")
    t1, t2 = split_by_color(tprime, color)
    nv = tprime.vertex_count
    if nv > n:
        return SplittingReport(0j, 0j, 0.0, None, True)
    letters = [ids1.index(e) if c == 1 else b1.legs + ids2.index(e)
               for e, c in enumerate(color)]
    stderr = None
    if mode == "exact":  # the trace is linear in the operand
        lhs = injective_graph_trace(
            tprime, _joint_operand(b1, symmetrize(b2, n)), letters)
    else:
        rep = MCReport.from_samples(haar_sweep(
            lambda us, rng: injective_graph_trace(tprime, _joint_operand(
                b1, b2.conjugated_by(permutation_matrix(rng.permutation(n)))),
                letters), n, 0, samples, seed), n)
        lhs, stderr = rep.estimate, rep.stderr
    weight = math.factorial(n - nv) / math.factorial(n)
    rhs = weight * injective_graph_trace(t1, b1, letter_of_edge=range(b1.legs)) \
        * injective_graph_trace(t2, b2, letter_of_edge=range(b2.legs))
    return SplittingReport(lhs, complex(rhs), abs(lhs - rhs), stderr, False)
