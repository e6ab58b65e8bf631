"""Symbolic pipeline for the large-N limit of words in tensor-power unitaries.

Pieces: linearization of a word against a base graph (each base edge becomes
a path, transpose blocks reversed), splitting a quotient into the two colored
subgraphs, the exact rational limit of injective traces of Haar words on
cactus graphs, and an exhaustive quotient ledger that certifies when every
contribution vanishes.

A ledger row is a light tuple (partition, multiplicity, row class). The row
class holds the scores: eta, the leaf counts, the validity of T1 and the
limit coefficient. One call makes one row class per distinct set of scores
and shares it among every row that has them; a B(9) ledger of 21,147 rows
has about 20. The verdict is read off the row classes, and the command
line renders each class's text once. Nothing outlives the call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import LinearGraph, adjoint_graph, disjoint_union
from .invariants import (VALID, _cactus_shape, _classify, _labeling,
                         leaf_count, quotient_forests, split_by_color,
                         splitting_exponent)
from .operands import TensorOperand, permutation_matrix
from .partitions import _normalize
from .sampling import MCReport, haar_sweep, symmetrize
from .traces import injective_graph_trace
from .words import StarWord, is_trivial

PREDICT_VERTEX_CAP = 10  # Bell(10) = 115975 quotients
_ZERO = Fraction(0)  # the limit of every labeling that is not VALID


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
    return _limit(*_labeling(graph, delta, eps))


def _limit(validity: str, shape) -> Fraction:
    """The Haar limit of a labeling from its validity and cactus shape
    (`invariants._cactus_shape`): the product of the cycles' weights if it
    is VALID, zero otherwise."""
    if validity != VALID:
        return _ZERO
    out = Fraction(1)
    for cyc in shape:
        out *= cycle_limit_coefficient(len(cyc))
    return out


# --------------------------------------------------------------------------
# quotient ledger and the vanishing certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RowClass:
    """The scores that ledger rows share: one record per call for each
    distinct (leaf counts, vertex count, validity of T1, and its cactus
    shape when VALID), made the first time a quotient meets it. Rows of one
    call that agree on these share the record, so it compares by identity.
    """
    eta: Fraction
    leaf_defect: int      # L(T_M) - L(T'), always >= 0
    leaves: tuple[int, int, int]  # L(T'), L(T1), L(T2)
    validity: str         # classification of (T1, delta, eps)
    limit_coefficient: Fraction

    @property
    def dangerous(self) -> bool:
        """A surviving contribution: eta = 0 together with a valid T1."""
        return self.eta == 0 and self.validity == VALID


class QuotientEntry(NamedTuple):
    """One ledger row: the restricted-growth string of the first quotient
    of its isomorphism class, the number of quotients in the class, and
    the row class that holds its scores."""
    partition: str
    multiplicity: int
    row: RowClass

    eta = property(lambda e: e.row.eta)
    leaves_total = property(lambda e: e.row.leaves[0])  # L(T')
    leaves_t1 = property(lambda e: e.row.leaves[1])
    leaves_t2 = property(lambda e: e.row.leaves[2])
    leaf_defect = property(lambda e: e.row.leaf_defect)
    validity = property(lambda e: e.row.validity)
    limit_coefficient = property(lambda e: e.row.limit_coefficient)
    dangerous = property(lambda e: e.row.dangerous)


# the C constructor of the tuple: QuotientEntry(...) runs a Python __new__
_entry = functools.partial(tuple.__new__, QuotientEntry)


@dataclass
class FreenessCertificate:
    word: str
    blocks: tuple[int, int, int]
    doubled: bool
    verdict: str  # "VANISHES" or "INCONCLUSIVE"
    base_leaves: int
    entries: list[QuotientEntry] = field(default_factory=list)


def _quotient_class(rgs, touched) -> tuple:
    """Equal iff the quotients by the restricted-growth strings have equal
    canonical forms: the edges fix rgs on the touched vertices; isolated
    vertices only add blocks."""
    return max(rgs) + 1, _normalize([rgs[v] for v in touched])


def predict_freeness_limit(word: StarWord, base: LinearGraph, k1: int,
                           k2: int, k3: int, *,
                           include_variance_graph: bool = False) -> FreenessCertificate:
    """Enumerate every quotient of the linearized graph and certify that no
    contribution to the normalized expected trace survives the limit.

    Each quotient is scored by its splitting exponent and the validity of
    its Haar-colored subgraph; the verdict is VANISHES exactly when no
    quotient has simultaneously a zero exponent and a valid subgraph.
    Order-isomorphic quotients are deduplicated (multiplicities kept);
    when every vertex carries an edge no two quotients are isomorphic, and
    each restricted-growth string is its own class. Rows with equal scores
    share one `RowClass`, and the verdict is read off the row classes.
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
    edges, touched = graph.edges, sorted(graph.touched_vertices())
    layers = [edges]  # T', and T1 and T2 apart when there is a V block
    if any(m.block == "v" for m in lin.meta):
        layers += [[e for e, m in zip(edges, lin.meta) if m.block != "v"],
                   [e for e, m in zip(edges, lin.meta) if m.block == "v"]]
    every_vertex = len(touched) == graph.vertex_count
    base_leaves = leaf_count(graph)
    rows: dict = {}  # (lt, l1, l2, nv, validity, VALID shape) -> RowClass
    counts: dict = {}  # isomorphism class -> quotients, when classes merge
    entries = []  # the first quotient of each class, in walk order
    for rgs, partition, forests in quotient_forests(graph.vertex_count,
                                                    layers):
        if not every_vertex:
            key = _quotient_class(rgs, touched)
            if key in counts:
                counts[key] += 1
                continue
            counts[key] = 1
        nv = max(rgs) + 1
        lt = forests[0].leaves(rgs, edges)
        if len(layers) == 3:
            f1, e1 = forests[1], layers[1]
            l1 = f1.leaves(rgs, e1)
            l2 = forests[2].leaves(rgs, layers[2])
        else:  # no V block: T1 is T' and T2 is edgeless
            f1, e1, l1, l2 = forests[0], edges, lt, 2 * nv
        shape = _cactus_shape(f1, rgs, e1)
        validity = _classify(shape, delta, eps)
        scores = (lt, l1, l2, nv, validity,
                  shape if validity == VALID else None)
        row = rows.get(scores)
        if row is None:
            row = rows[scores] = RowClass(
                splitting_exponent(lt, l1, l2, nv), base_leaves - lt,
                (lt, l1, l2), validity, _limit(validity, shape))
        entries.append(_entry((partition, 1, row)))
    if not every_vertex:
        entries = [e._replace(multiplicity=m)
                   for e, m in zip(entries, counts.values())]
    entries.sort(key=itemgetter(0))  # by partition
    verdict = "INCONCLUSIVE" if any(r.dangerous for r in rows.values()) \
        else "VANISHES"
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
