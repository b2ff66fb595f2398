"""Neuroevolution of network topologies and weights.

Genomes are feed-forward only: node genes plus innovation-numbered
connection genes, evolved by weight perturbation, add-connection and
add-node mutations, innovation-aligned crossover, and compatibility-based
speciation with fitness sharing. The fitness function is pluggable; trading
fitness lives in :mod:`tradelab.optimize`.

Determinism contract: a run is fully determined by (seed, fitness function,
config). Every child's mutation RNG is derived from (run seed, generation,
slot index in the new population), so outcomes do not depend on evaluation
order. The fitness function must be a function of the genome alone: elites
carried into the next generation keep their fitness and are not re-scored,
and so does a bred child that mutation left unchanged (a mutation-only
child, or a crossover of a parent with itself), which is a copy of its
parent. A genome whose outputs are unreachable is the exception: its score
is a floor relative to its own generation and is set again in the next.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import TradeLabError, ValidationError, require_finite

logger = logging.getLogger(__name__)

SIGMOID_SLOPE = 4.9


class CyclicGenome(ValidationError):
    """The connection graph contains a cycle; feed-forward evaluation is impossible."""


class ArityMismatch(TradeLabError):
    """Input vector length does not match the genome's input node count."""


class UnevaluatedParent(TradeLabError):
    """An operation that needs fitness was given an unevaluated genome."""


def _squash(z: float) -> float:
    """The sigmoid of a pre-activation ``z = SIGMOID_SLOPE * x``, clipped
    to 1.0 above 60 and 0.0 below -60."""
    if z > 60.0:
        return 1.0
    if z < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-z))


def steep_sigmoid(x: float) -> float:
    return _squash(SIGMOID_SLOPE * x)


class NodeKind(Enum):
    INPUT = "input"
    BIAS = "bias"
    HIDDEN = "hidden"
    OUTPUT = "output"


# the activation evaluation applies to each node kind: inputs and the bias
# pass through, hidden and output nodes use steep_sigmoid
ACTIVATIONS = {NodeKind.INPUT: "identity", NodeKind.BIAS: "identity",
               NodeKind.HIDDEN: "sigmoid", NodeKind.OUTPUT: "sigmoid"}


@dataclass(frozen=True, slots=True)
class NodeGene:
    id: int
    kind: NodeKind
    activation: str = "sigmoid"


@dataclass(slots=True)
class ConnectionGene:
    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool = True


@dataclass
class Genome:
    """A network blueprint: node genes plus innovation-ordered connection genes."""

    nodes: list[NodeGene]
    connections: list[ConnectionGene]
    fitness: float | None = None

    def copy(self, keep_fitness: bool = False) -> "Genome":
        return Genome(
            nodes=list(self.nodes),
            connections=[ConnectionGene(c.innovation, c.src, c.dst, c.weight, c.enabled)
                         for c in self.connections],
            fitness=self.fitness if keep_fitness else None,
        )

    def node_ids(self) -> set[int]:
        return {n.id for n in self.nodes}

    def ids_of(self, kind: NodeKind) -> list[int]:
        return sorted(n.id for n in self.nodes if n.kind is kind)

    def connection_pairs(self) -> set[tuple[int, int]]:
        return {(c.src, c.dst) for c in self.connections}


def validate_genome(genome: Genome) -> None:
    """Raise if the genome breaks its structural invariants."""
    ids = [n.id for n in genome.nodes]
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate node ids")
    for n in genome.nodes:
        if n.activation != ACTIVATIONS[n.kind]:
            raise ValidationError(f"node {n.id} ({n.kind.value}) must use activation "
                                  f"{ACTIVATIONS[n.kind]!r}, got {n.activation!r}")
    id_set = set(ids)
    pairs = set()
    innovations = set()
    for c in genome.connections:
        if c.src not in id_set or c.dst not in id_set:
            raise ValidationError(f"connection {c.innovation} references unknown node")
        if (c.src, c.dst) in pairs:
            raise ValidationError(f"duplicate connection pair {(c.src, c.dst)}")
        if c.innovation in innovations:
            raise ValidationError(f"duplicate innovation {c.innovation}")
        pairs.add((c.src, c.dst))
        innovations.add(c.innovation)
    _topological_order(genome)  # raises CyclicGenome on a cycle


def _topological_order(genome: Genome) -> list[int]:
    """Kahn's algorithm over all connection genes (disabled included)."""
    indegree = {n.id: 0 for n in genome.nodes}
    out_edges: dict[int, list[int]] = {n.id: [] for n in genome.nodes}
    for c in genome.connections:
        out_edges[c.src].append(c.dst)
        indegree[c.dst] += 1
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for dst in out_edges[nid]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) != len(genome.nodes):
        raise CyclicGenome("connection graph contains a cycle")
    return order


# Weighted inputs per generated sum. A generated sum nests one level per
# term, and the compiler overflows its stack near 3,000 terms (1,000
# compile on CPython 3.10 and 3.11), so a longer sum is chained: each part
# of at most this many terms continues the previous part's total.
_SUM_TERMS = 256
# A row is labelled by pre-activation alone when its top output's
# z exceeds every other output's by more than _WIN_GAP and lies in
# [-60, _WIN_CEILING]; see _network_kernel for why the label is exact.
_WIN_GAP = 1 / 32
_WIN_CEILING = 30.0
# The most network kernels kept at once; the oldest is dropped first.
_KERNEL_LIMIT = 1024
# network shape -> kernel, in the order they were generated; see
# _network_kernel. Shared by every evaluator in the process.
_NETWORK_KERNELS: dict = {}
_KERNEL_NUMBERS = itertools.count()


def _first_largest(labels, *zs):
    """``labels[i]`` for the first output i whose squashed pre-activation
    ``zs[i]`` is the largest: the last one that exceeds every value before
    it, else the first (the tie rule of ``max``; a NaN never exceeds)."""
    label, best = labels[0], _squash(zs[0])
    for other, z in zip(labels[1:], zs[1:]):
        value = _squash(z)
        if value > best:
            label, best = other, value
    return label


def _network_kernel(shape):
    """The row kernel for one network shape, generated on first use and
    cached.

    ``shape`` is ``(inputs, biases, sources, outputs)``: the number of
    input and of bias slots, the source slots of each computed node in
    evaluation order (each in connection-gene order), and the output slots.
    Slots are numbered as in :class:`NetworkEvaluator`.

    ``kernel(columns, weights, labels)`` is one comprehension over the rows
    of the input columns. Per row it binds every computed node in turn with
    ``for v in [...]`` (which CPython compiles to a plain assignment, not a
    loop): the node's terms summed left to right, the first seeding the sum,
    times the slope, through ``_squash``'s expression inlined with its clip
    branches. A term is ``x * w`` for an input or a node and the weight
    itself for a bias. A node with no terms is 0.5. The weights, one per
    term in node and gene order, and the labels are arguments and never
    part of the source, so every genome of one shape shares its kernel.

    A row yields ``labels[i]`` for the first output i that holds the
    largest value (the tie rule of ``max``). With one output that is
    ``labels[0]``. With more, each output binds its pre-activation ``z``
    (the same float the sigmoid is taken of); one that feeds another node
    binds its sigmoid value too. The row yields ``labels[i]`` without any
    sigmoid when ``-60 <= z_i <= T`` and ``z_i - G > z_j`` for every other
    output j (``G`` is ``_WIN_GAP``, 1/32, and ``T`` is ``_WIN_CEILING``,
    30); any other row goes to ``_first_largest``, which squashes every z
    and applies the tie rule, with the bits of the sigmoid path.

    The shortcut gives the same label. Take ``-60 <= z_b`` and
    ``z_b + G <= z_a <= T`` (``fl(z_a - G) > z_b`` implies it, rounding
    being monotone), and write ``e = exp(-z)``. Then ``e_b - e_a >=
    (1 - e^-G) * e_b``: at least 3% of ``e_b``, and, as ``e_b >= e^-30``,
    at least about 2.9e-15, 13 ulps of 1.0. An ``exp`` within 4 ulps (glibc
    documents at most 1) moves each e by at most 4 ulps of 1.0 when
    ``e_b <= 1``, and by a negligible share of the 3% when ``e_b > 1``, so
    after ``1 + e`` is rounded ``fl(1 + e_b) > fl(1 + e_a)`` still holds,
    several ulps apart, and the correctly rounded reciprocal keeps the two
    sigmoids strictly ordered: ``s(z_a) > s(z_b)``. Both z are at most
    T < 60, so neither is clipped to 1.0. An output with ``z_j < -60``
    squashes to 0.0, below ``s(-60) > 0``. So the z-maximum is the unique
    sigmoid maximum and the tie rule never applies. NaN and infinite z fail
    the comparisons and take ``_first_largest``.
    """
    kernel = _NETWORK_KERNELS.get(shape)
    if kernel is not None:
        return kernel
    n_inputs, n_biases, sources, outputs = shape
    first_node = n_inputs + n_biases
    ranked = set(outputs) if len(outputs) > 1 else set()
    fed = {src for slots in sources for src in slots}
    clauses = []
    n_weights = 0
    for dst, slots in enumerate(sources, first_node):
        # a ranked output binds z{dst}; its value v{dst} only when a node reads it
        z = f"z{dst}" if dst in ranked else "z"
        squashed = dst not in ranked or dst in fed
        if not slots:
            if dst in ranked:
                clauses.append(f"for {z} in [0.0]")
            if squashed:
                clauses.append(f"for v{dst} in [0.5]")
            continue
        terms = []
        for src in slots:
            if src < n_inputs:
                terms.append(f"x{src} * w{n_weights}")
            elif src < first_node:
                terms.append(f"w{n_weights}")
            else:
                terms.append(f"v{src} * w{n_weights}")
            n_weights += 1
        total = " + ".join(terms[:_SUM_TERMS])
        for start in range(_SUM_TERMS, len(terms), _SUM_TERMS):
            clauses.append(f"for t in [{total}]")
            total = " + ".join(["t"] + terms[start:start + _SUM_TERMS])
        clauses.append(f"for {z} in [slope * ({total})]")
        if squashed:
            clauses.append(f"for v{dst} in [1.0 if {z} > 60.0 else 0.0 if {z} < -60.0"
                           f" else 1.0 / (1.0 + exp(-{z}))]")
    if ranked:
        zs = [f"z{slot}" for slot in outputs]
        row = f"first_largest(labels, {', '.join(zs)})"
        for i in reversed(range(len(zs))):
            # z_i - G > z_j for every other j, two others to a chained comparison
            lead, others = f"{zs[i]} - {_WIN_GAP!r}", zs[:i] + zs[i + 1:]
            gaps = [f"{a} < {lead} > {b}" for a, b in zip(others[::2], others[1::2])]
            if len(others) % 2:
                gaps.append(f"{lead} > {others[-1]}")
            row = (f"l{i} if {' and '.join(gaps)} and -60.0 <= {zs[i]} <= {_WIN_CEILING!r}"
                   f" else {row}")
    else:
        row = "l0"
    if n_inputs == 0:
        rows = "for _ in ()"
    elif n_inputs == 1:
        rows = "for x0 in columns[0]"
    else:
        rows = f"for {', '.join(f'x{i}' for i in range(n_inputs))} in zip(*columns)"
    source = ("def kernel(columns, weights, labels, slope=slope, exp=exp,"
              " first_largest=first_largest):\n")
    if n_weights:
        source += f"    {''.join(f'w{k}, ' for k in range(n_weights))}= weights\n"
    source += f"    {''.join(f'l{i}, ' for i in range(len(outputs)))}= labels\n"
    # one clause a line: short lines keep the code's position table small
    body = "".join(f"        {clause}\n" for clause in [rows, *clauses])
    source += f"    return [{row}\n{body}    ]\n"
    namespace = {"slope": SIGMOID_SLOPE, "exp": math.exp, "first_largest": _first_largest}
    # a file name of its own gives each kernel its own row in a profile
    exec(compile(source, f"<network kernel {next(_KERNEL_NUMBERS)}>", "exec"), namespace)
    if len(_NETWORK_KERNELS) >= _KERNEL_LIMIT:
        del _NETWORK_KERNELS[next(iter(_NETWORK_KERNELS))]
    kernel = _NETWORK_KERNELS[shape] = namespace["kernel"]
    return kernel


# The most structural plans kept at once; the oldest is dropped first.
_PLAN_LIMIT = 256
# structure key -> plan, in the order they were built; see _plan
_PLANS: dict = {}


class _Plan(NamedTuple):
    """What evaluating a genome needs of its structure alone; see _plan."""
    input_ids: tuple
    output_ids: tuple
    genes: tuple  # the gene index of each term, in node then gene order
    shape: tuple | None  # the kernel shape; None if cyclic
    tail: tuple  # the slots after the inputs: 1.0 per bias, 0.0 per computed node
    reachable: bool


def _plan(genome: Genome) -> _Plan:
    """The structural plan of a genome, built on first use and cached per
    process. The key, taken afresh on every call so that an edit in place is
    seen, is the node ids and kinds and each gene's ``(src, dst, enabled)``
    in gene order: never weights, innovation numbers or object identity. A
    kind enters it as its value string, whose hash is cached, not as the
    member, whose hash is a Python call. A cyclic genome's plan has no shape."""
    nodes, conns = genome.nodes, genome.connections
    # one flat tuple: node ids, node kinds, None, then gene srcs, dsts and flags
    key = (*[n.id for n in nodes], *[n.kind._value_ for n in nodes], None,
           *[c.src for c in conns], *[c.dst for c in conns], *[c.enabled for c in conns])
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    input_ids, bias_ids, output_ids = [genome.ids_of(kind) for kind in
                                       (NodeKind.INPUT, NodeKind.BIAS, NodeKind.OUTPUT)]
    fixed = input_ids + bias_ids
    edges: dict[int, list[int]] = {}
    incoming: dict[int, list[int]] = {n.id: [] for n in nodes}
    for i, c in enumerate(conns):
        if c.enabled:
            edges.setdefault(c.src, []).append(c.dst)
            incoming[c.dst].append(i)
    frontier, seen = list(fixed), set(fixed)
    while frontier:
        for dst in edges.get(frontier.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    try:
        order = _topological_order(genome)
    except CyclicGenome:
        genes, shape, tail = (), None, ()
    else:
        skip = set(fixed)
        computed = [nid for nid in order if nid not in skip]
        slot = {nid: i for i, nid in enumerate(fixed + computed)}
        genes = tuple([i for nid in computed for i in incoming[nid]])
        sources = tuple([tuple([slot[conns[i].src] for i in incoming[nid]]) for nid in computed])
        shape = (len(input_ids), len(bias_ids), sources, tuple([slot[nid] for nid in output_ids]))
        tail = (1.0,) * len(bias_ids) + (0.0,) * len(computed)
    plan = _Plan(tuple(input_ids), tuple(output_ids), genes, shape, tail,
                 all(nid in seen for nid in output_ids))
    if len(_PLANS) >= _PLAN_LIMIT:
        del _PLANS[next(iter(_PLANS))]
    _PLANS[key] = plan
    return plan


class NetworkEvaluator:
    """Compiled feed-forward evaluator for one genome.

    Nodes get value slots: the inputs first, then the bias nodes, then every
    other node in topological order. Each step computes one node from its
    ``(src_slot, weight)`` pairs, kept in connection-gene order. Build once
    per genome, then call :meth:`activate` per input vector, or
    :meth:`argmax_columns` for the label of its largest output on many
    vectors at once, with the bits of :meth:`activate`. That runs one kernel
    per network shape that computes every node of a row in one pass (see
    :func:`_network_kernel`); genomes of the same shape share it.

    The slots, each node's sources and the kernel shape depend on the
    structure alone, and come from the genome's plan, which is cached per
    process and keyed by node ids and kinds and each gene's ``(src, dst,
    enabled)`` (see :func:`_plan`). A build only gathers the weights.
    """

    def __init__(self, genome: Genome):
        plan = _plan(genome)
        if plan.shape is None:
            raise CyclicGenome("connection graph contains a cycle")
        self.input_ids, self.output_ids = plan[:2]
        n_inputs, n_biases, sources, self._output_slots = self._shape = plan.shape
        conns = genome.connections
        self._weights = [conns[i].weight for i in plan.genes]
        # zip stops at the end of a node's sources, so it takes that node's weights
        weights = iter(self._weights)
        self._steps = [(slot, list(zip(srcs, weights)))
                       for slot, srcs in enumerate(sources, n_inputs + n_biases)]
        self._tail = plan.tail

    def activate(self, inputs: list[float]) -> list[float]:
        if len(inputs) != len(self.input_ids):
            raise ArityMismatch(f"expected {len(self.input_ids)} inputs, got {len(inputs)}")
        values = [*inputs, *self._tail]
        for dst, incoming in self._steps:
            total = 0.0
            for src, weight in incoming:
                total += values[src] * weight
            values[dst] = _squash(SIGMOID_SLOPE * total)
        return [values[s] for s in self._output_slots]

    def argmax_columns(self, columns, labels) -> list:
        """For each row of the input columns, ``labels[i]`` for the output i
        that ``activate`` gives the largest value; the first such output wins
        a tie, as with ``max``.

        The bits equal ``activate``'s. A node's sum has the same products in
        the same order, except that the first term seeds the sum where
        ``activate`` adds it to 0.0, which changes at most the sign of a zero
        sum (the sigmoid maps both zeros to 0.5), and a bias term is its
        weight, which equals ``1.0 * weight`` exactly.
        """
        if len(labels) != len(self.output_ids) or not labels:
            raise ArityMismatch(f"expected one label per output ({len(self.output_ids)}), "
                                f"got {len(labels)}")
        if len(columns) != len(self.input_ids):
            raise ArityMismatch(f"expected {len(self.input_ids)} inputs, got {len(columns)}")
        count = len(columns[0]) if columns else 0
        if any(len(column) != count for column in columns):
            raise ArityMismatch("input columns differ in length")
        return _network_kernel(self._shape)(columns, self._weights, labels)


def outputs_reachable(genome: Genome) -> bool:
    """True when every output node is fed, via enabled connections, from some
    input or bias node. Read off the genome's cached plan."""
    return _plan(genome).reachable


# ---------------------------------------------------------------------------
# Innovation bookkeeping
# ---------------------------------------------------------------------------

class InnovationTracker:
    """Allocates innovation numbers and node ids for one evolution run.

    Event caches are scoped to a generation: the same structural mutation
    (same endpoints, or the same connection split) occurring twice within a
    generation reuses its numbers; across generations it gets fresh ones.
    """

    def __init__(self):
        self.next_innovation = 0
        self.next_node_id = 0
        self._conn_events: dict[tuple[int, int], int] = {}
        self._split_events: dict[int, tuple[int, int, int]] = {}

    def begin_generation(self) -> None:
        self._conn_events.clear()
        self._split_events.clear()

    def reserve_node_ids(self, count: int) -> None:
        self.next_node_id = max(self.next_node_id, count)

    def connection(self, src: int, dst: int) -> int:
        key = (src, dst)
        found = self._conn_events.get(key)
        if found is not None:
            return found
        innovation = self.next_innovation
        self.next_innovation += 1
        self._conn_events[key] = innovation
        return innovation

    def split(self, innovation: int) -> tuple[int, int, int]:
        found = self._split_events.get(innovation)
        if found is not None:
            return found
        node_id = self.next_node_id
        self.next_node_id += 1
        into = self.next_innovation
        out = self.next_innovation + 1
        self.next_innovation += 2
        event = (node_id, into, out)
        self._split_events[innovation] = event
        return event


def initial_genome(n_inputs: int, n_outputs: int, tracker: InnovationTracker,
                   rng: random.Random, weight_span: float) -> Genome:
    """Minimal starting topology: inputs plus one bias, fully connected to
    the outputs with random weights."""
    nodes = [NodeGene(i, NodeKind.INPUT, "identity") for i in range(n_inputs)]
    nodes.append(NodeGene(n_inputs, NodeKind.BIAS, "identity"))
    out_ids = list(range(n_inputs + 1, n_inputs + 1 + n_outputs))
    nodes.extend(NodeGene(i, NodeKind.OUTPUT) for i in out_ids)
    tracker.reserve_node_ids(n_inputs + 1 + n_outputs)
    connections = []
    for src in range(n_inputs + 1):
        for dst in out_ids:
            connections.append(
                ConnectionGene(tracker.connection(src, dst), src, dst,
                               rng.uniform(-weight_span, weight_span))
            )
    connections.sort(key=lambda c: c.innovation)
    return Genome(nodes=nodes, connections=connections)


# ---------------------------------------------------------------------------
# Distance, mutation, crossover
# ---------------------------------------------------------------------------

# The largest weight_cap and weight_step, like the price bound: uniform()
# over [-1e100, 1e100] and a weight plus a step stay far from overflow.
_MAX_WEIGHT = 1e100


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 150
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 0.4
    compatibility_threshold: float = 3.0
    weight_mutation_rate: float = 0.8
    weight_step: float = 0.5
    weight_reset_rate: float = 0.1
    weight_init_span: float = 2.0
    weight_cap: float = 8.0
    add_connection_rate: float = 0.05
    add_node_rate: float = 0.03
    crossover_rate: float = 0.75
    survival_fraction: float = 0.2
    elitism: int = 1
    staleness_limit: int = 15
    max_generations: int = 100
    seed: int = 0

    def validate(self) -> None:
        require_finite(self)
        if self.population_size < 2:
            raise ValidationError("population_size must be >= 2")
        for name in ("weight_mutation_rate", "weight_reset_rate", "add_connection_rate",
                     "add_node_rate", "crossover_rate", "survival_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValidationError("elitism must be in [0, population_size)")
        for name in ("c1", "c2", "c3"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.compatibility_threshold > 0:
            raise ValidationError(
                f"compatibility_threshold must be > 0, got {self.compatibility_threshold}")
        if not 0.0 < self.weight_cap <= _MAX_WEIGHT:
            raise ValidationError(f"weight_cap must be in (0, 1e100], got {self.weight_cap}")
        # newborn weights are drawn from [-span, span] without clamping to the cap
        if not 0.0 <= self.weight_init_span <= self.weight_cap:
            raise ValidationError(f"weight_init_span must be in [0, weight_cap "
                                  f"{self.weight_cap}], got {self.weight_init_span}")
        if not 0.0 <= self.weight_step <= _MAX_WEIGHT:
            raise ValidationError(f"weight_step must be in [0, 1e100], got {self.weight_step}")
        if self.max_generations < 0:
            raise ValidationError(f"max_generations must be >= 0, got {self.max_generations}")

    __post_init__ = validate  # a config that exists is valid


def _structure(innovations_a, innovations_b, config: EvolutionConfig) -> tuple[float, int]:
    """``(c1*E/N + c2*D/N, matching)`` of two ascending innovation lists.

    The shared innovations match. Only the list with the larger top
    innovation holds excess genes: those above the other's top. The other
    unmatched genes are disjoint. The result depends on the lists alone, and
    on neither their order nor the weights."""
    len_a, len_b = len(innovations_a), len(innovations_b)
    max_a = innovations_a[-1] if innovations_a else -1
    max_b = innovations_b[-1] if innovations_b else -1
    matching = len(set(innovations_a).intersection(innovations_b))
    if max_a > max_b:
        excess = len_a - bisect_right(innovations_a, max_b)
    elif max_b > max_a:
        excess = len_b - bisect_right(innovations_b, max_a)
    else:
        excess = 0
    disjoint = len_a + len_b - 2 * matching - excess
    n = max(len_a, len_b)
    if n < 20:
        n = 1
    return config.c1 * excess / n + config.c2 * disjoint / n, matching


def _weight_term(connections, weights: dict[int, float], matching: int,
                 config: EvolutionConfig) -> float:
    """``c3*mean|dw|`` of a genome's genes against another's
    ``{innovation: weight}`` map, given their ``matching`` count. ``|dw|`` is
    summed in the genome's (ascending) innovation order, which is the order
    and the floats of a merge walk over both gene lists."""
    weight_diff = 0.0
    for c in connections:
        other = weights.get(c.innovation)
        if other is not None:
            weight_diff += abs(c.weight - other)
    return config.c3 * (weight_diff / matching if matching else 0.0)


def compatibility_distance(a: Genome, b: Genome, config: EvolutionConfig) -> float:
    """c1*E/N + c2*D/N + c3*mean|dw| over matching innovations; N is the
    larger gene count, forced to 1 when both genomes are small (< 20).

    E counts the excess genes, D the disjoint ones. The structural part and
    the weight term are the two functions :func:`speciate` runs, without its
    memo and early exit."""
    structural, matching = _structure([c.innovation for c in a.connections],
                                      [c.innovation for c in b.connections], config)
    weights_b = {c.innovation: c.weight for c in b.connections}
    return structural + _weight_term(a.connections, weights_b, matching, config)


def _descendants(genome: Genome) -> dict[int, set[int]]:
    edges: dict[int, list[int]] = {}
    for c in genome.connections:
        edges.setdefault(c.src, []).append(c.dst)
    out: dict[int, set[int]] = {}
    for node in genome.nodes:
        seen: set[int] = set()
        stack = list(edges.get(node.id, ()))
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(edges.get(nid, ()))
        out[node.id] = seen
    return out


def _legal_new_connections(genome: Genome) -> list[tuple[int, int]]:
    """Candidate (src, dst) pairs that keep the gene graph acyclic and
    duplicate-free. Deterministically ordered."""
    existing = genome.connection_pairs()
    reach = _descendants(genome)
    sources = [n.id for n in genome.nodes if n.kind is not NodeKind.OUTPUT]
    targets = [n.id for n in genome.nodes if n.kind in (NodeKind.HIDDEN, NodeKind.OUTPUT)]
    legal = []
    for src in sorted(sources):
        for dst in sorted(targets):
            if src == dst or (src, dst) in existing:
                continue
            if src in reach[dst]:
                continue
            legal.append((src, dst))
    return legal


def mutate(genome: Genome, config: EvolutionConfig, rng: random.Random,
           tracker: InnovationTracker) -> Genome:
    """Return a mutated copy: weight perturbation/reset, node insertion by
    splitting a connection, and acyclicity-preserving connection addition."""
    g = genome.copy()
    _mutate_in_place(g, config, rng, tracker)
    return g


def _mutate_in_place(g: Genome, config: EvolutionConfig, rng: random.Random,
                     tracker: InnovationTracker) -> bool:
    """The body of :func:`mutate`, applied to a genome nobody else holds.
    Returns whether it changed the genome: weights perturbed, a node split
    applied or a gene added. The RNG draws are the same either way."""
    changed = False
    if g.connections and rng.random() < config.weight_mutation_rate:
        changed = True
        for conn in g.connections:
            if rng.random() < config.weight_reset_rate:
                conn.weight = rng.uniform(-config.weight_init_span, config.weight_init_span)
            else:
                conn.weight += rng.uniform(-config.weight_step, config.weight_step)
            conn.weight = max(-config.weight_cap, min(config.weight_cap, conn.weight))

    appended = False
    if rng.random() < config.add_node_rate:
        enabled = [c for c in g.connections if c.enabled]
        if enabled:
            conn = enabled[rng.randrange(len(enabled))]
            node_id, innov_in, innov_out = tracker.split(conn.innovation)
            if node_id not in g.node_ids():
                old_weight = conn.weight
                conn.enabled = False
                g.nodes.append(NodeGene(node_id, NodeKind.HIDDEN))
                g.connections.append(ConnectionGene(innov_in, conn.src, node_id, 1.0))
                g.connections.append(ConnectionGene(innov_out, node_id, conn.dst, old_weight))
                appended = True

    if rng.random() < config.add_connection_rate:
        candidates = _legal_new_connections(g)
        if candidates:
            src, dst = candidates[rng.randrange(len(candidates))]
            g.connections.append(
                ConnectionGene(tracker.connection(src, dst), src, dst,
                               rng.uniform(-config.weight_init_span, config.weight_init_span))
            )
            appended = True
        else:
            logger.debug("add-connection skipped: topology saturated")

    if appended:
        g.connections.sort(key=lambda c: c.innovation)
    return changed or appended


def crossover(parent_a: Genome, parent_b: Genome, rng: random.Random) -> Genome:
    """Innovation-aligned recombination.

    Matching genes come from either parent at random; disjoint and excess
    genes (and the node set) come from the fitter parent, with a coin flip
    deciding the lead on a fitness tie. The child therefore inherits the
    lead parent's topology, which keeps it acyclic by construction.
    """
    if parent_a.fitness is None or parent_b.fitness is None:
        raise UnevaluatedParent("both parents need an assigned fitness")
    if parent_a.fitness > parent_b.fitness:
        lead, other = parent_a, parent_b
    elif parent_b.fitness > parent_a.fitness:
        lead, other = parent_b, parent_a
    else:
        lead, other = (parent_a, parent_b) if rng.random() < 0.5 else (parent_b, parent_a)
    other_genes = {c.innovation: c for c in other.connections}
    child_conns = []
    for gene in lead.connections:
        match = other_genes.get(gene.innovation)
        source = match if match is not None and rng.random() < 0.5 else gene
        child_conns.append(ConnectionGene(gene.innovation, gene.src, gene.dst,
                                          source.weight, source.enabled))
    return Genome(nodes=list(lead.nodes), connections=child_conns)


# ---------------------------------------------------------------------------
# Speciation and generations
# ---------------------------------------------------------------------------

@dataclass
class Species:
    id: int
    representative: Genome
    members: list[Genome] = field(default_factory=list)
    staleness: int = 0
    best_fitness: float = -math.inf


def speciate(genomes: list[Genome], previous: list[Species],
             config: EvolutionConfig) -> list[Species]:
    """Assign genomes to the first compatible species (distance below the
    threshold against the representative), creating new species as needed.

    The structural part of a distance depends on the innovation lists alone,
    and a population holds few distinct lists, so each distinct list gets one
    row per call: the structural result against each representative, filled
    in representative order as far as some genome of that list has walked.
    The weight term is added only where the structural part is below the
    threshold. A structural part at or above it rejects the pair as it is:
    adding ``c3*mean|dw| >= 0`` cannot bring a sum below it under
    round-to-nearest, so every decision is exactly the one the full
    :func:`compatibility_distance` gives."""
    shells = [Species(s.id, s.representative, [], s.staleness, s.best_fitness)
              for s in previous]
    # per representative: its innovation list and {innovation: weight} map
    reps = []
    for s in shells:
        conns = s.representative.connections
        reps.append(([c.innovation for c in conns], {c.innovation: c.weight for c in conns}))
    rows: dict[tuple[int, ...], list[tuple[float, int]]] = {}
    threshold = config.compatibility_threshold
    next_id = max((s.id for s in shells), default=-1) + 1
    for g in genomes:
        conns = g.connections
        innovations = tuple([c.innovation for c in conns])
        row = rows.setdefault(innovations, [])
        for i, (s, (rep_innovations, rep_weights)) in enumerate(zip(shells, reps)):
            if i == len(row):
                row.append(_structure(innovations, rep_innovations, config))
            structural, matching = row[i]
            if structural < threshold and structural + _weight_term(
                    conns, rep_weights, matching, config) < threshold:
                s.members.append(g)
                break
        else:
            shells.append(Species(next_id, g, [g]))
            reps.append((innovations, {c.innovation: c.weight for c in conns}))
            next_id += 1
    return [s for s in shells if s.members]


def allocate_offspring(weights: list[float], total: int) -> list[int]:
    """Largest-remainder split of ``total`` offspring proportional to
    weights; equal split when all weights are zero. Sums exactly to total."""
    if not weights:
        return []
    if total <= 0:
        return [0] * len(weights)
    wsum = sum(weights)
    if wsum <= 0:
        raw = [total / len(weights)] * len(weights)
    else:
        raw = [w / wsum * total for w in weights]
    base = [int(r) for r in raw]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float


def _child_rng(seed: int, generation: int, slot: int) -> random.Random:
    # Disjoint bit fields keep (seed, generation, slot) streams distinct.
    return random.Random((seed << 40) ^ (generation << 20) ^ slot)


def _carried(genome: Genome) -> Genome:
    """A copy of a genome that enters the next generation unchanged. It keeps
    its fitness, which a deterministic fitness function would only repeat,
    unless its outputs are unreachable: that fitness is a floor relative to
    its old generation, which ``evaluate`` sets again for the new one."""
    return genome.copy(keep_fitness=outputs_reachable(genome))


class Evolution:
    """One seeded evolution run over a fixed input/output arity."""

    def __init__(self, n_inputs: int, n_outputs: int, config: EvolutionConfig):
        if n_inputs < 1 or n_outputs < 1:
            raise ValidationError("need at least one input and one output")
        self.config = config
        self.tracker = InnovationTracker()
        self.tracker.begin_generation()
        self._rng = random.Random(config.seed)
        self.generation = 0
        self.population = [
            initial_genome(n_inputs, n_outputs, self.tracker, self._rng, config.weight_init_span)
            for _ in range(config.population_size)
        ]
        self.species: list[Species] = []
        self.best: Genome | None = None
        self.history: list[GenerationStats] = []
        self.extinctions = 0

    def evaluate(self, fitness_fn) -> GenerationStats:
        """Assign fitness to every genome that has none; unreachable-output
        genomes get a floor just below the worst fitness in the population.
        A non-finite fitness is a ValidationError and is not stored."""
        unreachable = []
        for g in self.population:
            if g.fitness is not None:
                continue
            if outputs_reachable(g):
                fitness = float(fitness_fn(g))
                if not math.isfinite(fitness):
                    raise ValidationError(f"fitness function returned {fitness} at generation "
                                          f"{self.generation}; fitness must be finite")
                g.fitness = fitness
            else:
                unreachable.append(g)
        if unreachable:
            evaluated = [g.fitness for g in self.population if g.fitness is not None]
            floor = (min(evaluated) if evaluated else 0.0) - 1.0
            for g in unreachable:
                g.fitness = floor
        gen_best = max(self.population, key=lambda g: g.fitness)
        if self.best is None or gen_best.fitness > self.best.fitness:
            self.best = gen_best.copy(keep_fitness=True)
        mean = sum(g.fitness for g in self.population) / len(self.population)
        stats = GenerationStats(self.generation, gen_best.fitness, mean)
        self.history.append(stats)
        return stats

    def next_generation(self) -> None:
        """Replace the population: speciate, drop stale species, share
        fitness, and breed per-species quotas with global elitism."""
        if any(g.fitness is None for g in self.population):
            raise UnevaluatedParent("population must be fully evaluated first")
        config = self.config
        self.species = speciate(self.population, self.species, config)
        for s in self.species:
            top = max(m.fitness for m in s.members)
            if top > s.best_fitness:
                s.best_fitness = top
                s.staleness = 0
            else:
                s.staleness += 1
            s.representative = s.members[0]

        best_ever = self.best.fitness if self.best is not None else -math.inf
        alive = [s for s in self.species
                 if s.staleness <= config.staleness_limit
                 or any(m.fitness >= best_ever for m in s.members)]
        self.generation += 1
        self.tracker.begin_generation()

        if not alive:
            logger.warning("all species stale at generation %d; reseeding from best genome",
                           self.generation)
            self.extinctions += 1
            seed_genome = self.best if self.best is not None else self.population[0]
            fresh = [_carried(seed_genome)]
            for slot in range(1, config.population_size):
                rng = _child_rng(config.seed, self.generation, slot)
                fresh.append(mutate(seed_genome, config, rng, self.tracker))
            self.population = fresh
            self.species = []
            return

        elites = sorted(range(len(self.population)),
                        key=lambda i: (-self.population[i].fitness, i))[:config.elitism]
        new_population = [_carried(self.population[i]) for i in elites]

        members_alive = [m for s in alive for m in s.members]
        fmin = min(g.fitness for g in members_alive)
        weights = [sum(m.fitness - fmin for m in s.members) / len(s.members) for s in alive]
        quotas = allocate_offspring(weights, config.population_size - config.elitism)

        slot = config.elitism
        for s, quota in zip(alive, quotas):
            ranked = sorted(s.members, key=lambda g: -g.fitness)
            pool = ranked[:max(1, math.ceil(config.survival_fraction * len(ranked)))]
            for _ in range(quota):
                rng = _child_rng(config.seed, self.generation, slot)
                if len(pool) > 1 and rng.random() < config.crossover_rate:
                    p1 = pool[rng.randrange(len(pool))]
                    p2 = pool[rng.randrange(len(pool))]
                    child = crossover(p1, p2, rng)
                    # a crossover of a parent with itself copies it gene for gene
                    parent = p1 if p1 is p2 else None
                else:
                    parent = pool[rng.randrange(len(pool))]
                    child = parent.copy()
                if (not _mutate_in_place(child, config, rng, self.tracker)
                        and parent is not None and outputs_reachable(parent)):
                    # an unchanged copy keeps its parent's score, as a carried elite does
                    child.fitness = parent.fitness
                new_population.append(child)
                slot += 1
        self.population = new_population
        self.species = alive

    def run(self, fitness_fn, generations: int,
            stop_at: float | None = None) -> tuple[Genome, list[GenerationStats]]:
        """Evaluate generation 0 then evolve; returns the best genome ever
        seen (with fitness) and the per-generation history."""
        if not self.history:
            self.evaluate(fitness_fn)
        for _ in range(generations):
            if stop_at is not None and self.best.fitness >= stop_at:
                break
            self.next_generation()
            self.evaluate(fitness_fn)
        return self.best.copy(keep_fitness=True), list(self.history)


# ---------------------------------------------------------------------------
# Genome file format (line oriented: node/conn/fitness records)
# ---------------------------------------------------------------------------

def write_genome(genome: Genome, path: str | Path) -> None:
    lines = []
    for n in genome.nodes:
        lines.append(f"node {n.id} {n.kind.value} {n.activation}")
    for c in genome.connections:
        lines.append(f"conn {c.innovation} {c.src} {c.dst} {c.weight!r} {int(c.enabled)}")
    if genome.fitness is not None:
        lines.append(f"fitness {genome.fitness!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text}")
    return value


def read_genome(path: str | Path) -> Genome:
    nodes: list[NodeGene] = []
    connections: list[ConnectionGene] = []
    fitness = None
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read genome {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                nodes.append(NodeGene(int(parts[1]), NodeKind(parts[2]), parts[3]))
            elif parts[0] == "conn":
                connections.append(
                    ConnectionGene(int(parts[1]), int(parts[2]), int(parts[3]),
                                   _finite(parts[4], "weight"), bool(int(parts[5])))
                )
            elif parts[0] == "fitness":
                fitness = _finite(parts[1], "fitness")
            else:
                raise ValueError(f"unknown record '{parts[0]}'")
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad genome line: {exc}") from exc
    connections.sort(key=lambda c: c.innovation)
    genome = Genome(nodes=nodes, connections=connections, fitness=fitness)
    validate_genome(genome)
    return genome
