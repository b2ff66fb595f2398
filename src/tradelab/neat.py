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
carried into the next generation keep their fitness and are not re-scored.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import TradeLabError, ValidationError

logger = logging.getLogger(__name__)

SIGMOID_SLOPE = 4.9


class CyclicGenome(ValidationError):
    """The connection graph contains a cycle; feed-forward evaluation is impossible."""


class ArityMismatch(TradeLabError):
    """Input vector length does not match the genome's input node count."""


class UnevaluatedParent(TradeLabError):
    """An operation that needs fitness was given an unevaluated genome."""


def steep_sigmoid(x: float) -> float:
    z = SIGMOID_SLOPE * x
    if z > 60.0:
        return 1.0
    if z < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-z))


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

    def copy(self) -> "ConnectionGene":
        return ConnectionGene(self.innovation, self.src, self.dst, self.weight, self.enabled)


@dataclass
class Genome:
    """A network blueprint: node genes plus innovation-ordered connection genes."""

    nodes: list[NodeGene]
    connections: list[ConnectionGene]
    fitness: float | None = None

    def copy(self, keep_fitness: bool = False) -> "Genome":
        return Genome(
            nodes=list(self.nodes),
            connections=[c.copy() for c in self.connections],
            fitness=self.fitness if keep_fitness else None,
        )

    def node_ids(self) -> set[int]:
        return {n.id for n in self.nodes}

    def ids_of(self, kind: NodeKind) -> list[int]:
        return sorted(n.id for n in self.nodes if n.kind is kind)

    def connection_pairs(self) -> set[tuple[int, int]]:
        return {(c.src, c.dst) for c in self.connections}

    def size(self) -> int:
        return len(self.connections)


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


def _ids_by_kind(genome: Genome) -> tuple[list[int], list[int], list[int]]:
    """The sorted input, bias and output node ids, from one pass over the
    nodes that compares kinds by identity."""
    inputs, biases, outputs = [], [], []
    # reading a member off an Enum class is several times dearer than a local
    input_kind, bias_kind, output_kind = NodeKind.INPUT, NodeKind.BIAS, NodeKind.OUTPUT
    for node in genome.nodes:
        kind = node.kind
        if kind is input_kind:
            inputs.append(node.id)
        elif kind is output_kind:
            outputs.append(node.id)
        elif kind is bias_kind:
            biases.append(node.id)
    inputs.sort()
    biases.sort()
    outputs.sort()
    return inputs, biases, outputs


# Weighted inputs per generated sum. A generated sum nests one level per
# term, and the compiler overflows its stack near 3,000 terms (1,000
# compile on CPython 3.10 and 3.11), so a longer sum is chained: each part
# of at most this many terms continues the previous part's total.
_SUM_TERMS = 256
# The most network kernels kept at once; the oldest is dropped first.
_KERNEL_LIMIT = 1024
# network shape -> kernel, in the order they were generated; see
# _network_kernel. Shared by every evaluator in the process.
_NETWORK_KERNELS: dict = {}


def _network_kernel(shape):
    """The row kernel for one network shape, generated on first use and
    cached.

    ``shape`` is ``(inputs, biases, sources, outputs, labelled)``: the
    number of input and of bias slots, the source slots of each computed
    node in evaluation order (each in connection-gene order), the output
    slots, and whether a row yields a label or the tuple of its outputs.
    Slots are numbered as in :class:`NetworkEvaluator`.

    ``kernel(columns, weights, labels)`` is one comprehension over the rows
    of the input columns. Per row it binds every computed node in turn with
    ``for v in [...]`` (which CPython compiles to a plain assignment, not a
    loop): the node's terms summed left to right, the first
    seeding the sum, through ``steep_sigmoid``'s expression inlined with its
    clip branches. A term is ``x * w`` for an input or a node and the
    weight itself for a bias. A node with no terms is 0.5. A labelled row
    yields ``labels[i]`` for the first output i that holds the largest value
    (the tie rule of ``max``). The weights, one per term in node and gene
    order, and the labels are arguments and never part of the source, so
    every genome of one shape shares its kernel.
    """
    kernel = _NETWORK_KERNELS.get(shape)
    if kernel is not None:
        return kernel
    n_inputs, n_biases, sources, outputs, labelled = shape
    first_node = n_inputs + n_biases
    clauses = []
    n_weights = 0
    for dst, slots in enumerate(sources, first_node):
        if not slots:
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
        clauses.append(f"for z in [slope * ({total})]")
        clauses.append(f"for v{dst} in [1.0 if z > 60.0 else 0.0 if z < -60.0"
                       " else 1.0 / (1.0 + exp(-z))]")
    names = [f"v{slot}" for slot in outputs]
    if labelled:
        # row: labels[i] for the last output i that exceeds every earlier
        # one, else labels[0]; best: the largest of the outputs so far, the
        # earliest on a tie, bound to a name when it is read more than once
        best, row = names[0], "l0"
        for i, name in enumerate(names[1:], 1):
            row = f"l{i} if {name} > {best} else {row}"
            larger = f"{name} if {name} > {best} else {best}"
            if i + 2 < len(names):
                clauses.append(f"for m{i} in [{larger}]")
                best = f"m{i}"
            else:
                best = f"({larger})"
    else:
        row = f"({''.join(f'{name}, ' for name in names)})"
    if n_inputs == 0:
        rows = "for _ in ()"
    elif n_inputs == 1:
        rows = "for x0 in columns[0]"
    else:
        rows = f"for {', '.join(f'x{i}' for i in range(n_inputs))} in zip(*columns)"
    source = "def kernel(columns, weights, labels, slope=slope, exp=exp):\n"
    if n_weights:
        source += f"    {''.join(f'w{k}, ' for k in range(n_weights))}= weights\n"
    if labelled:
        source += f"    {''.join(f'l{i}, ' for i in range(len(names)))}= labels\n"
    # one clause a line: short lines keep the code's position table small
    body = "".join(f"        {clause}\n" for clause in [rows, *clauses])
    source += f"    return [{row}\n{body}    ]\n"
    namespace = {"slope": SIGMOID_SLOPE, "exp": math.exp}
    exec(source, namespace)
    if len(_NETWORK_KERNELS) >= _KERNEL_LIMIT:
        del _NETWORK_KERNELS[next(iter(_NETWORK_KERNELS))]
    kernel = _NETWORK_KERNELS[shape] = namespace["kernel"]
    return kernel


class NetworkEvaluator:
    """Compiled feed-forward evaluator for one genome.

    Nodes get value slots: the inputs first, then the bias nodes, then every
    other node in topological order. Each step computes one node from its
    ``(src_slot, weight)`` pairs, kept in connection-gene order. Build once
    per genome, then call :meth:`activate` per input vector, or
    :meth:`argmax_columns` (or :meth:`activate_columns`) for many vectors at
    once; all give the same bits for a given vector. The column methods run
    one kernel per network shape that computes every node of a row in one
    pass (see :func:`_network_kernel`); genomes of the same shape share it.
    """

    def __init__(self, genome: Genome):
        self.input_ids, self.bias_ids, self.output_ids = _ids_by_kind(genome)
        fixed = self.input_ids + self.bias_ids
        skip = set(fixed)
        computed = [nid for nid in _topological_order(genome) if nid not in skip]
        slot = {nid: i for i, nid in enumerate(fixed + computed)}
        incoming: dict[int, list[tuple[int, float]]] = {n.id: [] for n in genome.nodes}
        for c in genome.connections:
            if c.enabled:
                incoming[c.dst].append((slot[c.src], c.weight))
        self._steps = [(slot[nid], incoming[nid]) for nid in computed]
        self._output_slots = [slot[nid] for nid in self.output_ids]
        # the slots after the inputs: 1.0 for each bias, then the computed nodes
        self._tail = [1.0] * len(self.bias_ids) + [0.0] * len(computed)

    def _arity_error(self, length: int) -> ArityMismatch:
        return ArityMismatch(f"expected {len(self.input_ids)} inputs, got {length}")

    def activate(self, inputs: list[float]) -> list[float]:
        if len(inputs) != len(self.input_ids):
            raise self._arity_error(len(inputs))
        values = [*inputs, *self._tail]
        for dst, incoming in self._steps:
            total = 0.0
            for src, weight in incoming:
                total += values[src] * weight
            values[dst] = steep_sigmoid(total)
        return [values[s] for s in self._output_slots]

    def _run_rows(self, columns, labels) -> list:
        """Run this network's kernel over the rows of ``columns``, one column
        per input; labelled when ``labels`` is not None."""
        if len(columns) != len(self.input_ids):
            raise self._arity_error(len(columns))
        count = len(columns[0]) if columns else 0
        if any(len(column) != count for column in columns):
            raise ArityMismatch("input columns differ in length")
        steps = self._steps
        shape = (len(self.input_ids), len(self.bias_ids),
                 tuple([tuple([src for src, _ in incoming]) for _, incoming in steps]),
                 tuple(self._output_slots), labels is not None)
        weights = [weight for _, incoming in steps for _, weight in incoming]
        return _network_kernel(shape)(columns, weights, labels)

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
        return self._run_rows(columns, labels)

    def activate_columns(self, columns) -> list[list[float]]:
        """The outputs of ``activate`` on each row of the input columns, as
        one column per output: ``result[j][k]`` is output j of row k. The
        same kernel generator as :meth:`argmax_columns`, with the same bits.
        """
        rows = self._run_rows(columns, None)
        if not rows:
            return [[] for _ in self.output_ids]
        return [list(column) for column in zip(*rows)]


def activate(genome: Genome, inputs: list[float]) -> list[float]:
    """One-shot feed-forward evaluation (builds a fresh evaluator)."""
    return NetworkEvaluator(genome).activate(inputs)


def outputs_reachable(genome: Genome) -> bool:
    """True when every output node is fed, via enabled connections, from some
    input or bias node."""
    input_ids, bias_ids, output_ids = _ids_by_kind(genome)
    frontier = input_ids + bias_ids
    edges: dict[int, list[int]] = {}
    for c in genome.connections:
        if c.enabled:
            edges.setdefault(c.src, []).append(c.dst)
    seen = set(frontier)
    while frontier:
        nid = frontier.pop()
        for dst in edges.get(nid, ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return all(nid in seen for nid in output_ids)


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

    def split(self, innovation: int, src: int, dst: int) -> tuple[int, int, int]:
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


def _gene_key(genome: Genome) -> tuple[list[int], dict[int, float]]:
    """What the distance reads of a genome: its innovation list in gene
    (ascending) order and an ``{innovation: weight}`` map."""
    conns = genome.connections
    return [c.innovation for c in conns], {c.innovation: c.weight for c in conns}


def _keyed_distance(key_a, key_b, config: EvolutionConfig,
                    threshold: float | None = None) -> float:
    """The compatibility distance of two gene keys.

    The shared innovations match. Only the genome with the larger top
    innovation holds excess genes: those above the other's top. The other
    unmatched genes are disjoint. ``|dw|`` is summed along ``key_a``'s
    innovation list, which is the order and the floats of a merge walk over
    both gene lists. With a ``threshold``, a structural part
    ``c1*E/N + c2*D/N`` already at or above it is returned as it is: adding
    ``c3*mean|dw| >= 0`` cannot bring a sum below it under round-to-nearest,
    so ``distance < threshold`` is answered exactly."""
    innovations_a, weights_a = key_a
    innovations_b, weights_b = key_b
    len_a, len_b = len(innovations_a), len(innovations_b)
    max_a = innovations_a[-1] if innovations_a else -1
    max_b = innovations_b[-1] if innovations_b else -1
    matching = len(weights_a.keys() & weights_b.keys())
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
    structural = config.c1 * excess / n + config.c2 * disjoint / n
    if threshold is not None and structural >= threshold:
        return structural
    weight_diff = 0.0
    for innovation in innovations_a:
        if innovation in weights_b:
            weight_diff += abs(weights_a[innovation] - weights_b[innovation])
    avg_w = weight_diff / matching if matching else 0.0
    return structural + config.c3 * avg_w


def compatibility_distance(a: Genome, b: Genome, config: EvolutionConfig) -> float:
    """c1*E/N + c2*D/N + c3*mean|dw| over matching innovations; N is the
    larger gene count, forced to 1 when both genomes are small (< 20).

    E counts the excess genes, D the disjoint ones. Both genomes are read
    through their gene keys (innovation list and ``{innovation: weight}``
    map), the same code :func:`speciate` runs, but without its early exit."""
    return _keyed_distance(_gene_key(a), _gene_key(b), config)


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
                     tracker: InnovationTracker) -> None:
    """The body of :func:`mutate`, applied to a genome nobody else holds."""
    if g.connections and rng.random() < config.weight_mutation_rate:
        for conn in g.connections:
            if rng.random() < config.weight_reset_rate:
                conn.weight = rng.uniform(-config.weight_init_span, config.weight_init_span)
            else:
                conn.weight += rng.uniform(-config.weight_step, config.weight_step)
            conn.weight = max(-config.weight_cap, min(config.weight_cap, conn.weight))

    if rng.random() < config.add_node_rate:
        enabled = [c for c in g.connections if c.enabled]
        if enabled:
            conn = enabled[rng.randrange(len(enabled))]
            node_id, innov_in, innov_out = tracker.split(conn.innovation, conn.src, conn.dst)
            if node_id not in g.node_ids():
                old_weight = conn.weight
                conn.enabled = False
                g.nodes.append(NodeGene(node_id, NodeKind.HIDDEN))
                g.connections.append(ConnectionGene(innov_in, conn.src, node_id, 1.0))
                g.connections.append(ConnectionGene(innov_out, node_id, conn.dst, old_weight))

    if rng.random() < config.add_connection_rate:
        candidates = _legal_new_connections(g)
        if candidates:
            src, dst = candidates[rng.randrange(len(candidates))]
            g.connections.append(
                ConnectionGene(tracker.connection(src, dst), src, dst,
                               rng.uniform(-config.weight_init_span, config.weight_init_span))
            )
        else:
            logger.debug("add-connection skipped: topology saturated")

    g.connections.sort(key=lambda c: c.innovation)


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
        new = gene.copy()
        if match is not None and rng.random() < 0.5:
            new.weight = match.weight
            new.enabled = match.enabled
        child_conns.append(new)
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

    Each genome and representative gets one gene key per call: its
    innovation list and ``{innovation: weight}`` map. A pair whose excess and
    disjoint terms alone reach the threshold is rejected without the weight
    term; since ``c3 >= 0`` that is exactly the decision the full
    :func:`compatibility_distance` gives."""
    shells = [Species(s.id, s.representative, [], s.staleness, s.best_fitness)
              for s in previous]
    keys = [_gene_key(s.representative) for s in shells]
    threshold = config.compatibility_threshold
    next_id = max((s.id for s in shells), default=-1) + 1
    for g in genomes:
        key = _gene_key(g)
        for s, rep_key in zip(shells, keys):
            if _keyed_distance(key, rep_key, config, threshold) < threshold:
                s.members.append(g)
                break
        else:
            shells.append(Species(next_id, g, [g]))
            keys.append(key)
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
        config.validate()
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
        genomes get a floor just below the worst fitness in the population."""
        unreachable = []
        for g in self.population:
            if g.fitness is not None:
                continue
            if outputs_reachable(g):
                g.fitness = float(fitness_fn(g))
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
                    _mutate_in_place(child, config, rng, self.tracker)
                else:
                    child = mutate(pool[rng.randrange(len(pool))], config, rng, self.tracker)
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
