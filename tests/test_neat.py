import hashlib
import math
import random

import pytest

from helpers import fresh_genome, random_genome, trending_fixture, xor_fitness
from oracles import DictNetworkEvaluator, merge_walk_distance
from test_cli import TRADING_GENOME, assert_one_line_error, setup_warehouse, write_config
from tradelab import neat as neat_module
from tradelab.cli import main
from tradelab.indicators import IndicatorSpec
from tradelab.neat import (
    ArityMismatch,
    ConnectionGene,
    CyclicGenome,
    Evolution,
    EvolutionConfig,
    Genome,
    InnovationTracker,
    NetworkEvaluator,
    NodeGene,
    NodeKind,
    Species,
    UnevaluatedParent,
    activate,
    allocate_offspring,
    compatibility_distance,
    crossover,
    initial_genome,
    mutate,
    outputs_reachable,
    read_genome,
    speciate,
    steep_sigmoid,
    validate_genome,
    write_genome,
)
from tradelab.optimize import evolve_strategy
from tradelab.errors import ValidationError

CONFIG = EvolutionConfig(population_size=30)


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

def test_activate_no_connections_gives_sigmoid_zero():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.OUTPUT)]
    g = Genome(nodes=nodes, connections=[])
    assert activate(g, [3.7]) == [steep_sigmoid(0.0)] == [0.5]


def test_activate_single_edge():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.OUTPUT)]
    g = Genome(nodes=nodes, connections=[ConnectionGene(0, 0, 1, 0.8)])
    x = 0.35
    assert activate(g, [x]) == [steep_sigmoid(0.8 * x)]


def test_activate_arity_mismatch():
    g, _ = fresh_genome()
    with pytest.raises(ArityMismatch):
        activate(g, [1.0])
    net = NetworkEvaluator(g)
    assert net.activate_columns([[], [], []]) == [[]] * len(net.output_ids)
    with pytest.raises(ArityMismatch):
        net.activate_columns([[0.0], [1.0]])
    with pytest.raises(ArityMismatch):
        net.activate_columns([[0.0, 1.0], [1.0], [2.0, 3.0]])
    assert net.argmax_columns([[], [], []], ("a", "b")) == []
    with pytest.raises(ArityMismatch, match="one label per output"):
        net.argmax_columns([[0.0], [1.0], [2.0]], ("a", "b", "c"))


def test_activate_rejects_cycles():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"),
             NodeGene(1, NodeKind.HIDDEN), NodeGene(2, NodeKind.HIDDEN),
             NodeGene(3, NodeKind.OUTPUT)]
    conns = [ConnectionGene(0, 0, 1, 1.0), ConnectionGene(1, 1, 2, 1.0),
             ConnectionGene(2, 2, 1, 1.0), ConnectionGene(3, 2, 3, 1.0)]
    with pytest.raises(CyclicGenome):
        activate(Genome(nodes=nodes, connections=conns), [1.0])


def eval_oracle(genome, inputs):
    """Independent recursive evaluator with memoization."""
    base = {}
    for nid, x in zip(genome.ids_of(NodeKind.INPUT), inputs):
        base[nid] = x
    for nid in genome.ids_of(NodeKind.BIAS):
        base[nid] = 1.0
    memo = dict(base)

    def value(nid):
        if nid in memo:
            return memo[nid]
        total = sum(value(c.src) * c.weight
                    for c in genome.connections if c.enabled and c.dst == nid)
        memo[nid] = steep_sigmoid(total)
        return memo[nid]

    return [value(nid) for nid in genome.ids_of(NodeKind.OUTPUT)]


def test_activate_matches_recursive_oracle():
    rng = random.Random(123)
    for seed in range(15):
        genome = random_genome(seed)
        inputs = [rng.uniform(-2, 2) for _ in range(3)]
        got = activate(genome, inputs)
        want = eval_oracle(genome, inputs)
        assert got == pytest.approx(want, rel=1e-12)


def bred_genomes(n_in=4, n_out=3, rounds=12):
    """Genomes bred by seeded crossover and mutation from one tracker:
    hidden nodes, disabled connections and added links."""
    config = EvolutionConfig(population_size=30, add_connection_rate=0.5, add_node_rate=0.4)
    tracker = InnovationTracker()
    tracker.begin_generation()
    rng = random.Random(99)
    population = [initial_genome(n_in, n_out, tracker, rng, 2.0) for _ in range(6)]
    bred = list(population)
    for _ in range(rounds):
        tracker.begin_generation()
        for g in population:
            g.fitness = rng.uniform(-1.0, 1.0)
        population = [mutate(crossover(rng.choice(population), rng.choice(population), rng),
                             config, rng, tracker) for _ in population]
        bred.extend(population)
    return bred


def test_flat_evaluator_equals_dict_reference():
    rng = random.Random(7)
    rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(30)]
    # saturated inputs drive outputs to exactly 1.0 or 0.0, so outputs tie
    rows += [[50.0] * 4, [-50.0] * 4, [1e6, -1e6, 1e6, -1e6], [0.0] * 4]
    genomes = bred_genomes()
    assert any(n.kind is NodeKind.HIDDEN for g in genomes for n in g.nodes)
    assert any(not c.enabled for g in genomes for c in g.connections)
    ties = 0
    for genome in genomes:
        reference = [DictNetworkEvaluator(genome).activate(row) for row in rows]
        net = NetworkEvaluator(genome)
        assert [net.activate(row) for row in rows] == reference
        assert net.activate_columns(columns_of(rows)) == columns_of(reference)
        assert_argmax_equals_rows(net, columns_of(rows), reference)
        ties += sum(len(set(out)) < len(out) for out in reference)
    assert ties > 0


@pytest.mark.parametrize("n_out", [1, 2, 5])
def test_argmax_columns_for_any_output_count(n_out):
    rng = random.Random(n_out)
    rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(30)]
    rows += [[50.0] * 4, [-50.0] * 4, [0.0] * 4]  # saturated rows tie
    for genome in bred_genomes(n_out=n_out, rounds=4):
        assert_columns_equal_rows(genome, rows)


def columns_of(rows):
    return [list(column) for column in zip(*rows)]


def assert_argmax_equals_rows(net, columns, per_row):
    """argmax_columns labels each row with its first largest output, as max() picks it."""
    labels = tuple(f"out{j}" for j in range(len(net.output_ids)))
    assert net.argmax_columns(columns, labels) == \
        [labels[max(range(len(out)), key=out.__getitem__)] for out in per_row]


def test_activate_columns_equals_activate_per_row():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.INPUT, "identity"),
             NodeGene(2, NodeKind.BIAS, "identity"), NodeGene(3, NodeKind.HIDDEN),
             NodeGene(4, NodeKind.OUTPUT), NodeGene(5, NodeKind.OUTPUT),
             NodeGene(6, NodeKind.OUTPUT)]
    conns = [ConnectionGene(0, 0, 3, 1.5, enabled=False),  # hidden 3 has no enabled input
             ConnectionGene(1, 3, 4, 2.0),
             ConnectionGene(2, 0, 5, -1.0), ConnectionGene(3, 1, 5, 0.0),
             ConnectionGene(4, 0, 6, 1.0), ConnectionGene(5, 1, 6, 1.0),
             ConnectionGene(6, 2, 6, 0.25)]
    net = NetworkEvaluator(Genome(nodes, conns))
    rng = random.Random(3)
    rows = [[rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)] for _ in range(200)]
    # |4.9 * t| > 60 on both sides; 0.0 * -1.0 + -1.0 * 0.0 is -0.0 (activate's is 0.0)
    rows += [[13.0, 0.0], [-13.0, 0.0], [40.0, 40.0], [-40.0, -40.0], [0.0, -1.0], [0.0, 0.0]]
    assert math.copysign(1.0, 0.0 * -1.0 + -1.0 * 0.0) == -1.0
    per_row = [net.activate(row) for row in rows]
    assert net.activate_columns(columns_of(rows)) == columns_of(per_row)
    outputs = {v for out in per_row for v in out}
    assert {0.0, 0.5, 1.0} <= outputs
    assert all(out[0] == steep_sigmoid(1.0) for out in per_row)  # 2.0 * sigmoid(0.0)
    for genome in bred_genomes(n_in=2):
        net = NetworkEvaluator(genome)
        assert net.activate_columns(columns_of(rows)) == columns_of(
            [net.activate(row) for row in rows])


def assert_columns_equal_rows(genome, rows):
    """activate_columns on the rows' columns equals activate row by row;
    returns the rows' outputs. Zero rows make one empty column per input."""
    net = NetworkEvaluator(genome)
    per_row = [net.activate(row) for row in rows]
    columns = [[row[i] for row in rows] for i in range(len(net.input_ids))]
    assert net.activate_columns(columns) == \
        [[out[j] for out in per_row] for j in range(len(net.output_ids))]
    assert_argmax_equals_rows(net, columns, per_row)
    return per_row


def wide_genome(n_in, seed):
    """n_in inputs and a bias, each wired to one output with a random weight,
    in innovation order after the bias."""
    rng = random.Random(seed)
    nodes = [NodeGene(i, NodeKind.INPUT, "identity") for i in range(n_in)]
    nodes += [NodeGene(n_in, NodeKind.BIAS, "identity"), NodeGene(n_in + 1, NodeKind.OUTPUT)]
    conns = [ConnectionGene(0, n_in, n_in + 1, rng.uniform(-1.0, 1.0))]
    conns += [ConnectionGene(i + 1, i, n_in + 1, rng.uniform(-1.0, 1.0)) for i in range(n_in)]
    return Genome(nodes, conns)


@pytest.mark.parametrize("n_in", [5_000, 511])
def test_activate_columns_chunks_a_node_above_the_compile_limit(n_in, monkeypatch):
    # one generated sum of 3,000 terms overflows the compiler's stack
    monkeypatch.setattr(neat_module, "_NETWORK_KERNELS", {})
    genome = wide_genome(n_in, seed=n_in)
    rng = random.Random(1)
    rows = [[rng.uniform(-0.01, 0.01) for _ in range(n_in)] for _ in range(12)]
    outputs = {out[0] for out in assert_columns_equal_rows(genome, rows)}
    assert len(outputs) == len(rows)
    assert assert_columns_equal_rows(genome, []) == []
    # one output node of n_in + 1 terms, the bias first: longer than one sum
    assert n_in + 1 > neat_module._SUM_TERMS
    sources = ((n_in, *range(n_in)),)
    assert set(neat_module._NETWORK_KERNELS) == {
        (n_in, 1, sources, (n_in + 1,), labelled) for labelled in (False, True)}


def test_activate_columns_node_fed_only_by_the_bias():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.INPUT, "identity"),
             NodeGene(2, NodeKind.BIAS, "identity"), NodeGene(3, NodeKind.HIDDEN),
             NodeGene(4, NodeKind.OUTPUT), NodeGene(5, NodeKind.OUTPUT)]
    conns = [ConnectionGene(0, 2, 3, 0.7), ConnectionGene(1, 3, 4, -2.0),
             ConnectionGene(2, 2, 5, -0.3)]
    rows = [[float(i), -float(i)] for i in range(5)]
    per_row = assert_columns_equal_rows(Genome(nodes, conns), rows)
    assert per_row == [[steep_sigmoid(-2.0 * steep_sigmoid(0.7)), steep_sigmoid(-0.3)]] * 5
    assert assert_columns_equal_rows(Genome(nodes, conns), []) == []


def test_activate_columns_node_whose_first_gene_is_the_bias():
    rng = random.Random(8)
    rows = [[rng.uniform(-20.0, 20.0) for _ in range(3)] for _ in range(100)]
    rows += [[0.0] * 3, [15.0] * 3, [-15.0] * 3]
    assert_columns_equal_rows(wide_genome(3, seed=2), rows)


def test_network_kernels_take_weights_as_arguments(monkeypatch):
    # same shape, so the second genome runs the first one's cached kernel
    monkeypatch.setattr(neat_module, "_NETWORK_KERNELS", {})
    rng = random.Random(4)
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(50)]
    first = assert_columns_equal_rows(wide_genome(4, seed=10), rows)
    kernels = dict(neat_module._NETWORK_KERNELS)
    second = assert_columns_equal_rows(wide_genome(4, seed=11), rows)
    assert first != second
    assert neat_module._NETWORK_KERNELS == kernels


def test_evolve_run_caches_one_kernel_per_network_shape(monkeypatch):
    requested = []
    network_kernel = neat_module._network_kernel

    def recording(shape):
        requested.append(shape)
        return network_kernel(shape)

    monkeypatch.setattr(neat_module, "_network_kernel", recording)
    monkeypatch.setattr(neat_module, "_NETWORK_KERNELS", {})
    config = EvolutionConfig(population_size=12, max_generations=3, add_node_rate=0.3,
                             add_connection_rate=0.3, seed=6)
    evolve_strategy(trending_fixture(), [IndicatorSpec("rsi", {"p": 7}),
                                         IndicatorSpec("ema", {"p": 9})], config)
    # one labelled kernel per shape, shared by the genomes of that shape
    assert set(neat_module._NETWORK_KERNELS) == set(requested)
    assert len(requested) > len(set(requested)) > 1
    assert all(shape[:2] == (2, 1) and shape[-1] for shape in requested)
    assert any(len(shape[2]) > 3 for shape in requested)  # a hidden node was added


def test_network_kernel_cache_drops_the_oldest_beyond_its_bound(monkeypatch):
    assert neat_module._KERNEL_LIMIT == 1024
    monkeypatch.setattr(neat_module, "_KERNEL_LIMIT", 3)
    monkeypatch.setattr(neat_module, "_NETWORK_KERNELS", {})
    # one input wired k times into one output: a sum of k terms
    shapes = [(1, 0, ((0,) * k,), (1,), True) for k in range(1, 7)]
    for count, shape in enumerate(shapes, 1):
        kernel = neat_module._network_kernel(shape)
        assert kernel([[0.5, -0.5]], [1.0] * len(shape[2][0]), ["only"]) == ["only"] * 2
        assert list(neat_module._NETWORK_KERNELS) == shapes[max(0, count - 3):count]
    assert neat_module._network_kernel(shapes[-1]) is kernel


@pytest.mark.parametrize("depth", [40, 64])
def test_column_pass_runs_a_deep_chain_of_hidden_nodes(depth, monkeypatch):
    # one binding per node in one comprehension: a deep network's kernel
    # must compile and keep activate's bits
    monkeypatch.setattr(neat_module, "_NETWORK_KERNELS", {})
    hidden = list(range(3, 3 + depth))
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.INPUT, "identity"),
             NodeGene(2, NodeKind.BIAS, "identity")]
    nodes += [NodeGene(h, NodeKind.HIDDEN) for h in hidden]
    nodes += [NodeGene(3 + depth + j, NodeKind.OUTPUT) for j in range(3)]
    chain = [0, *hidden, 3 + depth]
    conns = [ConnectionGene(i, src, dst, 2.5 if i % 2 else -1.5)
             for i, (src, dst) in enumerate(zip(chain, chain[1:]))]
    conns += [ConnectionGene(len(conns), 1, 4 + depth, 0.75),
              ConnectionGene(len(conns) + 1, 2, 5 + depth, 0.1),
              ConnectionGene(len(conns) + 2, 2, hidden[depth // 2], -0.3)]
    genome = Genome(nodes, conns)
    validate_genome(genome)
    rng = random.Random(depth)
    rows = [[rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)] for _ in range(80)]
    rows += [[0.0, 0.0], [50.0, -50.0], [-50.0, 50.0]]
    per_row = assert_columns_equal_rows(genome, rows)
    assert len({out[0] for out in per_row}) > 1
    assert len(neat_module._NETWORK_KERNELS) == 2  # labelled and unlabelled


def test_outputs_in_unit_interval():
    rng = random.Random(5)
    for seed in range(10):
        genome = random_genome(seed)
        out = activate(genome, [rng.uniform(-5, 5) for _ in range(3)])
        assert all(0.0 <= v <= 1.0 for v in out)


def test_outputs_reachable_detection():
    g, _ = fresh_genome()
    assert outputs_reachable(g)
    for c in g.connections:
        c.enabled = False
    assert not outputs_reachable(g)


# ---------------------------------------------------------------------------
# Compatibility distance
# ---------------------------------------------------------------------------

def test_distance_to_self_is_zero():
    for seed in range(25):
        g = random_genome(seed, rounds=10)
        assert compatibility_distance(g, g, CONFIG) == 0.0


def test_distance_weight_only_difference():
    g, _ = fresh_genome()
    h = g.copy()
    delta = 0.37
    for c in h.connections:
        c.weight += delta
    assert compatibility_distance(g, h, CONFIG) == pytest.approx(CONFIG.c3 * delta)


def distance_oracle(a, b, config):
    ia = {c.innovation: c for c in a.connections}
    ib = {c.innovation: c for c in b.connections}
    max_a = max(ia, default=-1)
    max_b = max(ib, default=-1)
    matching = sorted(set(ia) & set(ib))
    excess = disjoint = 0
    for inn in set(ia) ^ set(ib):
        other_max = max_b if inn in ia else max_a
        if inn > other_max:
            excess += 1
        else:
            disjoint += 1
    n = max(len(ia), len(ib))
    if n < 20:
        n = 1
    n = max(n, 1)
    w = (sum(abs(ia[i].weight - ib[i].weight) for i in matching) / len(matching)
         if matching else 0.0)
    return config.c1 * excess / n + config.c2 * disjoint / n + config.c3 * w


def test_distance_matches_alignment_oracle():
    for seed in range(20):
        a = random_genome(seed, rounds=18)
        b = random_genome(seed + 1000, rounds=18)
        got = compatibility_distance(a, b, CONFIG)
        assert got == pytest.approx(distance_oracle(a, b, CONFIG), rel=1e-12)


def random_gene_pair(rng):
    """Two genomes whose connection lists are random innovation subsets of a
    shared range; most are long enough (>= 20 genes) for N to be the gene
    count, some are empty, and some share their top innovation."""
    span = rng.choice([5, 30, 60])

    def genes():
        count = rng.choice([0, rng.randint(0, span)])
        innovations = sorted(rng.sample(range(span), count))
        return Genome([], [ConnectionGene(i, 0, 1, rng.uniform(-8, 8)) for i in innovations])

    a, b = genes(), genes()
    if a.connections and b.connections and rng.random() < 0.25:
        top = max(a.connections[-1].innovation, b.connections[-1].innovation)
        for g in (a, b):
            if g.connections[-1].innovation != top:
                g.connections.append(ConnectionGene(top, 0, 1, rng.uniform(-8, 8)))
    return a, b


def test_distance_equals_the_merge_walk_bit_for_bit():
    rng = random.Random(41)
    configs = [CONFIG, EvolutionConfig(c1=2.5, c2=0.3, c3=1.7), EvolutionConfig(c1=0.0, c3=0.0)]
    seen = {"long": 0, "empty": 0, "equal tops": 0, "excess in a": 0, "excess in b": 0}
    pairs = [random_gene_pair(rng) for _ in range(600)]
    pairs += [(random_genome(s, rounds=18), random_genome(s + 1000, rounds=18)) for s in range(20)]
    for a, b in pairs:
        tops = [g.connections[-1].innovation if g.connections else -1 for g in (a, b)]
        seen["long"] += max(a.size(), b.size()) >= 20
        seen["empty"] += not (a.connections and b.connections)
        seen["equal tops"] += tops[0] == tops[1] and tops[0] >= 0
        seen["excess in a"] += tops[0] > tops[1]
        seen["excess in b"] += tops[1] > tops[0]
        for config in configs:
            assert compatibility_distance(a, b, config) == merge_walk_distance(a, b, config)
            assert compatibility_distance(b, a, config) == merge_walk_distance(b, a, config)
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

def test_mutate_all_rates_zero_is_identity():
    g, tracker = fresh_genome()
    frozen = EvolutionConfig(population_size=4, weight_mutation_rate=0.0,
                             add_connection_rate=0.0, add_node_rate=0.0)
    out = mutate(g, frozen, random.Random(0), tracker)
    assert out.connections == g.connections
    assert out.nodes == g.nodes


def test_add_node_split_example():
    nodes = [NodeGene(0, NodeKind.INPUT, "identity"), NodeGene(1, NodeKind.OUTPUT)]
    g = Genome(nodes=nodes, connections=[ConnectionGene(0, 0, 1, 0.6)])
    tracker = InnovationTracker()
    tracker.next_innovation = 1
    tracker.reserve_node_ids(2)
    tracker.begin_generation()
    only_split = EvolutionConfig(population_size=4, weight_mutation_rate=0.0,
                                 add_connection_rate=0.0, add_node_rate=1.0)
    out = mutate(g, only_split, random.Random(0), tracker)
    assert len(out.nodes) == 3
    enabled = [c for c in out.connections if c.enabled]
    disabled = [c for c in out.connections if not c.enabled]
    assert len(enabled) == 2 and len(disabled) == 1
    into = next(c for c in enabled if c.src == 0)
    out_of = next(c for c in enabled if c.dst == 1)
    assert into.weight == 1.0
    assert out_of.weight == 0.6
    assert into.dst == out_of.src  # both touch the new node


def mutation_fuzz(n_genomes, rounds_each, seed0=0):
    """Mutate many independently grown genomes, validating invariants and
    that freshly allocated innovation numbers never regress."""
    config = EvolutionConfig(population_size=4, add_connection_rate=0.6, add_node_rate=0.5)
    total = 0
    for g_seed in range(n_genomes):
        genome, tracker = fresh_genome(g_seed)
        rng = random.Random(seed0 + g_seed)
        high_water = tracker.next_innovation
        for _ in range(rounds_each):
            tracker.begin_generation()
            genome = mutate(genome, config, rng, tracker)
            validate_genome(genome)
            assert tracker.next_innovation >= high_water
            high_water = tracker.next_innovation
            total += 1
    return total


def test_mutation_fuzz_preserves_invariants_and_innovations_increase():
    assert mutation_fuzz(60, 25) == 1500


def test_same_generation_same_event_shares_innovation():
    tracker = InnovationTracker()
    tracker.begin_generation()
    a = tracker.connection(4, 9)
    b = tracker.connection(4, 9)
    assert a == b
    tracker.begin_generation()
    c = tracker.connection(4, 9)
    assert c != a  # new generation, new event


def test_split_cache_within_generation():
    tracker = InnovationTracker()
    tracker.reserve_node_ids(5)
    tracker.begin_generation()
    first = tracker.split(3, 0, 1)
    again = tracker.split(3, 0, 1)
    assert first == again
    tracker.begin_generation()
    assert tracker.split(3, 0, 1) != first


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def test_self_crossover_is_structurally_identical():
    g = random_genome(1, rounds=12)
    g.fitness = 1.0
    child = crossover(g, g, random.Random(0))
    assert [(c.innovation, c.src, c.dst, c.enabled) for c in child.connections] == \
           [(c.innovation, c.src, c.dst, c.enabled) for c in g.connections]
    assert {c.weight for c in child.connections} <= {c.weight for c in g.connections}


def test_crossover_requires_fitness():
    g = random_genome(2)
    h = random_genome(3)
    with pytest.raises(UnevaluatedParent):
        crossover(g, h, random.Random(0))


def test_fitter_superset_parent_determines_child_structure():
    base, tracker = fresh_genome(4)
    config = EvolutionConfig(population_size=4, add_connection_rate=1.0,
                             add_node_rate=1.0, weight_mutation_rate=0.0)
    tracker.begin_generation()
    grown = mutate(base, config, random.Random(5), tracker)
    base.fitness = 0.1
    grown.fitness = 0.9
    child = crossover(base, grown, random.Random(0))
    assert {(c.innovation, c.src, c.dst) for c in child.connections} == \
           {(c.innovation, c.src, c.dst) for c in grown.connections}
    assert {n.id for n in child.nodes} == {n.id for n in grown.nodes}


def sibling_genomes(seed, rounds=15):
    """Two genomes mutated under ONE shared tracker, as inside a real run,
    so their innovation numbers are comparable."""
    config = EvolutionConfig(population_size=4, add_connection_rate=0.6, add_node_rate=0.5)
    base, tracker = fresh_genome(seed)
    rng_a = random.Random(seed * 2 + 1)
    rng_b = random.Random(seed * 2 + 2)
    a, b = base.copy(), base.copy()
    for _ in range(rounds):
        tracker.begin_generation()
        a = mutate(a, config, rng_a, tracker)
        b = mutate(b, config, rng_b, tracker)
    return a, b


def test_crossover_fuzz_preserves_invariants():
    rng = random.Random(0)
    for seed in range(60):
        a, b = sibling_genomes(seed)
        a.fitness = rng.uniform(-1, 1)
        b.fitness = a.fitness if seed % 3 == 0 else rng.uniform(-1, 1)
        child = crossover(a, b, rng)
        validate_genome(child)


# ---------------------------------------------------------------------------
# Speciation and generations
# ---------------------------------------------------------------------------

def test_population_of_clones_is_single_species():
    g = random_genome(0)
    clones = [g.copy() for _ in range(12)]
    species = speciate(clones, [], CONFIG)
    assert len(species) == 1
    assert len(species[0].members) == 12


def test_speciation_matches_threshold_oracle():
    genomes = [random_genome(s, rounds=20) for s in range(18)]
    species = speciate(genomes, [], CONFIG)
    # oracle: first-fit against representatives in creation order
    reps: list = []
    expected: list[list] = []
    for g in genomes:
        for i, rep in enumerate(reps):
            if distance_oracle(g, rep, CONFIG) < CONFIG.compatibility_threshold:
                expected[i].append(g)
                break
        else:
            reps.append(g)
            expected.append([g])
    assert [s.members for s in species] == expected
    assert sum(len(s.members) for s in species) == len(genomes)


def merge_walk_speciate(genomes, previous, config):
    """First-fit speciation that measures every pair with the merge walk."""
    shells = [Species(s.id, s.representative, [], s.staleness, s.best_fitness)
              for s in previous]
    next_id = max((s.id for s in shells), default=-1) + 1
    for g in genomes:
        for s in shells:
            if merge_walk_distance(g, s.representative, config) < config.compatibility_threshold:
                s.members.append(g)
                break
        else:
            shells.append(Species(next_id, g, [g]))
            next_id += 1
    return [s for s in shells if s.members]


def species_layout(species):
    return [(s.id, id(s.representative), [id(m) for m in s.members]) for s in species]


def test_speciate_places_genomes_as_the_merge_walk_does():
    rng = random.Random(5)
    cases = 0
    for seed in range(6):
        evo = Evolution(3, 2, EvolutionConfig(population_size=40, add_connection_rate=0.3,
                                              add_node_rate=0.2, seed=seed))
        evo.evaluate(weight_sum_fitness)
        for _ in range(6):
            evo.next_generation()
            evo.evaluate(weight_sum_fitness)
        grown = [random_genome(seed * 50 + i, rounds=rng.randint(0, 25)) for i in range(30)]
        for population, previous in ((evo.population, evo.species),
                                     (grown, speciate(grown[::3], [], CONFIG)),
                                     (grown + evo.population, [])):
            for threshold, c3 in ((0.5, 0.4), (1.0, 3.0), (3.0, 0.4), (6.0, 1.0)):
                config = EvolutionConfig(compatibility_threshold=threshold, c3=c3)
                got = speciate(population, previous, config)
                assert species_layout(got) == \
                    species_layout(merge_walk_speciate(population, previous, config))
                cases += len(got) > 1
    assert cases > 30


def test_allocate_offspring_sums_exactly():
    rng = random.Random(8)
    for _ in range(200):
        weights = [rng.uniform(0, 5) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.2:
            weights = [0.0] * len(weights)
        total = rng.randint(0, 60)
        quotas = allocate_offspring(weights, total)
        assert sum(quotas) == total
        assert all(q >= 0 for q in quotas)


def weight_sum_fitness(genome):
    return sum(c.weight for c in genome.connections if c.enabled)


def test_elitism_keeps_best_fitness_non_decreasing():
    config = EvolutionConfig(population_size=40, elitism=1, seed=3)
    evo = Evolution(3, 2, config)
    best_so_far = -math.inf
    evo.evaluate(weight_sum_fitness)
    for _ in range(100):
        evo.next_generation()
        stats = evo.evaluate(weight_sum_fitness)
        assert stats.best_fitness >= best_so_far - 1e-12
        best_so_far = max(best_so_far, stats.best_fitness)


def test_carried_elites_are_not_scored_again():
    config = EvolutionConfig(population_size=30, elitism=3, add_node_rate=0.2, seed=7)
    scored = []

    def counted(genome):
        scored.append(genome)
        return weight_sum_fitness(genome)

    evo = Evolution(3, 2, config)
    evo.evaluate(counted)
    reference = Evolution(3, 2, config)
    reference.evaluate(weight_sum_fitness)
    for _ in range(8):
        evo.next_generation()
        del scored[:]
        evo.evaluate(counted)
        assert len(scored) == config.population_size - config.elitism
        # scoring every genome again, carried elites included, changes nothing
        reference.next_generation()
        for g in reference.population:
            g.fitness = None
        reference.evaluate(weight_sum_fitness)
    assert evo.history == reference.history
    assert (evo.best.nodes, evo.best.connections, evo.best.fitness) == \
        (reference.best.nodes, reference.best.connections, reference.best.fitness)


def test_carried_unreachable_elite_gets_the_new_floor():
    config = EvolutionConfig(population_size=4, elitism=2, seed=1)
    evo = Evolution(2, 1, config)
    for g in evo.population[1:]:
        for c in g.connections:
            c.enabled = False
    evo.evaluate(weight_sum_fitness)
    fitness = evo.population[0].fitness
    evo.next_generation()
    kept, unreachable = evo.population[:2]
    assert kept.fitness == fitness
    assert unreachable.fitness is None
    evo.evaluate(weight_sum_fitness)
    assert unreachable.fitness == min(g.fitness for g in evo.population[2:] + [kept]
                                      if outputs_reachable(g)) - 1.0


def test_reseed_keeps_the_best_genome_fitness():
    config = EvolutionConfig(population_size=12, elitism=0, staleness_limit=1, seed=5)
    evo = Evolution(2, 1, config)
    evo.evaluate(weight_sum_fitness)
    generations = 0
    while not evo.extinctions:
        generations += 1
        assert generations < 50, "no reseed happened"
        best = evo.best
        evo.next_generation()
        evo.evaluate(lambda genome: best.fitness - 1.0)
    assert evo.population[0].fitness == best.fitness
    assert evo.population[0].connections == best.connections


def test_quotas_preserve_population_size():
    config = EvolutionConfig(population_size=37, elitism=2, seed=9)
    evo = Evolution(3, 2, config)
    evo.evaluate(weight_sum_fitness)
    for _ in range(12):
        evo.next_generation()
        assert len(evo.population) == 37
        evo.evaluate(weight_sum_fitness)


def test_seeded_run_is_bit_identical():
    def run():
        evo = Evolution(2, 1, EvolutionConfig(population_size=25, seed=11))
        best, history = evo.run(weight_sum_fitness, 15)
        return best, history

    best_a, hist_a = run()
    best_b, hist_b = run()
    assert hist_a == hist_b
    assert best_a.fitness == best_b.fitness
    assert [(c.innovation, c.weight, c.enabled) for c in best_a.connections] == \
           [(c.innovation, c.weight, c.enabled) for c in best_b.connections]


# sha256 of repr((history, best.nodes, best.connections, best.fitness)) for
# XOR, population 50, seed 4, 15 generations: eight species by the end, so
# speciation, crossover and mutation all shape it
XOR_RUN_GOLDEN = "0d35a37d6cf1b4232e9496d02e512b755751c8c63d8b8bd9d562825cc731cb17"


def test_seeded_xor_run_matches_its_golden():
    evo = Evolution(2, 1, EvolutionConfig(population_size=50, seed=4))
    best, history = evo.run(xor_fitness, 15)
    text = repr((history, best.nodes, best.connections, best.fitness))
    assert hashlib.sha256(text.encode()).hexdigest() == XOR_RUN_GOLDEN


def test_extinction_reseeds_from_best():
    # decreasing rewards + no elitism: every species goes stale, nothing
    # matches the best-ever fitness, so the run reseeds from the best genome
    config = EvolutionConfig(population_size=12, elitism=0, staleness_limit=1, seed=5)
    evo = Evolution(2, 1, config)
    clock = {"g": 0}

    def decaying(genome):
        return -float(clock["g"])

    evo.evaluate(decaying)
    for _ in range(6):
        clock["g"] += 1
        evo.next_generation()
        evo.evaluate(decaying)
    assert evo.extinctions >= 1
    assert len(evo.population) == 12


def test_unreachable_outputs_score_below_evaluated():
    config = EvolutionConfig(population_size=6, seed=2)
    evo = Evolution(2, 1, config)
    broken = evo.population[0]
    for c in broken.connections:
        c.enabled = False
    evo.evaluate(weight_sum_fitness)
    others = [g.fitness for g in evo.population[1:]]
    assert broken.fitness == pytest.approx(min(others) - 1.0)


# ---------------------------------------------------------------------------
# Genome file format
# ---------------------------------------------------------------------------

def test_genome_file_round_trip(tmp_path):
    genome = random_genome(6, rounds=20)
    genome.fitness = 1.25
    path = tmp_path / "g.txt"
    write_genome(genome, path)
    loaded = read_genome(path)
    assert loaded.fitness == 1.25
    assert loaded.nodes == genome.nodes
    assert loaded.connections == genome.connections


def test_genome_file_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 0 input identity\nwires 1 2 3\n")
    with pytest.raises(ValidationError, match=":2:"):
        read_genome(path)


def test_genome_file_rejects_activation_evaluation_ignores(tmp_path):
    path = tmp_path / "tanh.txt"
    path.write_text("node 0 input identity\nnode 1 output tanh\nconn 0 0 1 0.5 1\n")
    with pytest.raises(ValidationError, match="activation"):
        read_genome(path)


def test_validate_genome_checks_activation_per_kind():
    good_input = NodeGene(0, NodeKind.INPUT, "identity")
    output = NodeGene(1, NodeKind.OUTPUT)
    validate_genome(Genome([good_input, output], []))
    for nodes in ([NodeGene(0, NodeKind.INPUT), output],
                  [NodeGene(0, NodeKind.BIAS, "sigmoid"), output],
                  [good_input, NodeGene(2, NodeKind.HIDDEN, "identity"), output]):
        with pytest.raises(ValidationError, match="activation"):
            validate_genome(Genome(nodes, []))


def test_connections_into_input_and_bias_nodes_are_ignored(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("node 0 input identity\nnode 1 input identity\nnode 2 bias identity\n"
                    "node 3 hidden sigmoid\nnode 4 output sigmoid\n"
                    "conn 0 0 4 0.75 1\nconn 1 1 3 -1.25 1\nconn 2 3 4 2.5 1\n"
                    "conn 3 2 4 -0.5 1\nconn 4 3 0 1.5 1\nconn 5 2 1 -3.0 1\n")
    genome = read_genome(path)
    net = NetworkEvaluator(genome)
    rows = [[0.0, 0.0], [0.5, -1.0], [2.0, 3.0]]
    expected = [[0.9752773002196243], [0.9999909321085084], [0.9926084595964978]]
    assert [net.activate(row) for row in rows] == expected
    assert net.activate_columns(columns_of(rows)) == columns_of(expected)
    assert outputs_reachable(genome)


def test_genome_file_missing_is_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read genome"):
        read_genome(tmp_path / "absent.txt")


@pytest.mark.parametrize("field,value", [
    ("compatibility_threshold", 0.0), ("compatibility_threshold", -1.0),
    ("compatibility_threshold", math.nan), ("weight_cap", 0.0), ("weight_cap", -2.0),
    ("max_generations", -1), ("c1", -1.0), ("c2", -5.0), ("c3", -0.4), ("c3", math.nan),
    ("weight_init_span", 8.5), ("weight_init_span", -0.1), ("weight_init_span", math.nan),
    ("weight_step", -0.5), ("weight_step", math.nan),
    ("weight_cap", 1e308), ("weight_cap", 1.0000001e100), ("weight_cap", math.inf),
    ("weight_step", 1e308), ("weight_step", math.inf),
])
def test_evolution_config_rejects_out_of_range(field, value):
    with pytest.raises(ValidationError, match=field):
        EvolutionConfig(**{field: value}).validate()


def test_cmd_optimize_negative_c3_exit_1(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": ["ema:p=3"],
        "evolution": {"population_size": 6, "max_generations": 1, "c3": -0.4}})
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, "c3 must be >= 0, got -0.4")


def test_evolution_config_accepts_a_span_up_to_the_cap():
    EvolutionConfig(weight_init_span=8.0, weight_cap=8.0, weight_step=0.0).validate()
    EvolutionConfig(weight_init_span=0.0).validate()
    EvolutionConfig(weight_init_span=1e100, weight_cap=1e100, weight_step=1e100).validate()


@pytest.mark.parametrize("evolution,message", [
    ({"weight_init_span": 1e308, "weight_cap": 1e308}, "weight_cap must be in (0, 1e100], got 1e+308"),
    ({"weight_step": 1e308}, "weight_step must be in [0, 1e100], got 1e+308"),
])
def test_cmd_optimize_huge_weight_bounds_exit_1(tmp_path, capsys, evolution, message):
    # uniform(-1e308, 1e308) overflows to inf, and w + 1e308 - 1e308 steps to NaN
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": ["ema:p=3"],
        "evolution": {"population_size": 6, "max_generations": 1, **evolution}})
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, message)
    assert not (tmp_path / "out" / "best_genome.txt").exists()


def test_cmd_optimize_init_span_above_cap_exit_1(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    cfg = write_config(tmp_path, wh, optimize={
        "mode": "evolve", "inputs": ["ema:p=3"],
        "evolution": {"population_size": 6, "max_generations": 1, "weight_init_span": 20.0}})
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, "weight_init_span must be in [0, weight_cap 8.0], got 20.0")
    assert not (tmp_path / "out" / "best_genome.txt").exists()


@pytest.mark.parametrize("record", ["conn 0 0 2 nan 1", "conn 1 1 2 inf 1",
                                    "fitness nan", "fitness -inf"])
def test_genome_file_rejects_non_finite_numbers(tmp_path, record):
    path = tmp_path / "g.txt"
    path.write_text("node 0 input identity\nnode 1 input identity\n"
                    f"node 2 output sigmoid\n{record}\n")
    with pytest.raises(ValidationError, match="must be finite"):
        read_genome(path)


def test_cmd_backtest_non_finite_genome_weight_exit_1(tmp_path, capsys):
    wh = setup_warehouse(tmp_path)
    (tmp_path / "g.txt").write_text(TRADING_GENOME + "conn 0 0 2 nan 1\n")
    (tmp_path / "artifact.json").write_text(
        '{"genome": "g.txt", "inputs": ["ema:p=3"], "norm": [[0.0, 1.0]]}')
    cfg = write_config(tmp_path, wh, strategy={"kind": "neat", "artifact": "artifact.json"})
    assert main(["backtest", "--config", str(cfg)]) == 1
    assert_one_line_error(capsys, "weight must be finite")
