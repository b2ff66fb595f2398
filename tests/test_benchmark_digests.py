"""Byte identity of the workloads of the benchmark.

A speed-up of breeding, speciation, fitness, the bar loop or the fill path
must leave every byte of a seeded run as it was. These digests were recorded
with the benchmark's own workloads (imported from ``perfbench/workloads.py``,
not edited) at sizes chosen here so that the test stays quick, yet the XOR
runs grow at least five species and breed children equal to their parent,
which keep its score, and the tune and replay backtests exit by stop-loss,
take-profit and crossing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tradelab import neat

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from 3.12 on sum() adds floats with compensated summation, "
           "which changes the last bits of evolve's inputs")

SIZES = {
    "Xor": {"runs": 2, "generations": 20, "population": 60},
    "Evolve": {"bars": 400, "population": 10, "generations": 3},
    "Tune": {"bars": 600},
    "Replay": {"bars": 1000},
}
DIGESTS = {
    ("Xor", 101): "02c1917df963730b230870305123dce429f9cbd003a722d9a966f3322f83a06d",
    ("Xor", 202): "832bff076b21917eb5a8dee09278371ed2b328ec48b5675a41fa5921267d603f",
    ("Xor", 303): "ad7b8d82c4c170ba8417e5903d3cc3b166d28d48b169048f0c21987bdcbfff7f",
    ("Evolve", 101): "5635598e1017ac89502adad2fef154f7f1a64dddba9b8fed7ce3a4abb3583505",
    ("Evolve", 202): "de4efb7670023f66be0ae44b7a77f73c0cf42900b21c37d65b1d7f22e5562199",
    ("Evolve", 303): "efca9af76cdfbc46e081cb0e3e09af122adcbbbe89b66d3deafe0b210070b31f",
}
BACKTEST_DIGESTS = {
    ("Tune", 101): "e0da223183cc7e374061b249c119a9fb825ec346ea69f3647dc46bf3e721a06a",
    ("Tune", 202): "be9f2e132f36b8ad6b52b89757b2e857f1be06b8f62b8f677f72233d41d09fd6",
    ("Tune", 303): "d21095d57aa7f7c5ac59025b1805937c2b11528eb4afbbe734d9d2ed9070b376",
    ("Replay", 101): "697518602ada9a8f3b4326c59cdc46ef689f289e64d8aa6f32bf18dca3bf1ee9",
    ("Replay", 202): "bc1ba970e05d56e08e8b18f23ee3ff044bb500c3ea305fc770971cef5d8cacfb",
    ("Replay", 303): "a1c3abc84abf03ceaaf7fec69215b6b32801e79e04a2ada93b4bcc03a14726db",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_neat_workload_digest_is_unchanged(tmp_path, monkeypatch, name, seed):
    species_counts = []
    copies = []
    speciate = neat.speciate
    next_generation = neat.Evolution.next_generation

    def genes(genome):
        return repr((genome.nodes, genome.connections))

    def counting_speciate(*args):
        species = speciate(*args)
        species_counts.append(len(species))
        return species

    def counting_next_generation(self):
        parents = {genes(g) for g in self.population}
        next_generation(self)
        # bred children equal to a genome of the previous generation: the
        # ones that keep a score instead of being scored again
        copies.append(sum(genes(g) in parents for g in self.population[self.config.elitism:]))

    monkeypatch.setattr(neat, "speciate", counting_speciate)
    monkeypatch.setattr(neat.Evolution, "next_generation", counting_next_generation)
    workload = getattr(load_workloads(), name)(seed, SIZES[name], tmp_path)
    workload.setup()
    out = workload.job([])
    assert workload.check(out) == []
    assert workload.digest(out) == DIGESTS[name, seed]
    if name == "Xor":
        assert max(species_counts) >= 5
        assert sum(copies) >= 1


@pytest.mark.parametrize("name,seed", sorted(BACKTEST_DIGESTS))
def test_backtest_workload_digest_is_unchanged(tmp_path, name, seed):
    workload = getattr(load_workloads(), name)(seed, SIZES[name], tmp_path)
    workload.setup()
    out = workload.job([])
    assert workload.check(out) == []
    assert workload.digest(out) == BACKTEST_DIGESTS[name, seed]
