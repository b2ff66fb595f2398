"""Fast self-test of the benchmark at tiny input sizes (standard library only).

Run from the repository root:  python3 perfbench/selftest.py

It checks that every metric is printed by name with its unit and matches
BENCHMARK.json, that a deliberately corrupted output of each workload is
caught by its checker and counted as failed, that a seed reproduces its
output digest, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_tradelab()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int = 0, seed: int = 3) -> tuple[dict, list[str]]:
    """Run one tiny workload in-process; returns (result object, stdout lines).
    Its stderr, where failed checks are reported, is discarded."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                         "--trace", str(trace)], sizes="tiny")
    assert code == 0
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-1]), lines


def printed_units(lines: list[str]) -> dict[str, str]:
    """name -> unit of the human-readable metric lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0][0].isalpha():
            try:
                float(parts[1])
            except ValueError:
                continue
            out[parts[0]] = parts[2]
    return out


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_are_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, dict(run.END_TO_END))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, lines = run_tiny(name)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                units = printed_units(lines)
                for metric, unit in run.END_TO_END + run.PRINTED_ONLY:
                    if metric != "op_p99_us" or name == "replay":  # needs 1,000 ops
                        self.assertEqual(units.get(metric), unit, metric)

    def test_per_layer_metrics_are_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(declared, dict(tracing.PER_LAYER))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, lines = run_tiny(name, trace=1)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                units = printed_units(lines)
                for metric, unit in declared.items():
                    self.assertEqual(units.get(metric), unit, metric)


def _perturb_fill(out):
    columns, report = out
    fill = report.fills[0]
    report.fills[0] = dataclasses.replace(fill, price=fill.price * (1 + 1e-6))
    return columns, report


def _perturb_genome_fitness(out):
    path = out / "best_genome.txt"
    lines = path.read_text().splitlines()
    fitness = float(lines[-1].split()[1])
    lines[-1] = f"fitness {fitness + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    return out


def _swap_best_params(out):
    path = out / "best_params.json"
    best = json.loads(path.read_text())
    best["p_short"] = 3 if best["p_short"] != 3 else 4
    path.write_text(json.dumps(best))
    return out


def _perturb_xor_fitness(out):
    best, history = out[0]
    best.fitness += 1e-9
    return out


CORRUPTIONS = {
    "replay": _perturb_fill,
    "evolve": _perturb_genome_fitness,
    "tune": _swap_best_params,
    "xor": _perturb_xor_fitness,
}


class Checkers(unittest.TestCase):
    def test_corrupted_output_is_counted_as_failed(self):
        for name, corrupt in CORRUPTIONS.items():
            cls = workloads.WORKLOADS[name]
            original = cls.job

            def corrupted_job(self, latencies, original=original, corrupt=corrupt):
                return corrupt(original(self, latencies))

            with self.subTest(workload=name), mock.patch.object(cls, "job", corrupted_job):
                result, lines = run_tiny(name)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("failed_ratio", printed_units(lines))

    def test_seed_reproduces_digest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                digests = [line for line in run_tiny(name, seed=5)[1] + run_tiny(name, seed=5)[1]
                           if line.startswith("digest ")]
                self.assertEqual(len(digests), 2)
                self.assertEqual(digests[0], digests[1])
                other = [line for line in run_tiny(name, seed=6)[1] if line.startswith("digest ")]
                self.assertNotEqual(other[0], digests[0])


class WithoutProgram(unittest.TestCase):
    def test_fails_without_tradelab_sources(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            bare = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "xor", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
