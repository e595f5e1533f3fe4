"""Tests for the repository benchmark: simbench/run.py and simbench.cpp.

Run from the repository root:

    python3 -m unittest discover -s simbench -v

The first test that needs the simbench binary builds it (about a minute on
4 cores); the benchmark runs use --seconds 1, i.e. the minimum number of
calls.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as simbench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYERS = {"simcov_gpu", "simcov_cpu", "gpusim", "pgas", "core", "obs",
          "perfmodel", "harness"}
SEED = 3


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, env=None):
    """Runs the benchmark command; returns (its result line, its stdout)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, env=env,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


class SpecTest(unittest.TestCase):
    def test_names_units_and_bounds_are_legal(self):
        spec = load_spec()
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_layer_map_covers_every_per_layer_metric(self):
        spec = load_spec()
        layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
        self.assertEqual(list(layer_map),
                         [m["name"] for m in spec["per_layer"]])
        # A layer metric moves an end-to-end metric or one of the unbounded
        # wall-clock figures of the whole harness call.
        end_to_end = {m["name"] for m in spec["end_to_end"]} | {
            name for name in layer_map if name.startswith("wall.")}
        workloads = {w["name"] for w in spec["workloads"]}
        for name, entry in layer_map.items():
            self.assertIn(entry["layer"], LAYERS, name)
            self.assertTrue(entry["moves"], name)
            self.assertLessEqual(set(entry["moves"]), end_to_end, name)
            self.assertTrue(entry["on"], name)
            self.assertLessEqual(set(entry["on"]), workloads, name)
        self.assertEqual({e["layer"] for e in layer_map.values()}, LAYERS)

    def test_workloads_match_the_binary(self):
        source = (BENCH_DIR / "simbench.cpp").read_text()
        self.assertEqual(re.findall(r'^\s+\{"(\w+)", (?:true|false),', source,
                                    re.M),
                         [w["name"] for w in load_spec()["workloads"]])


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = simbench.build_root()
        cls.binary = simbench.build(cls.build_dir)

    def check_metrics(self, result, declared):
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_run_emits_every_declared_metric(self):
        spec = load_spec()
        result, stdout = run_bench("gpu_spread", 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.check_metrics(result, spec["end_to_end"])
        for name, got in result["metrics"].items():
            self.assertGreater(got["value"], 0, name)
        machine = json.loads(stdout.strip().splitlines()[-2])["machine"]
        for key in ("nproc", "load1_before", "load1_after", "ranks", "cpu_s",
                    "run_wall_s"):
            self.assertIn(key, machine)

    def test_traced_run_emits_every_per_layer_metric(self):
        spec = load_spec()
        for workload, exercised in (("gpu_spread", ("gpu.", "kernel.")),
                                    ("cpu_hotspot", ("cpu.",))):
            with self.subTest(workload=workload):
                result, _ = run_bench(workload, 1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, spec["per_layer"])
                for prefix in exercised + ("pgas.barrier_us", "core.",
                                           "critpath.imbalance"):
                    values = [v["value"] for k, v in result["metrics"].items()
                              if k.startswith(prefix)
                              and not k.endswith(".wait_s")]
                    self.assertTrue(values and all(v > 0 for v in values),
                                    prefix)

    def measure(self, ref, env=None):
        """Output of a minimal untraced run of the binary against `ref`."""
        out = subprocess.run(
            [str(self.binary), "measure", "gpu_spread", str(SEED), "0",
             str(ref)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=300,
            env=env if env is not None else simbench.child_env())
        return json.loads(out.stdout)

    def test_oracle_fails_a_run_when_one_count_is_flipped(self):
        ref = simbench.reference(self.binary, self.build_dir, "gpu_spread",
                                 SEED)
        self.assertEqual([s["error"] for s in self.measure(ref)["samples"]],
                         [""] * 3)
        lines = ref.read_text().splitlines()
        fields = lines[100].split()
        fields[4] = str(int(fields[4]) + 1)  # one epithelial count, step 100
        lines[100] = " ".join(fields)
        flipped = self.build_dir / "flipped-reference.txt"
        flipped.write_text("\n".join(lines) + "\n")
        errors = [s["error"] for s in self.measure(flipped)["samples"]]
        self.assertEqual(len(errors), 3)
        for error in errors:
            self.assertIn("step 100: epi_counts", error)

    def test_untraced_calls_fail_when_a_collector_is_on(self):
        ref = simbench.reference(self.binary, self.build_dir, "gpu_spread",
                                 SEED)
        out = self.build_dir / "collector-test.json"
        for var, value in (("SIMCOV_CRITPATH", "1"), ("SIMCOV_MEMSCOPE", "1"),
                           ("SIMCOV_PROFILE", "1"),
                           ("SIMCOV_METRICS", str(out)),
                           ("SIMCOV_TRACE", str(out))):
            with self.subTest(var=var):
                env = dict(simbench.child_env(), **{var: value})
                raw = self.measure(ref, env)
                for sample in raw["samples"] + raw["setup"]:
                    self.assertIn("is on in an untraced run", sample["error"])
        # run.py strips the switches, so its runs stay clean.
        env = dict(simbench.child_env(), SIMCOV_CRITPATH="1")
        result, _ = run_bench("gpu_spread", 0, env)
        self.assertTrue(result["correct"])

    def test_fails_without_the_simulation_sources(self):
        bare = self.build_dir / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "simbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "simbench/run.py", "--workload", "gpu_spread",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170, env=simbench.child_env())
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("correct", out.stdout)


if __name__ == "__main__":
    unittest.main()
