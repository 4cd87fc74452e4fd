"""The benchmark's output contract: every workload, traced and untraced,
prints a last line whose metric names and units are exactly those in
BENCHMARK.json, with verified outputs; and without the repository's sources
the benchmark fails without printing a result.

Run with `python3 perfbench/run.py --self-test` (which builds first).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


# The not-gated figures each workload prints, by the names the layer map in
# README.md cites.
NOT_GATED = {
    "eco_edit": ["latency_p50_us", "edit_p50_us", "analyze_p50_us", "error_share"],
    "signoff_read": ["latency_p50_us", "edit_p50_us", "analyze_p50_us", "report_p50_us",
                     "error_share"],
    "reclock": ["latency_p50_us", "edit_p50_us", "sweep_p50_us", "min_p50_us", "error_share"],
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Contract(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "11",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        return proc.stdout.splitlines()

    def test_metric_names_match_benchmark_json(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["eco_edit", "signoff_read", "reclock"])
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_bench(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], "\n".join(lines[:-1]))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in s[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                        printed = {l.split()[0] for l in lines[:-1] if l.startswith("  ")}
                        for name in NOT_GATED[workload]:
                            self.assertIn(name, printed)

    def test_same_seed_same_stream_hash(self):
        hashes = set()
        for _ in range(2):
            lines = self.run_bench("signoff_read", 0)
            hashes.add([l for l in lines if "stream hash" in l][0].split("stream hash")[1].split()[0])
        self.assertEqual(len(hashes), 1)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = spec()["command"] + ["--workload", "eco_edit", "--seed", "1",
                                       "--seconds", "1", "--trace", "0"]
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run([sys.executable] + cmd[1:], cwd=tmp, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
