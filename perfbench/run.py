"""phaserng benchmark: end-to-end runs of three workloads, with output checks.

    python3 perfbench/run.py --workload pipeline-1e6 --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs the three workloads in turn.  Each
operation runs in a fresh process, one at a time (a closed loop with a
single client).  Before the operations the workload's set-up (a fresh
interpreter importing what the workload uses and building its config or
params) is timed several times.  Operations then repeat until the next one
would end after ``--seconds``, with at least two per run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as the median
over the run's operations.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of BENCHMARK.json from the
traced ones; the spans go to ``.perfbench-out/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every failed
output check counts as a failed operation and makes the exit code 1.  The
program comes from ``src/`` next to this directory; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

from worker import BATTERY_SEQUENCES, SWEEP_DELAYS_M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("pipeline-1e6", "sweep-noisy", "battery")
SETUP_REPEATS = 3
MIN_OPS = 2
OP_TIMEOUT_S = 170
NAIVE_CHECK_BLOCKS = 4

# The README quick-start physics (tau_c 6 ns, 6 m delay, 200 MSa/s, ideal
# device, default extraction) with a [test] geometry the 9.55e6 extracted
# bits of 1e6 samples can fill.
PIPELINE_INI = """\
[laser]
coherence_time = 6e-9

[interferometer]
delay_length = 6.0
fiber_index = 1.5

[detector_i]
transimpedance = 16e3

[simulation]
sample_count = 1000000
sample_rate = 200e6
seed = {seed}

[test]
sequence_count = 9
"""

# Workload -> (throughput metric printed for it, unit of its work).
THROUGHPUT = {
    "pipeline-1e6": ("extracted_bits_per_s", "bits/s"),
    "sweep-noisy": ("samples_per_s", "1/s"),
    "battery": ("tested_bits_per_s", "bits/s"),
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed output check)."""


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_child(argv: list[str], log_path: str) -> tuple[int, float, float]:
    """Run one process to completion: exit code, wall seconds, peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


class Run:
    """One benchmark run of one workload: set-up timings, then operations."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
        self.spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        self.config = os.path.join(self.work, "qrng.ini")
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.reference: object = None   # outputs of the first operation


    def time_setups(self, repeats: int) -> None:
        argv = [sys.executable, WORKER, "setup", self.workload, "--config", self.config]
        for k in range(repeats):
            log = os.path.join(self.work, f"setup{k}.log")
            code, wall, _ = run_child(argv, log)
            if code != 0:
                raise BenchmarkError(f"set-up of {self.workload} exited {code}: {_tail(log)}")
            self.setups.append(wall)


    def run_op(self, index: int, traced: bool) -> dict:
        tag = f"op{index}"
        result_path = os.path.join(self.work, f"{tag}.json")
        log = os.path.join(self.work, f"{tag}.log")
        outdir = os.path.join(self.work, tag)
        if self.workload == "pipeline-1e6" and not traced:
            argv = [sys.executable, "-m", "phaserng.cli", "pipeline",
                    "-c", self.config, "-o", outdir]
        else:
            argv = [sys.executable, WORKER, self.workload, "--seed", str(self.seed),
                    "--config", self.config, "--outdir", outdir, "--result", result_path]
            if traced:
                argv += ["--spans", self.spans,
                         "--trace-id", f"{self.workload}-seed{self.seed}-{tag}"]
        started = time.perf_counter()
        code, wall, rss = run_child(argv, log)
        op = {"traced": traced, "exit_code": code, "peak_rss_mb": rss, "errors": []}
        result = {}
        if code != 0:
            op["errors"].append(f"exit code {code}: {_tail(log)}")
        elif os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        if self.workload == "pipeline-1e6":
            op["wall_s"] = wall           # users pay the whole CLI process
            op["attempted"] = 1
            if code == 0:
                self.check_pipeline(op, outdir)
            op["failed"] = int(bool(op["errors"]))
            shutil.rmtree(outdir, ignore_errors=True)
        elif self.workload == "sweep-noisy":
            op["wall_s"] = result.get("wall_s", wall)
            self.check_sweep(op, result)
        else:
            op["wall_s"] = result.get("wall_s", wall)
            self.check_battery(op, result)
        op.setdefault("work", result.get("work", 0))
        if "layers" in result:
            op["layers"] = {**result["layers"], "trace.spans": result["spans"]}
        op["elapsed_s"] = time.perf_counter() - started
        return op


    def _same_as_first(self, op: dict, outputs, what: str) -> None:
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            op["errors"].append(f"{what} differs from the first operation of this seed")

    def check_pipeline(self, op: dict, outdir: str) -> None:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import numpy as np
        from phaserng import config, extractor, pipeline, reconstruction, traceio

        errors = op["errors"]
        summary_path = os.path.join(outdir, "summary.json")
        if not os.path.exists(summary_path):
            errors.append("missing artifact summary.json")
            return
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        cfg = config.load_config(self.config)
        for key, name in pipeline.ARTIFACTS.items():
            path = os.path.join(outdir, name)
            if not os.path.exists(path):
                errors.append(f"missing artifact {name}")
            elif key != "summary" and summary["artifacts"].get(name, {}).get("sha256") != _sha256(path):
                errors.append(f"summary sha256 of {name} does not match the file")
        sidecars = {name[:-len(".meta.json")] for name in os.listdir(outdir)
                    if name.endswith(".meta.json")}
        for name in sidecars | {"trace.iqt", "toeplitz_seed.bin", "extracted.bin"}:
            meta_path = os.path.join(outdir, name + ".meta.json")
            if not os.path.exists(meta_path):
                errors.append(f"missing sidecar {name}.meta.json")
                continue
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            path = os.path.join(outdir, name)
            if not os.path.exists(path) or meta.get("sha256") != _sha256(path):
                errors.append(f"sidecar sha256 of {name} does not match the file")
            if meta.get("config_digest") != cfg.digest:
                errors.append(f"sidecar of {name} names another config digest")
        if errors:
            return

        ext = summary["stage_outputs"]["extract"]
        n, m, blocks = ext["n"], ext["m"], ext["blocks"]
        extracted_path = os.path.join(outdir, "extracted.bin")
        with open(extracted_path, "rb") as fh:
            raw = fh.read()
        if ext["output_bits"] != blocks * m or len(raw) != (blocks * m + 7) // 8:
            errors.append(f"extracted.bin holds {len(raw)} bytes and the summary "
                          f"{ext['output_bits']} bits; blocks x m = {blocks * m}")
            return
        op["work"] = blocks * m

        # Re-derive the symbols from trace.iqt through the library and hash a
        # sample of blocks with the dense GF(2) oracle.
        trace = traceio.read_trace_binary(os.path.join(outdir, "trace.iqt"))
        norm = reconstruction.normalize_iq(trace, method=cfg.analysis.normalize)
        symbols = reconstruction.quantize_phase(reconstruction.reconstruct_phase(norm.trace),
                                                cfg.analysis.phase_bits)
        bits = extractor.symbols_to_bits(symbols).to_bits()
        if bits.size // n != blocks:
            errors.append(f"{bits.size} re-derived bits make {bits.size // n} blocks, "
                          f"the pipeline reports {blocks}")
            return
        spec = extractor.read_seed_file(os.path.join(outdir, "toeplitz_seed.bin"), n, m)
        picked = sorted(random.Random(self.seed).sample(range(blocks), NAIVE_CHECK_BLOCKS))
        sample = np.concatenate([bits[b * n:(b + 1) * n] for b in picked])
        want = extractor.extract_naive(extractor.BitStream.from_bits(sample), spec).bits.to_bits()
        out_bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        got = np.concatenate([out_bits[b * m:(b + 1) * m] for b in picked])
        if not np.array_equal(want, got):
            errors.append(f"blocks {picked} differ from the dense oracle")
        self._same_as_first(op, _sha256(extracted_path), "extracted.bin")

    def check_sweep(self, op: dict, result: dict) -> None:
        op["attempted"] = len(SWEEP_DELAYS_M)
        points = result.get("points")
        if points is None:            # the worker died; its exit code is recorded
            op["failed"] = op["attempted"]
            return
        bad = set()
        for k, point in enumerate(points):
            if "error" in point:
                op["errors"].append(f"point {point['delay_length']} m: {point['error']}")
                bad.add(k)
            elif not 0.0 < point["min_entropy"] <= 10.0:
                op["errors"].append(f"point {point['delay_length']} m: min-entropy "
                                    f"{point['min_entropy']} outside (0, 10]")
                bad.add(k)
        digests = [p.get("symbols_sha256") for p in points]
        if self.reference is None:
            self.reference = digests
        for k, (digest, first) in enumerate(zip(digests, self.reference)):
            if digest != first and k not in bad:
                op["errors"].append(f"point {points[k]['delay_length']} m: symbol digest "
                                    "differs from the first operation")
                bad.add(k)
        op["failed"] = len(bad)
        op["points"] = points

    def check_battery(self, op: dict, result: dict) -> None:
        op["attempted"] = 1
        streams = result.get("streams", [])
        if len(streams) != 10:
            op["errors"].append(f"{len(streams)} p-value streams, expected 10")
        for s in streams:
            p = s["p_values"]
            if len(p) != BATTERY_SEQUENCES or not all(0.0 <= v <= 1.0 for v in p):
                op["errors"].append(f"stream {s['name']}: {len(p)} p-values, "
                                    "expected 100 in [0, 1]")
        if not op["errors"]:
            self._same_as_first(op, [s["p_values"] for s in streams], "p-values")
        op["failed"] = int(bool(op["errors"]))
        op["streams_passed"] = sum(s["passed"] for s in streams)


    def execute(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(PIPELINE_INI.format(seed=self.seed))
        if self.trace:
            open(self.spans, "w").close()
        try:
            # Set-up first: it also compiles the bytecode the operations reuse.
            self.time_setups(SETUP_REPEATS if not self.trace else 1)
            start = time.perf_counter()
            while True:
                traced = self.trace and len(self.ops) % 2 == 1
                self.ops.append(self.run_op(len(self.ops), traced))
                elapsed = time.perf_counter() - start
                typical = statistics.median(op["elapsed_s"] for op in self.ops)
                if len(self.ops) >= MIN_OPS and elapsed + typical > self.seconds:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    @property
    def attempted(self) -> int:
        return sum(op["attempted"] for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op["failed"] for op in self.ops)

    def end_to_end(self) -> dict:
        plain = [op for op in self.ops if not op["traced"]]
        walls = [op["wall_s"] for op in plain]
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(self.setups),
            "throughput_per_s": statistics.median(op["work"] / op["wall_s"] for op in plain),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
        }

    def per_layer(self) -> dict:
        traced = [op for op in self.ops if op["traced"] and "layers" in op]
        plain = [op for op in self.ops if not op["traced"]]
        if not traced:
            return {}
        out = {name: statistics.median(op["layers"][name] for op in traced)
               for name in traced[0]["layers"]}
        untraced_wall = statistics.median(op["wall_s"] for op in plain)
        overhead = statistics.median(op["wall_s"] for op in traced) - untraced_wall
        out["trace.overhead_s"] = overhead
        out["trace.overhead_share"] = overhead / untraced_wall
        return out


def machine_facts() -> dict:
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        l3 = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "l3_cache_bytes": l3,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def _spread(values: list[float]) -> str:
    return f"range {min(values):.4g} .. {max(values):.4g}, n={len(values)}"


def report(run: Run, spec: dict) -> dict:
    """Print the human-readable lines for one run and return its metrics."""
    w = run.workload
    plain = [op for op in run.ops if not op["traced"]]
    for op in run.ops:
        for err in op["errors"]:
            print(f"{w}  CHECK FAILED: {err}")
    if run.trace:
        metrics = run.per_layer()
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(metrics):
            print(f"{w}  {name:44s} {metrics[name]:>14.6g} {units.get(name, '?')}")
        print(f"{w}  spans written to {os.path.relpath(run.spans, ROOT)}")
    else:
        metrics = run.end_to_end()
        walls = [op["wall_s"] for op in plain]
        print(f"{w}  wall_s               {metrics['wall_s']:.4f} s   ({_spread(walls)})")
        print(f"{w}  setup_s              {metrics['setup_s']:.4f} s   ({_spread(run.setups)})")
        name, unit = THROUGHPUT[w]
        print(f"{w}  {name:20s} {metrics['throughput_per_s']:.6g} {unit}"
              f"   (throughput_per_s; {plain[0]['work']} per operation)")
        print(f"{w}  peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB")
    print(f"{w}  error_rate           {run.failed / run.attempted:.4g}"
          f"   ({run.failed} of {run.attempted} operations failed)")
    if w == "battery":
        passed = [op["streams_passed"] for op in run.ops if "streams_passed" in op]
        print(f"{w}  streams passed       {passed} of 10 per operation"
              " (a FAIL verdict on good bits is an expected false alarm, not an error)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "phaserng")):
        print(f"error: no phaserng sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    facts = machine_facts()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# phaserng benchmark  seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  " + " ".join(f"{k}={v}" for k, v in facts.items()))
    os.makedirs(OUT, exist_ok=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        run = Run(workload, args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        values = report(run, spec)
        expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(values) != expected:
            print(f"error: {workload} reported {sorted(set(values) ^ expected)} "
                  "unlike BENCHMARK.json", file=sys.stderr)
            return 2
        units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
        correct = correct and run.failed == 0
        attempted += run.attempted
        failed += run.failed
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts, "setups_s": run.setups,
                  "ops": [{k: v for k, v in op.items() if k != "layers"} for op in run.ops],
                  "metrics": values}
        path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
