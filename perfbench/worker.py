"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation, so that every operation
pays its own imports and reports its own peak memory.  Modes:

    worker.py setup <workload> [--config INI]
        import what the workload uses, build its config or params, exit
    worker.py sweep-noisy --seed N --result FILE [--spans FILE --trace-id ID]
    worker.py battery --seed N --result FILE [--spans FILE --trace-id ID]
        run the library workload and write its timing and outputs as JSON
    worker.py pipeline-1e6 --config INI --outdir DIR --result FILE --spans FILE --trace-id ID
        run ``phaserng pipeline`` in this process with spans recorded

The untraced ``pipeline-1e6`` operation does not come here: it is the
``phaserng`` CLI itself.  phaserng is found through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

# sweep-noisy: every imperfection on, detector-averaging acquisition
# (oversample 2) and ADC quantization, 1e6 delivered samples per point.
SWEEP_DELAYS_M = (0.1, 0.3, 1.0, 3.0, 6.0, 20.0)
SWEEP_SAMPLES = 1_000_000
SWEEP_RATE = 200e6
SWEEP_OVERSAMPLE = 2
SWEEP_PHASE_BITS = 10
SWEEP_MAX_LAG = 50

# battery: the default [test] geometry.
BATTERY_SEQUENCES = 100
BATTERY_BITS = 1_000_000


def sweep_params():
    """Device parameters shared by all points, and one interferometer per point."""
    from phaserng import optics, phasenoise

    laser = phasenoise.LaserParams(coherence_time=6e-9, mean_power=1e-4,
                                   intensity_sigma=5e-6)
    det_i = optics.DetectorParams(transimpedance=16e3, electrical_noise_sigma=0.02)
    det_q = optics.DetectorParams(transimpedance=15e3, electrical_noise_sigma=0.02)
    switches = optics.NoiseSwitches(intensity=True, electrical=True, drift=True,
                                    mismatch=True, bandwidth_limit=True)
    points = [optics.InterferometerParams(delay_length=length, fiber_index=1.5,
                                          drift_mode="slow-walk", drift_step=1e-4)
              for length in SWEEP_DELAYS_M]
    return laser, det_i, det_q, switches, points


def battery_config():
    from phaserng import stattests

    return stattests.TestConfig(sequence_bits=BATTERY_BITS,
                                sequence_count=BATTERY_SEQUENCES)


def setup(workload: str, config: str | None) -> None:
    if workload == "pipeline-1e6":
        from phaserng import cli
        cli.load_config(config)
    elif workload == "sweep-noisy":
        from phaserng import analysis, reconstruction  # noqa: F401
        sweep_params()
    else:
        battery_config()


def _modules() -> dict:
    from phaserng import (analysis, config, extractor, optics, phasenoise, pipeline,
                          reconstruction, stattests, traceio)
    return {"pipeline": pipeline, "config": config, "phasenoise": phasenoise,
            "optics": optics, "traceio": traceio, "reconstruction": reconstruction,
            "analysis": analysis, "extractor": extractor, "stattests": stattests}


def sweep(seed: int) -> dict:
    import numpy as np
    from phaserng import analysis, optics, phasenoise, reconstruction

    laser, det_i, det_q, switches, points = sweep_params()
    fine_period = 1.0 / (SWEEP_RATE * SWEEP_OVERSAMPLE)
    uniform = analysis.ReferenceLaw.uniform(-np.pi, np.pi)
    outputs, symbols = [], []
    t0 = time.perf_counter()
    for ifm in points:
        try:
            path = phasenoise.sample_phase_path(laser, ifm.delay_time, fine_period,
                                                SWEEP_SAMPLES * SWEEP_OVERSAMPLE,
                                                seed=seed)
            trace = optics.simulate_trace(path, laser, ifm, det_i, det_q,
                                          switches=switches, seed=seed)
            trace = optics.boxcar_decimate(trace, SWEEP_OVERSAMPLE)
            trace = optics.adc_quantize(trace, det_i, det_q)
            norm = reconstruction.normalize_iq(trace)
            series = reconstruction.reconstruct_phase(norm.trace)
            stream = reconstruction.quantize_phase(series, SWEEP_PHASE_BITS)
            counts = analysis.symbol_counts(stream.symbols, 1 << SWEEP_PHASE_BITS)
            hist = analysis.Histogram.from_data(series.phases, 256, (-np.pi, np.pi))
            outputs.append({
                "delay_length": ifm.delay_length,
                "min_entropy": analysis.min_entropy(counts),
                "kld_vs_uniform": analysis.kld(hist, uniform),
                "autocorrelation_lag1": float(
                    analysis.autocorrelation(series.phases, SWEEP_MAX_LAG)[1]),
                "samples": len(stream),
            })
            symbols.append(stream.symbols)
        except Exception as exc:  # one failed point must not hide the others
            outputs.append({"delay_length": ifm.delay_length, "error": repr(exc)})
            symbols.append(None)
    wall = time.perf_counter() - t0
    for out, sym in zip(outputs, symbols):
        if sym is not None:
            out["symbols_sha256"] = hashlib.sha256(sym.tobytes()).hexdigest()
    return {"wall_s": wall, "points": outputs,
            "work": sum(o.get("samples", 0) for o in outputs)}


def battery(seed: int) -> dict:
    import numpy as np
    from phaserng import stattests

    config = battery_config()
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(BATTERY_SEQUENCES, BATTERY_BITS), dtype=np.uint8)
    t0 = time.perf_counter()
    report = stattests.run_battery(list(bits), config)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "work": bits.size,
            "streams": [{"name": r.name, "passed": r.passed,
                         "p_values": [float(p) for p in r.p_values]}
                        for r in report.results]}


def traced_pipeline(config: str, outdir: str) -> tuple[int, dict]:
    from phaserng import cli

    code = cli.main(["pipeline", "-c", config, "-o", outdir])
    size = sum(os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir))
    return code, {"pipeline.artifact_bytes": size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pipeline-1e6", "sweep-noisy", "battery"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config")
    parser.add_argument("--outdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--trace-id")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.config)
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer()
        if args.mode == "pipeline-1e6":
            from phaserng import cli
            tracer.wrap(cli, "load_config", "config.load_config")
        tracer.install(_modules())

    code, extra = 0, {}
    if args.mode == "pipeline-1e6":
        code, extra = traced_pipeline(args.config, args.outdir)
        result = {}
    elif args.mode == "sweep-noisy":
        result = sweep(args.seed)
    else:
        result = battery(args.seed)

    if tracer is not None:
        result["layers"] = {**tracer.metrics(), **extra}
        result["spans"] = len(tracer.spans)
        tracer.write_spans(args.spans, args.trace_id)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
