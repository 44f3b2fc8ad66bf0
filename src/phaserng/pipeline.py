"""Experiment orchestration: stages, artifact files, and the run summary.

Stages communicate only through files in the output directory, so any
stage can run in a later invocation as long as its inputs exist; a missing
input is a dependency error naming the expected artifact.  Every artifact
embeds (or, for binary payloads, is paired with a sidecar that embeds) the
configuration digest, and the summary cross-references them all with
content hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from . import analysis, extractor, optics, phasenoise, reconstruction, stattests, traceio
from .config import ExperimentConfig
from .errors import DependencyError, FormatError, InsufficientInputError, ParameterError

#: Stage name -> one-line help, in canonical run order.  Stage ``s`` runs
#: ``<s>_stage``, looked up in this module's globals at call time, so a
#: wrapper installed at the module attribute sees every call.
STAGES = {
    "simulate": "generate an I/Q trace from the configured optics model",
    "ingest": "import an oscilloscope capture as the trace artifact",
    "reconstruct": "recover phases from the trace and quantize them",
    "analyze": "histograms, min-entropy, divergence, autocorrelation",
    "extract": "Toeplitz-hash the quantized symbols into output bits",
    "test": "run the statistical battery on the extracted bits",
}

ARTIFACTS = {
    "trace": "trace.iqt",
    "symbols": "symbols.bin",
    "hist_i": "hist_channel_i.csv",
    "hist_q": "hist_channel_q.csv",
    "hist_phase": "hist_phase.csv",
    "hist_symbols": "hist_symbols.csv",
    "analysis": "analysis_report.json",
    "seed": "toeplitz_seed.bin",
    "extracted": "extracted.bin",
    "test": "test_report.json",
    "summary": "summary.json",
}

#: RNG stream for a generated extractor seed (simulation uses streams 0-5).
EXTRACTOR_SEED_STREAM = 100

SCHEMA_VERSION = 3


def _path(outdir: str, key: str) -> str:
    return os.path.join(outdir, ARTIFACTS[key])


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_artifact(outdir: str, key: str, stage: str) -> str:
    """Path of an upstream artifact, refused if missing, stale or altered.

    An artifact with a sidecar must carry this build's ``SCHEMA_VERSION``
    and the sha256 its sidecar records: older or altered bytes would
    otherwise flow silently into the run.
    """
    path = _path(outdir, key)
    if not os.path.exists(path):
        raise DependencyError(
            f"stage {stage!r} requires missing artifact {ARTIFACTS[key]!r} "
            f"(run its producing stage first)")
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar, "rb") as fh:
            try:
                meta = json.loads(fh.read())
                version = meta.get("schema_version")
            except (ValueError, AttributeError) as exc:
                raise FormatError(f"sidecar {sidecar!r} is not a JSON object") from exc
        if version != SCHEMA_VERSION:
            raise DependencyError(
                f"stage {stage!r} refuses artifact {ARTIFACTS[key]!r} of "
                f"schema_version {version}, expected {SCHEMA_VERSION} "
                f"(rerun its producing stage)")
        if meta.get("sha256") != _sha256_file(path):
            raise DependencyError(
                f"stage {stage!r} refuses artifact {ARTIFACTS[key]!r}: its "
                f"sha256 differs from its sidecar's (rerun its producing stage)")
    return path


def _write_json(path: str, payload: dict) -> None:
    traceio.atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())


def _write_sidecar(path: str, digest: str) -> None:
    _write_json(path + ".meta.json", {
        "schema_version": SCHEMA_VERSION,
        "artifact": os.path.basename(path),
        "config_digest": digest,
        "sha256": _sha256_file(path),
    })


def _write_hist_csv(path: str, hist: analysis.Histogram, ref, digest: str) -> None:
    """CSV columns: bin center, count, reference density (blank if none)."""
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    density = ref.pdf(centers) if ref is not None else None
    lines = [f"# config_digest={digest}", "bin_center,count,reference_density"]
    for k, c in enumerate(centers):
        d = "" if density is None else repr(float(density[k]))
        lines.append(f"{float(c)!r},{int(hist.counts[k])},{d}")
    traceio.atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def simulate_stage(cfg: ExperimentConfig, outdir: str) -> dict:
    sim = cfg.simulation
    factor = sim.oversample_factor
    fine_rate = sim.sample_rate * factor
    fine_count = sim.sample_count * factor
    path = phasenoise.sample_phase_path(
        cfg.laser, cfg.interferometer.delay_time, 1.0 / fine_rate,
        fine_count, seed=sim.seed)
    trace = optics.simulate_trace(path, cfg.laser, cfg.interferometer,
                                  cfg.detector_i, cfg.detector_q,
                                  switches=sim.switches, seed=sim.seed)
    if factor > 1:
        trace = optics.boxcar_decimate(trace, factor)
    if sim.adc_quantize:
        trace = optics.adc_quantize(trace, cfg.detector_i, cfg.detector_q)
        meta = replace(trace.metadata, config_digest=cfg.digest,
                       adc_bits=cfg.detector_i.adc_bits,
                       fullscale=cfg.detector_i.adc_fullscale)
    else:
        meta = replace(trace.metadata, config_digest=cfg.digest)
    trace = replace(trace, metadata=meta)
    out = _path(outdir, "trace")
    traceio.write_trace_binary(trace, out)
    _write_sidecar(out, cfg.digest)
    return {"samples": len(trace), "sample_rate": trace.sample_rate,
            "clamped_samples": trace.clamped_samples,
            "oversample_factor": factor}


def ingest_stage(cfg: ExperimentConfig, outdir: str, input_path: str,
                 input_format: str = "binary") -> dict:
    if input_path is None:
        raise ParameterError("ingest stage needs an input capture path")
    trace = traceio.ingest_trace(input_path, fmt=input_format,
                                 sample_rate=cfg.simulation.sample_rate)
    trace = replace(trace, metadata=replace(trace.metadata, config_digest=cfg.digest))
    out = _path(outdir, "trace")
    traceio.write_trace_binary(trace, out)
    _write_sidecar(out, cfg.digest)
    return {"samples": len(trace), "sample_rate": trace.sample_rate,
            "rejected_rows": trace.metadata.rejected_rows}


def _reconstruct(cfg: ExperimentConfig, trace):
    """Normalize, reconstruct and quantize: the one path from trace to symbols."""
    norm = reconstruction.normalize_iq(trace, method=cfg.analysis.normalize)
    series = reconstruction.reconstruct_phase(norm.trace)
    symbols = reconstruction.quantize_phase(series, cfg.analysis.phase_bits)
    return norm, series, symbols


def reconstruct_stage(cfg: ExperimentConfig, outdir: str) -> dict:
    trace = traceio.read_trace_binary(_require_artifact(outdir, "trace", "reconstruct"))
    norm, series, symbols = _reconstruct(cfg, trace)
    out = _path(outdir, "symbols")
    traceio.atomic_write_bytes(out, traceio.encode_symbols(symbols))
    _write_sidecar(out, cfg.digest)
    return {"samples": len(series), "zero_vectors": series.zero_vector_count,
            "amplitude_i": norm.amplitude_i, "amplitude_q": norm.amplitude_q}


def analyze_stage(cfg: ExperimentConfig, outdir: str) -> dict:
    trace = traceio.read_trace_binary(_require_artifact(outdir, "trace", "analyze"))
    norm, series, symbols = _reconstruct(cfg, trace)
    bins = cfg.analysis.histogram_bins
    digest = cfg.digest

    adc_bits = cfg.detector_i.adc_bits
    code_i = reconstruction.quantize_uniform(norm.trace.v_i, adc_bits, -1.0, 1.0)
    code_q = reconstruction.quantize_uniform(norm.trace.v_q, adc_bits, -1.0, 1.0)
    hmin_i = analysis.min_entropy(analysis.symbol_counts(code_i, 1 << adc_bits))
    hmin_q = analysis.min_entropy(analysis.symbol_counts(code_q, 1 << adc_bits))
    sym_counts = analysis.symbol_counts(symbols.symbols, 1 << symbols.bits_per_symbol)
    hmin_phase = analysis.min_entropy(sym_counts)

    hist_i = analysis.Histogram.from_data(norm.trace.v_i, bins, (-1.1, 1.1))
    hist_q = analysis.Histogram.from_data(norm.trace.v_q, bins, (-1.1, 1.1))
    hist_phase = analysis.Histogram.from_data(series.phases, bins, (-np.pi, np.pi))
    hist_symbols = analysis.Histogram(
        bin_edges=np.arange((1 << symbols.bits_per_symbol) + 1, dtype=np.float64),
        counts=sym_counts, total=int(sym_counts.sum()))

    arc = analysis.ReferenceLaw.arcsine(1.0)
    uniform = analysis.ReferenceLaw.uniform(-np.pi, np.pi)
    _write_hist_csv(_path(outdir, "hist_i"), hist_i, arc, digest)
    _write_hist_csv(_path(outdir, "hist_q"), hist_q, arc, digest)
    _write_hist_csv(_path(outdir, "hist_phase"), hist_phase, uniform, digest)
    _write_hist_csv(_path(outdir, "hist_symbols"), hist_symbols, None, digest)

    klds = {
        "vs_standard_gaussian": analysis.kld(hist_phase,
                                             analysis.ReferenceLaw.gaussian(0.0, 1.0)),
        "vs_moment_fit_gaussian": analysis.kld(hist_phase,
                                               analysis.ReferenceLaw.gaussian_fit(series.phases)),
        "vs_uniform": analysis.kld(hist_phase, uniform),
    }
    autocorr = analysis.autocorrelation(series.phases, cfg.analysis.max_lag)
    warnings = optics.validate_timing(cfg.laser, cfg.interferometer,
                                      cfg.detector_i, cfg.simulation.sample_rate)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "samples": len(series),
        "min_entropy_bits": {"channel_i": hmin_i, "channel_q": hmin_q,
                             "phase_symbols": hmin_phase},
        "kld_bits": klds,
        "autocorrelation": [float(x) for x in autocorr],
        "zero_vectors": series.zero_vector_count,
        "timing_messages": warnings,
    }
    _write_json(_path(outdir, "analysis"), report)
    return {"min_entropy_bits": report["min_entropy_bits"], "kld_bits": klds}


def _extraction_spec(cfg: ExperimentConfig, outdir: str) -> extractor.ToeplitzSpec:
    ext = cfg.extraction
    n, m = ext.input_bits, ext.output_bits
    if not m:
        n, m = extractor.derive_params(ext.min_entropy_rate, n,
                                       epsilon=2.0 ** -ext.epsilon_exponent,
                                       mode=ext.mode)
    if ext.seed_file:
        return extractor.read_seed_file(ext.seed_file, n, m)
    spec = extractor.ToeplitzSpec.from_rng(n, m, seed=cfg.simulation.seed,
                                           stream=EXTRACTOR_SEED_STREAM)
    seed_path = _path(outdir, "seed")
    traceio.atomic_write_bytes(seed_path,
                               np.packbits(spec.seed_bits).tobytes())
    _write_sidecar(seed_path, cfg.digest)
    return spec


def extract_stage(cfg: ExperimentConfig, outdir: str) -> dict:
    with open(_require_artifact(outdir, "symbols", "extract"), "rb") as fh:
        symbols = traceio.decode_symbols(fh.read())
    spec = _extraction_spec(cfg, outdir)
    raw_bits = extractor.symbols_to_bits(symbols)
    result = extractor.extract(raw_bits, spec)
    out = _path(outdir, "extracted")
    traceio.atomic_write_bytes(out, result.bits.data)
    _write_sidecar(out, cfg.digest)
    return {"input_bits": raw_bits.bit_length,
            "output_bits": result.bits.bit_length,
            "blocks": result.blocks, "discarded_bits": result.discarded_bits,
            "n": spec.input_block_bits, "m": spec.output_block_bits}


def test_stage(cfg: ExperimentConfig, outdir: str) -> dict:
    with open(_require_artifact(outdir, "extracted", "test"), "rb") as fh:
        raw = fh.read()
    tc = cfg.test
    need = tc.sequence_bits * tc.sequence_count
    have = len(raw) * 8
    if have < need:
        raise InsufficientInputError(
            f"test stage needs {need} extracted bits, found {have}")
    all_bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:need]
    sequences = all_bits.reshape(tc.sequence_count, tc.sequence_bits)
    report = stattests.run_battery(list(sequences), tc)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict(),
               "config_digest": cfg.digest}
    _write_json(_path(outdir, "test"), payload)
    return {"passed": report.passed,
            "proportions": {r.name: r.proportion for r in report.results}}


def run_pipeline(cfg: ExperimentConfig, stages, outdir: str,
                 ingest_path: str | None = None,
                 ingest_format: str = "binary") -> dict:
    """Run the requested stages in canonical order and write the summary."""
    requested = list(stages)
    unknown = sorted(set(requested) - set(STAGES))
    if unknown:
        raise ParameterError(f"unknown stages: {', '.join(unknown)}")
    if "simulate" in requested and "ingest" in requested:
        raise ParameterError("choose one trace source: simulate or ingest")
    os.makedirs(outdir, exist_ok=True)

    stage_outputs: dict[str, dict] = {}
    for stage in STAGES:
        if stage in requested:
            extra = (ingest_path, ingest_format) if stage == "ingest" else ()
            stage_outputs[stage] = globals()[f"{stage}_stage"](cfg, outdir, *extra)

    ext = stage_outputs.get("extract")
    if ext is not None:
        rate_per_sample = (ext["m"] / ext["n"]) * cfg.analysis.phase_bits
    else:
        e = cfg.extraction
        if e.output_bits:
            rate_per_sample = (e.output_bits / e.input_bits) * cfg.analysis.phase_bits
        else:
            rate_per_sample = None
    artifacts = {}
    for key, name in ARTIFACTS.items():
        path = os.path.join(outdir, name)
        if key != "summary" and os.path.exists(path):
            artifacts[name] = {"sha256": _sha256_file(path),
                               "config_digest": cfg.digest}
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": cfg.digest,
        "stages": [s for s in STAGES if s in requested],
        "stage_outputs": stage_outputs,
        "artifacts": artifacts,
    }
    if rate_per_sample is not None:
        summary["bits_per_sample"] = rate_per_sample
        summary["nominal_bit_rate"] = rate_per_sample * cfg.simulation.sample_rate
    _write_json(_path(outdir, "summary"), summary)
    return summary
