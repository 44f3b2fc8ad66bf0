"""Experiment orchestration: stages, artifact files, and the run summary.

Stages communicate only through files in the output directory, so any
stage can run in a later invocation as long as its inputs exist; a missing
input is a dependency error naming the expected artifact.  Every artifact
embeds (or, for binary payloads, is paired with a sidecar that embeds) the
configuration digest.  The summary lists every artifact the invocation
read or wrote, with its sha256 and the config digest it carries.
"""

from __future__ import annotations

import hashlib
import json
import os

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


#: Binary artifacts, each paired with a ``<name>.meta.json`` sidecar.
_SIDECARS = ("trace", "symbols", "seed", "extracted")


class _ArtifactGate:
    """Every artifact read and write of one invocation goes through here.

    Each read or write records the artifact's sha256 and the config digest
    it carries: the run's own for a write, its sidecar's for a read (None
    without a sidecar).  The summary lists exactly these records.
    """

    def __init__(self, outdir: str, digest: str):
        self.outdir = outdir
        self.digest = digest
        self.records: dict[str, dict] = {}

    def read(self, key: str, stage: str) -> bytes:
        """An upstream artifact's bytes, refused if missing, stale or altered.

        An artifact with a sidecar must carry this build's ``SCHEMA_VERSION``
        and the sha256 its sidecar records: older or altered bytes would
        otherwise flow silently into the run.
        """
        name = ARTIFACTS[key]
        path = os.path.join(self.outdir, name)
        if not os.path.exists(path):
            raise DependencyError(
                f"stage {stage!r} requires missing artifact {name!r} "
                f"(run its producing stage first)")
        sidecar = path + ".meta.json"
        meta = {}
        if os.path.exists(sidecar):
            with open(sidecar, "rb") as fh:
                try:
                    meta = json.loads(fh.read())
                    version = meta.get("schema_version")
                except (ValueError, AttributeError) as exc:
                    raise FormatError(f"sidecar {sidecar!r} is not a JSON object") from exc
            if version != SCHEMA_VERSION:
                raise DependencyError(
                    f"stage {stage!r} refuses artifact {name!r} of "
                    f"schema_version {version}, expected {SCHEMA_VERSION} "
                    f"(rerun its producing stage)")
        with open(path, "rb") as fh:
            data = fh.read()
        sha = hashlib.sha256(data).hexdigest()
        if meta and meta.get("sha256") != sha:
            raise DependencyError(
                f"stage {stage!r} refuses artifact {name!r}: its "
                f"sha256 differs from its sidecar's (rerun its producing stage)")
        self.records[key] = {"sha256": sha, "config_digest": meta.get("config_digest")}
        return data

    def write(self, key: str, data: bytes) -> None:
        """Write an artifact atomically, and its sidecar if it has one."""
        path = os.path.join(self.outdir, ARTIFACTS[key])
        traceio.atomic_write_bytes(path, data)
        sha = hashlib.sha256(data).hexdigest()
        self.records[key] = {"sha256": sha, "config_digest": self.digest}
        if key in _SIDECARS:
            traceio.atomic_write_bytes(path + ".meta.json", _json_bytes({
                "schema_version": SCHEMA_VERSION,
                "artifact": ARTIFACTS[key],
                "config_digest": self.digest,
                "sha256": sha,
            }))


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _hist_csv(hist: analysis.Histogram, ref, digest: str) -> bytes:
    """CSV columns: bin center, count, reference density (blank if none)."""
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    density = ref.pdf(centers) if ref is not None else None
    lines = [f"# config_digest={digest}", "bin_center,count,reference_density"]
    for k, c in enumerate(centers):
        d = "" if density is None else repr(float(density[k]))
        lines.append(f"{float(c)!r},{int(hist.counts[k])},{d}")
    return ("\n".join(lines) + "\n").encode()


def simulate_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> dict:
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
    artifacts.write("trace", traceio.encode_trace(trace))
    return {"samples": len(trace), "sample_rate": trace.sample_rate,
            "clamped_samples": trace.clamped_samples,
            "oversample_factor": factor}


def ingest_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate, input_path: str,
                 input_format: str = "binary") -> dict:
    if input_path is None:
        raise ParameterError("ingest stage needs an input capture path")
    trace = traceio.ingest_trace(input_path, fmt=input_format,
                                 sample_rate=cfg.simulation.sample_rate)
    artifacts.write("trace", traceio.encode_trace(trace))
    return {"samples": len(trace), "sample_rate": trace.sample_rate,
            "rejected_rows": trace.rejected_rows}


def _reconstruct(cfg: ExperimentConfig, trace):
    """Normalize, reconstruct and quantize: the one path from trace to symbols."""
    norm = reconstruction.normalize_iq(trace, method=cfg.analysis.normalize)
    series = reconstruction.reconstruct_phase(norm.trace)
    symbols = reconstruction.quantize_phase(series, cfg.analysis.phase_bits)
    return norm, series, symbols


def reconstruct_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> dict:
    trace = traceio.decode_trace(artifacts.read("trace", "reconstruct"))
    norm, series, symbols = _reconstruct(cfg, trace)
    artifacts.write("symbols", traceio.encode_symbols(symbols))
    return {"samples": len(series), "zero_vectors": series.zero_vector_count,
            "amplitude_i": norm.amplitude_i, "amplitude_q": norm.amplitude_q}


def analyze_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> dict:
    trace = traceio.decode_trace(artifacts.read("trace", "analyze"))
    norm, series, symbols = _reconstruct(cfg, trace)
    bins = cfg.analysis.histogram_bins
    digest = cfg.digest

    bits_i, bits_q = cfg.detector_i.adc_bits, cfg.detector_q.adc_bits
    code_i = reconstruction.quantize_uniform(norm.trace.v_i, bits_i, -1.0, 1.0)
    code_q = reconstruction.quantize_uniform(norm.trace.v_q, bits_q, -1.0, 1.0)
    hmin_i = analysis.min_entropy(analysis.symbol_counts(code_i, 1 << bits_i))
    hmin_q = analysis.min_entropy(analysis.symbol_counts(code_q, 1 << bits_q))
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
    artifacts.write("hist_i", _hist_csv(hist_i, arc, digest))
    artifacts.write("hist_q", _hist_csv(hist_q, arc, digest))
    artifacts.write("hist_phase", _hist_csv(hist_phase, uniform, digest))
    artifacts.write("hist_symbols", _hist_csv(hist_symbols, None, digest))

    klds = {
        "vs_standard_gaussian": analysis.kld(hist_phase,
                                             analysis.ReferenceLaw.gaussian(0.0, 1.0)),
        "vs_moment_fit_gaussian": analysis.kld(hist_phase,
                                               analysis.ReferenceLaw.gaussian_fit(series.phases)),
        "vs_uniform": analysis.kld(hist_phase, uniform),
    }
    autocorr = analysis.autocorrelation(series.phases, cfg.analysis.max_lag)
    warnings = optics.validate_timing(cfg.laser, cfg.interferometer,
                                      cfg.detector_i, trace.sample_rate)
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
    artifacts.write("analysis", _json_bytes(report))
    return {"min_entropy_bits": report["min_entropy_bits"], "kld_bits": klds}


def _extraction_spec(cfg: ExperimentConfig,
                     artifacts: _ArtifactGate) -> extractor.ToeplitzSpec:
    n, m = cfg.extraction.block_bits
    if cfg.extraction.seed_file:
        return extractor.read_seed_file(cfg.extraction.seed_file, n, m)
    spec = extractor.ToeplitzSpec.from_rng(n, m, seed=cfg.simulation.seed,
                                           stream=EXTRACTOR_SEED_STREAM)
    artifacts.write("seed", np.packbits(spec.seed_bits).tobytes())
    return spec


def extract_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> dict:
    symbols = traceio.decode_symbols(artifacts.read("symbols", "extract"))
    spec = _extraction_spec(cfg, artifacts)
    raw_bits = extractor.symbols_to_bits(symbols)
    result = extractor.extract(raw_bits, spec)
    artifacts.write("extracted", result.bits.data)
    return {"input_bits": raw_bits.bit_length,
            "output_bits": result.bits.bit_length,
            "blocks": result.blocks, "discarded_bits": result.discarded_bits,
            "n": spec.input_block_bits, "m": spec.output_block_bits}


def test_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> dict:
    raw = artifacts.read("extracted", "test")
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
    artifacts.write("test", _json_bytes(payload))
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

    gate = _ArtifactGate(outdir, cfg.digest)
    stage_outputs: dict[str, dict] = {}
    for stage in STAGES:
        if stage in requested:
            extra = (ingest_path, ingest_format) if stage == "ingest" else ()
            stage_outputs[stage] = globals()[f"{stage}_stage"](cfg, gate, *extra)

    n, m = cfg.extraction.block_bits
    rate_per_sample = (m / n) * cfg.analysis.phase_bits
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": cfg.digest,
        "stages": [s for s in STAGES if s in requested],
        "stage_outputs": stage_outputs,
        "artifacts": {name: gate.records[key] for key, name in ARTIFACTS.items()
                      if key in gate.records},
        "bits_per_sample": rate_per_sample,
        "nominal_bit_rate": rate_per_sample * cfg.simulation.sample_rate,
    }
    gate.write("summary", _json_bytes(summary))
    return summary
