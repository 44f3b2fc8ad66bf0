"""Experiment orchestration: stages, artifact files, and the run summary.

Stages communicate only through files in the output directory, so any
stage can run in a later invocation as long as its inputs exist; a missing
input is a dependency error naming the expected artifact.  A stage reads
its inputs but writes nothing: it returns its summary outputs and its
artifact payloads keyed as in ``ARTIFACTS``, and ``run_pipeline`` writes
them once the stage has returned, so a failed stage leaves no artifact.
The output directory is made with the first artifact written, and an empty
stage list is refused, so a run that writes nothing changes nothing.
Every artifact embeds (or, for binary payloads, is paired with a sidecar
that embeds) the configuration digest.  The bit artifacts are packed
MSB-first bits whose sidecar also records their bit length.  A stage reads
only artifacts that come with their sidecar.  The summary lists every
artifact the invocation read or wrote, with its sha256 and config digest.

Stages import what they run: ``analysis`` and ``stattests`` load
``scipy.fft`` and ``scipy.special`` (about 0.3 s), so they are imported
inside the stages that use them, and a staged ``simulate`` or ``ingest``
starts on numpy alone.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import extractor, optics, phasenoise, reconstruction, traceio
from .config import ExperimentConfig, TestConfig
from .errors import DependencyError, FormatError, InsufficientInputError, ParameterError

#: Stage name -> one-line help, in canonical run order.  Stage ``s`` runs
#: ``<s>_stage``, looked up in this module's globals at call time, so a
#: wrapper installed at the module attribute sees every call.
STAGES = {
    "simulate": "generate an I/Q trace from the configured optics model",
    "ingest": "import an oscilloscope capture as the trace artifact",
    "reconstruct": "recover and quantize the phases; histograms, entropy, correlation",
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

SCHEMA_VERSION = 8

#: Bit artifacts: packed MSB-first bits whose sidecar records ``bit_length``.
_BIT_ARTIFACTS = ("symbols", "seed", "extracted")

#: Binary artifacts, each paired with a ``<name>.meta.json`` sidecar.
_SIDECARS = ("trace", *_BIT_ARTIFACTS)

#: A stage's summary outputs, and its artifact payloads by ``ARTIFACTS`` key.
StageResult = tuple[dict, dict]


class _ArtifactGate:
    """Every artifact read and write of one invocation goes through here.

    Each read or write records the artifact's sha256 and the config digest
    it carries: the run's own for a write, its sidecar's for a read.  The
    summary lists exactly these records.  The sidecar of ``extracted.bin``
    records its block size m, and a read refuses another m than the run's.
    """

    def __init__(self, outdir: str, digest: str, m: int):
        self.outdir = outdir
        self.digest = digest
        self.m = m
        self.records: dict[str, dict] = {}

    def read(self, key: str, stage: str):
        """An upstream artifact, refused if missing, stale or altered.

        The artifact must come with its sidecar, which must carry this
        build's ``SCHEMA_VERSION`` and the artifact's sha256: older, altered
        or unvouched bytes would otherwise flow silently into the run.  A
        bit artifact comes back as a ``BitStream`` of its sidecar's
        ``bit_length``; the trace comes back as bytes.
        """
        name = ARTIFACTS[key]
        path = os.path.join(self.outdir, name)
        sidecar = path + ".meta.json"
        if not os.path.exists(path):
            raise DependencyError(
                f"stage {stage!r} requires missing artifact {name!r} "
                f"(run its producing stage first)")
        if not os.path.exists(sidecar):
            raise DependencyError(
                f"stage {stage!r} refuses artifact {name!r} without its sidecar "
                f"{os.path.basename(sidecar)!r} (rerun its producing stage, or "
                f"ingest a capture)")
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
        if meta.get("sha256") != sha:
            raise DependencyError(
                f"stage {stage!r} refuses artifact {name!r}: its "
                f"sha256 differs from its sidecar's (rerun its producing stage)")
        if key == "extracted" and meta.get("output_block_bits") != self.m:
            raise DependencyError(
                f"stage {stage!r} refuses artifact {name!r} hashed at "
                f"m = {meta.get('output_block_bits')}, not at m = {self.m}")
        self.records[key] = {"sha256": sha, "config_digest": meta.get("config_digest")}
        if key not in _BIT_ARTIFACTS:
            return data
        length = meta.get("bit_length")
        if type(length) is int:          # not a bool, float or string
            try:
                return extractor.BitStream(data=data, bit_length=length)
            except ParameterError:
                pass
        raise FormatError(f"sidecar {sidecar!r} gives bit_length {length!r}, "
                          f"which does not fit the {len(data)} bytes of {name!r}")

    def write(self, key: str, payload) -> None:
        """Write an artifact atomically, and its sidecar if it has one.

        ``payload`` is a ``BitStream`` for a bit artifact, else bytes.  The
        output directory is made here, with the run's first artifact.
        """
        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(self.outdir, ARTIFACTS[key])
        data = payload.data if key in _BIT_ARTIFACTS else payload
        traceio.atomic_write_bytes(path, data)
        sha = hashlib.sha256(data).hexdigest()
        self.records[key] = {"sha256": sha, "config_digest": self.digest}
        if key in _SIDECARS:
            meta = {"schema_version": SCHEMA_VERSION, "artifact": ARTIFACTS[key],
                    "config_digest": self.digest, "sha256": sha}
            if key in _BIT_ARTIFACTS:
                meta["bit_length"] = payload.bit_length
            if key == "extracted":
                meta["output_block_bits"] = self.m
            traceio.atomic_write_bytes(path + ".meta.json", _json_bytes(meta))


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _hist_csv(hist, ref, digest: str) -> bytes:
    """CSV columns: bin center, count, reference density (blank if none)."""
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    density = ref.pdf(centers) if ref is not None else None
    lines = [f"# config_digest={digest}", "bin_center,count,reference_density"]
    for k, c in enumerate(centers):
        d = "" if density is None else repr(float(density[k]))
        lines.append(f"{float(c)!r},{int(hist.counts[k])},{d}")
    return ("\n".join(lines) + "\n").encode()


def simulate_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> StageResult:
    sim = cfg.simulation
    factor = sim.oversample_factor
    path = phasenoise.sample_phase_path(
        cfg.laser, cfg.interferometer.delay_time, 1.0 / (sim.sample_rate * factor),
        sim.sample_count * factor, seed=sim.seed)
    trace = optics.simulate_trace(path, cfg.laser, cfg.interferometer,
                                  cfg.detector_i, cfg.detector_q,
                                  switches=cfg.switches, seed=sim.seed)
    trace = optics.boxcar_decimate(trace, factor)
    if sim.adc_quantize:
        trace = optics.adc_quantize(trace, cfg.detector_i, cfg.detector_q)
    outputs = {"samples": len(trace), "sample_rate": trace.sample_rate,
               "clamped_samples": trace.clamped_samples,
               "adc_clipped_samples": {"i": trace.adc_clipped_i, "q": trace.adc_clipped_q},
               "oversample_factor": factor}
    return outputs, {"trace": traceio.encode_trace(trace)}


def ingest_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate,
                 input_path: str) -> StageResult:
    trace = traceio.ingest_trace(input_path, cfg.simulation.sample_rate)
    outputs = {"samples": len(trace), "sample_rate": trace.sample_rate,
               "rejected_rows": trace.rejected_rows}
    return outputs, {"trace": traceio.encode_trace(trace)}


def reconstruct_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> StageResult:
    """Normalize, reconstruct and quantize once, for the symbols and their statistics."""
    norm = reconstruction.normalize_iq(
        traceio.decode_trace(artifacts.read("trace", "reconstruct")),
        method=cfg.analysis.normalize)
    series = reconstruction.reconstruct_phase(norm.trace)
    symbols = reconstruction.quantize_phase(series, cfg.analysis.phase_bits)
    stats, payloads = analyze_stage(cfg, norm, series, symbols)
    outputs = {"samples": len(series), "sample_rate": norm.trace.sample_rate,
               "zero_vectors": series.zero_vector_count,
               "amplitude_i": norm.amplitude_i, "amplitude_q": norm.amplitude_q,
               **stats}
    del norm, series     # release the traces and phases before packing
    payloads["symbols"] = extractor.symbols_to_bits(symbols)
    return outputs, payloads


# Not a stage; the name stays because perfbench/tracer.py wraps it by name.
def analyze_stage(cfg: ExperimentConfig, norm, series, symbols) -> StageResult:
    """Histograms, min-entropy, divergences and autocorrelation of
    ``reconstruct_stage``'s normalized trace, phases and symbols."""
    from . import analysis

    bins = cfg.analysis.histogram_bins
    digest = cfg.digest

    arc = analysis.ReferenceLaw.arcsine(1.0)
    hmin, payloads = {}, {}
    for channel, values, det in (("i", norm.trace.v_i, cfg.detector_i),
                                 ("q", norm.trace.v_q, cfg.detector_q)):
        code = reconstruction.quantize_uniform(values, det.adc_bits, -1.0, 1.0)
        hmin[f"channel_{channel}"] = analysis.min_entropy(
            analysis.symbol_counts(code, 1 << det.adc_bits))
        hist = analysis.Histogram.from_data(values, bins, (-1.1, 1.1))
        payloads[f"hist_{channel}"] = _hist_csv(hist, arc, digest)
    sym_counts = analysis.symbol_counts(symbols.symbols, 1 << symbols.bits_per_symbol)
    hmin["phase_symbols"] = analysis.min_entropy(sym_counts)

    uniform = analysis.ReferenceLaw.uniform(-np.pi, np.pi)
    hist_phase = analysis.Histogram.from_data(series.phases, bins, (-np.pi, np.pi))
    hist_symbols = analysis.Histogram(
        bin_edges=np.arange((1 << symbols.bits_per_symbol) + 1, dtype=np.float64),
        counts=sym_counts, total=int(sym_counts.sum()))
    payloads["hist_phase"] = _hist_csv(hist_phase, uniform, digest)
    payloads["hist_symbols"] = _hist_csv(hist_symbols, None, digest)

    laws = {"vs_standard_gaussian": analysis.ReferenceLaw.gaussian(0.0, 1.0),
            "vs_moment_fit_gaussian": analysis.ReferenceLaw.gaussian_fit(series.phases),
            "vs_uniform": uniform}
    klds = {name: analysis.kld(hist_phase, law) for name, law in laws.items()}
    autocorr = analysis.autocorrelation(series.phases, cfg.analysis.max_lag)
    warnings = optics.validate_device(cfg.laser, cfg.interferometer, cfg.detector_i,
                                      cfg.detector_q, cfg.switches,
                                      cfg.simulation.adc_quantize)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "samples": len(series),
        "min_entropy_bits": hmin,
        "kld_bits": klds,
        "autocorrelation": [float(x) for x in autocorr],
        "zero_vectors": series.zero_vector_count,
        "timing_messages": warnings,
    }
    payloads["analysis"] = _json_bytes(report)
    return {"min_entropy_bits": hmin, "kld_bits": klds}, payloads


def extract_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> StageResult:
    raw_bits = artifacts.read("symbols", "extract")
    n, m = cfg.extraction.block_bits
    payloads = {}
    if cfg.extraction.seed_file:
        spec = extractor.read_seed_file(cfg.extraction.seed_file, n, m)
    else:
        spec = extractor.ToeplitzSpec.from_rng(n, m, seed=cfg.simulation.seed)
        payloads["seed"] = extractor.BitStream.from_bits(spec.seed_bits)
    result = extractor.extract(raw_bits, spec)
    payloads["extracted"] = result.bits
    return {"input_bits": raw_bits.bit_length,
            "output_bits": result.bits.bit_length,
            "blocks": result.blocks, "discarded_bits": result.discarded_bits,
            "n": n, "m": m}, payloads


def _check_bit_budget(have: int, tc: TestConfig) -> int:
    """The bits the battery reads; InsufficientInputError if ``have`` is fewer."""
    need = tc.sequence_bits * tc.sequence_count
    if have < need:
        raise InsufficientInputError(
            f"test stage needs {need} extracted bits, found {have}")
    return need


def test_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> StageResult:
    from . import stattests

    bits = artifacts.read("extracted", "test")
    tc = cfg.test
    need = _check_bit_budget(bits.bit_length, tc)
    sequences = np.unpackbits(np.frombuffer(bits.data, np.uint8),   # only what is read
                              count=need).reshape(tc.sequence_count, tc.sequence_bits)
    report = stattests.run_battery(list(sequences), tc)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict(),
               "config_digest": cfg.digest}
    return ({"passed": report.passed,
             "proportions": {r.name: r.proportion for r in report.results}},
            {"test": _json_bytes(payload)})


def run_pipeline(cfg: ExperimentConfig, stages, outdir: str,
                 ingest_path: str | None = None) -> dict:
    """Run the requested stages in canonical order and write the summary."""
    requested = list(stages)
    if not requested:
        raise ParameterError(f"no stage requested; choose from {', '.join(STAGES)}")
    unknown = sorted(set(requested) - set(STAGES))
    if unknown:
        raise ParameterError(f"unknown stages: {', '.join(unknown)}")
    if "simulate" in requested and "ingest" in requested:
        raise ParameterError("choose one trace source: simulate or ingest")
    if ("ingest" in requested) != (ingest_path is not None):
        raise ParameterError("ingest stage needs an input capture path"
                             if ingest_path is None else
                             "an input capture path needs the ingest stage")
    n, m = cfg.extraction.block_bits
    if {"simulate", "reconstruct", "extract", "test"} <= set(requested):
        # The symbols come from this run's trace, so the extracted volume
        # is known now: refuse before any stage runs or writes.
        raw_bits = cfg.simulation.sample_count * cfg.analysis.phase_bits
        _check_bit_budget(raw_bits // n * m, cfg.test)

    gate = _ArtifactGate(outdir, cfg.digest, m)
    stage_outputs: dict[str, dict] = {}
    for stage in STAGES:
        if stage in requested:
            extra = (ingest_path,) if stage == "ingest" else ()
            stage_outputs[stage], payloads = globals()[f"{stage}_stage"](
                cfg, gate, *extra)
            for key in list(payloads):   # release each payload once written
                gate.write(key, payloads.pop(key))

    rate_per_sample = (m / n) * cfg.analysis.phase_bits
    # The rate of the trace this invocation read or wrote, if it touched one.
    sample_rate = next((out["sample_rate"] for out in stage_outputs.values()
                        if "sample_rate" in out), cfg.simulation.sample_rate)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": cfg.digest,
        "stages": [s for s in STAGES if s in requested],
        "stage_outputs": stage_outputs,
        "artifacts": {name: gate.records[key] for key, name in ARTIFACTS.items()
                      if key in gate.records},
        "bits_per_sample": rate_per_sample,
        "nominal_bit_rate": rate_per_sample * sample_rate,
    }
    gate.write("summary", _json_bytes(summary))
    return summary
