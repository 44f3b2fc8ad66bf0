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

Every stage runs on numpy and the standard library alone.  ``analysis`` and
``stattests`` are imported inside the stages that use them, so a staged
``simulate`` or ``ingest`` does not load them.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import extractor, optics, phasenoise, reconstruction, traceio
from .config import ExperimentConfig, TestConfig
from .errors import (DegenerateDataError, DependencyError, FormatError,
                     InsufficientInputError, ParameterError)

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
    "hist_symbols": "hist_symbols.csv",
    "analysis": "analysis_report.json",
    "seed": "toeplitz_seed.bin",
    "extracted": "extracted.bin",
    "test": "test_report.json",
    "summary": "summary.json",
}

SCHEMA_VERSION = 16

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
    The sidecar of ``symbols.bin`` records ``symbol_counts``: the symbol
    count N and the largest symbol count c, which ``reconstruct`` sets
    before its write and a read sets from the sidecar.
    """

    def __init__(self, outdir: str, digest: str, m: int):
        self.outdir = outdir
        self.digest = digest
        self.m = m
        self.symbol_counts: tuple[int, int] | None = None
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
        if key == "symbols":
            counts = meta.get("symbol_count"), meta.get("max_symbol_count")
            if not (all(type(v) is int for v in counts) and 0 <= counts[1] <= counts[0]):
                raise FormatError(f"sidecar {sidecar!r} gives symbol counts {counts!r}, "
                                  f"not integers 0 <= max_symbol_count <= symbol_count")
            self.symbol_counts = counts
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
            if key == "symbols":
                meta["symbol_count"], meta["max_symbol_count"] = self.symbol_counts
            traceio.atomic_write_bytes(path + ".meta.json", _json_bytes(meta))


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _hist_csv(hist, ref, digest: str) -> bytes:
    """CSV columns: bin center, count, and the law ``ref``'s mean density
    over the bin (its mass over the bin width), which count / (total *
    width) estimates."""
    edges = hist.bin_edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = ref.bin_masses(edges) / np.diff(edges)
    lines = [f"# config_digest={digest}", "bin_center,count,reference_density"]
    lines += [f"{c!r},{n},{d!r}" for c, n, d in
              zip(centers.tolist(), hist.counts.tolist(), density.tolist())]
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
    artifacts.symbol_counts = (len(series), stats.pop("max_symbol_count"))
    outputs = {"samples": len(series), "sample_rate": norm.trace.sample_rate,
               "zero_vectors": series.zero_vector_count,
               "amplitude_i": norm.amplitude_i, "amplitude_q": norm.amplitude_q,
               **stats}
    del norm, series     # release the traces and phases before packing
    payloads["symbols"] = extractor.symbols_to_bits(symbols)
    return outputs, payloads


# Not a stage; the name stays because perfbench/tracer.py wraps it by name.
def analyze_stage(cfg: ExperimentConfig, norm, series, symbols) -> StageResult:
    """Min-entropy, divergences and autocorrelation of ``reconstruct_stage``'s
    normalized trace and symbols, all from three count vectors: each
    channel's ADC codes on [-1, 1) and the symbols, which bin the phases on
    [-pi, pi).  Also the largest symbol count, for the symbols' sidecar."""
    from . import analysis

    digest = cfg.digest
    arc = analysis.ReferenceLaw.arcsine(1.0)
    hmin, payloads = {}, {}
    for channel, values, det in (("i", norm.trace.v_i, cfg.detector_i),
                                 ("q", norm.trace.v_q, cfg.detector_q)):
        codes = 1 << det.adc_bits
        counts = analysis.symbol_counts(
            reconstruction.quantize_uniform(values, det.adc_bits, -1.0, 1.0), codes)
        hmin[f"channel_{channel}"] = analysis.min_entropy(counts)
        payloads[f"hist_{channel}"] = _hist_csv(
            analysis.Histogram(np.linspace(-1.0, 1.0, codes + 1), counts), arc, digest)
    alphabet = 1 << symbols.bits_per_symbol
    sym_counts = analysis.symbol_counts(symbols.symbols, alphabet)
    hmin["phase_symbols"] = analysis.min_entropy(sym_counts)
    payloads["hist_symbols"] = _hist_csv(
        analysis.Histogram(np.arange(alphabet + 1.0), sym_counts),
        analysis.ReferenceLaw.uniform(0, alphabet), digest)

    # Mean and (biased) variance of the symbols' bin centres -pi + (k + 1/2)*delta,
    # from exact integer sums: no float summation order enters.
    pairs = list(enumerate(sym_counts.tolist()))
    total, first = len(symbols), sum(c * k for k, c in pairs)
    spread = total * sum(c * k * k for k, c in pairs) - first * first
    if spread == 0:
        raise DegenerateDataError("every symbol is the same: no gaussian fits the phases")
    delta = 2.0 * np.pi / alphabet
    fit = analysis.ReferenceLaw.gaussian((2 * first + total) / (2 * total) * delta - np.pi,
                                         spread / total**2 * delta**2)
    hist_phase = analysis.Histogram(np.linspace(-np.pi, np.pi, alphabet + 1), sym_counts)
    laws = {"vs_standard_gaussian": analysis.ReferenceLaw.gaussian(0.0, 1.0),
            "vs_moment_fit_gaussian": fit,
            "vs_uniform": analysis.ReferenceLaw.uniform(-np.pi, np.pi)}
    klds = {name: analysis.kld(hist_phase, law) for name, law in laws.items()}
    autocorr = analysis.autocorrelation(symbols.symbols, cfg.analysis.max_lag)
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
    return ({"min_entropy_bits": hmin, "kld_bits": klds,
             "max_symbol_count": int(sym_counts.max())}, payloads)


def extract_stage(cfg: ExperimentConfig, artifacts: _ArtifactGate) -> StageResult:
    raw_bits = artifacts.read("symbols", "extract")
    extractor.check_count_claim(*artifacts.symbol_counts, cfg.analysis.phase_bits,
                                cfg.extraction.min_entropy_rate)
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
