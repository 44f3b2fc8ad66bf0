import hashlib
import json
import math
import os
import re
import shutil
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from phaserng import (analysis, cli, config as cfg_mod, extractor, optics, pipeline,
                      reconstruction, traceio)
from phaserng.errors import (DegenerateDataError, DependencyError, FormatError,
                             InsufficientInputError, ParameterError)

BASE_INI = """\
[laser]
coherence_time = 6e-9

[interferometer]
delay_length = 6.0

[detector_i]
transimpedance = 16e3

[simulation]
sample_count = 30000
sample_rate = 200e6
seed = 11

[analysis]
max_lag = 20

[extraction]
input_bits = 4000
min_entropy_rate = 0.98
epsilon_exponent = 0

[test]
sequence_bits = 4096
sequence_count = 10
serial_pattern_bits = 8
approx_entropy_pattern_bits = 5
"""


def make_config(**overrides):
    text = BASE_INI
    for needle, replacement in overrides.items():
        assert needle in text, needle
        text = text.replace(needle, replacement)
    return cfg_mod.parse_config(text)


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("run"))
    cfg = make_config()
    summary = pipeline.run_pipeline(
        cfg, ["simulate", "reconstruct", "extract", "test"], outdir)
    return cfg, outdir, summary


class TestFullRun:
    def test_summary_structure(self, full_run):
        cfg, outdir, summary = full_run
        assert summary["schema_version"] == pipeline.SCHEMA_VERSION
        assert summary["config_digest"] == cfg.digest
        assert summary["stages"] == ["simulate", "reconstruct", "extract", "test"]
        assert summary["bits_per_sample"] == pytest.approx(9.8)
        assert summary["nominal_bit_rate"] == pytest.approx(9.8 * 200e6)

    def test_every_artifact_written(self, full_run):
        _, outdir, summary = full_run
        for name in pipeline.ARTIFACTS.values():
            assert os.path.exists(os.path.join(outdir, name)), name

    def test_summary_hashes_match_files(self, full_run):
        cfg, outdir, summary = full_run
        for name, entry in summary["artifacts"].items():
            assert entry["sha256"] == sha256(os.path.join(outdir, name)), name
            assert entry["config_digest"] == cfg.digest

    def test_sidecars(self, full_run):
        cfg, outdir, _ = full_run
        bit_lengths = {"trace.iqt": None, "symbols.bin": 300_000,
                       "toeplitz_seed.bin": 4000 + 3920 - 1,
                       "extracted.bin": 75 * 3920}
        for name, bit_length in bit_lengths.items():
            side = json.load(open(os.path.join(outdir, name + ".meta.json")))
            assert side["artifact"] == name
            assert side["config_digest"] == cfg.digest
            assert side["sha256"] == sha256(os.path.join(outdir, name))
            assert side.get("bit_length") == bit_length, name

    def test_simulate_output(self, full_run):
        _, _, summary = full_run
        sim = summary["stage_outputs"]["simulate"]
        assert sim["samples"] == 30000
        assert sim["sample_rate"] == 200e6
        assert sim["oversample_factor"] == 1
        assert sim["adc_clipped_samples"] == {"i": 0, "q": 0}   # ADC off

    def test_symbols_artifact(self, full_run):
        # symbols.bin holds the run's symbols packed as extract hashes them.
        cfg, outdir, _ = full_run
        trace = traceio.read_trace_binary(os.path.join(outdir, "trace.iqt"))
        norm = reconstruction.normalize_iq(trace, method=cfg.analysis.normalize)
        symbols = reconstruction.quantize_phase(
            reconstruction.reconstruct_phase(norm.trace), cfg.analysis.phase_bits)
        blob = open(os.path.join(outdir, "symbols.bin"), "rb").read()
        assert blob == extractor.symbols_to_bits(symbols).data
        side = json.load(open(os.path.join(outdir, "symbols.bin.meta.json")))
        assert side["bit_length"] == 300_000

    def test_symbols_sidecar_records_the_counts(self, full_run):
        # N symbols and the largest count, which extract tests the rate on.
        _, outdir, _ = full_run
        side = json.load(open(os.path.join(outdir, "symbols.bin.meta.json")))
        rows = open(os.path.join(outdir, "hist_symbols.csv")).read().splitlines()[2:]
        counts = [int(row.split(",")[1]) for row in rows]
        assert side["symbol_count"] == sum(counts) == 30000
        assert side["max_symbol_count"] == max(counts) == 51

    def test_analysis_report(self, full_run):
        cfg, outdir, _ = full_run
        report = json.load(open(os.path.join(outdir, "analysis_report.json")))
        assert report["config_digest"] == cfg.digest
        assert report["samples"] == 30000
        hmin = report["min_entropy_bits"]
        assert 0 < hmin["phase_symbols"] <= 10
        assert 0 < hmin["channel_i"] <= 10
        assert set(report["kld_bits"]) == {"vs_standard_gaussian",
                                           "vs_moment_fit_gaussian",
                                           "vs_uniform"}
        # long delay: phase is near uniform, far from a standard normal
        assert report["kld_bits"]["vs_uniform"] < 0.1
        assert report["kld_bits"]["vs_standard_gaussian"] > 0.5
        assert len(report["autocorrelation"]) == 21
        assert report["autocorrelation"][0] == 1.0
        # The report's autocorrelation is of the symbols that extract hashes.
        bits = np.unpackbits(np.fromfile(os.path.join(outdir, "symbols.bin"), np.uint8))
        symbols = bits.reshape(-1, 10) @ (1 << np.arange(9, -1, -1))
        assert report["autocorrelation"] == analysis.autocorrelation(symbols, 20).tolist()
        assert report["timing_messages"] == []     # a sound device

    def test_histogram_artifacts(self, full_run):
        # A channel CSV holds its 2^adc_bits ADC codes on [-1, 1).  The
        # phases have no CSV of their own: hist_symbols.csv counts them on
        # quantize_phase's bins.
        cfg, outdir, _ = full_run
        assert not os.path.exists(os.path.join(outdir, "hist_phase.csv"))
        for name in ("hist_channel_i.csv", "hist_channel_q.csv"):
            lines = open(os.path.join(outdir, name)).read().splitlines()
            assert lines[0] == f"# config_digest={cfg.digest}"
            assert lines[1] == "bin_center,count,reference_density"
            rows = [line.split(",") for line in lines[2:]]
            assert len(rows) == 1024
            assert sum(int(r[1]) for r in rows) == 30000
            assert float(rows[0][0]) == -1 + 1 / 1024
        sym_lines = open(os.path.join(outdir, "hist_symbols.csv")).read().splitlines()
        sym_rows = [line.split(",") for line in sym_lines[2:]]
        assert len(sym_rows) == 1024
        assert all(float(r[2]) == 1 / 1024 for r in sym_rows)  # uniform law

    def test_channel_csvs_are_the_adc_code_counts(self, full_run):
        # One quantization per channel: its CSV holds the counts its
        # min-entropy is measured on.
        cfg, outdir, _ = full_run
        report = json.load(open(os.path.join(outdir, "analysis_report.json")))
        trace = traceio.read_trace_binary(os.path.join(outdir, "trace.iqt"))
        norm = reconstruction.normalize_iq(trace, method=cfg.analysis.normalize)
        for channel, values in (("i", norm.trace.v_i), ("q", norm.trace.v_q)):
            rows = np.loadtxt(os.path.join(outdir, f"hist_channel_{channel}.csv"),
                              delimiter=",", skiprows=2)
            codes = reconstruction.quantize_uniform(values, 10, -1.0, 1.0)
            np.testing.assert_array_equal(rows[:, 1], np.bincount(codes, minlength=1024))
            assert (analysis.min_entropy(rows[:, 1].astype(np.int64))
                    == report["min_entropy_bits"][f"channel_{channel}"])

    def test_klds_are_of_the_symbol_counts_on_the_phase_bins(self, full_run):
        _, outdir, _ = full_run
        report = json.load(open(os.path.join(outdir, "analysis_report.json")))
        rows = np.loadtxt(os.path.join(outdir, "hist_symbols.csv"),
                          delimiter=",", skiprows=2)
        counts = rows[:, 1].astype(np.int64)
        hist = analysis.Histogram(bin_edges=np.linspace(-np.pi, np.pi, 1025),
                                  counts=counts)
        # Mean and variance of the bin centres -pi + (k + 1/2)*delta, exactly.
        k = [Fraction(2 * j + 1, 2) for j in range(1024)]
        total = int(counts.sum())
        mean = sum(c * kj for c, kj in zip(counts.tolist(), k)) / total
        variance = sum(c * (kj - mean) ** 2 for c, kj in zip(counts.tolist(), k)) / total
        delta = 2 * np.pi / 1024
        klds = report["kld_bits"]
        assert klds["vs_uniform"] == analysis.kld(
            hist, analysis.ReferenceLaw.uniform(-np.pi, np.pi))
        assert klds["vs_standard_gaussian"] == analysis.kld(
            hist, analysis.ReferenceLaw.gaussian(0.0, 1.0))
        # Equal to the bit: the fit minimizes the divergence over gaussians,
        # so an error in its moments moves the divergence only to second order.
        assert klds["vs_moment_fit_gaussian"] == analysis.kld(
            hist, analysis.ReferenceLaw.gaussian(float(mean) * delta - np.pi,
                                                 float(variance) * delta ** 2))

    def test_histogram_reference_is_bin_mass_over_width(self, full_run):
        # count / (total * width) estimates the law's mass in the bin over
        # the bin's width, so that is the reference column: in the edge
        # codes too, where the arcsine density diverges but its mass is finite.
        _, outdir, _ = full_run

        def arcsine(x):
            return 0.5 + math.asin(min(max(x, -1.0), 1.0)) / math.pi

        voltage = np.linspace(-1.0, 1.0, 1025)
        laws = {"hist_channel_i.csv": (voltage, arcsine),
                "hist_channel_q.csv": (voltage, arcsine),
                "hist_symbols.csv": (np.arange(1025.0), lambda x: x / 1024)}
        for name, (edges, cdf) in laws.items():
            rows = np.loadtxt(os.path.join(outdir, name), delimiter=",", skiprows=2)
            np.testing.assert_array_equal(rows[:, 0], 0.5 * (edges[:-1] + edges[1:]))
            masses = np.diff([cdf(x) for x in edges])
            np.testing.assert_allclose(rows[:, 2], masses / np.diff(edges),
                                       rtol=1e-12, atol=0.0, err_msg=name)
            if edges is voltage:
                assert rows[0, 2] == rows[-1, 2] == rows[:, 2].max(), name

    def test_extract_output(self, full_run):
        _, outdir, summary = full_run
        ext = summary["stage_outputs"]["extract"]
        assert (ext["n"], ext["m"]) == (4000, 3920)
        assert ext["input_bits"] == 300_000
        assert ext["blocks"] == 75
        assert ext["output_bits"] == 75 * 3920
        assert ext["discarded_bits"] == 0
        size = os.path.getsize(os.path.join(outdir, "extracted.bin"))
        assert size == (75 * 3920 + 7) // 8

    def test_extracted_bits_reproducible_by_hand(self, full_run):
        cfg, outdir, _ = full_run
        spec = extractor.read_seed_file(
            os.path.join(outdir, "toeplitz_seed.bin"), 4000, 3920)
        expected = extractor.ToeplitzSpec.from_rng(4000, 3920, seed=cfg.simulation.seed)
        np.testing.assert_array_equal(spec.seed_bits, expected.seed_bits)

    def test_known_answer_artifacts(self, full_run):
        # Pins the seed contract and every output bit of the chain, so a
        # refactor that changes one draw or one extracted bit fails here.
        # Schema 3 (merged-time phase sampler), measured with numpy 2.4.6;
        # the Toeplitz seed is drawn on its own stream and did not move.
        # Schema 4 changed only symbols.bin, to packed bits.
        # Schema 5 moved only the histograms' config_digest line, and so did
        # schema 7 (output_bits left the config).  Schema 10 moved only their
        # reference column, to each law's bin mass over the bin width.
        # Schema 11 moved only their config_digest line ([extraction] mode
        # left the config).  Schema 15 moved the channel CSVs to the ADC
        # codes' counts, and hist_symbols.csv's config_digest line only
        # ([analysis] histogram_bins left the config); hist_phase.csv is gone.
        # Schema 16 moved every file but the Toeplitz seed: the normal
        # streams draw from SFC64, the seed's bits still from Philox.
        _, outdir, _ = full_run
        assert sha256(os.path.join(outdir, "trace.iqt")) == (
            "b081b2a39b5dbb8a53d03b18d4d20d65be2a144e64ec56d151e9513c607f13d8")
        assert sha256(os.path.join(outdir, "toeplitz_seed.bin")) == (
            "6336382d95fa9fac8faeaa0818ea76c81812a51046a0e2208b64af52d94442bf")
        assert sha256(os.path.join(outdir, "extracted.bin")) == (
            "b3f32295a255433f542098c124f3afb184f8cbe6755079a14ecb3290664947fa")
        hists = {
            "hist_channel_i.csv":
                "a9b66d490bfceee380556de15650655a453bf29c8fd2958d34e60f27b73266b9",
            "hist_channel_q.csv":
                "33ebf9802ddedeebcadf48f5b27906d8c3e6d8128b968954f399e866bbb27478",
            "hist_symbols.csv":
                "28666b0d18e93e0ddcab0c8a2ab3e7d1042bebcddb2ec307509cfebef159eec0",
        }
        for name, digest in hists.items():
            assert sha256(os.path.join(outdir, name)) == digest, name
        assert sha256(os.path.join(outdir, "symbols.bin")) == (
            "4a3476d57a2dd19c4e26e59bad8e5de4e968ed0f3cd185bc846c6f121543b9e8")

    def test_known_answer_sidecar_and_summary(self, full_run):
        # Pins the sidecar layout (key order included) and the summary's
        # bytes, so routing artifact I/O differently cannot move them.
        # Schema 6 moved only their schema_version (and, in the summary,
        # the hashes of the JSON reports, which carry it too).  Schema 7
        # moved their config_digest, and the summary gained simulate's
        # ADC clip counts.  Schema 8 moved their schema_version, and the
        # summary lost the analyze stage: reconstruct's outputs carry its
        # min-entropies and divergences.  Schema 9 moved their
        # schema_version (the autocorrelation's last digits moved the
        # summary's hash of analysis_report.json too).  Schema 10 moved
        # their schema_version, and the summary's hashes of the histogram
        # CSVs and of the JSON reports.  Schema 11 moved their
        # schema_version and config_digest, and in the summary the hashes of
        # every file that carries either and the last digits of the
        # divergences, which kld now sums with math.fsum.  Schema 12 moved
        # their schema_version, and in the summary the hashes of the files
        # that carry it, analysis_report.json's with its autocorrelation,
        # now of the symbols.  Schema 13 moved their schema_version, and in
        # the summary the hashes of the JSON reports and the last digits of
        # the gaussian divergences: the tails are math.erfc's and
        # _gammaincc's, the autocorrelation's transforms numpy.fft's.
        # Schema 14 moved their schema_version, the symbols' sidecar gained
        # symbol_count and max_symbol_count, and the summary moved in the
        # hashes of every file that carries the version.  Schema 15 moved
        # their schema_version and config_digest, and the summary in the
        # hashes of every file that carries either, in the divergences, now
        # of the symbol counts, and in losing hist_phase.csv.  Schema 16
        # moved their schema_version, the symbols' max_symbol_count and
        # every hash in the summary but the Toeplitz seed's: the normal
        # streams draw from SFC64.  These bytes hold with every dispatched
        # numpy SIMD target on or off.
        _, outdir, _ = full_run
        assert sha256(os.path.join(outdir, "trace.iqt.meta.json")) == (
            "9e218475b11f7cdeb63e04a1c2d2869dc5466e65d2678fced72d56170f19238e")
        assert sha256(os.path.join(outdir, "symbols.bin.meta.json")) == (
            "1975c4e5ee19c6857c727403f9c82f584580f9f856ccde9d70cc04661fc43fee")
        assert sha256(os.path.join(outdir, "summary.json")) == (
            "40f40bb9319b159a4bd186073c2e69a6f245540a1f3366ac24abd770d8dda2d6")

    def test_battery_report(self, full_run):
        cfg, outdir, summary = full_run
        report = json.load(open(os.path.join(outdir, "test_report.json")))
        assert report["config_digest"] == cfg.digest
        assert report["schema_version"] == pipeline.SCHEMA_VERSION
        assert len(report["streams"]) == 10
        assert summary["stage_outputs"]["test"]["passed"] is True


class TestHistogramCsv:
    def test_arcsine_bytes_pinned(self):
        # A fixed histogram on edges that reach past the arcsine law's
        # support.  The arcsine CDF takes math.asin, so these bytes hold with
        # every dispatched numpy SIMD target on or off.
        counts = np.arange(256) * 37 % 101
        hist = analysis.Histogram(bin_edges=np.linspace(-1.1, 1.1, 257), counts=counts)
        blob = pipeline._hist_csv(hist, analysis.ReferenceLaw.arcsine(1.0), "0" * 64)
        assert blob.splitlines()[:3] == [
            b"# config_digest=" + b"0" * 64, b"bin_center,count,reference_density",
            b"-1.095703125,0,0.0"]
        assert hashlib.sha256(blob).hexdigest() == (
            "411cfaef22bced296d44720e64b39a8d6ec1e3b391be9731476d7045a5b863a8")


class TestDeterminism:
    def test_identical_rerun(self, tmp_path, full_run):
        cfg, outdir, summary = full_run
        again = str(tmp_path / "again")
        summary2 = pipeline.run_pipeline(
            cfg, ["simulate", "reconstruct", "extract", "test"], again)
        assert summary2 == summary
        for name in ("trace.iqt", "extracted.bin", "symbols.bin"):
            assert sha256(os.path.join(again, name)) == \
                sha256(os.path.join(outdir, name)), name

    def test_seed_changes_trace(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        pipeline.run_pipeline(make_config(), ["simulate"], out1)
        pipeline.run_pipeline(make_config(**{"seed = 11": "seed = 12"}),
                              ["simulate"], out2)
        assert sha256(os.path.join(out1, "trace.iqt")) != \
            sha256(os.path.join(out2, "trace.iqt"))


class TestStagedExecution:
    def test_stages_resume_across_invocations(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        s1 = pipeline.run_pipeline(cfg, ["simulate"], outdir)
        assert s1["stages"] == ["simulate"]
        assert list(s1["artifacts"]) == ["trace.iqt"]
        s2 = pipeline.run_pipeline(cfg, ["reconstruct"], outdir)
        assert "symbols.bin" in s2["artifacts"]
        s3 = pipeline.run_pipeline(cfg, ["extract"], outdir)
        assert s3["stages"] == ["extract"]
        assert "extracted.bin" in s3["artifacts"]

    def test_staged_run_matches_one_shot(self, tmp_path, full_run):
        cfg, one_shot, _ = full_run
        outdir = str(tmp_path / "run")
        for stage in ("simulate", "reconstruct", "extract", "test"):
            pipeline.run_pipeline(cfg, [stage], outdir)
        for name in pipeline.ARTIFACTS.values():
            if name != "summary.json":
                with open(os.path.join(outdir, name), "rb") as fh:
                    staged = fh.read()
                with open(os.path.join(one_shot, name), "rb") as fh:
                    assert staged == fh.read(), name

    def test_reconstruct_writes_symbols_and_analysis_from_the_trace(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        summary = pipeline.run_pipeline(cfg, ["reconstruct"], outdir)
        assert summary["stages"] == ["reconstruct"]
        assert sorted(summary["artifacts"]) == [
            "analysis_report.json", "hist_channel_i.csv", "hist_channel_q.csv",
            "hist_symbols.csv", "symbols.bin", "trace.iqt"]
        out = summary["stage_outputs"]["reconstruct"]
        assert set(out) == {"samples", "sample_rate", "zero_vectors", "amplitude_i",
                            "amplitude_q", "min_entropy_bits", "kld_bits"}

    # One decode, one normalization, one atan2 and one quantization serve
    # both the symbols and their statistics.
    def test_one_shot_reconstructs_once(self, tmp_path, monkeypatch):
        calls = {}

        def counting(name):
            original = getattr(reconstruction, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return counted

        for name in ("normalize_iq", "reconstruct_phase", "quantize_phase"):
            monkeypatch.setattr(reconstruction, name, counting(name))
        one_shot = [stage for stage in pipeline.STAGES if stage != "ingest"]
        pipeline.run_pipeline(make_config(), one_shot, str(tmp_path))
        assert calls == {"normalize_iq": 1, "reconstruct_phase": 1, "quantize_phase": 1}

    def test_analyze_is_no_stage(self, tmp_path):
        assert list(pipeline.STAGES) == ["simulate", "ingest", "reconstruct",
                                         "extract", "test"]
        with pytest.raises(ParameterError, match="unknown stages: analyze"):
            pipeline.run_pipeline(make_config(), ["analyze"], str(tmp_path / "x"))
        assert not os.path.exists(tmp_path / "x")

    def test_stage_order_is_canonical(self, tmp_path):
        outdir = str(tmp_path / "run")
        summary = pipeline.run_pipeline(make_config(),
                                        ["reconstruct", "simulate"], outdir)
        assert summary["stages"] == ["simulate", "reconstruct"]

    @pytest.mark.parametrize("stage,missing", [
        ("reconstruct", "trace.iqt"),
        ("extract", "symbols.bin"),
        ("test", "extracted.bin"),
    ])
    def test_missing_dependency(self, tmp_path, stage, missing):
        with pytest.raises(DependencyError, match=missing):
            pipeline.run_pipeline(make_config(), [stage],
                                  str(tmp_path / "empty"))

    @pytest.mark.parametrize("stage,artifact", [
        ("reconstruct", "trace.iqt"),
        ("extract", "symbols.bin"),
    ])
    def test_stale_schema_refused(self, tmp_path, stage, artifact):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], outdir)
        sidecar = os.path.join(outdir, artifact + ".meta.json")
        meta = json.load(open(sidecar))
        meta["schema_version"] = 2
        with open(sidecar, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(DependencyError, match=(
                rf"{re.escape(artifact)}.*schema_version 2, "
                rf"expected {pipeline.SCHEMA_VERSION}")):
            pipeline.run_pipeline(cfg, [stage], outdir)

    def test_altered_artifact_refused(self, tmp_path):
        # One flipped payload byte no longer matches the sidecar's sha256.
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        path = os.path.join(outdir, "trace.iqt")
        with open(path, "r+b") as fh:
            fh.seek(1000)
            byte = fh.read(1)
            fh.seek(1000)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(DependencyError, match=r"trace\.iqt.*sha256"):
            pipeline.run_pipeline(cfg, ["reconstruct"], outdir)

    def test_summary_gives_each_artifact_its_own_digest(self, tmp_path):
        # Upstream artifacts made under another config keep that config's
        # digest in the summary of a later invocation that reads them.
        outdir = str(tmp_path / "run")
        cfg_a = make_config()
        cfg_b = make_config(**{"min_entropy_rate = 0.98": "min_entropy_rate = 0.95"})
        assert cfg_a.digest != cfg_b.digest
        pipeline.run_pipeline(cfg_a, ["simulate", "reconstruct"], outdir)
        summary = pipeline.run_pipeline(cfg_b, ["extract"], outdir)
        artifacts = summary["artifacts"]
        for name in ("symbols.bin", "toeplitz_seed.bin", "extracted.bin"):
            side = json.load(open(os.path.join(outdir, name + ".meta.json")))
            assert artifacts[name]["config_digest"] == side["config_digest"], name
        assert "trace.iqt" not in artifacts       # extract reads only the symbols
        assert artifacts["symbols.bin"]["config_digest"] == cfg_a.digest
        assert artifacts["extracted.bin"]["config_digest"] == cfg_b.digest

    def test_unreadable_sidecar_is_a_format_error(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        with open(os.path.join(outdir, "trace.iqt.meta.json"), "w") as fh:
            fh.write("[2]")
        with pytest.raises(FormatError, match="trace.iqt.meta.json"):
            pipeline.run_pipeline(cfg, ["reconstruct"], outdir)

    @pytest.mark.parametrize("counts", [
        {"max_symbol_count": 30001}, {"max_symbol_count": -1},
        {"symbol_count": 3e4}, {"max_symbol_count": True}, {"symbol_count": None}])
    def test_malformed_symbol_counts_are_a_format_error(self, tmp_path, counts):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], outdir)
        sidecar = os.path.join(outdir, "symbols.bin.meta.json")
        meta = json.load(open(sidecar))
        meta.update(counts)
        with open(sidecar, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(FormatError, match="symbol counts"):
            pipeline.run_pipeline(cfg, ["extract"], outdir)
        assert not os.path.exists(os.path.join(outdir, "extracted.bin"))

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown stages: transmogrify"):
            pipeline.run_pipeline(make_config(), ["transmogrify"],
                                  str(tmp_path / "x"))

    def test_simulate_and_ingest_conflict(self, tmp_path):
        with pytest.raises(ParameterError, match="one trace source"):
            pipeline.run_pipeline(make_config(), ["simulate", "ingest"],
                                  str(tmp_path / "x"))


class TestBitRate:
    # At (4000, 3820) (m / n) * 10 is 9.549999999999999 and 10 * m / n is 9.55.
    def test_summary_rate_is_the_library_rate(self, tmp_path):
        cfg = make_config(**{"epsilon_exponent = 0": "epsilon_exponent = 50"})
        n, m = cfg.extraction.block_bits
        assert (n, m) == (4000, 3820)
        summary = pipeline.run_pipeline(cfg, ["simulate"], str(tmp_path))
        spec = extractor.ToeplitzSpec.from_rng(n, m, seed=cfg.simulation.seed)
        assert summary["bits_per_sample"] == extractor.bits_per_sample(
            cfg.analysis.phase_bits, spec)

    def test_rate_counts_phase_bits_not_adc_bits(self, tmp_path):
        cfg = make_config(**{"epsilon_exponent = 0": "epsilon_exponent = 50",
                             "max_lag = 20": "max_lag = 20\nphase_bits = 8",
                             "16e3": "16e3\nadc_bits = 10"})
        n, m = cfg.extraction.block_bits
        summary = pipeline.run_pipeline(cfg, ["simulate"], str(tmp_path))
        spec = extractor.ToeplitzSpec.from_rng(n, m, seed=cfg.simulation.seed)
        assert summary["bits_per_sample"] == extractor.bits_per_sample(8, spec)
        assert summary["bits_per_sample"] == pytest.approx(7.64)


class TestAnalyzeDescribesItsTrace:
    def test_channel_q_uses_its_own_adc_bits(self, tmp_path):
        cfg = make_config(**{"[simulation]":
                             "[detector_q]\ntransimpedance = 16e3\nadc_bits = 6\n\n"
                             "[simulation]"})
        summary = pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], str(tmp_path))
        hmin = summary["stage_outputs"]["reconstruct"]["min_entropy_bits"]
        # Read at detector_i's 10 bits, channel Q would give 5.307 bits.
        assert hmin["channel_q"] == pytest.approx(3.625, abs=1e-3)
        assert hmin["channel_i"] == pytest.approx(4.159, abs=1e-3)

    def test_phases_in_one_symbol_bin_are_refused(self):
        # Phases that differ but all fall in the 10-bit bin [0, 2*pi/1024):
        # the symbols' moment fit has no variance.
        angle = np.linspace(0.001, 0.005, 2000)
        radius = np.linspace(0.5, 1.0, 2000)
        trace = optics.IQTrace(v_i=radius * np.cos(angle), v_q=radius * np.sin(angle),
                               sample_rate=200e6)
        series = reconstruction.reconstruct_phase(trace)
        symbols = reconstruction.quantize_phase(series, 10)
        assert np.ptp(series.phases) > 0.003
        assert np.unique(symbols.symbols).tolist() == [512]
        with pytest.raises(DegenerateDataError, match="every symbol is the same"):
            pipeline.analyze_stage(make_config(), reconstruction.NormalizedIQ(trace, 1.0, 1.0),
                                   series, symbols)

    def test_timing_warning_sees_the_slower_channel(self, tmp_path):
        cfg = make_config(**{"[simulation]":
                             "[detector_q]\ntransimpedance = 16e3\n"
                             "response_time = 10e-9\n\n[simulation]"})
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], str(tmp_path))
        report = json.load(open(os.path.join(str(tmp_path), "analysis_report.json")))
        assert report["timing_messages"][0].startswith(
            "warning: detector response time 1e-08 s is not below")


class TestIngest:
    def test_binary_capture(self, tmp_path):
        src = str(tmp_path / "src")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], src)
        capture = os.path.join(src, "trace.iqt")
        outdir = str(tmp_path / "run")
        summary = pipeline.run_pipeline(cfg, ["ingest", "reconstruct"], outdir,
                                        ingest_path=capture)
        assert summary["stage_outputs"]["ingest"]["samples"] == 30000
        assert summary["stage_outputs"]["ingest"]["rejected_rows"] == 0
        assert summary["stage_outputs"]["reconstruct"]["samples"] == 30000

    def test_csv_capture_uses_configured_rate(self, tmp_path):
        src = str(tmp_path / "src")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], src)
        trace = traceio.read_trace_binary(os.path.join(src, "trace.iqt"))
        capture = str(tmp_path / "capture.csv")
        traceio.write_trace_csv(trace, capture)
        outdir = str(tmp_path / "run")
        summary = pipeline.run_pipeline(cfg, ["ingest"], outdir,
                                        ingest_path=capture)
        assert summary["stage_outputs"]["ingest"]["sample_rate"] == 200e6
        back = traceio.read_trace_binary(os.path.join(outdir, "trace.iqt"))
        np.testing.assert_array_equal(
            back.v_i, trace.v_i.astype(np.float32).astype(np.float64))

    # Ingest reads the format from the first bytes, not the name: a binary
    # trace named .csv and a CSV named .iqt both give back the source trace.
    # (The trace has ADC bits 0, full scale 1.0 and a rate that survives CSV.)
    def test_misnamed_captures_ingest_by_content(self, tmp_path):
        src = str(tmp_path / "src")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], src)
        source = os.path.join(src, "trace.iqt")
        binary, text = str(tmp_path / "binary.csv"), str(tmp_path / "text.iqt")
        shutil.copyfile(source, binary)
        traceio.write_trace_csv(traceio.read_trace_binary(source), text)
        for capture in (binary, text):
            outdir = capture + ".run"
            pipeline.run_pipeline(cfg, ["ingest"], outdir, ingest_path=capture)
            assert sha256(os.path.join(outdir, "trace.iqt")) == sha256(source)

    def test_missing_input_path(self, tmp_path):
        with pytest.raises(ParameterError, match="input capture path"):
            pipeline.run_pipeline(make_config(), ["ingest"],
                                  str(tmp_path / "run"))

    def test_input_path_without_ingest_stage(self, tmp_path):
        with pytest.raises(ParameterError, match="needs the ingest stage"):
            pipeline.run_pipeline(make_config(), ["simulate", "reconstruct"],
                                  str(tmp_path / "run"), ingest_path="capture.iqt")
        assert not os.path.exists(tmp_path / "run")

    # The summary's nominal bit rate follows the rate of the capture this
    # invocation ingested, as the analysis report's timing note does.
    def test_summary_bit_rate_uses_the_capture_rate(self, tmp_path):
        src = str(tmp_path / "src")
        pipeline.run_pipeline(make_config(**{"sample_rate = 200e6": "sample_rate = 50e6"}),
                              ["simulate"], src)
        summary = pipeline.run_pipeline(make_config(), ["ingest"], str(tmp_path / "run"),
                                        ingest_path=os.path.join(src, "trace.iqt"))
        assert summary["stage_outputs"]["ingest"]["sample_rate"] == 50e6
        assert summary["nominal_bit_rate"] == summary["bits_per_sample"] * 50e6

    # A later invocation that reads the ingested trace reports its rate too,
    # not the configured one.
    @pytest.mark.parametrize("stages", [["reconstruct", "extract"], ["reconstruct"]])
    def test_staged_bit_rate_uses_the_trace_rate(self, tmp_path, stages):
        src, run = str(tmp_path / "src"), str(tmp_path / "run")
        pipeline.run_pipeline(make_config(**{"sample_rate = 200e6": "sample_rate = 50e6"}),
                              ["simulate"], src)
        pipeline.run_pipeline(make_config(), ["ingest"], run,
                              ingest_path=os.path.join(src, "trace.iqt"))
        summary = pipeline.run_pipeline(make_config(), stages, run)
        assert summary["stage_outputs"][stages[0]]["sample_rate"] == 50e6
        assert summary["nominal_bit_rate"] == summary["bits_per_sample"] * 50e6


class TestExtractionSeedFile:
    def test_externally_supplied_seed(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], outdir)
        spec = extractor.ToeplitzSpec.from_rng(4000, 3920, seed=99)
        seed_path = str(tmp_path / "myseed.bin")
        with open(seed_path, "wb") as fh:
            fh.write(np.packbits(spec.seed_bits).tobytes())
        import dataclasses
        cfg2 = dataclasses.replace(
            cfg, extraction=dataclasses.replace(cfg.extraction,
                                                seed_file=seed_path))
        summary = pipeline.run_pipeline(cfg2, ["extract"], outdir)
        assert summary["stage_outputs"]["extract"]["output_bits"] == 75 * 3920
        # the generated-seed artifact must not appear for an external seed
        assert not os.path.exists(os.path.join(outdir, "toeplitz_seed.bin"))


# The measured budget of acceptance criterion 2(b): a 0.86 V amplitude.
PAPER_BUDGET = {
    "coherence_time = 6e-9": "coherence_time = 6e-9\nmean_power = 0.140e-3\n"
                             "intensity_sigma = 9.64e-7",
    "delay_length = 6.0": "delay_length = 6.0\nbs_transmittance = 0.514286\n"
                          "delay_loss = 0.569444",
    "transimpedance = 16e3": "transimpedance = 16e3\n"
                             "electrical_noise_sigma = 7.666e-3\n\n"
                             "[detector_q]\ntransimpedance = 16e3\n"
                             "electrical_noise_sigma = 7.356e-3",
    "[analysis]\n": "[switches]\nintensity = on\nelectrical = on\n\n[analysis]\n",
}

ADC_ON = {"seed = 11": "seed = 11\nadc_quantize = on"}


class TestAdcClipCounts:
    """simulate reports the samples each channel's ADC saturated."""

    def clipped(self, tmp_path, **overrides):
        cfg = make_config(**ADC_ON, **overrides)
        summary = pipeline.run_pipeline(cfg, ["simulate"], str(tmp_path))
        return summary["stage_outputs"]["simulate"]["adc_clipped_samples"]

    # The default 1 W laser puts an 8 kV interference signal on a +-1 V ADC.
    def test_quick_start_device_saturates(self, tmp_path):
        clipped = self.clipped(tmp_path)
        assert clipped["i"] > 0.99 * 30000 and clipped["q"] > 0.99 * 30000

    def test_paper_budget_stays_in_range(self, tmp_path):
        assert self.clipped(tmp_path, **PAPER_BUDGET) == {"i": 0, "q": 0}


class TestLevelWarnings:
    """reconstruct warns of each channel whose predicted amplitude its ADC clips.

    With the ADC off there is no level check: the full run's report has no
    message at all.
    """

    # 0.1 mW through the quick start's 50:50 splitter: 0.8 V at 16 kV/A.
    LOW_POWER = {**ADC_ON, "coherence_time = 6e-9": "coherence_time = 6e-9\n"
                                                    "mean_power = 0.1e-3"}

    def level_messages(self, tmp_path, **overrides):
        cfg = make_config(**overrides)
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct"], str(tmp_path))
        report = json.load(open(os.path.join(str(tmp_path), "analysis_report.json")))
        return [m for m in report["timing_messages"] if "ADC full scale" in m]

    def detector_q(self, tmp_path, keys, mismatch):
        return self.level_messages(tmp_path, **self.LOW_POWER, **{
            "[simulation]": f"[detector_q]\n{keys}\n\n[simulation]",
            "[analysis]\n": f"[switches]\nmismatch = {mismatch}\n\n[analysis]\n"})

    def test_quick_start_device_warns_on_both_channels(self, tmp_path):
        assert self.level_messages(tmp_path, **ADC_ON) == [
            f"warning: predicted {channel} amplitude 8e+03 V exceeds the ADC full "
            "scale 1 V" for channel in "IQ"]

    def test_paper_budget_gets_no_warning(self, tmp_path):
        assert self.level_messages(tmp_path, **ADC_ON, **PAPER_BUDGET) == []

    # A 32 kV/A Q detector would give 1.6 V, but only with mismatch on.
    @pytest.mark.parametrize("mismatch,warned", [("off", []), ("on", ["Q"])])
    def test_q_has_the_i_gain_unless_mismatch(self, tmp_path, mismatch, warned):
        messages = self.detector_q(tmp_path, "transimpedance = 32e3", mismatch)
        assert [m.split()[2] for m in messages] == warned
        assert all("amplitude 1.6 V" in m for m in messages)

    def test_q_is_checked_against_its_own_adc(self, tmp_path):
        messages = self.detector_q(
            tmp_path, "transimpedance = 16e3\nadc_fullscale = 0.5", "off")
        assert messages == ["warning: predicted Q amplitude 0.8 V exceeds the "
                            "ADC full scale 0.5 V"]


class TestInsufficientInput:
    def test_test_stage_short_on_bits(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config(**{"sample_count = 30000": "sample_count = 3000"})
        with pytest.raises(InsufficientInputError, match="test stage needs"):
            pipeline.run_pipeline(
                cfg, ["simulate", "reconstruct", "extract", "test"], outdir)

    # 11 blocks of 3723 bits are 40953 bits in 5120 bytes, 7 short of the
    # 40960 the battery needs: only the 7 pad bits of the last byte would
    # cover it, so the staged test refuses exactly as the one-shot run does.
    def test_staged_test_never_counts_pad_bits(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config(**{"sample_count = 30000": "sample_count = 4400",
                             "min_entropy_rate = 0.98": "min_entropy_rate = 0.93075"})
        with pytest.raises(InsufficientInputError, match="needs 40960 .* found 40953"):
            pipeline.run_pipeline(
                cfg, ["simulate", "reconstruct", "extract", "test"], outdir)
        pipeline.run_pipeline(cfg, ["simulate", "reconstruct", "extract"], outdir)
        assert os.path.getsize(os.path.join(outdir, "extracted.bin")) == 5120
        with pytest.raises(InsufficientInputError, match="needs 40960 .* found 40953"):
            pipeline.run_pipeline(cfg, ["test"], outdir)

    # 6554 ten-bit symbols hash to exactly 8192 blocks of 5 bits: the
    # battery's 40960 bits with no pad bit to spare.  Judged from the byte
    # count alone, 5120 bytes would hold only 8191 whole 5-bit blocks.
    M_BELOW_8 = {"sample_count = 30000": "sample_count = 6554",
                 "input_bits = 4000": "input_bits = 8",
                 "min_entropy_rate = 0.98": "min_entropy_rate = 0.625"}

    def test_exact_bit_count_below_8_one_shot(self, tmp_path):
        summary = pipeline.run_pipeline(
            make_config(**self.M_BELOW_8),
            ["simulate", "reconstruct", "extract", "test"], str(tmp_path))
        assert summary["stage_outputs"]["extract"]["output_bits"] == 40960
        assert "test_report.json" in summary["artifacts"]

    def test_exact_bit_count_below_8_staged(self, tmp_path):
        cfg = make_config(**self.M_BELOW_8)
        for stage in ("simulate", "reconstruct", "extract", "test"):
            summary = pipeline.run_pipeline(cfg, [stage], str(tmp_path))
        assert summary["stages"] == ["test"]
        assert "test_report.json" in summary["artifacts"]

    def test_extract_stage_short_on_symbols(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config(**{"sample_count = 30000": "sample_count = 1000",
                             "input_bits = 4000": "input_bits = 40000"})
        with pytest.raises(InsufficientInputError):
            pipeline.run_pipeline(cfg, ["simulate", "reconstruct", "extract"],
                                  outdir)


class TestTestStageMemory:
    # Reading and hashing extracted.bin costs its bytes once; unpacking all
    # of it to test a prefix would cost eight times its bytes.
    def test_peak_follows_the_tested_bits_not_the_file(self, tmp_path):
        cfg = make_config()
        outdir = str(tmp_path)
        size = 2_000_000                    # 16e6 bits; the battery reads 40960
        pipeline._ArtifactGate(outdir, cfg.digest, cfg.extraction.block_bits[1]).write(
            "extracted", extractor.BitStream(np.random.default_rng(5).bytes(size), 8 * size))
        tracemalloc.start()
        try:
            summary = pipeline.run_pipeline(cfg, ["test"], outdir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "test_report.json" in summary["artifacts"]
        assert peak < 2 * size


class TestFailedStageWritesNothing:
    """A stage's artifacts reach the disk only once all of them are computed."""

    def run(self, tmp_path, stages, outdir, *extra, **overrides):
        text = BASE_INI
        for needle, replacement in overrides.items():
            text = text.replace(needle, replacement)
        config = tmp_path / "exp.ini"
        config.write_text(text)
        return cli.main(["pipeline", "-c", str(config), "-o", str(outdir),
                         "--stages", stages, *extra])

    # The statistics fail after the symbols are computed: neither they nor
    # the histograms are kept.
    def test_reconstruct_with_too_many_lags(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        short = {"sample_count = 30000": "sample_count = 2000"}
        assert self.run(tmp_path, "simulate", outdir, **short) == 0
        before = sorted(os.listdir(outdir))
        code = self.run(tmp_path, "reconstruct", outdir,
                        **short, **{"max_lag = 20": "max_lag = 5000"})
        assert code == 2
        assert "max_lag" in capsys.readouterr().err
        assert sorted(os.listdir(outdir)) == before
        assert not [name for name in before if name.endswith((".bin", ".csv"))]

    # 1000 ten-bit symbols cannot fill one 40000-bit block: the run stops in
    # extract, after the generated seed is computed but before it is kept.
    def test_extract_short_on_symbols(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        short = {"sample_count = 30000": "sample_count = 1000",
                 "input_bits = 4000": "input_bits = 40000"}
        assert self.run(tmp_path, "simulate,reconstruct,extract", outdir, **short) == 5
        # The earlier stages' artifacts stay; extract left none.
        upstream = ["analysis_report.json", "hist_channel_i.csv", "hist_channel_q.csv",
                    "hist_symbols.csv", "symbols.bin",
                    "symbols.bin.meta.json", "trace.iqt", "trace.iqt.meta.json"]
        assert sorted(os.listdir(outdir)) == upstream
        assert self.run(tmp_path, "extract", outdir, **short) == 5
        assert sorted(os.listdir(outdir)) == upstream

    # A saturated ADC (the quick start's 1 W laser with adc_quantize on)
    # puts a quarter of the symbols in one bin: the rate claim is refused
    # before the seed or the extracted bits are kept, on one shot and staged.
    def test_saturated_adc_fails_the_count_test(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        saturated = {"sample_count = 30000": "sample_count = 20000", **ADC_ON}
        code = self.run(tmp_path, "simulate,reconstruct,extract,test", outdir, **saturated)
        assert code == 5
        assert "min_entropy_rate 0.98" in capsys.readouterr().err
        upstream = ["analysis_report.json", "hist_channel_i.csv", "hist_channel_q.csv",
                    "hist_symbols.csv", "symbols.bin",
                    "symbols.bin.meta.json", "trace.iqt", "trace.iqt.meta.json"]
        assert sorted(os.listdir(outdir)) == upstream
        side = json.load(open(outdir / "symbols.bin.meta.json"))
        assert side["symbol_count"] == 20000
        assert side["max_symbol_count"] > 0.2 * 20000
        assert self.run(tmp_path, "extract", outdir, **saturated) == 5
        assert sorted(os.listdir(outdir)) == upstream

    def test_ingest_without_input(self, tmp_path, capsys):
        before = sorted(os.listdir(tmp_path))
        code = self.run(tmp_path, "ingest,reconstruct", tmp_path / "new")
        assert code == 2
        assert "input capture path" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == sorted(before + ["exp.ini"])

    # A capture given to a run without ingest would never be read.
    @pytest.mark.parametrize("stages", [["--stages", "simulate,reconstruct"], []],
                             ids=["simulate-reconstruct", "default-stages"])
    def test_input_without_ingest(self, tmp_path, capsys, stages):
        capture = tmp_path / "cap.iqt"
        capture.write_bytes(b"IQT1")
        config = tmp_path / "exp.ini"
        config.write_text(BASE_INI)
        code = cli.main(["pipeline", "-c", str(config), "-o", str(tmp_path / "new"),
                         *stages, "--input", str(capture)])
        assert code == 2
        assert "input capture path needs the ingest stage" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cap.iqt", "exp.ini"]

    # The output directory appears with the first artifact: a run that fails
    # before writing one leaves no directory behind.
    def test_ingest_of_absent_capture(self, tmp_path, capsys):
        code = self.run(tmp_path, "ingest,reconstruct", tmp_path / "new",
                        "--input", str(tmp_path / "absent.iqt"))
        assert code == 3
        assert "absent.iqt" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["exp.ini"]

    def test_ingest_of_capture_neither_trace_nor_text(self, tmp_path, capsys):
        capture = tmp_path / "capture.bin"
        capture.write_bytes(b"\x00\xff" * 64)
        code = self.run(tmp_path, "ingest", tmp_path / "new", "--input", str(capture))
        assert code == 3
        assert "not UTF-8 text" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["capture.bin", "exp.ini"]

    def test_reconstruct_without_trace(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(BASE_INI)
        code = cli.main(["reconstruct", "-c", str(config), "-o", str(tmp_path / "empty")])
        assert code == 4
        assert "trace.iqt" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["exp.ini"]

    # An empty stage list would otherwise run nothing and still overwrite
    # the directory's summary.json.
    @pytest.mark.parametrize("stages", ["", ","])
    def test_empty_stage_list(self, tmp_path, capsys, stages):
        outdir = tmp_path / "out"
        assert self.run(tmp_path, "simulate", outdir) == 0
        summary = (outdir / "summary.json").read_bytes()
        before = sorted(os.listdir(outdir))
        assert self.run(tmp_path, stages, outdir) == 2
        assert "no stage requested" in capsys.readouterr().err
        assert sorted(os.listdir(outdir)) == before
        assert (outdir / "summary.json").read_bytes() == summary


class TestCli:
    def write_config(self, tmp_path, text=BASE_INI):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    def test_pipeline_subcommand_prints_summary(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        code = cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stages"] == ["simulate", "reconstruct"]
        assert os.path.exists(os.path.join(outdir, "symbols.bin"))

    def test_single_stage_subcommand(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        assert cli.main(["simulate", "-c", config, "-o", outdir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stages"] == ["simulate"]

    # The seed is set in [simulation] only; there is no flag that overrides it.
    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "-c", config, "-o", str(outdir), "--seed", "1"])
        assert exc.value.code == 2
        assert not outdir.exists()

    def test_exit_2_semantic_config_error(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("delay_length = 6.0",
                                       "delay_length = -1.0"))
        code = cli.main(["simulate", "-c", config, "-o", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # Keys that once duplicated coherence_time, the rate that sizes m or the
    # margin epsilon_exponent sets, fixed the battery's gates, spelled a
    # [switches] key in [simulation], or binned the phases apart from their
    # symbols.
    @pytest.mark.parametrize("section,line", [
        ("laser", "linewidth = 5e7"),
        ("test", "proportion_mode = fixed"),
        ("test", "fixed_proportion = 0.98"),
        ("test", "uniformity_threshold = 1e-4"),
        ("extraction", "output_bits = 3920"),
        ("extraction", "mode = ratio"),
        ("simulation", "noise_drift = on"),
        ("analysis", "histogram_bins = 256"),
    ])
    def test_exit_3_removed_key(self, tmp_path, capsys, section, line):
        config = self.write_config(
            tmp_path, BASE_INI.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        outdir = tmp_path / "out"
        assert cli.main(["pipeline", "-c", config, "-o", str(outdir)]) == 3
        key = line.split(" = ")[0]
        assert f"[{section}] has unknown keys: {key}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_3_laser_without_coherence_time(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("coherence_time = 6e-9", "mean_power = 1.0"))
        outdir = tmp_path / "out"
        assert cli.main(["simulate", "-c", config, "-o", str(outdir)]) == 3
        assert ("[laser] is missing required key 'coherence_time'"
                in capsys.readouterr().err)
        assert not outdir.exists()

    def test_exit_2_unknown_stage(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(["pipeline", "-c", config, "-o", str(tmp_path / "o"),
                         "--stages", "simulate,frobnicate"])
        assert code == 2

    def test_exit_3_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[laser\nlinewidth garbage\n")
        code = cli.main(["simulate", "-c", str(config),
                         "-o", str(tmp_path / "o")])
        assert code == 3

    def test_exit_3_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_bytes(BASE_INI.encode().replace(b"[laser]", b"# \xff\xfe\n[laser]"))
        code = cli.main(["simulate", "-c", str(config), "-o", str(tmp_path / "o")])
        assert code == 3
        assert f"config {str(config)!r} is not UTF-8 text" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_exit_3_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["simulate", "-c", str(tmp_path / "absent.ini"),
                         "-o", str(tmp_path / "o")])
        assert code == 3
        assert "cannot read or write" in capsys.readouterr().err

    # The 7e38 V swing overflows float32, so trace.iqt would hold inf rows
    # that reading drops.  The stage is refused and nothing is written.
    def test_exit_2_trace_beyond_float32(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("transimpedance = 16e3", "transimpedance = 7e38"))
        outdir = tmp_path / "out"
        code = cli.main(["pipeline", "-c", config, "-o", str(outdir),
                         "--stages", "simulate,reconstruct"])
        assert code == 2
        assert "beyond the float32 range" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_3_csv_value_beyond_float32(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        capture = tmp_path / "capture.csv"
        capture.write_text("v_i,v_q\n0.5,0.1\n1e39,0.1\n")
        outdir = tmp_path / "out"
        code = cli.main(["ingest", "-c", config, "-o", str(outdir),
                         "--input", str(capture)])
        assert code == 3
        assert "float32 range ±3.402823e+38 at line 3" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_3_corrupt_trace(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        capture = tmp_path / "capture.iqt"
        capture.write_bytes(b"not an artifact at all, sorry")
        code = cli.main(["ingest", "-c", config, "-o", str(tmp_path / "out"),
                         "--input", str(capture)])
        assert code == 3
        assert "does not start with b'IQT1'" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,stage", [
        ("trace.iqt", "reconstruct"),
        ("symbols.bin", "extract"),
        ("extracted.bin", "test"),
    ])
    def test_exit_4_artifact_without_sidecar(self, tmp_path, capsys, artifact, stage):
        config = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        assert cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct,extract"]) == 0
        os.remove(os.path.join(outdir, artifact + ".meta.json"))
        capsys.readouterr()
        assert cli.main([stage, "-c", config, "-o", outdir]) == 4
        err = capsys.readouterr().err
        assert f"{artifact!r} without its sidecar" in err
        assert "ingest" in err

    @pytest.mark.parametrize("bit_length", [None, 300_008, -1, 300_000.5,
                                            "300000", True])
    def test_exit_3_sidecar_bit_length_does_not_fit(self, tmp_path, capsys,
                                                    bit_length):
        config = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        assert cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct"]) == 0
        sidecar = os.path.join(outdir, "symbols.bin.meta.json")
        meta = json.load(open(sidecar))
        if bit_length is None:
            del meta["bit_length"]
        else:
            meta["bit_length"] = bit_length
        with open(sidecar, "w") as fh:
            json.dump(meta, fh)
        capsys.readouterr()
        assert cli.main(["extract", "-c", config, "-o", outdir]) == 3
        assert "symbols.bin.meta.json" in capsys.readouterr().err

    def test_exit_4_missing_dependency(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(["reconstruct", "-c", config,
                         "-o", str(tmp_path / "empty")])
        assert code == 4
        assert "trace.iqt" in capsys.readouterr().err

    def refused_test_at_rate(self, tmp_path, capsys, rate, m):
        """Extract at m = 3920, then test under a rate that gives ``m``."""
        outdir = str(tmp_path / "out")
        config = self.write_config(tmp_path)
        assert cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct,extract"]) == 0
        config = self.write_config(tmp_path, BASE_INI.replace(
            "min_entropy_rate = 0.98", f"min_entropy_rate = {rate}"))
        capsys.readouterr()
        assert cli.main(["test", "-c", config, "-o", outdir]) == 4
        assert (f"'extracted.bin' hashed at m = 3920, not at m = {m}"
                in capsys.readouterr().err)
        assert not os.path.exists(os.path.join(outdir, "test_report.json"))

    # extracted.bin's sidecar records the m it was hashed at.
    def test_exit_4_extracted_bits_of_another_block_size(self, tmp_path, capsys):
        self.refused_test_at_rate(tmp_path, capsys, "0.97975", 3919)

    # The 294000 bits of 75 blocks of 3920 are also 80 whole blocks of 3675,
    # so their bit count alone cannot tell the two block sizes apart.
    def test_exit_4_extracted_bits_that_fill_other_blocks(self, tmp_path, capsys):
        self.refused_test_at_rate(tmp_path, capsys, "0.91875", 3675)

    # Only [extraction]'s m ties extracted.bin to the config: another [test]
    # geometry still reads it.
    def test_other_test_geometry_accepts_extracted_bits(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        config = self.write_config(tmp_path)
        assert cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct,extract"]) == 0
        config = self.write_config(tmp_path, BASE_INI.replace(
            "sequence_count = 10", "sequence_count = 9"))
        capsys.readouterr()
        assert cli.main(["test", "-c", config, "-o", outdir]) == 0
        assert json.loads(capsys.readouterr().out)["stages"] == ["test"]

    def test_exit_5_insufficient_bits(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("sample_count = 30000",
                                       "sample_count = 3000"))
        outdir = str(tmp_path / "out")
        code = cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct,extract,test"])
        assert code == 5
        assert "extracted bits" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    # A geometry the chain cannot run is refused at config load: the CLI
    # exits before any stage, so no output directory appears.
    def test_exit_5_insufficient_entropy(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("min_entropy_rate = 0.98",
                                       "min_entropy_rate = 0.0002"))
        outdir = tmp_path / "out"
        code = cli.main(["pipeline", "-c", config, "-o", str(outdir),
                         "--stages", "simulate,reconstruct,extract"])
        assert code == 5
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_2_sequence_too_short(self, tmp_path, capsys):
        # The last case is below the default serial test's 2^18 bits.
        for case in ({"sequence_bits = 4096": "sequence_bits = 100"},
                     {"sequence_bits = 4096": "sequence_bits = 100000",
                      "serial_pattern_bits = 8": "serial_pattern_bits = 16"}):
            text = BASE_INI
            for needle, replacement in case.items():
                text = text.replace(needle, replacement)
            config = self.write_config(tmp_path, text)
            outdir = tmp_path / "out"
            code = cli.main(["pipeline", "-c", config, "-o", str(outdir)])
            assert code == 2, case
            assert "error:" in capsys.readouterr().err
            assert not outdir.exists(), case

    # A key outside its range is refused at load, by its INI name.
    @pytest.mark.parametrize("needle,replacement,key", [
        pytest.param("epsilon_exponent = 0", "epsilon_exponent = -1", "epsilon_exponent",
                     id="negative-epsilon_exponent"),
        ("min_entropy_rate = 0.98", "min_entropy_rate = 1.5", "min_entropy_rate"),
        pytest.param("max_lag = 20", "max_lag = 20\nnormalize = arcsine-fit", "normalize",
                     id="retired-normalize-method"),
    ])
    def test_exit_2_key_out_of_range(self, tmp_path, capsys, needle, replacement, key):
        config = self.write_config(tmp_path, BASE_INI.replace(needle, replacement))
        outdir = tmp_path / "out"
        assert cli.main(["simulate", "-c", config, "-o", str(outdir)]) == 2
        assert key in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_exit_2_seed_outside_64_bits(self, tmp_path, capsys, seed):
        config = self.write_config(tmp_path, BASE_INI.replace("seed = 11", f"seed = {seed}"))
        outdir = tmp_path / "out"
        assert cli.main(["simulate", "-c", config, "-o", str(outdir)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not outdir.exists()

    def test_smallest_epsilon_runs(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("epsilon_exponent = 0", "epsilon_exponent = 1074"))
        assert cli.main(["simulate", "-c", config, "-o", str(tmp_path / "out")]) == 0

    # floor(4000 * 0.98) - 2 * 1960 = 0 bits per block.
    def test_exit_5_margin_that_consumes_the_block(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("epsilon_exponent = 0", "epsilon_exponent = 1960"))
        outdir = tmp_path / "out"
        assert cli.main(["simulate", "-c", config, "-o", str(outdir)]) == 5
        assert "derived output length 0" in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    # The statistics are part of reconstruct; analyze is no subcommand.
    def test_analyze_is_unknown_subcommand(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "-c", config, "-o", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "analyze" in err
        assert not (tmp_path / "o").exists()


def test_readme_quick_start_yields_enough_bits():
    # The README's example config must run end to end: the extracted bits
    # have to cover the test stage's sequences.
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = cfg_mod.parse_config(block)
    n, m = cfg.extraction.block_bits
    raw_bits = cfg.simulation.sample_count * cfg.analysis.phase_bits
    assert (raw_bits // n) * m >= cfg.test.sequence_bits * cfg.test.sequence_count


def test_readme_library_example_runs(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    label, value = capsys.readouterr().out.rsplit(":", 1)
    assert label == "min-entropy per 10-bit symbol"
    assert 9.8 < float(value) <= 10.0
