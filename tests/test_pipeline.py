import hashlib
import json
import math
import os
import re
import struct

import numpy as np
import pytest

from phaserng import cli, config as cfg_mod, extractor, optics, pipeline, traceio
from phaserng.errors import (DependencyError, FormatError,
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
output_bits = 3920

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
        cfg, ["simulate", "reconstruct", "analyze", "extract", "test"], outdir)
    return cfg, outdir, summary


class TestFullRun:
    def test_summary_structure(self, full_run):
        cfg, outdir, summary = full_run
        assert summary["schema_version"] == pipeline.SCHEMA_VERSION
        assert summary["config_digest"] == cfg.digest
        assert summary["stages"] == ["simulate", "reconstruct", "analyze",
                                     "extract", "test"]
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
        for name in ("trace.iqt", "symbols.bin", "toeplitz_seed.bin",
                     "extracted.bin"):
            side = json.load(open(os.path.join(outdir, name + ".meta.json")))
            assert side["artifact"] == name
            assert side["config_digest"] == cfg.digest
            assert side["sha256"] == sha256(os.path.join(outdir, name))

    def test_simulate_output(self, full_run):
        _, _, summary = full_run
        sim = summary["stage_outputs"]["simulate"]
        assert sim["samples"] == 30000
        assert sim["sample_rate"] == 200e6
        assert sim["oversample_factor"] == 1

    def test_symbols_artifact(self, full_run):
        _, outdir, _ = full_run
        blob = open(os.path.join(outdir, "symbols.bin"), "rb").read()
        assert struct.unpack("<4sBBHQ", blob[:16]) == (b"SYM1", 1, 10, 0, 30000)
        assert len(blob) == 16 + 2 * 30000
        stream = traceio.decode_symbols(blob)
        assert len(stream) == 30000
        assert stream.bits_per_symbol == 10

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

    def test_histogram_artifacts(self, full_run):
        cfg, outdir, _ = full_run
        lines = open(os.path.join(outdir, "hist_phase.csv")).read().splitlines()
        assert lines[0] == f"# config_digest={cfg.digest}"
        assert lines[1] == "bin_center,count,reference_density"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 256
        assert sum(int(r[1]) for r in rows) == 30000
        assert float(rows[0][2]) == pytest.approx(1 / (2 * math.pi))
        sym_lines = open(os.path.join(outdir, "hist_symbols.csv")).read().splitlines()
        sym_rows = [line.split(",") for line in sym_lines[2:]]
        assert len(sym_rows) == 1024
        assert all(r[2] == "" for r in sym_rows)  # no reference law

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
        expected = extractor.ToeplitzSpec.from_rng(
            4000, 3920, seed=cfg.simulation.seed,
            stream=pipeline.EXTRACTOR_SEED_STREAM)
        np.testing.assert_array_equal(spec.seed_bits, expected.seed_bits)

    def test_known_answer_artifacts(self, full_run):
        # Pins the seed contract and every output bit of the chain, so a
        # refactor that changes one draw or one extracted bit fails here.
        # Schema 3 (merged-time phase sampler), measured with numpy 2.4.6;
        # the Toeplitz seed is drawn on its own stream and did not move.
        _, outdir, _ = full_run
        assert sha256(os.path.join(outdir, "trace.iqt")) == (
            "c571b2b37e7acdf7ac2b97f9f19e6e9338e7e60679d29bc0f8f4ec41c4a5f332")
        assert sha256(os.path.join(outdir, "toeplitz_seed.bin")) == (
            "6336382d95fa9fac8faeaa0818ea76c81812a51046a0e2208b64af52d94442bf")
        assert sha256(os.path.join(outdir, "extracted.bin")) == (
            "7aee3fac9103ee50711c5a4ba15ff3d15da96732dd0a2b5e5a4daedf030c2ce4")
        hists = {
            "hist_channel_i.csv":
                "413a37156ad10363e7d91c8ce5e6090056898d76867caef9cf12fe9f011b2d03",
            "hist_channel_q.csv":
                "cfbccd673b4ce68b54380c337ad583456c33dd9061ac9b6f3c1d3e869d489a08",
            "hist_phase.csv":
                "859804f016b019f3f9da61e5f7cf80d58f715df02caa4d9e1d89966594b8de1d",
            "hist_symbols.csv":
                "e0b78c0ac74c6f8dbf1a86be52c50717297f1e25ec9e28d2a9b47b4b8c7141c1",
        }
        for name, digest in hists.items():
            assert sha256(os.path.join(outdir, name)) == digest, name
        # The symbol payload, little-endian uint16 after the 16-byte header.
        payload = open(os.path.join(outdir, "symbols.bin"), "rb").read()[16:]
        assert hashlib.sha256(payload).hexdigest() == (
            "082edc7630c15efb65c72a5bd59c4f68a964068bdbfb6b3c41737cf240bd5709")

    def test_known_answer_sidecar_and_summary(self, full_run):
        # Pins the sidecar layout (key order included) and the summary's
        # bytes, so routing artifact I/O differently cannot move them.
        _, outdir, _ = full_run
        assert sha256(os.path.join(outdir, "trace.iqt.meta.json")) == (
            "c02e4bef7e9f4dd517833382e33f26ee78d4c0638ea3d8b7956c6ecbdc170f8a")
        assert sha256(os.path.join(outdir, "summary.json")) == (
            "39fb8602f35dda38b3572fdf8757457bbac5b3c206dc33972e8db93455e15259")

    def test_battery_report(self, full_run):
        cfg, outdir, summary = full_run
        report = json.load(open(os.path.join(outdir, "test_report.json")))
        assert report["config_digest"] == cfg.digest
        assert report["schema_version"] == pipeline.SCHEMA_VERSION
        assert len(report["streams"]) == 10
        assert summary["stage_outputs"]["test"]["passed"] is True


class TestDeterminism:
    def test_identical_rerun(self, tmp_path, full_run):
        cfg, outdir, summary = full_run
        again = str(tmp_path / "again")
        summary2 = pipeline.run_pipeline(
            cfg, ["simulate", "reconstruct", "analyze", "extract", "test"],
            again)
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
        s3 = pipeline.run_pipeline(cfg, ["analyze", "extract"], outdir)
        assert s3["stages"] == ["analyze", "extract"]
        assert "extracted.bin" in s3["artifacts"]

    def test_analyze_needs_only_the_trace(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        summary = pipeline.run_pipeline(cfg, ["analyze"], outdir)
        assert summary["stages"] == ["analyze"]
        assert "analysis_report.json" in summary["artifacts"]
        assert "symbols.bin" not in summary["artifacts"]

    def test_stage_order_is_canonical(self, tmp_path):
        outdir = str(tmp_path / "run")
        summary = pipeline.run_pipeline(make_config(),
                                        ["reconstruct", "simulate"], outdir)
        assert summary["stages"] == ["simulate", "reconstruct"]

    @pytest.mark.parametrize("stage,missing", [
        ("reconstruct", "trace.iqt"),
        ("analyze", "trace.iqt"),
        ("extract", "symbols.bin"),
        ("test", "extracted.bin"),
    ])
    def test_missing_dependency(self, tmp_path, stage, missing):
        with pytest.raises(DependencyError, match=missing):
            pipeline.run_pipeline(make_config(), [stage],
                                  str(tmp_path / "empty"))

    @pytest.mark.parametrize("stage,artifact", [
        ("reconstruct", "trace.iqt"),
        ("analyze", "trace.iqt"),
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
        cfg_b = make_config(**{"output_bits = 3920":
                               "output_bits = 3920\nmin_entropy_rate = 0.95"})
        assert cfg_a.digest != cfg_b.digest
        pipeline.run_pipeline(cfg_a, ["simulate", "reconstruct"], outdir)
        summary = pipeline.run_pipeline(cfg_b, ["analyze", "extract"], outdir)
        artifacts = summary["artifacts"]
        for name in ("trace.iqt", "symbols.bin", "toeplitz_seed.bin",
                     "extracted.bin"):
            side = json.load(open(os.path.join(outdir, name + ".meta.json")))
            assert artifacts[name]["config_digest"] == side["config_digest"], name
        assert artifacts["trace.iqt"]["config_digest"] == cfg_a.digest
        assert artifacts["symbols.bin"]["config_digest"] == cfg_a.digest
        assert artifacts["extracted.bin"]["config_digest"] == cfg_b.digest

    def test_artifact_without_sidecar_has_no_digest(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        os.remove(os.path.join(outdir, "trace.iqt.meta.json"))
        summary = pipeline.run_pipeline(cfg, ["reconstruct"], outdir)
        assert summary["artifacts"]["trace.iqt"] == {
            "sha256": sha256(os.path.join(outdir, "trace.iqt")),
            "config_digest": None}
        assert summary["artifacts"]["symbols.bin"]["config_digest"] == cfg.digest

    def test_unreadable_sidecar_is_a_format_error(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config()
        pipeline.run_pipeline(cfg, ["simulate"], outdir)
        with open(os.path.join(outdir, "trace.iqt.meta.json"), "w") as fh:
            fh.write("[2]")
        with pytest.raises(FormatError, match="trace.iqt.meta.json"):
            pipeline.run_pipeline(cfg, ["reconstruct"], outdir)

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown stages: transmogrify"):
            pipeline.run_pipeline(make_config(), ["transmogrify"],
                                  str(tmp_path / "x"))

    def test_simulate_and_ingest_conflict(self, tmp_path):
        with pytest.raises(ParameterError, match="one trace source"):
            pipeline.run_pipeline(make_config(), ["simulate", "ingest"],
                                  str(tmp_path / "x"))


class TestAnalyzeDescribesItsTrace:
    def test_channel_q_uses_its_own_adc_bits(self, tmp_path):
        cfg = make_config(**{"[simulation]":
                             "[detector_q]\ntransimpedance = 16e3\nadc_bits = 6\n\n"
                             "[simulation]"})
        summary = pipeline.run_pipeline(cfg, ["simulate", "analyze"], str(tmp_path))
        hmin = summary["stage_outputs"]["analyze"]["min_entropy_bits"]
        # Read at detector_i's 10 bits, channel Q would give 4.619 bits.
        assert hmin["channel_q"] == pytest.approx(3.545, abs=1e-3)
        assert hmin["channel_i"] == pytest.approx(4.609, abs=1e-3)

    def test_timing_note_uses_the_trace_rate(self, tmp_path):
        src = str(tmp_path / "src")
        pipeline.run_pipeline(make_config(), ["simulate"], src)
        cfg = make_config(**{"sample_rate = 200e6": "sample_rate = 100e6"})
        outdir = str(tmp_path / "run")
        pipeline.run_pipeline(cfg, ["ingest", "analyze"], outdir,
                              ingest_path=os.path.join(src, "trace.iqt"))
        report = json.load(open(os.path.join(outdir, "analysis_report.json")))
        assert report["timing_messages"] == optics.validate_timing(
            cfg.laser, cfg.interferometer, cfg.detector_i, 200e6)


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
                                        ingest_path=capture,
                                        ingest_format="csv")
        assert summary["stage_outputs"]["ingest"]["sample_rate"] == 200e6
        back = traceio.read_trace_binary(os.path.join(outdir, "trace.iqt"))
        np.testing.assert_array_equal(
            back.v_i, trace.v_i.astype(np.float32).astype(np.float64))

    def test_missing_input_path(self, tmp_path):
        with pytest.raises(ParameterError, match="input capture path"):
            pipeline.run_pipeline(make_config(), ["ingest"],
                                  str(tmp_path / "run"))


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


class TestInsufficientInput:
    def test_test_stage_short_on_bits(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config(**{"sample_count = 30000": "sample_count = 3000"})
        with pytest.raises(InsufficientInputError, match="test stage needs"):
            pipeline.run_pipeline(
                cfg, ["simulate", "reconstruct", "extract", "test"], outdir)

    def test_extract_stage_short_on_symbols(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = make_config(**{"sample_count = 30000": "sample_count = 1000",
                             "input_bits = 4000": "input_bits = 40000",
                             "output_bits = 3920": "output_bits = 39200"})
        with pytest.raises(InsufficientInputError):
            pipeline.run_pipeline(cfg, ["simulate", "reconstruct", "extract"],
                                  outdir)


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

    def test_seed_override(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
        assert cli.main(["simulate", "-c", config, "-o", out1]) == 0
        assert cli.main(["simulate", "-c", config, "-o", out2,
                         "--seed", "12"]) == 0
        assert cli.main(["simulate", "-c", config, "-o", out3,
                         "--seed", "11"]) == 0
        capsys.readouterr()
        t1 = sha256(os.path.join(out1, "trace.iqt"))
        t2 = sha256(os.path.join(out2, "trace.iqt"))
        t3 = sha256(os.path.join(out3, "trace.iqt"))
        assert t1 != t2
        assert t1 == t3  # --seed 11 matches the configured seed

    def test_exit_2_semantic_config_error(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("delay_length = 6.0",
                                       "delay_length = -1.0"))
        code = cli.main(["simulate", "-c", config, "-o", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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

    def test_exit_3_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["simulate", "-c", str(tmp_path / "absent.ini"),
                         "-o", str(tmp_path / "o")])
        assert code == 3
        assert "cannot read or write" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,stage", [
        ("trace.iqt", "reconstruct"),
        ("symbols.bin", "extract"),
    ])
    def test_exit_3_corrupt_trace(self, tmp_path, capsys, artifact, stage):
        config = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        os.makedirs(outdir)
        with open(os.path.join(outdir, artifact), "wb") as fh:
            fh.write(b"not an artifact at all, sorry")
        code = cli.main([stage, "-c", config, "-o", outdir])
        assert code == 3

    def test_exit_4_missing_dependency(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(["reconstruct", "-c", config,
                         "-o", str(tmp_path / "empty")])
        assert code == 4
        assert "trace.iqt" in capsys.readouterr().err

    def test_exit_5_insufficient_bits(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("sample_count = 30000",
                                       "sample_count = 3000"))
        outdir = str(tmp_path / "out")
        code = cli.main(["pipeline", "-c", config, "-o", outdir,
                         "--stages", "simulate,reconstruct,extract,test"])
        assert code == 5
        assert "extracted bits" in capsys.readouterr().err

    # A geometry the chain cannot run is refused at config load: the CLI
    # exits before any stage, so no output directory appears.
    def test_exit_5_insufficient_entropy(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, BASE_INI.replace("output_bits = 3920",
                                       "min_entropy_rate = 0.001"))
        outdir = tmp_path / "out"
        code = cli.main(["pipeline", "-c", config, "-o", str(outdir),
                         "--stages", "simulate,reconstruct,extract"])
        assert code == 5
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_exit_2_sequence_too_short(self, tmp_path, capsys):
        # The last case is below the default serial test's 2^18 bits.
        for case in ({"sequence_bits = 4096": "sequence_bits = 100"},
                     {"output_bits = 3920": "output_bits = 5000"},
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

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


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
