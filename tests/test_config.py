import os
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from phaserng import config as cfg
from phaserng.errors import FormatError, InsufficientEntropyError, ParameterError

MINIMAL = """\
[laser]
coherence_time = 6e-9

[interferometer]
delay_length = 6.0

[detector_i]
transimpedance = 16e3

[simulation]
sample_count = 1000
sample_rate = 200e6
seed = 7
"""

FULL = """\
[laser]
coherence_time = 6e-9
mean_power = 0.14e-3
intensity_sigma = 9.64e-7

[interferometer]
delay_length = 6.0
fiber_index = 1.5
delay_loss = 0.569444
bs_transmittance = 0.514286
static_phase = 0.6
drift_phase = 0.1
drift_mode = fixed
drift_step = 0.0

[detector_i]
transimpedance = 16e3
responsivity = 1.0
electrical_noise_sigma = 7.666e-3
response_time = 625e-12
adc_bits = 10
adc_fullscale = 1.0

[detector_q]
transimpedance = 20e3
electrical_noise_sigma = 7.356e-3

[simulation]
sample_count = 1000000
sample_rate = 200e6
seed = 42
adc_quantize = false
oversample_factor = 2

[switches]
intensity = on
electrical = yes
drift = off
mismatch = true
bandwidth_limit = 0

[analysis]
phase_bits = 10
max_lag = 50
normalize = percentile

[extraction]
input_bits = 4000
min_entropy_rate = 0.98
epsilon_exponent = 0
seed_file = seed.bin

[test]
sequence_bits = 1000000
sequence_count = 100
alpha = 0.01
serial_pattern_bits = 16
approx_entropy_pattern_bits = 10
"""


class TestHappyPath:
    def test_full_config_values_land(self):
        c = cfg.parse_config(FULL)
        assert c.laser.coherence_time == 6e-9
        assert c.laser.mean_power == 0.14e-3
        assert c.interferometer.delay_length == 6.0
        assert c.interferometer.bs_transmittance == 0.514286
        assert c.interferometer.static_phase == pytest.approx(0.6, abs=1e-12)
        assert c.detector_i.transimpedance == 16e3
        assert c.detector_q.transimpedance == 20e3
        assert c.detector_q.electrical_noise_sigma == 7.356e-3
        assert c.simulation.sample_count == 1_000_000
        assert c.simulation.seed == 42
        assert c.switches.intensity is True
        assert c.switches.electrical is True
        assert c.switches.drift is False
        assert c.switches.mismatch is True
        assert c.switches.bandwidth_limit is False
        assert c.simulation.adc_quantize is False
        assert c.simulation.oversample_factor == 2
        assert c.extraction.epsilon_exponent == 0
        assert c.extraction.block_bits == (4000, 3920)
        assert c.test.sequence_count == 100

    def test_minimal_config_uses_defaults(self):
        c = cfg.parse_config(MINIMAL)
        assert c.interferometer.fiber_index == 1.5
        assert c.interferometer.bs_transmittance == 0.5
        assert c.detector_i.responsivity == 1.0
        assert c.detector_i.response_time == 625e-12
        assert c.detector_i.adc_bits == 10
        assert c.switches.intensity is False
        assert c.simulation.adc_quantize is False
        assert c.analysis.phase_bits == 10
        assert c.analysis.normalize == "percentile"
        assert c.extraction.input_bits == 4000
        assert c.extraction.epsilon_exponent == 50
        assert c.test.sequence_bits == 1_000_000

    def test_detector_q_mirrors_detector_i_when_absent(self):
        c = cfg.parse_config(MINIMAL)
        assert c.detector_q == c.detector_i

    def test_inline_comments(self):
        text = MINIMAL.replace("delay_length = 6.0",
                               "delay_length = 6.0  # meters")
        text = text.replace("seed = 7", "seed = 7  ; master seed")
        c = cfg.parse_config(text)
        assert c.interferometer.delay_length == 6.0
        assert c.simulation.seed == 7

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(FULL)
        assert cfg.load_config(str(path)) == cfg.parse_config(FULL)

    def test_file_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"; \xff\xfe\n" + FULL.encode())
        with pytest.raises(FormatError, match="exp.ini' is not UTF-8 text"):
            cfg.load_config(str(path))


class TestBoolParsing:
    @pytest.mark.parametrize("text,value", [
        ("on", True), ("true", True), ("yes", True), ("1", True),
        ("ON", True), ("True", True),
        ("off", False), ("false", False), ("no", False), ("0", False),
    ])
    def test_accepted_spellings(self, text, value):
        c = cfg.parse_config(MINIMAL + f"\n[switches]\ndrift = {text}\n")
        assert c.switches.drift is value

    def test_rejected_spelling(self):
        with pytest.raises(FormatError, match="cannot parse"):
            cfg.parse_config(MINIMAL + "\n[switches]\ndrift = maybe\n")


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(FormatError, match="unknown config sections: oven"):
            cfg.parse_config(MINIMAL + "\n[oven]\ntemperature = 300\n")

    def test_unknown_key(self):
        with pytest.raises(FormatError, match=r"\[laser\] has unknown keys: color"):
            cfg.parse_config(MINIMAL.replace("coherence_time = 6e-9",
                                             "coherence_time = 6e-9\ncolor = red"))

    @pytest.mark.parametrize("needle,section", [
        ("coherence_time = 6e-9\n", "laser"),
        ("delay_length = 6.0\n", "interferometer"),
        ("transimpedance = 16e3\n", "detector_i"),
        ("sample_count = 1000\n", "simulation"),
        ("sample_rate = 200e6\n", "simulation"),
        ("seed = 7\n", "simulation"),
    ])
    def test_missing_required_key(self, needle, section):
        with pytest.raises(FormatError, match=f"\\[{section}\\] is missing"):
            cfg.parse_config(MINIMAL.replace(needle, ""))

    def test_unparsable_number(self):
        with pytest.raises(FormatError, match=r"\[simulation\] key 'sample_count'"):
            cfg.parse_config(MINIMAL.replace("sample_count = 1000",
                                             "sample_count = many"))

    def test_not_ini_at_all(self):
        with pytest.raises(FormatError, match="config syntax error"):
            cfg.parse_config("{\"laser\": {}}\n")

    def test_semantic_errors_are_parameter_errors(self):
        with pytest.raises(ParameterError):
            cfg.parse_config(MINIMAL.replace("delay_length = 6.0",
                                             "delay_length = -1.0"))
        with pytest.raises(ParameterError):
            cfg.parse_config(MINIMAL.replace(
                "delay_length = 6.0",
                "delay_length = 6.0\nbs_transmittance = 1.5"))
        # an infinite rate would reach the simulation as a zero sample period
        with pytest.raises(ParameterError):
            cfg.parse_config(MINIMAL.replace("sample_rate = 200e6",
                                             "sample_rate = inf"))

    # m = floor(n * rate) - 2 * epsilon_exponent, in integers: 2**-1074 is
    # the smallest positive double, yet no exponent is capped there.
    @pytest.mark.parametrize("exponent,block", [(50, (4000, 3820)),
                                                (1024, (4000, 1872)),
                                                (1074, (4000, 1772))])
    def test_epsilon_exponent_up_to_1074(self, exponent, block):
        config = cfg.parse_config(
            MINIMAL + f"\n[extraction]\nepsilon_exponent = {exponent}\n")
        assert config.extraction.block_bits == block

    @pytest.mark.parametrize("exponent,block", [(0, (4000, 3920)),
                                                (1075, (4000, 1770))])
    def test_epsilon_exponent_zero_and_past_1074(self, exponent, block):
        config = cfg.parse_config(
            MINIMAL + f"\n[extraction]\nepsilon_exponent = {exponent}\n")
        assert config.extraction.block_bits == block

    def test_epsilon_exponent_that_consumes_the_block_is_refused(self):
        with pytest.raises(InsufficientEntropyError, match="derived output length 0"):
            cfg.parse_config(MINIMAL + "\n[extraction]\nepsilon_exponent = 1960\n")

    def test_negative_epsilon_exponent_is_refused_by_name(self):
        with pytest.raises(ParameterError, match=r"epsilon_exponent must be an "
                                                 r"integer >= 0, got -1"):
            cfg.parse_config(MINIMAL + "\n[extraction]\nepsilon_exponent = -1\n")

    # The second-moment estimator is retired: its name is refused like any
    # unknown method.
    def test_arcsine_fit_is_refused(self):
        with pytest.raises(ParameterError, match="unknown normalize method 'arcsine-fit'"):
            cfg.parse_config(MINIMAL + "\n[analysis]\nnormalize = arcsine-fit\n")

    # mode = ratio was epsilon_exponent = 0; the key is gone.
    def test_mode_is_an_unknown_key(self):
        with pytest.raises(FormatError, match=r"\[extraction\] has unknown keys: mode"):
            cfg.parse_config(MINIMAL + "\n[extraction]\nmode = ratio\n")

    # Seeds are 64-bit: a wider one would alias a seed in range (2**64 gives
    # seed 0's artifacts) under a different config digest.
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_spans_64_bits(self, seed):
        config = cfg.parse_config(MINIMAL.replace("seed = 7", f"seed = {seed}"))
        assert config.simulation.seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused_by_name(self, seed):
        with pytest.raises(ParameterError, match=r"seed must be an integer in "
                                                 r"\[0, 18446744073709551615\]"):
            cfg.parse_config(MINIMAL.replace("seed = 7", f"seed = {seed}"))


class TestDigest:
    def test_shape(self):
        digest = cfg.parse_config(MINIMAL).digest
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_spelling_invariance(self):
        # same experiment: defaults made explicit, keys reordered, comments
        explicit = """\
# phase noise experiment
[simulation]
seed = 7
sample_rate = 200e6
sample_count = 1000

[switches]
intensity = off

[interferometer]
fiber_index = 1.5
delay_length = 6.0

[detector_q]
transimpedance = 16e3

[detector_i]
transimpedance = 16e3
adc_bits = 10

[laser]
coherence_time = 6e-9  # 6 ns
"""
        a, b = cfg.parse_config(MINIMAL), cfg.parse_config(explicit)
        assert a.canonical_text() == b.canonical_text()
        assert a.digest == b.digest

    def test_value_sensitivity(self):
        base = cfg.parse_config(MINIMAL).digest
        for needle, repl in [("seed = 7", "seed = 8"),
                             ("delay_length = 6.0", "delay_length = 5.0"),
                             ("sample_count = 1000", "sample_count = 1001")]:
            changed = cfg.parse_config(MINIMAL.replace(needle, repl)).digest
            assert changed != base, needle

    def test_library_built_config_has_the_parsed_digest(self):
        # Each section stores the value its guard returns, so an int given
        # for a float field, a whole float for an int one, or 0 for a bool
        # one, renders as the parser's value does.
        from phaserng import extractor, optics, phasenoise

        det = optics.DetectorParams(transimpedance=16000, adc_bits=10.0)
        built = cfg.ExperimentConfig(
            laser=phasenoise.LaserParams(coherence_time=6e-9, mean_power=1),
            interferometer=optics.InterferometerParams(delay_length=6, delay_loss=1),
            detector_i=det, detector_q=det,
            simulation=cfg.SimulationParams(sample_count=1000.0, sample_rate=200_000_000,
                                            seed=np.int64(7), adc_quantize=0),
            switches=optics.NoiseSwitches(drift=0),
            analysis=cfg.AnalysisParams(max_lag=50.0),
            extraction=cfg.ExtractionParams(
                epsilon_exponent=float(extractor.EPSILON_EXPONENT), min_entropy_rate=0.98),
            test=cfg.TestConfig(sequence_count=100.0))
        parsed = cfg.parse_config(MINIMAL)
        assert built == parsed
        assert f"epsilon_exponent = {extractor.EPSILON_EXPONENT}\n" in built.canonical_text()
        assert built.canonical_text() == parsed.canonical_text()
        assert built.digest == parsed.digest

    def test_canonical_text_covers_every_block(self):
        text = cfg.parse_config(FULL).canonical_text()
        for name in ("laser", "interferometer", "detector_i", "detector_q",
                     "simulation", "switches", "analysis", "extraction",
                     "test"):
            assert f"[{name}]\n" in text
        # switches render in their own block, not inside [simulation]
        sim_block = text.split("[simulation]")[1].split("[")[0]
        assert "intensity" not in sim_block
        assert "sample_count = 1000000" in text


def readme_text():
    return open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                encoding="utf-8").read()


class TestDigestPins:
    # Known answers: the canonical rendering, and so every artifact's
    # config_digest, must not move when the parser is reorganized.  Schema 7
    # moved all three: [extraction] output_bits is gone.  Schema 11 moved
    # them again: [extraction] mode is gone.  Schema 15 moved them again:
    # [analysis] histogram_bins is gone.  FULL's alone moved when the
    # arcsine-fit estimator was retired: it sets normalize = percentile now.
    def test_minimal(self):
        assert cfg.parse_config(MINIMAL).digest == (
            "cbf4181f9918fecc811ef41d97c18855553dbbe10e59d2cbbf32b8299d216c58")

    def test_full(self):
        assert cfg.parse_config(FULL).digest == (
            "dbbf5eea0cb7ed1d56de54d4c4cae0dd48001e8d0ca49c927dd68d1a5258f0a3")

    def test_readme_quick_start(self):
        block = re.search(r"```ini\n(.*?)```", readme_text(), re.S).group(1)
        assert cfg.parse_config(block).digest == (
            "919d199bee994c7848c9498a4066c86afb8c01dae358a80651b1469544cef08e")


def test_every_resolved_field_round_trips():
    # Every field of every section dataclass is an accepted key: writing the
    # resolved FULL config back out as INI parses to the same config.
    original = cfg.parse_config(FULL)
    lines = []
    for section in fields(cfg.ExperimentConfig):
        obj = getattr(original, section.name)
        lines.append(f"[{section.name}]")
        lines += [f"{f.name} = {getattr(obj, f.name)}" for f in fields(obj)]
    assert cfg.parse_config("\n".join(lines) + "\n") == original


def readme_config_table():
    """(section, key, required, default text) rows of the README table."""
    text = readme_text().split("## Configuration reference")[1].split("\n## ")[0]
    rows, section = [], None
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or cells[0] in ("Section", "---"):
            continue
        section = cells[0].strip("`[]") or section
        key = re.fullmatch(r"`(\w+)`(\\\*)?", cells[1])
        if key is None:
            assert section == "detector_q" and "`detector_i`" in cells[1]
            continue
        rows.append((section, key.group(1), bool(key.group(2)), cells[2]))
    return rows


def canonical_keys(config):
    """Section -> keys, read from the canonical rendering."""
    keys, section = {}, None
    for line in config.canonical_text().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
            keys.setdefault(section, set())
        else:
            keys[section].add(line.split(" = ")[0])
    return keys


class TestReadmeConfigReference:
    def test_keys_match_the_parser(self):
        listed = {}
        for section, key, _, _ in readme_config_table():
            listed.setdefault(section, set()).add(key)
        keys = canonical_keys(cfg.parse_config(MINIMAL))
        assert set(keys) - set(listed) == {"detector_q"}   # the mirror row
        assert listed == {s: k for s, k in keys.items() if s != "detector_q"}

    def test_defaults_match_the_parser(self):
        base = cfg.parse_config(MINIMAL)
        for section, key, required, default in readme_config_table():
            field = {f.name: f for f in fields(getattr(base, section))}[key]
            assert required == (field.default is MISSING), key
            if required:
                assert default == "—", key
                continue
            value = default.strip("`").replace('""', "")
            if f"\n{key} = " in MINIMAL:
                # MINIMAL sets this key: the listed default is the field's.
                assert type(field.default)(value) == field.default, key
                continue
            # Spelling the listed default out must not change the config.
            header = f"[{section}]\n"
            text = (MINIMAL.replace(header, f"{header}{key} = {value}\n")
                    if header in MINIMAL else f"{MINIMAL}\n{header}{key} = {value}\n")
            assert cfg.parse_config(text) == base, key
