"""Experiment configuration: strict INI parsing and content digests.

Grammar: INI sections ``[laser]``, ``[interferometer]``, ``[detector_i]``,
``[detector_q]``, ``[simulation]``, ``[switches]``, ``[analysis]``,
``[extraction]``, ``[test]``: the fields of ``ExperimentConfig``, in order,
each backed by the section dataclass its annotation names.  A section's
keys, their defaults and their types are that dataclass's fields: a field's
default is the key's default, a field without one is a required key, and
its annotation (float, int, str or bool) picks the converter.  One special
case: an absent or empty ``[detector_q]`` mirrors ``[detector_i]``.  An
unknown section or key is an error (fail-fast against typos), as is a
missing required key.  Booleans accept on/off, true/false,
yes/no, 1/0.  ``#`` and ``;`` start comments.

The digest is a sha256 over a canonical rendering of the *resolved*
configuration, so two files that spell the same experiment differently
(ordering, comments, defaults made explicit) share a digest.  Every
artifact the pipeline emits embeds this digest.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from dataclasses import MISSING, dataclass, fields

from . import extractor, rng
from .errors import FormatError, ParameterError, check_choice, check_fields, check_flags
from .optics import DetectorParams, InterferometerParams, NoiseSwitches
from .phasenoise import LaserParams
from .reconstruction import NORMALIZE_METHODS

_BOOL = {"on": True, "true": True, "yes": True, "1": True,
         "off": False, "false": False, "no": False, "0": False}

# Field annotation -> converter of the stripped INI value.
_CONVERTERS = {float: float, int: int, str: str, bool: lambda text: _BOOL[text.lower()]}


@dataclass(frozen=True)
class AnalysisParams:
    """Knobs for the reconstruction/analysis stage."""

    phase_bits: int = 10
    max_lag: int = 50
    normalize: str = "percentile"     # one of NORMALIZE_METHODS

    def __post_init__(self):
        check_fields(self, "phase_bits", bounds=(1, 16))
        check_fields(self, "max_lag", bounds=(1, None))
        check_choice("normalize method", self.normalize, NORMALIZE_METHODS)


@dataclass(frozen=True)
class ExtractionParams:
    """Toeplitz block geometry and seed sourcing."""

    input_bits: int = 4000
    min_entropy_rate: float = 0.98
    epsilon_exponent: int = extractor.EPSILON_EXPONENT   # epsilon = 2^-x; 0: no margin
    seed_file: str = ""

    def __post_init__(self):
        check_fields(self, "input_bits", bounds=(1, None))
        self.block_bits   # a rate or margin that cannot size m is refused at load
        check_fields(self, "epsilon_exponent", bounds=(0, None))
        check_fields(self, "min_entropy_rate")

    @property
    def block_bits(self) -> tuple[int, int]:
        """Toeplitz block sizes (n, m), m derived from the rate and epsilon_exponent.

        Raises InsufficientEntropyError when the rate cannot fund one output
        bit per block.
        """
        return extractor.derive_params(self.min_entropy_rate, self.input_bits,
                                       self.epsilon_exponent)


@dataclass(frozen=True)
class TestConfig:
    """Battery parameters: sequence geometry, levels, per-test knobs."""

    sequence_bits: int = 1_000_000
    sequence_count: int = 100
    alpha: float = 0.01
    block_frequency_block: int = 128
    serial_pattern_bits: int = 16
    approx_entropy_pattern_bits: int = 10

    def __post_init__(self):
        check_fields(self, "sequence_count", bounds=(1, None))
        if not (0.0 < float(self.alpha) < 1.0):
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        check_fields(self, "alpha")
        check_fields(self, "block_frequency_block", bounds=(2, None))
        check_fields(self, "serial_pattern_bits", bounds=(2, 24))
        check_fields(self, "approx_entropy_pattern_bits", bounds=(1, 20))
        # The largest of the eight tests' own minimum lengths.
        need = max(1000, self.block_frequency_block, 1 << (self.serial_pattern_bits + 2),
                   1 << (self.approx_entropy_pattern_bits + 6))
        check_fields(self, "sequence_bits", bounds=(need, None))

    def proportion_bound(self) -> float:
        """Smallest acceptable pass proportion: 3 sigma below 1 - alpha."""
        p = 1.0 - self.alpha
        return p - 3.0 * math.sqrt(p * (1.0 - p) / self.sequence_count)


@dataclass(frozen=True)
class SimulationParams:
    """Sample geometry, seeding, and the acquisition model."""

    sample_count: int
    sample_rate: float
    seed: int
    adc_quantize: bool = False
    oversample_factor: int = 1        # detector-averaging acquisition model

    def __post_init__(self):
        check_fields(self, "sample_count", bounds=(1, None))
        check_fields(self, "sample_rate")
        object.__setattr__(self, "seed", rng.check_seed(self.seed))
        check_flags(self, "adc_quantize")
        check_fields(self, "oversample_factor", bounds=(1, None))


@dataclass(frozen=True)
class ExperimentConfig:
    laser: LaserParams
    interferometer: InterferometerParams
    detector_i: DetectorParams
    detector_q: DetectorParams
    simulation: SimulationParams
    switches: NoiseSwitches = NoiseSwitches()
    analysis: AnalysisParams = AnalysisParams()
    extraction: ExtractionParams = ExtractionParams()
    test: TestConfig = TestConfig()

    def canonical_text(self) -> str:
        """Deterministic rendering of every resolved field, section by section."""
        lines = []
        for section in fields(self):
            obj = getattr(self, section.name)
            lines.append(f"[{section.name}]")
            lines += [f"{f.name} = {getattr(obj, f.name)!r}" for f in fields(obj)]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _build(name: str, cls, raw: dict[str, str]):
    """``cls`` from the keys of section ``name``.

    Every key read is popped from ``raw``, so what is left there is unknown.
    """
    values = {}
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in raw:
            if f.default is MISSING:
                raise FormatError(f"[{name}] is missing required key {f.name!r}")
            continue
        convert = _CONVERTERS[hints[f.name]]
        text = raw.pop(f.name).strip()
        try:
            values[f.name] = convert(text)
        except (KeyError, ValueError):
            raise FormatError(f"[{name}] key {f.name!r}: cannot parse {text!r}") from None
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"config syntax error: {exc}") from None
    section_types = typing.get_type_hints(ExperimentConfig)
    unknown = sorted(set(parser.sections()) - set(section_types))
    if unknown:
        raise FormatError(f"unknown config sections: {', '.join(unknown)}")
    sections = {}
    for name, cls in section_types.items():
        raw = dict(parser[name]) if parser.has_section(name) else {}
        if name == "detector_q" and not raw:
            # An absent or empty [detector_q] mirrors [detector_i].
            sections[name] = sections["detector_i"]
            continue
        sections[name] = _build(name, cls, raw)
        if raw:
            raise FormatError(f"[{name}] has unknown keys: {', '.join(sorted(raw))}")
    return ExperimentConfig(**sections)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise FormatError(f"config {path!r} is not UTF-8 text") from None
    return parse_config(text)
