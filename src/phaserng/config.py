"""Experiment configuration: strict INI parsing and content digests.

Grammar: INI sections ``[laser]``, ``[interferometer]``, ``[detector_i]``,
``[detector_q]``, ``[simulation]``, ``[analysis]``, ``[extraction]``,
``[test]``, each backed by one section dataclass (``_SECTIONS``).  A
section's keys, their defaults and their types are that dataclass's fields:
a field's default is the key's default, a field without one is a required
key, and its annotation (float, int, str or bool) picks the converter.  Two
special cases: the ``NoiseSwitches`` fields are ``[simulation]`` keys with
the ``noise_`` prefix, and an absent or empty ``[detector_q]`` mirrors
``[detector_i]``.  An unknown section or key is an error (fail-fast against
typos), as is a missing required key.  Booleans accept on/off, true/false,
yes/no, 1/0.  ``#`` and ``;`` start comments.

The digest is a sha256 over a canonical rendering of the *resolved*
configuration, so two files that spell the same experiment differently
(ordering, comments, defaults made explicit) share a digest.  Every
artifact the pipeline emits embeds this digest.
"""

from __future__ import annotations

import configparser
import hashlib
import typing
from dataclasses import MISSING, dataclass, fields

from . import extractor
from .errors import FormatError, ParameterError
from .optics import DetectorParams, InterferometerParams, NoiseSwitches
from .phasenoise import LaserParams
from .stattests import TestConfig

_BOOL = {"on": True, "true": True, "yes": True, "1": True,
         "off": False, "false": False, "no": False, "0": False}

# Field annotation -> converter of the stripped INI value.
_CONVERTERS = {float: float, int: int, str: str, bool: lambda text: _BOOL[text.lower()]}


@dataclass(frozen=True)
class AnalysisParams:
    """Knobs for the reconstruction/analysis stage."""

    phase_bits: int = 10
    histogram_bins: int = 256
    max_lag: int = 50
    normalize: str = "percentile"     # or "arcsine-fit"

    def __post_init__(self):
        if not (1 <= int(self.phase_bits) <= 16):
            raise ParameterError(f"phase_bits must be in [1, 16], got {self.phase_bits}")
        if int(self.histogram_bins) < 2:
            raise ParameterError("histogram_bins must be >= 2")
        if int(self.max_lag) < 1:
            raise ParameterError("max_lag must be >= 1")
        if self.normalize not in ("percentile", "arcsine-fit"):
            raise ParameterError(f"unknown normalize method {self.normalize!r}")


@dataclass(frozen=True)
class ExtractionParams:
    """Toeplitz block geometry and seed sourcing."""

    input_bits: int = 4000
    output_bits: int = 0              # 0 = derive from rate/mode
    min_entropy_rate: float = 0.98
    epsilon_exponent: int = 50
    mode: str = "lemma"               # or "ratio"
    seed_file: str = ""

    def __post_init__(self):
        if int(self.input_bits) < 1:
            raise ParameterError("input_bits must be >= 1")
        if int(self.output_bits) < 0:
            raise ParameterError("output_bits must be >= 0")
        if not (0.0 < float(self.min_entropy_rate) <= 1.0):
            raise ParameterError("min_entropy_rate must be in (0, 1]")
        if int(self.epsilon_exponent) < 1:
            raise ParameterError("epsilon_exponent must be >= 1")
        if self.mode not in ("lemma", "ratio"):
            raise ParameterError(f"unknown extraction mode {self.mode!r}")
        n, m = self.block_bits
        if m > n:
            raise ParameterError(f"output_bits must be <= input_bits, got m={m} > n={n}")

    @property
    def block_bits(self) -> tuple[int, int]:
        """Toeplitz block sizes (n, m): m as given, or derived from the rate.

        Deriving m raises InsufficientEntropyError when the rate cannot fund
        one output bit per block.
        """
        if self.output_bits:
            return self.input_bits, self.output_bits
        return extractor.derive_params(self.min_entropy_rate, self.input_bits,
                                       epsilon=2.0 ** -self.epsilon_exponent,
                                       mode=self.mode)


@dataclass(frozen=True)
class SimulationParams:
    """Sample geometry, seeding, and model switches."""

    sample_count: int
    sample_rate: float
    seed: int
    switches: NoiseSwitches = NoiseSwitches()
    adc_quantize: bool = False
    oversample_factor: int = 1        # detector-averaging acquisition model

    def __post_init__(self):
        if int(self.sample_count) < 1:
            raise ParameterError("sample_count must be >= 1")
        if not (self.sample_rate > 0.0):
            raise ParameterError("sample_rate must be positive")
        if int(self.oversample_factor) < 1:
            raise ParameterError("oversample_factor must be >= 1")


_SECTIONS = (("laser", LaserParams), ("interferometer", InterferometerParams),
             ("detector_i", DetectorParams), ("detector_q", DetectorParams),
             ("simulation", SimulationParams), ("analysis", AnalysisParams),
             ("extraction", ExtractionParams), ("test", TestConfig))


@dataclass(frozen=True)
class ExperimentConfig:
    laser: LaserParams
    interferometer: InterferometerParams
    detector_i: DetectorParams
    detector_q: DetectorParams
    simulation: SimulationParams
    analysis: AnalysisParams = AnalysisParams()
    extraction: ExtractionParams = ExtractionParams()
    test: TestConfig = TestConfig()

    def canonical_text(self) -> str:
        """Deterministic rendering of every resolved field, section by section.

        The noise switches render as their own ``[switches]`` block after
        ``[simulation]``.
        """
        blocks = []
        for name, _ in _SECTIONS:
            blocks.append((name, getattr(self, name)))
            if name == "simulation":
                blocks.append(("switches", self.simulation.switches))
        lines = []
        for name, obj in blocks:
            lines.append(f"[{name}]")
            lines += [f"{f.name} = {getattr(obj, f.name)!r}"
                      for f in fields(obj) if f.name != "switches"]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _build(name: str, cls, raw: dict[str, str], prefix: str = "", given=None):
    """``cls`` from the keys ``prefix + field`` of section ``name``.

    Fields in ``given`` are taken from it, not read.  Every key read is
    popped from ``raw``, so what is left there is unknown.
    """
    values = dict(given or {})
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        key = prefix + f.name
        if f.name in values:
            continue
        if key not in raw:
            if f.default is MISSING:
                raise FormatError(f"[{name}] is missing required key {key!r}")
            continue
        convert = _CONVERTERS[hints[f.name]]
        text = raw.pop(key).strip()
        try:
            values[f.name] = convert(text)
        except (KeyError, ValueError):
            raise FormatError(f"[{name}] key {key!r}: cannot parse {text!r}") from None
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"config syntax error: {exc}") from None
    unknown = sorted(set(parser.sections()) - {name for name, _ in _SECTIONS})
    if unknown:
        raise FormatError(f"unknown config sections: {', '.join(unknown)}")
    sections = {}
    for name, cls in _SECTIONS:
        raw = dict(parser[name]) if parser.has_section(name) else {}
        if name == "detector_q" and not raw:
            # An absent or empty [detector_q] mirrors [detector_i].
            sections[name] = sections["detector_i"]
            continue
        given = {}
        if cls is SimulationParams:
            # The NoiseSwitches fields are [simulation] keys with a noise_ prefix.
            given["switches"] = _build(name, NoiseSwitches, raw, prefix="noise_")
        sections[name] = _build(name, cls, raw, given=given)
        if raw:
            raise FormatError(f"[{name}] has unknown keys: {', '.join(sorted(raw))}")
    return ExperimentConfig(**sections)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
