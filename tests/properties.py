"""Shared property checks: each function raises AssertionError on failure.

These are exercised individually by the per-module test files and together
by the acceptance suite, which treats one green sweep of all six families
as a single criterion.
"""

import os

import numpy as np

from phaserng import (analysis, config as cfg_mod, extractor, pipeline,
                      reconstruction, rng, stattests, traceio)
from phaserng.optics import IQTrace


def check_quantizer(seed=0, rounds=200):
    """Totality and monotonicity of the uniform quantizer."""
    gen = np.random.default_rng(seed)
    for _ in range(rounds):
        n_bits = int(gen.integers(1, 17))
        lo, hi = np.sort(gen.normal(scale=5.0, size=2))
        if hi - lo < 1e-6:
            hi = lo + 1.0
        values = np.concatenate([
            gen.normal(scale=10.0, size=500),
            np.array([lo, hi, lo - 100.0, hi + 100.0,
                      np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])])
        codes = reconstruction.quantize_uniform(values, n_bits, lo, hi)
        assert codes.dtype == np.uint16
        assert codes.min() >= 0 and codes.max() <= (1 << n_bits) - 1
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(codes[order].astype(np.int32)) >= 0)


def check_reconstruction_identity(seed=1, count=20_000):
    """atan2 of (cos, sin) of any phase returns that phase, wrapped."""
    gen = np.random.default_rng(seed)
    phases = gen.uniform(-np.pi, np.pi, count)
    amplitude = np.exp(gen.normal(size=count))   # any positive envelope
    trace = IQTrace(v_i=amplitude * np.cos(phases),
                    v_q=amplitude * np.sin(phases), sample_rate=1.0)
    series = reconstruction.reconstruct_phase(trace)
    np.testing.assert_allclose(series.phases, phases, atol=1e-9)


def check_extractor_linearity(seed=2, rounds=50):
    """extract(x ^ y) == extract(x) ^ extract(y) and matches the dense oracle."""
    gen = np.random.default_rng(seed)
    for _ in range(rounds):
        n = int(gen.integers(8, 200))
        m = int(gen.integers(1, n + 1))
        spec = extractor.ToeplitzSpec(
            input_block_bits=n, output_block_bits=m,
            seed_bits=gen.integers(0, 2, n + m - 1).astype(np.uint8))
        x = extractor.BitStream.from_bits(gen.integers(0, 2, n).astype(np.uint8))
        y = extractor.BitStream.from_bits(gen.integers(0, 2, n).astype(np.uint8))
        xy = extractor.BitStream.from_bits(x.to_bits() ^ y.to_bits())
        ex = extractor.extract(x, spec).bits.to_bits()
        ey = extractor.extract(y, spec).bits.to_bits()
        exy = extractor.extract(xy, spec).bits.to_bits()
        np.testing.assert_array_equal(exy, ex ^ ey)
        np.testing.assert_array_equal(
            ex, extractor.extract_naive(x, spec).bits.to_bits())


def check_pvalue_ranges(seed=3, rounds=40):
    """Every implemented test maps arbitrary bias levels into [0, 1]."""
    gen = np.random.default_rng(seed)
    config = stattests.TestConfig(sequence_bits=2048, sequence_count=1,
                                  serial_pattern_bits=5,
                                  approx_entropy_pattern_bits=3)
    for _ in range(rounds):
        bias = gen.uniform(0.05, 0.95)
        b = (gen.random(2048) < bias).astype(np.uint8)
        for name, p in zip(stattests.STREAMS, stattests.run_sequence(b, config)):
            assert 0.0 <= p <= 1.0, (name, bias, p)


def check_trace_roundtrips(tmpdir, seed=4, rounds=25):
    """Binary and CSV serialization preserve every finite float32 sample,
    and the packed bits handed from reconstruct to extract preserve every
    symbol at its width."""
    gen = np.random.default_rng(seed)
    for k in range(rounds):
        count = int(gen.integers(1, 500))
        v_i = gen.normal(scale=0.1, size=count).astype(np.float32)
        v_q = gen.normal(scale=0.1, size=count).astype(np.float32)
        trace = IQTrace(v_i=v_i, v_q=v_q, sample_rate=float(gen.uniform(1, 1e10)))
        back = traceio.decode_trace(traceio.encode_trace(trace))
        np.testing.assert_array_equal(back.v_i, trace.v_i)
        np.testing.assert_array_equal(back.v_q, trace.v_q)
        assert back.sample_rate == trace.sample_rate
        path = os.path.join(str(tmpdir), "roundtrip.csv")
        traceio.write_trace_csv(trace, path)
        csv_back = traceio.read_trace_csv(path, sample_rate=trace.sample_rate)
        np.testing.assert_array_equal(csv_back.v_i, trace.v_i)
        np.testing.assert_array_equal(csv_back.v_q, trace.v_q)
        bits = int(gen.integers(1, 17))
        stream = reconstruction.SymbolStream(
            symbols=gen.integers(0, 1 << bits, count), bits_per_symbol=bits)
        packed = extractor.symbols_to_bits(stream)
        handoff = extractor.BitStream(data=packed.data, bit_length=packed.bit_length)
        assert handoff.bit_length == count * bits
        weights = 1 << np.arange(bits - 1, -1, -1)
        sym_back = handoff.to_bits().reshape(count, bits).astype(np.int64) @ weights
        np.testing.assert_array_equal(sym_back, stream.symbols)


_PIPELINE_INI = """\
[laser]
coherence_time = 6e-9

[interferometer]
delay_length = 6.0

[detector_i]
transimpedance = 16e3

[simulation]
sample_count = 20000
sample_rate = 200e6
seed = 77

[extraction]
input_bits = 4000
min_entropy_rate = 0.98
epsilon_exponent = 0
"""


def check_pipeline_determinism(tmpdir):
    """Two runs of the same configuration emit byte-identical artifacts."""
    cfg = cfg_mod.parse_config(_PIPELINE_INI)
    stages = ["simulate", "reconstruct", "extract"]
    outs = []
    for name in ("first", "second"):
        outdir = os.path.join(str(tmpdir), name)
        summary = pipeline.run_pipeline(cfg, stages, outdir)
        outs.append((outdir, summary))
    (dir_a, sum_a), (dir_b, sum_b) = outs
    assert sum_a == sum_b
    for name in pipeline.ARTIFACTS.values():
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        assert os.path.exists(path_a) == os.path.exists(path_b)
        if os.path.exists(path_a):
            assert open(path_a, "rb").read() == open(path_b, "rb").read(), name


def run_all(tmpdir):
    check_quantizer()
    check_reconstruction_identity()
    check_extractor_linearity()
    check_pvalue_ranges()
    check_trace_roundtrips(tmpdir)
    check_pipeline_determinism(tmpdir)
