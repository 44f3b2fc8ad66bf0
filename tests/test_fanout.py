"""Every kernel fanned out on ``rng.map_blocks`` gives the 1-CPU bytes on 2 and 3 CPUs.

Each test runs a kernel with ``rng._usable_cpus`` patched to 1, 2 and 3 and
compares the outputs byte for byte.  The inputs are not a whole number of
``rng.SPAN`` long and cross several spans, so a span's edges and the short
last span both run; where an oracle is cheap, the 1-CPU output is also
checked against the whole-array computation.
"""

import inspect
import sys

import numpy as np
import pytest

from phaserng import extractor, optics, phasenoise, reconstruction, rng

#: Crosses three span edges and ends inside a span.
COUNT = 3 * rng.SPAN + 12345
CPUS = (1, 2, 3)


@pytest.fixture
def on_cpus(monkeypatch):
    """``run(f)``: f() on 1, 2 and 3 pretend CPUs, as one list of results.

    A short switch interval makes the threads interleave often.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def run(f):
        results = []
        for cpus in CPUS:
            monkeypatch.setattr(rng, "_usable_cpus", lambda cpus=cpus: cpus)
            results.append(f())
        return results

    try:
        yield run
    finally:
        sys.setswitchinterval(interval)


def assert_same_bytes(results, *fields):
    """Each result's ``fields`` (or the result itself) equal the 1-CPU result's bytes."""
    def parts(result):
        values = [getattr(result, f) for f in fields] if fields else [result]
        return [np.asarray(v).tobytes() for v in values]

    first = parts(results[0])
    for cpus, result in zip(CPUS[1:], results[1:]):
        assert parts(result) == first, f"{cpus} CPUs differ from 1 CPU"


def noisy_trace(count=COUNT, seed=1):
    gen = np.random.default_rng(seed)
    v_i = gen.normal(0.1, 0.7, count)
    v_q = gen.normal(-0.05, 0.6, count)
    return optics.IQTrace(v_i=v_i, v_q=v_q, sample_rate=2e8)


def test_boxcar_decimate(on_cpus):
    trace = noisy_trace()
    for factor in (2, 3, 9):
        results = on_cpus(lambda: optics.boxcar_decimate(trace, factor))
        assert_same_bytes(results, "v_i", "v_q")
        full = COUNT // factor
        want = trace.v_q[:full * factor].reshape(full, factor).mean(axis=1)
        assert results[0].v_q.tobytes() == want.tobytes()


def test_adc_quantize(on_cpus):
    trace = noisy_trace()
    adc = optics.DetectorParams(transimpedance=1.0, adc_bits=8, adc_fullscale=1.5)
    results = on_cpus(lambda: optics.adc_quantize(trace, adc, adc))
    assert_same_bytes(results, "v_i", "v_q", "adc_clipped_i", "adc_clipped_q")
    assert results[0].adc_clipped_i > 0


def test_normalize_iq(on_cpus):
    trace = noisy_trace()
    for method in reconstruction.NORMALIZE_METHODS:
        results = on_cpus(lambda: reconstruction.normalize_iq(trace, method))
        assert_same_bytes(results, "amplitude_i", "amplitude_q")
        assert_same_bytes([r.trace for r in results], "v_i", "v_q")


def test_reconstruct_phase(on_cpus):
    trace = noisy_trace()
    # Exact (0, 0) samples and the +pi branch on both sides of span edges.
    for edge in (rng.SPAN, 2 * rng.SPAN, COUNT - 1):
        trace.v_i[edge - 2:edge + 1] = [0.0, -0.0, -1.0]
        trace.v_q[edge - 2:edge + 1] = [0.0, 0.0, 0.0]
    results = on_cpus(lambda: reconstruction.reconstruct_phase(trace))
    assert_same_bytes(results, "phases", "zero_vector_count")
    want = np.arctan2(trace.v_q, trace.v_i)
    want[want == np.pi] = -np.pi
    want[(trace.v_i == 0.0) & (trace.v_q == 0.0)] = 0.0
    assert results[0].phases.tobytes() == want.tobytes()
    assert results[0].zero_vector_count == 6


def test_quantize_uniform(on_cpus):
    values = np.random.default_rng(2).uniform(-4.0, 4.0, COUNT)
    results = on_cpus(lambda: optics.quantize_uniform(values, 10, -np.pi, np.pi))
    assert_same_bytes(results)
    want = np.clip(np.floor((values + np.pi) * (1024 / (2 * np.pi))), 0, 1023)
    assert results[0].tobytes() == want.astype(np.uint16).tobytes()


def test_extract(on_cpus):
    n, m = 64, 48
    spec = extractor.ToeplitzSpec.from_rng(n, m, seed=6)
    size = 112                                     # next_fast_len(n + m - 1)
    chunk = extractor._CHUNK_BYTES // (size * 4)   # float32 blocks per chunk
    bits = extractor.BitStream.from_bits(rng.random_bits(3 * chunk * n + 1000, 7))
    results = on_cpus(lambda: extractor.extract(bits, spec))
    assert_same_bytes([r.bits for r in results], "data", "bit_length")
    assert results[0].blocks > 3 * chunk
    assert results[0].bits == extractor.extract_naive(bits, spec).bits


class TestPhasePathScatter:
    """The region scaling and scatter split by output sample."""

    LASER = phasenoise.LaserParams(coherence_time=6e-9)
    PERIOD = 2.5e-9

    # Delay over period: a head of 2 (a sample's two gaps are 5 apart), a
    # head of a quarter span (its two gaps are half a span apart), a head
    # longer than a span, and a head of the whole path (no body).
    @pytest.mark.parametrize("ratio", [2.5, rng.SPAN / 4 + 0.5, rng.SPAN + 1000.5, 1e9])
    def test_any_cpu_count_gives_the_same_path(self, on_cpus, ratio):
        results = on_cpus(lambda: phasenoise.sample_phase_path(
            self.LASER, ratio * self.PERIOD, self.PERIOD, COUNT, seed=8))
        assert_same_bytes(results, "increments")

    def test_chunk_edges_off_the_span_edges(self, on_cpus, monkeypatch):
        monkeypatch.setattr(phasenoise, "_CHUNK_GRID_STEPS", (1 << 17) + 3)
        results = on_cpus(lambda: phasenoise.sample_phase_path(
            self.LASER, 7.5 * self.PERIOD, self.PERIOD, COUNT, seed=9))
        assert_same_bytes(results, "increments")

    # Head 2: sample i takes its a-gap 2i - 3 and its b-gap 2i + 2, so the
    # samples near SPAN / 2 have one gap either side of the gap index SPAN.
    # Head SPAN / 4: a sample's two gaps lie half a span apart.
    @pytest.mark.parametrize("ratio, count", [
        (2.5, rng.SPAN + 3), (rng.SPAN / 4 + 0.5, 2 * rng.SPAN + 3)])
    def test_each_sample_is_written_by_one_scatter_item(self, monkeypatch, ratio, count):
        """Within one scatter call, no two items change the same increment.

        Every item runs alone, on one thread, and the increments it changes
        are recorded, so a partition that lets two threads update one sample
        fails here however the threads would have interleaved.
        """
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 1)
        real = rng.map_spans
        calls = []

        def recording(work, stop, start=0):
            if work.__name__ != "scatter":
                return real(work, stop, start)
            increments = inspect.getclosurevars(work).nonlocals["increments"]
            changed = []

            def item(samples):
                before = increments.copy()
                work(samples)
                changed.append(np.flatnonzero(increments != before))

            calls.append(changed)
            return real(item, stop, start)

        monkeypatch.setattr(rng, "map_spans", recording)
        phasenoise.sample_phase_path(
            self.LASER, ratio * self.PERIOD, self.PERIOD, count, seed=10)
        assert max(len(changed) for changed in calls) > 1
        for changed in calls:
            written = np.concatenate(changed)
            assert written.size > 0
            assert np.unique(written).size == written.size, "a sample has two writers"
