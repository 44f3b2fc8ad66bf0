"""Per-layer spans for the benchmark, recorded from outside the program.

The tracer replaces public functions of phaserng with timing wrappers at
their module attributes.  This reaches every call that the program makes
through a module attribute (``pipeline`` calls ``extractor.extract``) or
through a module-global name looked up at call time (the ``stattests``
runners call ``monobit`` and the other tests that way).  A name imported
with ``from module import name`` keeps the original binding, so such
aliases are wrapped where they live (``cli.load_config``).

Each wrapped call becomes a span: name, start, end and the id of the span
that was open when it began.  Spans stay in memory until the traced
operation ends; ``write_spans`` then appends them to a JSON-lines file,
one trace id per operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layer -> functions timed in it.  Every entry yields the metrics
# ``<module>.<fn>.s`` (inclusive seconds) and ``<module>.<fn>.calls``.
TIMED = {
    "pipeline": ("run_pipeline", "simulate_stage", "reconstruct_stage",
                 "analyze_stage", "extract_stage", "test_stage"),
    "config": ("load_config",),
    "phasenoise": ("sample_phase_path",),
    "optics": ("simulate_trace", "boxcar_decimate", "adc_quantize"),
    "traceio": ("write_trace_binary", "read_trace_binary", "atomic_write_bytes"),
    "reconstruction": ("normalize_iq", "reconstruct_phase", "quantize_phase"),
    "analysis": ("Histogram.from_data", "min_entropy", "kld", "autocorrelation"),
    "extractor": ("symbols_to_bits", "extract"),
    "stattests": ("monobit", "block_frequency", "runs", "longest_run",
                  "cumulative_sums", "serial", "approximate_entropy",
                  "dft_spectral", "run_battery"),
}

# Spans that also report ``.self_s``: the span minus its child spans.
SELF_TIMED = ("pipeline.run_pipeline", "pipeline.simulate_stage",
              "pipeline.reconstruct_stage", "pipeline.analyze_stage",
              "pipeline.extract_stage", "pipeline.test_stage")


def _count_clamped(counts, args, result):
    counts["optics.clamped_samples"] += result.clamped_samples


def _count_written(counts, args, result):
    counts["traceio.bytes_written"] += len(args[1])


def _count_zero_vectors(counts, args, result):
    counts["reconstruction.zero_vectors"] += result.zero_vector_count


def _count_extracted(counts, args, result):
    counts["extractor.input_bits"] += args[0].bit_length
    counts["extractor.output_bits"] += result.bits.bit_length
    counts["extractor.discarded_bits"] += result.discarded_bits


def _count_streams(counts, args, result):
    counts["stattests.streams"] += len(result.results)
    counts["stattests.streams_passed"] += sum(r.passed for r in result.results)


# Counters read from a wrapped call's arguments and result.
COUNTERS = {
    "optics.simulate_trace": _count_clamped,
    "traceio.atomic_write_bytes": _count_written,
    "reconstruction.reconstruct_phase": _count_zero_vectors,
    "extractor.extract": _count_extracted,
    "stattests.run_battery": _count_streams,
}

COUNT_NAMES = ("pipeline.artifact_bytes", "optics.clamped_samples",
               "traceio.bytes_written", "reconstruction.zero_vectors",
               "extractor.input_bits", "extractor.output_bits",
               "extractor.discarded_bits", "stattests.streams_passed",
               "stattests.streams")


class Tracer:
    """Wraps library functions and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording spans as ``name``."""
        original = getattr(owner, attr)
        counter = COUNTERS.get(name)
        spans, opened, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": opened[-1] if opened else None,
                    "name": name, "start_ns": time.perf_counter_ns(), "end_ns": None}
            spans.append(span)
            opened.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                opened.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        # A classmethod fetched from its class is already bound to it.
        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)

    def install(self, modules: dict) -> None:
        """Wrap every function in TIMED; ``modules`` maps layer -> module."""
        for layer, functions in TIMED.items():
            for fn in functions:
                owner = modules[layer]
                *path, attr = fn.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self.wrap(owner, attr, f"{layer}.{fn}")

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start_ns"], span["end_ns"]))
        out = []
        for span in self.spans:
            covered, reach = 0, span["start_ns"]
            for start, end in sorted(children[span["id"]]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span["end_ns"] - span["start_ns"] - covered)
        return out

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds, call counts, self seconds and counters."""
        out: dict[str, float] = {}
        for layer, functions in TIMED.items():
            for fn in functions:
                out[f"{layer}.{fn}.s"] = 0.0
                out[f"{layer}.{fn}.calls"] = 0
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = 0.0
        for span, own in zip(self.spans, self.self_ns()):
            name = span["name"]
            out[f"{name}.s"] += (span["end_ns"] - span["start_ns"]) / 1e9
            out[f"{name}.calls"] += 1
            if name in SELF_TIMED:
                out[f"{name}.self_s"] += own / 1e9
        for name in COUNT_NAMES:
            out[name] = self.counts.get(name, 0)
        # Useful-work ratio of the extractor: output bits per input bit.
        if out["extractor.input_bits"]:
            out["extractor.yield"] = out["extractor.output_bits"] / out["extractor.input_bits"]
        else:
            out["extractor.yield"] = 0.0
        return out

    def write_spans(self, path: str, trace_id: str) -> None:
        """Append this operation's spans, with self times, as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_ns()):
                fh.write(json.dumps({"trace": trace_id, **span, "self_ns": own}) + "\n")
