"""Which scipy modules a run loads, each checked in a fresh interpreter.

The CLI, the config and a staged ``simulate`` or ``ingest`` run on numpy
alone: ``scipy.fft`` and ``scipy.special`` cost about 0.3 s to import, and
``pipeline`` imports ``analysis`` and ``stattests``, which load them, inside
the stages that use them; ``extractor`` imports ``scipy.fft`` inside
``extract``.  ``analysis`` and ``stattests`` themselves keep their scipy
imports at module level, so the benchmarked sweep and battery pay them in
their set-up, not in their timed loop.

``scipy.signal`` (and the ``scipy.stats`` it pulls in) takes about a second
to import and serves only the detector-bandwidth filter.  An ideal device
must never load it; a bandwidth-limited one loads it when its switches are
built.  A fresh process per check keeps this test process's own imports
from masking the answer.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import phaserng
from phaserng import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(phaserng.__file__)))
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
FILTER_MODULES = {"scipy.signal", "scipy.stats"}

IDEAL_INI = """\
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
{extra}
[extraction]
input_bits = 4000
min_entropy_rate = 0.98
mode = ratio

[test]
sequence_bits = 4096
sequence_count = 10
serial_pattern_bits = 8
approx_entropy_pattern_bits = 5
"""


def loaded_after(code: str, cwd) -> set:
    """Run ``code`` in a fresh interpreter; return the scipy modules it left loaded."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def write_ini(tmp_path, extra=""):
    (tmp_path / "qrng.ini").write_text(IDEAL_INI.format(extra=extra), encoding="utf-8")


def test_cli_import_leaves_scipy_out(tmp_path):
    assert loaded_after("import phaserng.cli", tmp_path) == set()


def test_quick_start_config_leaves_scipy_out(tmp_path):
    with open(README, encoding="utf-8") as fh:
        ini = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "qrng.ini").write_text(ini, encoding="utf-8")
    code = """
        from phaserng import config
        assert config.load_config("qrng.ini").simulation.sample_count == 1_000_000
    """
    assert loaded_after(code, tmp_path) == set()


@pytest.mark.parametrize("stage", ["simulate", "ingest"])
def test_staged_trace_source_leaves_scipy_out(tmp_path, stage):
    write_ini(tmp_path)
    args = ["simulate", "-c", "qrng.ini", "-o", "out"]
    if stage == "ingest":
        assert cli.main(["simulate", "-c", str(tmp_path / "qrng.ini"),
                         "-o", str(tmp_path / "capture")]) == 0
        args = ["ingest", "-c", "qrng.ini", "-o", "out", "--input", "capture/trace.iqt"]
    code = f"""
        from phaserng import cli
        assert cli.main({args!r}) == 0
    """
    assert loaded_after(code, tmp_path) == set()
    assert (tmp_path / "out" / "trace.iqt").exists()


@pytest.mark.parametrize("module, needed", [
    ("phaserng.analysis", {"scipy.fft", "scipy.special"}),
    ("phaserng.stattests", {"scipy.special"}),
])
def test_benchmarked_modules_load_scipy_at_import(tmp_path, module, needed):
    """The sweep imports ``analysis`` and the battery ``stattests`` in their
    set-up; a lazy import there would move this cost into the timed loop."""
    assert needed <= loaded_after(f"import {module}", tmp_path)


def test_ideal_pipeline_leaves_filter_out(tmp_path):
    write_ini(tmp_path)
    code = """
        from phaserng import cli
        assert cli.main(["pipeline", "-c", "qrng.ini", "-o", "out"]) == 0
    """
    assert FILTER_MODULES & loaded_after(code, tmp_path) == set()


def test_bandwidth_limited_config_loads_filter(tmp_path):
    write_ini(tmp_path, extra="\n[switches]\nbandwidth_limit = on\n")
    code = """
        from phaserng import config
        assert config.load_config("qrng.ini").switches.bandwidth_limit
    """
    assert "scipy.signal" in loaded_after(code, tmp_path)


def test_bandwidth_limited_switches_load_filter(tmp_path):
    code = """
        from phaserng.optics import NoiseSwitches
        NoiseSwitches(bandwidth_limit=True)
    """
    assert "scipy.signal" in loaded_after(code, tmp_path)


def test_filter_runs_for_switches_built_without_init(tmp_path):
    """simulate_trace imports lfilter itself, whatever built its switches."""
    code = """
        import sys
        from dataclasses import fields
        import numpy as np
        from phaserng import optics, phasenoise

        bypassed = object.__new__(optics.NoiseSwitches)
        for f in fields(optics.NoiseSwitches):
            object.__setattr__(bypassed, f.name, f.name == "bandwidth_limit")
        assert "scipy.signal" not in sys.modules
        laser = phasenoise.LaserParams(coherence_time=6e-9)
        ifm = optics.InterferometerParams(delay_length=6.0)
        det = optics.DetectorParams(transimpedance=16e3, response_time=2e-9)
        path = phasenoise.sample_phase_path(laser, ifm.delay_time, 5e-9, 2000, seed=3)
        got = optics.simulate_trace(path, laser, ifm, det, det, switches=bypassed)
        want = optics.simulate_trace(path, laser, ifm, det, det,
                                     switches=optics.NoiseSwitches(bandwidth_limit=True))
        plain = optics.simulate_trace(path, laser, ifm, det, det)
        assert np.array_equal(got.v_i, want.v_i) and np.array_equal(got.v_q, want.v_q)
        assert not np.array_equal(got.v_i, plain.v_i)
    """
    assert "scipy.signal" in loaded_after(code, tmp_path)
