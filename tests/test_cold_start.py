"""Which scipy modules a run loads, each checked in a fresh interpreter.

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

import phaserng

SRC = os.path.dirname(os.path.dirname(os.path.abspath(phaserng.__file__)))
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
output_bits = 3920

[test]
sequence_bits = 4096
sequence_count = 10
serial_pattern_bits = 8
approx_entropy_pattern_bits = 5
"""


def loaded_after(code: str, cwd) -> set:
    """Run ``code`` in a fresh interpreter; return the filter modules it left loaded."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return FILTER_MODULES & set(json.loads(done.stdout.splitlines()[-1]))


def write_ini(tmp_path, extra=""):
    (tmp_path / "qrng.ini").write_text(IDEAL_INI.format(extra=extra), encoding="utf-8")


def test_cli_import_leaves_filter_out(tmp_path):
    assert loaded_after("import phaserng.cli", tmp_path) == set()


def test_ideal_pipeline_leaves_filter_out(tmp_path):
    write_ini(tmp_path)
    code = """
        from phaserng import cli
        assert cli.main(["pipeline", "-c", "qrng.ini", "-o", "out"]) == 0
    """
    assert loaded_after(code, tmp_path) == set()


def test_bandwidth_limited_config_loads_filter(tmp_path):
    write_ini(tmp_path, extra="noise_bandwidth_limit = on\n")
    code = """
        from phaserng import config
        assert config.load_config("qrng.ini").simulation.switches.bandwidth_limit
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
