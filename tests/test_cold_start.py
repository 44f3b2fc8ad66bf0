"""No run loads a scipy module, each checked in a fresh interpreter.

The package computes with numpy and the standard library alone: the
transforms are ``numpy.fft``'s and the tails ``math``'s, so importing
``scipy.fft`` and ``scipy.special`` (about 0.3 s and 27 MB) is left to the
tests that use them as oracles.  The detector-bandwidth filter is numpy's
too, so a bandwidth-limited device loads and simulates without
``scipy.signal``.  The CLI, the config, the modules the benchmark imports
in its set-up, a staged ``simulate`` or ``ingest``, and a full
``pipeline`` run are each checked.  A fresh process
per check keeps this test process's own imports, scipy's among them, from
masking the answer.
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
epsilon_exponent = 0

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
    ("phaserng.analysis", set()),
    ("phaserng.stattests", set()),
])
def test_benchmarked_modules_load_scipy_at_import(tmp_path, module, needed):
    """The sweep imports ``analysis`` and the battery ``stattests`` in their
    set-up; the scipy modules each loads there are exactly ``needed``, now
    none, and neither imports anything lazily inside its timed work."""
    assert loaded_after(f"import {module}", tmp_path) == needed


def test_ideal_pipeline_leaves_filter_out(tmp_path):
    """A full ``pipeline`` run leaves no scipy module loaded: neither the
    filter's ``scipy.signal`` and ``scipy.stats`` nor any other."""
    write_ini(tmp_path)
    code = """
        from phaserng import cli
        assert cli.main(["pipeline", "-c", "qrng.ini", "-o", "out"]) == 0
    """
    assert loaded_after(code, tmp_path) == set()
    assert (tmp_path / "out" / "test_report.json").exists()


def test_bandwidth_limited_device_simulates_without_scipy(tmp_path):
    write_ini(tmp_path, extra="\n[switches]\nbandwidth_limit = on\n")
    code = """
        from phaserng import cli, config
        assert config.load_config("qrng.ini").switches.bandwidth_limit
        assert cli.main(["simulate", "-c", "qrng.ini", "-o", "out"]) == 0
    """
    assert loaded_after(code, tmp_path) == set()
    assert (tmp_path / "out" / "trace.iqt").exists()
