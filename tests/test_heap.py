"""The import-time malloc setting: freed heap stays mapped on glibc, and
the package imports unchanged where the setting cannot apply."""

import ctypes
import platform
import subprocess
import sys
import types

import pytest

from stripcoef import _heap
from stripcoef.logcoef import SchwarzSpec, generate_member
from stripcoef.maps import StripParams, p_hat_eval
from stripcoef.verify import audit_member, convexity_probe


# ctypes.CDLL stand-ins for C libraries without glibc's mallopt
def _no_library(name):
    raise OSError(name)


def _no_mallopt(name):
    return types.SimpleNamespace()


def _refusing_mallopt(name):
    # musl's mallopt accepts nothing and returns 0
    return types.SimpleNamespace(mallopt=lambda param, value: 0)


def _faults_per_call(fn, calls=3):
    import resource

    fn()  # warm-up: caches fill and the heap grows to the working set
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_hot_calls_take_no_page_faults():
    # the soundness and convexity items of the benchmark; with glibc's
    # default thresholds they fault in about 2 000 and 200 pages per call
    assert _heap.keep_freed_heap()
    target = StripParams(-1.0, 2.5)
    spec = SchwarzSpec("blaschke-factor", a=0.3 + 0.2j, phi=1.0)

    def soundness_item():
        audit_member(generate_member(target, spec, 14020), target, 0.999, 1024)

    def convexity_item():
        convexity_probe(lambda z: p_hat_eval(target, z), 0.99, 256, order=2048)

    assert _faults_per_call(soundness_item) < 50
    assert _faults_per_call(convexity_item) < 50


@pytest.mark.parametrize("cdll", [_no_library, _no_mallopt, _refusing_mallopt])
def test_reports_not_applied_without_glibc(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert _heap.keep_freed_heap() is False


def test_package_imports_without_glibc():
    child = (
        "import ctypes, numpy\n"
        "def cdll(name):\n"
        "    raise OSError(name)\n"
        "ctypes.CDLL = cdll\n"
        "import stripcoef\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
