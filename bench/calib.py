"""Calibration kernels that track the host's momentary speed.

Shared hosts change speed by tens of percent within seconds, and thread CPU
time moves with wall time, so raw op times from one run to the next spread
far more than a change worth detecting. An op's time divided by the time of a
fixed kernel measured right next to it moves much less, provided the kernel
does the same kind of work as the op:

* "small": Python bytecode around 8x8 numpy calls, like the eigen, dp and
  criteria code;
* "stream": numpy passes over arrays of a few MB, like the sign-search chunks
  and the Monte Carlo draws;
* "mixed": both, one after the other.

The benchmark reports op time * NOMINAL_S[kind] / kernel time: seconds on a
host where the kernel takes NOMINAL_S[kind].

Set-up time is mostly imports, which none of these kernels resembles; it is
scaled by the time the same interpreter takes to import IMPORT_PROBE, stdlib
modules that neither infdiv nor numpy loads.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"small": 5e-4, "stream": 2e-3, "mixed": 2.5e-3, "imports": 0.08}
IMPORT_PROBE = ("email.mime.multipart", "http.cookiejar", "xml.dom.minidom",
                "unittest.mock", "pydoc", "smtplib", "ftplib", "mailbox",
                "plistlib", "configparser")

_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_M = (_M + _M.T) / 2.0 + 8.0 * np.eye(8)
_VEC = np.linspace(0.0, 1.0, 1 << 18)
_CUBE = np.linspace(-1.0, 1.0, 2048 * 256).reshape(2048, 16, 16)


def _small() -> float:
    acc = np.eye(8)
    total = 0.0
    for i in range(40):
        acc = acc @ _M
        acc = acc / np.abs(acc).max()
        total += float(np.trace(acc[:4, :4]))
        for j in range(25):
            total += (i * j) % 7
    return total


def _stream() -> float:
    return float(np.exp(-3.0 * _VEC).sum()) + float(
        (_CUBE * _CUBE[0] <= 0.5).all(axis=(1, 2)).sum())


def _mixed() -> float:
    return _small() + _stream()


KERNELS = {"small": _small, "stream": _stream, "mixed": _mixed}


def kernel_seconds(kind: str) -> float:
    """One timing of the kernel."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def calibrated(times: list, kernel_times: list, kind: str, half_window: int = 4) -> list:
    """times[i] scaled by the median kernel time around it.

    kernel_times[i] is taken just before times[i] and kernel_times[i + 1]
    just after, so len(kernel_times) == len(times) + 1. A single kernel
    timing is noisy; the median of the 2 * half_window + 2 nearest ones
    follows changes of host speed over a fraction of a second."""
    out = []
    for i, t in enumerate(times):
        window = sorted(kernel_times[max(0, i - half_window): i + half_window + 2])
        out.append(t * NOMINAL_S[kind] / window[len(window) // 2])
    return out
