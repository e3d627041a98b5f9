"""Calibrate a service worker between its cells, from outside its code.

The benchmark puts this directory on the ``PYTHONPATH`` of the job
server it starts, and the server's workers inherit it, so Python imports
this module at start-up in both.  It acts only where
``PERFBENCH_CALIBRATION_LOG`` is set and only in a worker process
(``repro/service/workers.py``): there it wraps ``sys.stdout``, and each
time the worker is about to announce that it is ready or that a cell is
done it first runs the calibration loop of ``perfbench/calibration.py``
on the wall clock and appends one line to the log::

    {"event": "done", "key": "<cell key>", "wall": 0.041, "calibration_s": 0.0038}

The loop runs between cells, in the thread that simulates them, which
is what lets ``run.py`` restate the service's wall times in reference
seconds.  The worker's own events pass through unchanged.
"""

import importlib.util
import json
import os
import sys
import time

_LOG = os.environ.get("PERFBENCH_CALIBRATION_LOG")
_WORKER = os.path.join("service", "workers.py")


def _load_calibration():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "calibration.py")
    spec = importlib.util.spec_from_file_location("perfbench_calibration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CalibratingStdout:
    """``sys.stdout`` that calibrates before each ``ready`` or ``done`` event."""

    def __init__(self, stream, log_path: str) -> None:
        self._stream = stream
        self._log_path = log_path
        self._calibration = None

    def write(self, text: str) -> int:
        if ('"event": "done"' in text or '"event": "ready"' in text) and (
            sys.argv[0].endswith(_WORKER)
        ):
            self._log(json.loads(text))
        return self._stream.write(text)

    def _log(self, event: dict) -> None:
        if self._calibration is None:
            self._calibration = _load_calibration()
        entry = {
            "event": event["event"],
            "key": event.get("key"),
            "wall": event.get("wall"),
            "calibration_s": self._calibration.calibrate(time.perf_counter),
        }
        with open(self._log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")

    def __getattr__(self, name):
        return getattr(self._stream, name)


if _LOG:
    sys.stdout = _CalibratingStdout(sys.stdout, _LOG)
