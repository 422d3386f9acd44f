"""Run a probe under each OpenBLAS core type, one interpreter per type.

OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when numpy loads it, so each
kernel needs its own interpreter. The probe runs with ``src`` and this
directory on its path, so it can import quadkit and the test modules.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import quadkit


def uses_openblas() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def run_under_each_kernel(probe: str, coretypes) -> dict[str | None, str]:
    """The stdout of ``python -c probe`` under each core type (None: unset)."""
    path = os.pathsep.join([str(Path(quadkit.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    outputs = {}
    for coretype in coretypes:
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        outputs[coretype] = out.stdout.strip()
    return outputs
