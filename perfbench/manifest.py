"""The run manifest: what was measured, on what, with which settings."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict


def source_digest(*roots: Path) -> str:
    """SHA-256 over every ``.py`` file under ``roots`` (path and bytes).

    The benchmark may run from a checkout that is not a git repository,
    so the revision is identified by content.
    """
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_config() -> Dict[str, Any]:
    """numpy's BLAS build record (name, version, threading)."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        return {}
    return dict(config.get("Build Dependencies", {}).get("blas", {}))


def build(args: Any, src: Path, bench: Path) -> Dict[str, Any]:
    """The manifest for one run."""
    import numpy as np

    from repro.sim import fastpath

    return {
        "revision": source_digest(src / "repro", bench),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "thread_caps": {
            var: os.environ.get(var)
            for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            )
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "fastpath": fastpath.enabled(),
        "machine": platform.machine(),
    }
