"""What every benchmark record carries about the code and the machine."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

__all__ = ["cap_threads", "describe_host"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at ``nproc`` and keep solves unsharded.

    Must run before NumPy is imported: the pools size themselves once.
    """
    nproc = _nproc()
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    os.environ["MCSS_SHARD_WORKERS"] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(root: Path, *args: str) -> str:
    result = subprocess.run(
        ["git", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return result.stdout.strip()


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def describe_host(root: Path) -> dict:
    import numpy

    info = {
        "git_sha": None,
        "git_dirty": None,
        "src_sha256": _source_digest(root / "src"),
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "shard_workers": os.environ.get("MCSS_SHARD_WORKERS"),
    }
    if (root / ".git").exists():
        try:
            info["git_sha"] = _git(root, "rev-parse", "HEAD")
            info["git_dirty"] = bool(
                _git(root, "status", "--porcelain", "--", "src", "perfbench")
            )
        except (OSError, subprocess.SubprocessError):
            pass
    return info
