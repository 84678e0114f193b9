"""Host fingerprint recorded with every result.

Numbers from different hosts are never compared: ``compare.py`` refuses a
baseline whose :data:`HOST_KEYS` differ from the candidate's.  The source
identity (git commit when the checkout is a repository, and always a
digest of ``src/``) says which program produced the numbers.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

#: Fields that must match for two results to be comparable.
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> Dict[str, object]:
    """CPU model, ``nproc``, Python, numpy, git commit and source digest."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
    }


def same_host(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Whether two fingerprints come from the same host setup."""
    return all(a.get(key) == b.get(key) for key in HOST_KEYS)
