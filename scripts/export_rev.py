"""Export one commit of this repository into a directory with `git archive`.

Shared by the scripts that compare a commit with the working tree; nothing is
registered in the repository's .git (no worktree).
"""

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_rev(rev: str, dest: Path) -> str:
    """Extract the files of commit `rev` into `dest`; returns the commit's full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha
