"""Python, and the command line, in a fresh interpreter as a shell runs them: in
development mode, an unclosed file an error, the package under test first on
the path, and UTF-8 on stdout and stderr; and the files such a run wrote."""

import os
import subprocess
import sys
from pathlib import Path

import corefkg

#: the directory that holds the package under test
PACKAGE_ROOT = str(Path(corefkg.__file__).resolve().parent.parent)
#: held to the lowest CPU it may run on, the child runs the command line as ``-m`` runs it
_ON_ONE_CPU = ("import os, runpy\n"
               "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               "runpy.run_module('corefkg.cli', run_name='__main__', alter_sys=True)\n")


def run_python(*args, cwd=None, hash_seed: str | None = None) -> subprocess.CompletedProcess:
    """The exit status, stdout and stderr (bytes) of ``python *args``."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           *map(str, args)], cwd=cwd, env=env, capture_output=True, timeout=300)


def run_cli(*argv, cwd=None, hash_seed: str | None = None, one_cpu: bool = False):
    """``run_python`` of ``-m corefkg.cli *argv``, on one CPU if ``one_cpu``."""
    main = ("-c", _ON_ONE_CPU) if one_cpu else ("-m", "corefkg.cli")
    return run_python(*main, *argv, cwd=cwd, hash_seed=hash_seed)


def files(root, prefix: str = "") -> dict:
    """The text of each file under ``root``, by relative path after ``prefix``."""
    return {prefix + p.relative_to(root).as_posix(): p.read_bytes().decode("utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}
