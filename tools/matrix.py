"""Run the interpreter-sensitive test modules on every Python that pyenv
offers, with the running interpreter's pure-Python test packages.

    python3 tools/matrix.py

Run it from a checkout with an interpreter that has click and pytest (the
one tier-1 uses).  The packages in ``PACKAGES`` are pure Python, so they
are linked into a temporary directory and put on ``PYTHONPATH`` for each
other interpreter, with the checkout's ``src/``; nothing is installed or
downloaded.  ``MODULES`` are the tests whose results depend on the
interpreter: the parse, the golden CLI digests and the package's start-up
behaviour.  The modules that check against numpy or scipy cannot run
where neither is installed; each line says so.

One line per interpreter: its version, then pytest's summary, or why
pytest could not start (3.10 also needs ``exceptiongroup`` and
``tomli``) and what the golden-digest module gave under a stand-in for
pytest.  The exit code is 0 when every interpreter ran pytest and passed.
This script is not part of tier-1 or CI.
"""
from __future__ import annotations

import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ("click", "pytest", "_pytest", "py", "pluggy", "iniconfig", "pygments", "packaging")
MODULES = ("tests/test_ingest.py", "tests/test_cli_golden.py", "tests/test_package.py")
ORACLES = ("numpy", "scipy")
OLDEST = (3, 10)  # pyproject's requires-python

# Where pytest cannot start, the golden-digest module runs under a
# stand-in: it needs only ``pytest.mark.parametrize`` and a ``tmp_path``.
GOLDEN = "test_cli_golden"
STUB_PYTEST = """
class _Mark:
    def parametrize(self, names, values):
        def mark(test):
            test.parameters = (names, values)
            return test
        return mark


mark = _Mark()
"""
STUB_RUNNER = f"""
import sys, tempfile, traceback
from pathlib import Path

sys.path.insert(0, "tests")
import {GOLDEN} as module

passed, failed = 0, []
for name, test in vars(module).items():
    if not name.startswith("test_"):
        continue
    names, values = getattr(test, "parameters", (None, [None]))
    for value in values:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                test(Path(tmp), *([] if names is None else [value]))
                passed += 1
            except Exception:
                traceback.print_exc()
                failed.append(name)
print(f"{{passed}} passed, {{len(failed)}} failed" + "".join(f"; {{name}}" for name in failed))
sys.exit(1 if failed else 0)
"""


def pyenv_interpreters() -> list[Path]:
    """The python of each pyenv version from ``OLDEST`` on."""
    if shutil.which("pyenv") is None:
        return []
    query = ["pyenv", "root"], ["pyenv", "versions", "--bare"]
    root, versions = (subprocess.run(args, capture_output=True, text=True).stdout for args in query)
    found = []
    for version in versions.split():
        parts = re.match(r"(\d+)\.(\d+)\.\d+$", version)
        python = Path(root.strip()) / "versions" / version / "bin" / "python"
        if parts and tuple(map(int, parts.groups())) >= OLDEST and python.is_file():
            found.append(python)
    return found


def link_packages(target: Path) -> None:
    """Link each of ``PACKAGES`` as this interpreter imports it into ``target``."""
    for name in PACKAGES:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            sys.exit(f"{name} is not importable by {sys.executable}; run this with the tier-1 interpreter")
        origin = Path(spec.origin)
        source = origin.parent if origin.name == "__init__.py" else origin
        (target / source.name).symlink_to(source)


def run_modules(python: Path, packages: Path) -> tuple[bool, str]:
    """Whether ``MODULES`` passed under ``python``, and the line that says so."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(packages)])}
    env.pop("PYTHONHOME", None)
    version = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"], capture_output=True, text=True, env=env
    ).stdout.strip()
    missing = [name for name in ORACLES if subprocess.run([python, "-c", f"import {name}"], capture_output=True).returncode]
    oracles = f"; numpy-oracle modules not run: no {' or '.join(missing)}" if missing else ""
    started = subprocess.run([python, "-c", "import pytest"], capture_output=True, text=True, env=env)
    if started.returncode:
        reason = (started.stderr.strip().splitlines() or ["no error text"])[-1]
        with tempfile.TemporaryDirectory(prefix="markprep-stub-") as stub:
            (Path(stub) / "pytest.py").write_text(STUB_PYTEST, encoding="utf-8")
            stub_env = {**env, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), stub, str(packages)])}
            golden = subprocess.run([python, "-c", STUB_RUNNER], capture_output=True, text=True, env=stub_env, cwd=ROOT)
        summary = (golden.stdout.strip().splitlines() or [f"no output, exit code {golden.returncode}"])[-1]
        return False, (
            f"{version}: pytest cannot start ({reason}); tests/{GOLDEN}.py alone under a stub pytest: {summary}{oracles}"
        )
    result = subprocess.run(
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *MODULES],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    lines = result.stdout.strip().splitlines() or ["no output"]
    failed = [line.removeprefix("FAILED ") for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = lines[-1].strip("= ") + "".join(f"; {name}" for name in failed)
    return result.returncode == 0, f"{version}: {summary}{oracles}"


def main() -> int:
    interpreters = pyenv_interpreters()
    if not interpreters:
        sys.exit("no interpreter found: pyenv is not on PATH or offers no Python 3.10+")
    passed = True
    with tempfile.TemporaryDirectory(prefix="markprep-matrix-") as packages:
        link_packages(Path(packages))
        for python in interpreters:
            ok, line = run_modules(python, Path(packages))
            passed &= ok
            print(line, flush=True)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
