"""What importing the performance model costs."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_importing_repro_perf_loads_no_security_or_isa_module():
    """The TLB factories live in the TLB layer, so the timing and area
    models build designs without loading the security evaluator or the
    CPU it drives; a fresh interpreter shows what ``repro.perf`` needs."""
    probe = (
        "import sys\n"
        "import repro.perf\n"
        "heavy = ('repro.security', 'repro.isa')\n"
        "print(sorted(name for name in sys.modules if any("
        "name == package or name.startswith(package + '.')"
        " for package in heavy)))\n"
    )
    source = str(Path(repro.__file__).resolve().parent.parent)
    printed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert printed.strip() == "[]"
