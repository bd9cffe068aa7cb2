"""What the benchmark under ``bench/`` relies on in the package.

``bench/tracing.py`` wraps package functions by name and stops a traced
run on a name that is missing, and the benchmark times the import of
``docalign.pipeline`` as set-up. These tests catch a rename or a heavy
import before a benchmark run does.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    unresolved = []
    for name in _tracing_module().TARGETS:
        module, _, attr = name.partition(".")
        owner = importlib.import_module(f"docalign.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(name)
    assert unresolved == []


def test_pipeline_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, docalign.pipeline; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
