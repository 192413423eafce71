"""numpy is the only runtime dependency: a certificate must not pull in
scipy, even where scipy happens to be installed."""

import os
import subprocess
import sys

import surfcert

SCRIPT = """
import math, sys
from surfcert import build_scene, embeddedness_certificate
scene = build_scene("cap", res=16)
cert = embeddedness_certificate(scene.surface, scene.boundaries, math.inf, which="full")
assert cert.status == "satisfied", cert.status
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_a_certificate_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfcert.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
