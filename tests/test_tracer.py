"""The benchmark's tracer (``perfbench/tracer.py``) installs on the engine.

The tracer looks every method it wraps up as ``cls.__dict__[attr]``, so a
wrapped method moved into a base class makes the install raise.  Because
``install`` rebinds module globals, it runs in a subprocess, which leaves
the engine of this process as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import drasp4, drasp4.cli, tracer
t = tracer.Tracer()
t.install(drasp4, drasp4.cli)
assert drasp4.cli.main(["diamond", "x1^2", "d1"]) == 0
alg = drasp4.reduction_gwa()
u = alg.x(1) + alg.y(2).scaled(alg.t(1))
assert u * u == u ** 2 and (alg.t(1) + alg.t(2)) ** 2
# products read the images of sigma from memos, so apply it once directly
assert alg.sigma(1, alg.t(1))
assert drasp4.AmbientElem.gen("x1").rmul_scalar(drasp4.HA)
# the diamond brackets integer combinations, so the Weyl layer needs its own
assert drasp4.weyl.X1 * drasp4.weyl.D1
stats = tracer.summary(t)["stats"]
for group in ("scalars.add", "scalars.mul", "scalars.shift", "weyl.mul",
              "ambient.mul", "dra.diamond", "gwa.mul", "gwa.sigma",
              "gwa.basepoly_mul", "parser.evaluate", "cli.main.diamond"):
    assert stats.get(group, [0])[0] > 0, group
"""


def test_tracer_installs_and_counts_every_layer():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
