"""The benchmark tracer still finds every binding it wraps.

``bench/tracing.py`` rebinds methods and module globals of the package by
name, and ``bench/selftest.py`` is not part of this suite.  This test
installs the tracer in a fresh interpreter and checks that the traced
layers record work: every metric it reports is above zero after the
script, so a renamed or deleted binding fails here.  No verb
calls ``schubert.pieri_special`` (the P^1 count sums ballot numbers), so
the script calls it through its module binding, which is the one the
tracer replaces.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, os
import tracing
from tevdeg import cli, schubert

tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["hyp", "--g", "0", "--d", "3", "--e", "3", "--r", "3"]),
        cli.main(["insert", "--g", "0", "--d", "6", "--e", "3", "--r", "3",
                  "--ell", "2,2,2,1,1,1"]),
        cli.main(["p1", "--g", "40", "--d", "43"]),
        cli.main(["qh", "--g", "3", "--d", "6", "--r", "2"]),
        cli.main(["sweep", "--e", "3", "--r", "3", "--g", "0..1", "--d", "1..9",
                  "--out", os.devnull]),
    ]
schubert.pieri_special(3, 0, [1])
print(json.dumps({"codes": codes, "layers": tracer.layer_metrics()}))
"""


def test_tracer_installs_and_records_each_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0, 0, 0]
    zero = [name for name, v in doc["layers"].items() if not v > 0]
    assert zero == []
