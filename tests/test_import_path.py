"""optiq runs on numpy alone: it never imports scipy, which only the tests
and the benchmark use. The test session itself imports scipy (conftest's
oracles), so these cases run their code in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter that finds optiq in src/; return the
    JSON it prints as its last stdout line."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_running_optiq_loads_no_scipy(tmp_path):
    out = run_fresh("""
        import json, sys
        import numpy as np
        import optiq, optiq.cli
        from optiq import approx, cli
        from optiq.fock import enumerate_basis
        from optiq.lie import build_image_basis

        image = build_image_basis(enumerate_basis(5, 4))
        res = approx.approximate(approx.haar_random(70, 3), np.eye(5),
                                 image, max_iter=3)
        codes = [
            cli.main(["sample", "-m", "3", "--seed", "1", "-o", "s.json"]),
            cli.main(["lift", "s.json", "-m", "3", "-n", "3", "-o", "u.json"]),
            cli.main(["decompose", "s.json", "-o", "plan.json"]),
            cli.main(["approximate", "u.json", "-m", "3", "-n", "3",
                      "--starts", "3", "-o", "report.json"]),
        ]
        print(json.dumps({"steps": res.iterations, "codes": codes,
                          "scipy": sorted(n for n in sys.modules
                                          if n == "scipy" or n.startswith("scipy."))}))
        """, tmp_path)
    assert out["steps"] == 3
    assert out["codes"] == [0, 0, 0, 0]
    assert out["scipy"] == []


def test_polar_runs_without_scipy(tmp_path):
    # tests/test_lie.py checks the polar factor in a session that has
    # already imported scipy, so it cannot see an import of it
    out = run_fresh("""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        import numpy as np
        from optiq.lie import polar_unitary

        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        A = Q + 1e-8 * rng.standard_normal((6, 6))
        P = polar_unitary(A)
        print(json.dumps({"residual": float(np.linalg.norm(P.conj().T @ P - np.eye(6))),
                          "moved": float(np.linalg.norm(P - Q))}))
        """, tmp_path)
    assert out["residual"] < 1e-13
    assert out["moved"] < 1e-7
