"""scipy loads on first use: importing the package loads numpy only.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded long before these tests start.
"""

import json
import os
import subprocess
import sys

import fieldforge

SRC = os.path.dirname(os.path.dirname(fieldforge.__file__))

# the last line a child prints: the sorted scipy modules it has loaded
REPORT = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m == 'scipy' or m.startswith('scipy.'))))\n")


def _scipy_loaded(script, cwd):
    """The scipy modules loaded after script runs in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script + REPORT], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_loaded("import fieldforge\nimport fieldforge.cli\n",
                         tmp_path) == []


def test_xz_circuit_commands_load_no_scipy(tmp_path):
    (tmp_path / "circ.json").write_text(json.dumps({
        "n_qubits": 2,
        "gates": [{"kind": "xrot", "qubits": [0], "angle": 0.8},
                  {"kind": "zrot", "qubits": [1], "angle": 0.3}],
    }))
    script = (
        "from fieldforge.cli import main\n"
        "codes = [main(['compile', '--circuit', 'circ.json', '--out', 'out']),\n"
        "         main(['verify', '--circuit', 'circ.json']),\n"
        "         main(['hadamard', '--circuit', 'circ.json',\n"
        "               '--shots', '500', '--seed', '1'])]\n"
        "assert codes == [0, 0, 0], codes\n")
    assert _scipy_loaded(script, tmp_path) == []


def test_mode_decomposition_loads_linalg_only(tmp_path):
    script = (
        "import numpy as np\n"
        "from fieldforge.fieldtheory import mode_decomposition\n"
        "from fieldforge.potentials import Grid\n"
        "grid = Grid.symmetric(10.0, 101)\n"
        "mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=4)\n")
    loaded = _scipy_loaded(script, tmp_path)
    assert "scipy.linalg" in loaded
    for name in ("scipy.integrate", "scipy.optimize", "scipy.sparse"):
        assert name not in loaded


def test_native_entangling_phases_loads_no_fft(tmp_path):
    script = ("from fieldforge.compiler import native_entangling_phases\n"
              "native_entangling_phases()\n")
    loaded = _scipy_loaded(script, tmp_path)
    assert "scipy.linalg" in loaded
    assert not any(m == "scipy.fft" or m.startswith("scipy.fft.")
                   for m in loaded)
