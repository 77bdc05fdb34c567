import json
import math

import numpy as np
import pytest

from fieldforge.cli import load_circuit, main
from fieldforge.compiler import CompiledFields, native_entangling_phases


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps({
        "n_qubits": 2,
        "gates": [
            {"kind": "xrot", "qubits": [0], "angle": 0.8},
            {"kind": "entangling", "qubits": [0, 1]},
        ],
    }))
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"params": {"eps": 0.5}}))
    return str(path)


def test_eigensolve_poschl_teller(capsys):
    code, out, _ = run(capsys, ["eigensolve", "--potential", "poschl-teller",
                                "--alpha", "1.0", "--lam", "2.0",
                                "--half-width", "20", "--points", "8001"])
    assert code == 0
    data = json.loads(out)
    assert data["n_states"] == 1
    assert data["energies"][0] == pytest.approx(-1.0, rel=1e-5)
    assert data["exact_energies"] == [-1.0]


def test_eigensolve_qes(capsys):
    code, out, _ = run(capsys, ["eigensolve", "--potential", "qes"])
    assert code == 0
    data = json.loads(out)
    assert data["n_states"] == 2
    np.testing.assert_allclose(data["energies"], data["exact_energies"],
                               rtol=1e-3)


def test_eigensolve_csv_format(capsys):
    code, out, _ = run(capsys, ["eigensolve", "--potential", "qes",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,energy"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(-1.0099, rel=1e-3)


def test_eigensolve_tabulated_roundtrip(capsys, tmp_path):
    x = np.linspace(-25.0, 25.0, 5001)
    v = -2.0 / np.cosh(x) ** 2
    table = tmp_path / "pot.csv"
    with open(table, "w") as fh:
        fh.write("x,v\n")
        for xi, vi in zip(x, v):
            fh.write(f"{xi:.17g},{vi:.17g}\n")
    code, out, _ = run(capsys, ["eigensolve", "--potential", "csv",
                                "--file", str(table),
                                "--half-width", "20", "--points", "2801"])
    assert code == 0
    data = json.loads(out)
    assert data["energies"][0] == pytest.approx(-1.0, rel=2e-3)


def test_eigensolve_csv_needs_file(capsys):
    code, _, err = run(capsys, ["eigensolve", "--potential", "csv"])
    assert code == 3
    assert "error" in err


def test_passage_conditions(capsys):
    code, out, _ = run(capsys, ["passage", "--eps", "0.2"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["epsilon_used"] == 0.2
    assert data["T"] == pytest.approx(0.2 ** -8)
    assert len(data["conditions"]) == 7
    assert all(c["passed"] for c in data["conditions"])
    names = [c["name"] for c in data["conditions"]]
    assert names[0] == "dressed_alignment"


def test_spectrum_json_and_csv(capsys):
    args = ["spectrum", "--omega0", "30", "--kappa", "0.25", "--big-t", "20",
            "--points", "15"]
    code, out, _ = run(capsys, args)
    assert code == 0
    data = json.loads(out)
    assert data["B"] == pytest.approx(5.0)
    assert data["BT"] == pytest.approx(100.0)
    assert len(data["omega"]) == 15
    assert set(data["region"]) <= {"in_band", "transition", "tail"}
    code, out, _ = run(capsys, args + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,re_gplus,im_gplus,power,bound"
    assert len(lines) == 16
    for line in lines[1:]:
        _, _, _, power, bound = map(float, line.split(","))
        assert power <= bound * (1.0 + 1e-9)


def test_calibrate_z(capsys):
    code, out, _ = run(capsys, ["calibrate", "z", "--theta", "1.0"])
    assert code == 0
    data = json.loads(out)
    assert data["gate"] == "z"
    assert data["achieved_phases"][0] == pytest.approx(-1.0, abs=1e-10)
    assert data["target"] == 1.0
    assert "beta" in data


def test_calibrate_x(capsys):
    code, out, _ = run(capsys, ["calibrate", "x"])
    assert code == 0
    data = json.loads(out)
    assert data["gate"] == "x"
    assert data["tau"] == pytest.approx(93.16015742368644, rel=1e-12)
    assert data["achieved_phases"][0] == pytest.approx(math.pi, abs=1e-8)


def test_calibrate_entangling(capsys):
    code, out, _ = run(capsys, ["calibrate", "entangling"])
    assert code == 0
    data = json.loads(out)
    alpha, beta = native_entangling_phases()
    assert data["achieved_phases"][0] == pytest.approx(alpha, abs=1e-12)
    assert data["achieved_phases"][1] == pytest.approx(beta, abs=1e-12)
    assert data["entangling"] is True
    assert data["leakage"] < 1e-9


def test_compile_writes_fields(capsys, tmp_path, circuit_file, config_file):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, ["compile", "--circuit", circuit_file,
                                "--config", config_file, "--out", out_dir,
                                "--format", "csv"])
    assert code == 0
    data = json.loads(out)
    assert data["out"] == out_dir
    assert data["files"] == ["fields.json", "fields.bin", "fields.csv"]
    assert data["windows"][0] == "j2_rampup"
    loaded = CompiledFields.load(out_dir)
    assert loaded.t.size == data["nt"]
    assert loaded.x.size == data["nx"]
    assert loaded.config_hash == data["config_hash"]
    assert (tmp_path / "out" / "fields.csv").exists()


def test_verify_within_budget(capsys, circuit_file, config_file):
    code, out, _ = run(capsys, ["verify", "--circuit", circuit_file,
                                "--config", config_file])
    assert code == 0
    data = json.loads(out)
    assert data["within_budget"] is True
    assert data["gap"] <= data["total_infidelity"] + 1e-12
    assert data["total_infidelity"] <= data["infidelity_budget"] + 1e-12
    assert data["ideal_vacuum_probability"] == pytest.approx(
        math.cos(0.4) ** 2, rel=1e-12)


def test_hadamard_above_threshold(capsys, circuit_file):
    code, out, _ = run(capsys, ["hadamard", "--circuit", circuit_file,
                                "--shots", "20000", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["decision"] == "above_two_thirds"
    # Re<00|U|00> = cos^2(0.4) for the xrot(0.8) circuit
    assert data["p0_exact"] == pytest.approx((1 + math.cos(0.4) ** 2) / 2,
                                             rel=1e-12)
    assert abs(data["estimate"] - math.cos(0.4) ** 2) \
        <= 3.0 * data["standard_error"]


def test_hadamard_promise_violated_exit_code(capsys, tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({
        "n_qubits": 1,
        "gates": [{"kind": "xrot", "qubits": [0], "angle": math.pi}],
    }))
    code, out, _ = run(capsys, ["hadamard", "--circuit", str(path),
                                "--shots", "10000"])
    assert code == 2
    data = json.loads(out)
    assert data["decision"] == "promise_violated"
    assert data["p0_exact"] == pytest.approx(0.5)


def test_estimate_resources(capsys):
    code, out, _ = run(capsys, ["estimate-resources", "--qubits", "4",
                                "--gates", "10", "--depth", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["t_prep"] == 65536.0
    assert data["lam"] == pytest.approx(0.1)
    assert data["volume"] == pytest.approx(4.0 * (1.0 + math.log(4.0)),
                                           rel=1e-15)
    # 17 significant digits round-trip exactly
    raw = out.split('"volume": ')[1].split(",")[0]
    assert float(raw) == data["volume"]


def test_bad_inputs_exit_three(capsys, tmp_path):
    code, _, err = run(capsys, ["hadamard", "--circuit",
                                str(tmp_path / "missing.json")])
    assert code == 3
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 2}))
    code, _, err = run(capsys, ["hadamard", "--circuit", str(bad)])
    assert code == 3
    code, _, err = run(capsys, ["passage", "--eps", "0.2", "--seed", "-1"])
    assert code == 3
    assert "seed" in err


@pytest.mark.parametrize("circuit,config", [
    ({"n_qubits": 2, "gates": [1]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": ["a"]}]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [0],
                                "angle": "pi"}]}, None),
    ({"n_qubits": 1, "gates": [{"kind": "xrot", "qubits": [0]}]},
     {"params": {"m": "1"}}),
    ({"n_qubits": 1, "gates": [{"kind": "xrot", "qubits": [0]}]},
     {"params": {"m": None}}),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [1.5]}]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [True]}]}, None),
    ({"n_qubits": "2", "gates": [{"kind": "xrot", "qubits": [0]}]}, None),
], ids=["gate-not-object", "qubit-not-integer", "angle-not-number",
        "param-not-number", "param-null", "qubit-fractional", "qubit-bool",
        "n-qubits-string"])
def test_malformed_json_exits_three(capsys, tmp_path, circuit, config):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circuit))
    argv = ["compile", "--circuit", str(path), "--out", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    code, _, err = run(capsys, argv)
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["eigensolve", "--potential", "poschl-teller", "--alpha", "1",
     "--lam", "3", "--max-states", "-1"],
    ["eigensolve", "--potential", "poschl-teller", "--alpha", "1",
     "--lam", "3", "--max-states", "0"],
    ["spectrum", "--omega0", "10", "--kappa", "1", "--big-t", "5",
     "--points", "-1"],
    ["spectrum", "--omega0", "10", "--kappa", "1", "--big-t", "5",
     "--points", "0"],
], ids=["max-states-negative", "max-states-zero", "points-negative",
        "points-zero"])
def test_nonpositive_counts_exit_three(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_integral_floats_load_as_integers(tmp_path):
    gates = [{"kind": "xrot", "qubits": [1], "angle": 0.3},
             {"kind": "entangling", "qubits": [0, 1], "alpha": 0.1, "beta": 0.2}]
    as_int = tmp_path / "int.json"
    as_int.write_text(json.dumps({"n_qubits": 2, "gates": gates}))
    for g in gates:
        g["qubits"] = [float(q) for q in g["qubits"]]
    as_float = tmp_path / "float.json"
    as_float.write_text(json.dumps({"n_qubits": 2.0, "gates": gates}))
    circuit = load_circuit(str(as_float))
    assert circuit == load_circuit(str(as_int))
    assert type(circuit.n_qubits) is int
    assert all(type(q) is int for g in circuit.gates for q in g.qubits)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out
