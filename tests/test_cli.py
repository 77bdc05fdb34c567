import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import fieldforge
from fieldforge import cli, compiler
from fieldforge.cli import build_parser, load_circuit, main
from fieldforge.compiler import (
    CompiledFields,
    CompileParams,
    ResourceEstimate,
    ScalingConfig,
    native_entangling_phases,
    schedule,
)
from fieldforge.gates import calibrate_z_gate


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


@pytest.mark.parametrize("column,value,reason", [
    ("v", "nan", "finite"), ("v", "inf", "finite"), ("x", "nan", "finite"),
    ("x", "repeat", "distinct"),
], ids=["nan-v", "inf-v", "nan-x", "repeated-x"])
def test_eigensolve_bad_table_exits_three(capsys, tmp_path, column, value,
                                          reason):
    # the clean table solves (exit 0); one bad row must name its fault
    x = [f"{xi:.17g}" for xi in np.linspace(-25.0, 25.0, 201)]
    v = [f"{-2.0 / np.cosh(float(xi)) ** 2:.17g}" for xi in x]
    argv = ["eigensolve", "--potential", "csv", "--file",
            str(tmp_path / "pot.csv"), "--half-width", "20", "--points", "401"]

    def write():
        (tmp_path / "pot.csv").write_text(
            "x,v\n" + "".join(f"{a},{b}\n" for a, b in zip(x, v)))

    write()
    assert run(capsys, argv)[0] == 0
    row = 100
    if column == "v":
        v[row] = value
    else:
        x[row] = x[row + 1] if value == "repeat" else value
    write()
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and reason in err


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


def test_calibrate_x_negative_target(capsys):
    code, out, _ = run(capsys, ["calibrate", "x", "--target", "-1"])
    assert code == 0
    data = json.loads(out)
    assert data["tau"] > 0.0
    assert data["target"] == -1.0
    assert math.remainder(data["achieved_phases"][0] + 1.0,
                          2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


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


def test_compiled_header_keeps_gate_calibrations(capsys, tmp_path):
    # at the default params the Z window's header holds the solved bump
    # amplitude and the X window's the configured beta_x
    circuit = tmp_path / "zx.json"
    circuit.write_text(json.dumps({"n_qubits": 1, "gates": [
        {"kind": "zrot", "qubits": [0], "angle": 0.3},
        {"kind": "xrot", "qubits": [0], "angle": 0.9}]}))
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, ["compile", "--circuit", str(circuit),
                              "--out", str(out_dir)])
    assert code == 0
    header = json.loads((out_dir / "fields.json").read_text())
    z, x = header["windows"][2:4]
    params = CompileParams()
    tau_z = params.resolved()[4]
    assert z["calibration"]["beta"] == calibrate_z_gate(
        0.3, tau=tau_z * params.m).parameter_value
    assert x["calibration"]["beta"] == params.beta_x


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


def test_verify_renders_no_field(capsys, monkeypatch, circuit_file,
                                 config_file):
    def render(*args):
        raise AssertionError("verify rendered J1/J2")
    monkeypatch.setattr(compiler, "_render", render)
    code, out, _ = run(capsys, ["verify", "--circuit", circuit_file,
                                "--config", config_file])
    assert code == 0
    assert json.loads(out)["within_budget"] is True


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_sample_cap_exits_three(capsys, tmp_path, circuit_file, command):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({"params": {"eps": 0.5},
                                  "scaling": {"sample_cap": 1000}}))
    out_dir = ["--out", str(tmp_path / "out")] if command == "compile" else []
    code, out, err = run(capsys, [command, "--circuit", circuit_file,
                                  "--config", str(config), *out_dir])
    assert code == 3
    assert out == ""
    assert err.startswith("error: schedule needs")
    assert not (tmp_path / "out").exists()


def test_compile_holds_one_row_block(capsys, tmp_path):
    # the fields are rendered and written in row blocks, two workers with
    # a buffer of half a block each, so the command's peak stays far below
    # one (nt, nx) field, let alone the two it writes
    circuit = tmp_path / "circ.json"
    circuit.write_text(json.dumps({"n_qubits": 3, "gates": [
        {"kind": "xrot", "qubits": [0], "angle": 1.0},
        {"kind": "entangling", "qubits": [0, 1]},
        {"kind": "zrot", "qubits": [2], "angle": 0.3}]}))
    native_entangling_phases()  # the entangling calibration is cached
    tracemalloc.start()
    try:
        code = main(["compile", "--circuit", str(circuit),
                     "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    field_bytes = data["nt"] * data["nx"] * 8
    assert data["nt"] * data["nx"] >= 2_000_000
    assert os.path.getsize(tmp_path / "out" / "fields.bin") == 2 * field_bytes
    assert peak < 0.25 * field_bytes


def test_compile_write_failure_exits_three(capsys, tmp_path, monkeypatch,
                                           circuit_file):
    # an OSError on the second worker's first block reaches main unchanged
    fillers = compiler._fillers

    def failing(plan):
        fill_j1, fill_j2 = fillers(plan)

        def fill(lo, hi, out):
            if threading.current_thread() is not threading.main_thread():
                raise OSError("injected write failure")
            return fill_j1(lo, hi, out)
        return fill, fill_j2

    monkeypatch.setattr(compiler, "_fillers", failing)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, ["compile", "--circuit", circuit_file,
                                     "--out", str(out)])
    assert code == 3 and stdout == ""
    assert err.startswith("error: ") and "injected write failure" in err
    assert os.listdir(out) == []


def test_binary_compile_removes_a_stale_csv(capsys, tmp_path, circuit_file,
                                            config_file):
    out = str(tmp_path / "out")
    argv = ["compile", "--circuit", circuit_file, "--config", config_file,
            "--out", out]
    code, _, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0 and os.path.exists(os.path.join(out, "fields.csv"))
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(stdout)["files"] == ["fields.json", "fields.bin"]
    assert sorted(os.listdir(out)) == ["fields.bin", "fields.json"]


def test_compile_csv_child_failure_exits_three(capsys, tmp_path, monkeypatch,
                                               circuit_file, config_file):
    # a child interpreter writes the CSV's middle rows; its failure is an
    # OSError, so main reports it, and neither a partial CSV nor a
    # temporary file nor the child is left
    child = tmp_path / "bin" / "python"
    child.parent.mkdir()
    child.write_text("#!/bin/sh\necho 'row writer broke' >&2\nexit 7\n")
    child.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(child))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, ["compile", "--circuit", circuit_file,
                                     "--config", config_file, "--out",
                                     str(out), "--format", "csv"])
    assert code == 3 and stdout == ""
    assert err == ("error: CSV row writer exited with status 7: "
                   "row writer broke\n")
    assert sorted(os.listdir(out)) == ["fields.bin", "fields.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _src_env():
    """os.environ with this fieldforge's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(fieldforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh_process(argv):
    """The CLI started on argv in a new interpreter, stdout piped."""
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from fieldforge.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=_src_env(), stdout=subprocess.PIPE, text=True)


def test_huge_register_exits_three(tmp_path):
    # 1e9 qubits must meet the sample cap before anything of size n is
    # built.  The commands run in a child whose address space is capped at
    # 3 GB, so a regression ends in a MemoryError, not in tens of GB.
    (tmp_path / "huge.json").write_text(
        json.dumps({"n_qubits": 1_000_000_000, "gates": []}))
    script = (
        "import json, resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "from fieldforge.cli import main\n"
        "codes = [main([cmd, '--circuit', 'huge.json'])\n"
        "         for cmd in ('estimate-resources', 'verify')]\n"
        "codes.append(main(['compile', '--circuit', 'huge.json', '--out', 'out']))\n"
        "print(json.dumps(codes))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [3, 3, 3]
    lines = proc.stderr.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("error: schedule needs") for line in lines)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate-resources", "compile"])
def test_distant_gate_on_huge_register_meets_cap_before_routing(
        capsys, monkeypatch, tmp_path, command):
    # routing a gate between qubits 0 and 1e9 - 1 would build a chain of
    # 1e9 swaps, so a lower bound on the samples must meet the cap first
    def insert_swaps(circuit):
        raise AssertionError("routed before the sample-cap check")

    monkeypatch.setattr(compiler, "insert_swaps", insert_swaps)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_qubits": 1_000_000_000, "gates": [
        {"kind": "entangling", "qubits": [0, 999_999_999]}]}))
    out_dir = ["--out", str(tmp_path / "out")] if command == "compile" else []
    code, out, err = run(capsys, [command, "--circuit", str(path), *out_dir])
    assert code == 3
    assert out == ""
    assert err.startswith("error: schedule needs at least ")
    assert err.rstrip().endswith("cap is 24000000")
    assert not (tmp_path / "out").exists()


def test_repeated_main_matches_fresh_processes(capsys, circuit_file,
                                               config_file):
    # the parser is built once per process; no parsed value may carry over
    # from one call to the next
    calls = [["hadamard", "--circuit", circuit_file, "--seed", "1",
              "--shots", "500"],
             ["verify", "--circuit", circuit_file, "--config", config_file],
             ["hadamard", "--circuit", circuit_file, "--seed", "2",
              "--shots", "500"],
             ["hadamard", "--circuit", circuit_file, "--shots", "500"]]
    fresh = [_fresh_process(argv) for argv in calls]
    expected = []
    for proc in fresh:
        out, _ = proc.communicate()
        expected.append((proc.returncode, out))
    got = [run(capsys, argv)[:2] for argv in calls]
    assert build_parser() is build_parser()
    assert got == expected
    seeds = [json.loads(out).get("seed") for _, out in got]
    assert seeds == [1, None, 2, 0]


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


def test_past_the_dense_limit(capsys, tmp_path, config_file):
    # 13 qubits is one more than the dense unitary allows.  xrot(0.8) on the
    # last qubit has <0|U|0> = (1 + e^{-0.8i})/2, whose real part and
    # squared modulus are both cos^2(0.4).
    path = tmp_path / "c13.json"
    path.write_text(json.dumps({
        "n_qubits": 13,
        "gates": [{"kind": "xrot", "qubits": [12], "angle": 0.8}]}))
    oracle = math.cos(0.4) ** 2
    code, out, _ = run(capsys, ["verify", "--circuit", str(path),
                                "--config", config_file])
    assert code == 0
    assert json.loads(out)["ideal_vacuum_probability"] == pytest.approx(
        oracle, rel=1e-12)
    code, out, _ = run(capsys, ["hadamard", "--circuit", str(path),
                                "--shots", "20000", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["p0_exact"] == pytest.approx((1 + oracle) / 2, rel=1e-12)
    assert abs(data["estimate"] - oracle) <= 3.0 * data["standard_error"]
    # the state vector stops at 24 qubits, before anything is allocated
    path.write_text(json.dumps({"n_qubits": 25, "gates": []}))
    code, out, err = run(capsys, ["hadamard", "--circuit", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: 25 qubits")


def test_estimate_resources(capsys, circuit_file, config_file):
    code, out, _ = run(capsys, ["estimate-resources", "--circuit",
                                circuit_file, "--config", config_file])
    assert code == 0
    data = json.loads(out)
    params = CompileParams(eps=0.5)
    sched = schedule(load_circuit(circuit_file, params), params,
                     ScalingConfig())
    assert ResourceEstimate(**data) == sched.resources
    prep = sched.windows[1]
    assert data["t_prep"] == prep.t_end - prep.t_start
    assert data["samples"] == 2 * sched.t.size * sched.x.size


def test_bad_inputs_exit_three(capsys, tmp_path, circuit_file):
    code, _, err = run(capsys, ["hadamard", "--circuit",
                                str(tmp_path / "missing.json")])
    assert code == 3
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 2}))
    code, _, err = run(capsys, ["hadamard", "--circuit", str(bad)])
    assert code == 3
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run(capsys, ["hadamard", "--circuit", circuit_file,
                                      "--seed", seed])
        assert (code, out, err) == (3, "", "error: seed must fit in u64\n")


def test_hadamard_checks_seed_before_amplitude(capsys, tmp_path, monkeypatch):
    # the seed needs no state vector: on 20 qubits the amplitude would
    # cost a 16 MB state, and a bad seed must not pay for it
    def vacuum_amplitude(circuit):
        raise AssertionError("amplitude computed before the seed check")

    monkeypatch.setattr(cli, "vacuum_amplitude", vacuum_amplitude)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n_qubits": 20, "gates": [
        {"kind": "xrot", "qubits": [0], "angle": 0.8},
        {"kind": "entangling", "qubits": [0, 1]}]}))
    code, out, err = run(capsys, ["hadamard", "--circuit", str(path),
                                  "--seed", "-1"])
    assert (code, out, err) == (3, "", "error: seed must fit in u64\n")


XROT = {"n_qubits": 1, "gates": [{"kind": "xrot", "qubits": [0]}]}


@pytest.mark.parametrize("argv", [
    ["eigensolve", "--potential", "qes", "--config", "c.json"],
    ["passage", "--eps", "0.2", "--seed", "1"],
    ["spectrum", "--omega0", "10", "--kappa", "1", "--big-t", "5",
     "--out", "d"],
    ["calibrate", "x", "--theta", "1"],
    ["calibrate", "z", "--g", "1"],
    ["calibrate", "entangling", "--format", "csv"],
    ["compile", "--circuit", "circ.json", "--seed", "1"],
    ["verify", "--circuit", "circ.json", "--out", "d"],
    ["hadamard", "--circuit", "circ.json", "--format", "csv"],
    ["estimate-resources", "--circuit", "circ.json", "--out", "d"],
], ids=["eigensolve-config", "passage-seed", "spectrum-out", "x-theta",
        "z-g", "entangling-format", "compile-seed", "verify-out",
        "hadamard-format", "resources-out"])
def test_flag_the_command_does_not_read_exits_three(capsys, tmp_path,
                                                     monkeypatch, argv):
    # each command takes only the options it reads; any other flag is a
    # usage error, not a value silently dropped
    monkeypatch.chdir(tmp_path)
    (tmp_path / "circ.json").write_text(json.dumps(XROT))
    (tmp_path / "c.json").write_text("{}")
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == ("error: fieldforge: unrecognized arguments: "
                   + " ".join(argv[-2:]) + "\n")
    assert sorted(os.listdir(tmp_path)) == ["c.json", "circ.json"]


@pytest.mark.parametrize("circuit,config", [
    ({"n_qubits": 2, "gates": [1]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": ["a"]}]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [0],
                                "angle": "pi"}]}, None),
    (XROT, {"params": {"m": "1"}}),
    (XROT, {"params": {"m": None}}),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [1.5]}]}, None),
    ({"n_qubits": 2, "gates": [{"kind": "xrot", "qubits": [True]}]}, None),
    ({"n_qubits": "2", "gates": [{"kind": "xrot", "qubits": [0]}]}, None),
    # json.load accepts NaN and Infinity
    (XROT, {"scaling": {"sample_cap": math.nan}}),
    (XROT, {"scaling": {"sample_cap": 2.5}}),
    (XROT, {"scaling": {"oversampling": math.nan}}),
    (XROT, {"scaling": {"lambda_prefactor": math.inf}}),
    (XROT, {"scaling": {"gate_prefactor": 1.0}}),
    (XROT, {"params": {"well_width": math.nan}}),
    (XROT, {"params": {"m": math.inf}}),
], ids=["gate-not-object", "qubit-not-integer", "angle-not-number",
        "param-not-number", "param-null", "qubit-fractional", "qubit-bool",
        "n-qubits-string", "sample-cap-nan", "sample-cap-fractional",
        "oversampling-nan", "prefactor-inf", "scaling-unknown-key",
        "well-width-nan", "m-inf"])
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


@pytest.mark.parametrize("argv", [
    ["eigensolve", "--potential", "qes", "--points", "1e3"],
    ["verify"],
    ["bogus"],
], ids=["bad-int", "missing-circuit", "unknown-subcommand"])
def test_usage_errors_exit_three(capsys, argv):
    # argparse would exit 2, the code of promise_violated
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: fieldforge")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega0", "nan", "--kappa", "1", "--big-t", "5",
     "--points", "3"],
    ["eigensolve", "--potential", "poschl-teller", "--alpha", "nan"],
    ["eigensolve", "--potential", "poschl-teller", "--lam", "nan"],
    ["eigensolve", "--potential", "qes", "--g", "nan"],
    ["eigensolve", "--potential", "qes", "--b", "nan"],
    ["eigensolve", "--potential", "poschl-teller", "--half-width", "nan"],
    ["estimate-resources", "--circuit", "missing.json"],
    ["estimate-resources", "--circuit", "circ.json", "--config", "cap.json"],
    ["calibrate", "z", "--tau", "nan"],
    ["calibrate", "x", "--beta", "nan"],
    ["calibrate", "x", "--g", "nan"],
    ["passage", "--eps", "0.2", "--big-c", "nan"],
    ["passage", "--eps", "0.2", "--big-c", "-1"],
    ["passage", "--eps", "0.2", "--big-c", "0"],
    ["passage", "--eps", "0.2", "--big-c", "inf"],
], ids=["spectrum-omega0", "pt-alpha", "pt-lam", "qes-g", "qes-b",
        "half-width", "circuit-missing", "above-sample-cap", "z-tau",
        "x-beta", "x-g", "big-c-nan", "big-c-negative", "big-c-zero",
        "big-c-inf"])
def test_nan_and_negative_inputs_exit_three(capsys, tmp_path, monkeypatch,
                                            argv):
    # file arguments name files in tmp_path; circ.json needs more samples
    # than cap.json allows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "circ.json").write_text(json.dumps(XROT))
    (tmp_path / "cap.json").write_text(
        json.dumps({"scaling": {"sample_cap": 1000}}))
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "infidelity" not in err  # rejected before any calibration runs


@pytest.mark.parametrize("argv,config", [
    (["eigensolve", "--potential", "qes", "--g", "1e300"], None),
    (["eigensolve", "--potential", "poschl-teller", "--alpha", "1e300"], None),
    (["passage", "--eps", "1e-80"], None),
    (["calibrate", "z", "--tau", "1e300", "--alpha0", "1e300"], None),
    (["spectrum", "--omega0", "1", "--kappa", "1e-300", "--big-t", "10"],
     None),
    (["spectrum", "--omega0", "1", "--kappa", "1", "--big-t", "1e300"], None),
    # lam ** 2 overflows in the pair potential; m ** 3 underflows to 0
    (["calibrate", "entangling"], {"params": {"lam_gate": 1e200}}),
    (["calibrate", "entangling"], {"params": {"m": 1e-120}}),
    (["estimate-resources", "--circuit", "ent.json"],
     {"params": {"m": 1e-120}}),
], ids=["qes-g-huge", "pt-alpha-huge", "eps-tiny", "z-tau-alpha0-huge",
        "kappa-tiny", "bt-overflow", "lam-gate-huge", "m-tiny",
        "resources-m-tiny"])
def test_extreme_finite_inputs_exit_three(capsys, tmp_path, monkeypatch,
                                          argv, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ent.json").write_text(json.dumps(
        {"n_qubits": 2, "gates": [{"kind": "entangling", "qubits": [0, 1]}]}))
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", "config.json"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
