import dataclasses
import itertools
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fieldforge import _csvrows, compiler
from fieldforge.adiabatic import gevrey_bump
from fieldforge.circuits import GateSpec, LogicalCircuit, ideal_unitary, insert_swaps
from fieldforge.compiler import (
    CompileParams,
    CompiledFields,
    ResourceEstimate,
    ScalingConfig,
    compile,
    compute_sampling,
    infidelity_budget,
    native_entangling_phases,
    schedule,
    simulate_schedule,
)
from fieldforge.errors import (
    BudgetExceeded,
    InfeasibleGate,
    ValidationError,
)
from fieldforge.gates import BUMP_PEAK, calibrate_z_gate

ALPHA, BETA = native_entangling_phases()
FAST = CompileParams(eps=0.5)


@pytest.fixture(scope="module")
def mixed_circuit():
    return LogicalCircuit(3, (
        GateSpec("zrot", (0,), angle=0.7),
        GateSpec("xrot", (1,), angle=0.9),
        GateSpec("entangling", (0, 1), alpha=ALPHA, beta=BETA),
        GateSpec("entangling", (0, 2), alpha=ALPHA, beta=BETA),
        GateSpec("swap", (1, 2)),
    ))


@pytest.fixture(scope="module")
def compiled(mixed_circuit):
    return compile(mixed_circuit, FAST)


def test_native_phases_are_stable():
    a, b = native_entangling_phases()
    assert a == pytest.approx(-1.9371370571925546, abs=1e-9)
    assert b == pytest.approx(1.8346357433563387, abs=1e-9)
    assert abs(math.remainder(a + b, 2.0 * math.pi)) > 1e-3


def test_resource_estimate_validation(compiled):
    est = compiled.resources
    with pytest.raises(ValidationError):
        ResourceEstimate(**{**est.__dict__, "lam": 0.0})
    with pytest.raises(ValidationError):
        # lam G beyond the prefactor budget
        ResourceEstimate(**{**est.__dict__, "lam": 1.0})
    with pytest.raises(ValidationError):
        ResourceEstimate(**{**est.__dict__, "samples": 0})
    listed = ResourceEstimate(**{**est.__dict__,
                                 "gate_times": list(est.gate_times)})
    assert listed == est


def _serial_circuit(n, g):
    """g gates cycling z, x and a nearest-neighbour entangler over n qubits."""
    gates = []
    for k in range(g):
        q = k % n
        if k % 3 == 0 or n == 1:
            gates.append(GateSpec("zrot", (q,), angle=0.3 + 0.01 * k))
        elif k % 3 == 1:
            gates.append(GateSpec("xrot", (q,), angle=0.3 + 0.01 * k))
        else:
            pair = (q, q + 1) if q + 1 < n else (q - 1, q)
            gates.append(GateSpec("entangling", pair, alpha=ALPHA, beta=BETA))
    return LogicalCircuit(n, tuple(gates))


def test_resources_read_off_the_schedule():
    # schedule allocates no field, so a large cap plans every (n, G)
    config = ScalingConfig(sample_cap=10 ** 12)
    preps, extents = set(), {}
    for n in range(1, 7):
        for g in range(1, 25):
            sched = schedule(_serial_circuit(n, g), CompileParams(), config)
            res, windows = sched.resources, sched.windows
            prep = next(w for w in windows if w.label == "prep")
            ramp = windows[0].t_end - windows[0].t_start
            gate_times = tuple(w.t_end - w.t_start for w in windows
                               if w.label.startswith("gate:"))
            samples = 2 * sched.t.size * sched.x.size
            assert res == ResourceEstimate(
                n_qubits=n, gate_count=g, lam=1.0 / g,
                t_prep=prep.t_end - prep.t_start, gate_times=gate_times,
                total_gate_time=sum(gate_times),
                extent=sched.x[-1] - sched.x[0],
                samples=samples, bit_count=64 * samples,
                config=dataclasses.asdict(config))
            assert res.total_gate_time == pytest.approx(
                sched.t[-1] - 2.0 * (ramp + res.t_prep),
                rel=1e-12)
            preps.add(res.t_prep)
            extents[n] = res.extent
    # eps fixes the prep window for G <= eps^-4, whatever n
    assert len(preps) == 1
    # one block pitch per qubit
    pitch = sched.params["pitch"]
    for n in range(2, 7):
        assert extents[n] - extents[1] == pytest.approx((n - 1) * pitch,
                                                        rel=1e-12)


def test_compile_params_resolved():
    m, depth, width, intra, tau_z = CompileParams().resolved()
    assert (m, depth, width, intra, tau_z) == (1.0, 0.4, 1.0, 4.0, 40.0)
    m2 = CompileParams(m=2.0).resolved()
    assert m2[1] == pytest.approx(1.6)
    assert m2[2] == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        CompileParams(well_depth=0.6).resolved()
    with pytest.raises(ValidationError):
        CompileParams(m=-1.0).resolved()
    with pytest.raises(ValidationError):
        ScalingConfig(oversampling=0.5)
    for cap in (2.5, math.nan, "many", 0):
        with pytest.raises(ValidationError):
            ScalingConfig(sample_cap=cap)
    assert ScalingConfig(sample_cap=1000.0).sample_cap == 1000.0
    assert ScalingConfig(sample_cap=np.int64(1000)).sample_cap == 1000


def test_sampling_quadruples_when_mass_doubles():
    n1 = compute_sampling(100.0, 50.0, 1.0, 1.0, 4.0)
    n2 = compute_sampling(100.0, 50.0, 2.0, 2.0, 4.0)
    ratio = (n2[0] * n2[1]) / (n1[0] * n1[1])
    assert ratio == pytest.approx(4.0, rel=0.05)
    with pytest.raises(ValidationError):
        compute_sampling(-1.0, 50.0, 1.0, 1.0, 4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_sampling_rejects_non_finite_scales(slot, bad):
    args = [100.0, 50.0, 1.0, 1.0, 4.0]
    args[slot] = bad
    with pytest.raises(ValidationError):
        compute_sampling(*args)


def test_negative_x_angle_compiles_forward_in_time():
    def gate_window(angle):
        circuit = LogicalCircuit(1, (GateSpec("xrot", (0,), angle=angle),))
        fields = compile(circuit, FAST)
        assert all(w.t_end >= w.t_start for w in fields.windows)
        return circuit, fields, fields.windows[2]

    circuit, fields, window = gate_window(-1.0)
    _, _, wrapped = gate_window(2.0 * math.pi - 1.0)
    assert window.t_end - window.t_start == pytest.approx(
        wrapped.t_end - wrapped.t_start, rel=1e-12)
    assert window.calibration["target"] == -1.0
    replay = ideal_unitary(simulate_schedule(fields).circuit)
    np.testing.assert_allclose(replay, ideal_unitary(circuit), atol=1e-12)
    # a zero angle makes a zero-length window, which owns no time row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, fields, window = gate_window(0.0)
    assert window.t_end == window.t_start
    lo, hi = np.searchsorted(fields.t, (window.t_start, window.t_end))
    assert lo == hi
    assert fields.resources.gate_times == (0.0,)
    assert np.isfinite(fields.j1).all() and np.isfinite(fields.j2).all()


def test_window_sequence(compiled):
    labels = [w.label for w in compiled.windows]
    assert labels == ["j2_rampup", "prep", "gate:zrot", "gate:xrot",
                      "gate:entangling", "gate:swap", "gate:entangling",
                      "gate:swap", "gate:swap", "reverse_prep", "j2_rampdown"]
    for w in compiled.windows:
        assert w.t_end > w.t_start
    zrot = compiled.windows[2]
    assert zrot.t_end - zrot.t_start == pytest.approx(40.0)
    prep = compiled.windows[1]
    assert prep.calibration["eps"] == 0.5
    assert prep.calibration["prep_infidelity_bound"] == 0.5


def test_gate_records_keep_their_calibration():
    # the logical gate sits under "logical", beside the calibration record
    # rather than over it: a Z window keeps its solved bump amplitude and
    # an X window its beta_x
    params = CompileParams()
    circuit = LogicalCircuit(1, (GateSpec("zrot", (0,), angle=0.3),
                                 GateSpec("xrot", (0,), angle=0.9)))
    z, x = schedule(circuit, params, ScalingConfig()).windows[2:4]
    tau_z = params.resolved()[4]
    beta_z = calibrate_z_gate(0.3, tau=tau_z * params.m).parameter_value
    assert beta_z == pytest.approx(-1.0669, abs=1e-4)
    assert z.calibration["beta"] == beta_z
    assert z.calibration["duration"] == tau_z
    assert z.calibration["logical"] == {"angle": 0.3, "alpha": 0.0,
                                        "beta": 0.0}
    assert x.calibration["beta"] == params.beta_x
    assert x.calibration["logical"]["angle"] == 0.9


def _assert_header_renders_fields(fields, out_dir):
    fields.save(out_dir)
    j1, j2 = compiler._render(CompiledFields.load(out_dir))
    assert j1.tobytes() == fields.j1.tobytes()
    assert j2.tobytes() == fields.j2.tobytes()


def test_header_renders_the_stored_fields(compiled, tmp_path):
    # the field file's header is the whole description of its fields
    _assert_header_renders_fields(compiled, tmp_path / "m1")
    # at m = 2, T / m and tau / m are not exact: a value the render
    # rebuilt in another float order would show in the last bits
    params = CompileParams(m=2.0, eps=0.5)
    alpha, beta = native_entangling_phases(params)
    circuit = LogicalCircuit(3, (
        GateSpec("zrot", (2,), angle=-0.4),
        GateSpec("xrot", (0,), angle=1.1),
        GateSpec("entangling", (0, 2), alpha=alpha, beta=beta),
    ))
    _assert_header_renders_fields(compile(circuit, params), tmp_path / "m2")


@pytest.mark.parametrize("rows", ["one", "non-divisor", "odd", "all",
                                  "past-end"])
def test_streamed_save_matches_compiled_save(compiled, mixed_circuit,
                                             tmp_path, monkeypatch, rows):
    # the mixed circuit has z, x, adjacent and distant entangling gates, so
    # its windows include the routed swaps; blocks of one row, of 997 rows
    # and of a third of the rows end inside gate windows.  Blocks are dealt
    # to two workers in turn: with an odd block count per field one worker
    # takes one more of J1's blocks and the other one more of J2's, and
    # with one block per field ("all", and "past-end", where the block is
    # longer than the field) the second worker idles through J1
    nt, nx = compiled.j1.shape
    block = {"one": 1, "non-divisor": 997, "odd": nt // 3 + 1, "all": nt,
             "past-end": nt + 1}[rows]
    t = compiled.t
    gate_rows = [np.searchsorted(t, (w.t_start, w.t_end))
                 for w in compiled.windows if w.label.startswith("gate:")]
    if block < nt:
        assert block == 1 or nt % block
        assert any(r0 < edge < r1 for edge in range(block, nt, block)
                   for r0, r1 in gate_rows)
    if rows == "odd":
        assert -(-nt // block) == 3
    # each worker's block is FILE_BLOCK_VALUES // 2 samples
    monkeypatch.setattr(compiler, "FILE_BLOCK_VALUES", 2 * block * nx)
    compiled.save(tmp_path / "dense")
    compiler.save(schedule(mixed_circuit, FAST, ScalingConfig()),
                  tmp_path / "streamed", "fields")
    for name in ("fields.json", "fields.bin"):
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "dense" / name).read_bytes())


def _wrap_fills(monkeypatch, wrap):
    """Make compiler.save fill through wrap(field_index, fill)."""
    fillers = compiler._fillers
    monkeypatch.setattr(compiler, "_fillers", lambda plan: tuple(
        wrap(k, fill) for k, fill in enumerate(fillers(plan))))


def test_save_fills_blocks_on_two_threads(compiled, mixed_circuit, tmp_path,
                                          monkeypatch):
    # a return to one thread would still write the right bytes; with the
    # interpreter switching threads every microsecond the two workers
    # interleave within blocks, and the bytes must not change
    threads = set()

    def wrap(k, fill):
        def recorded(lo, hi, out):
            threads.add(threading.get_ident())
            return fill(lo, hi, out)
        return recorded

    _wrap_fills(monkeypatch, wrap)
    plan = schedule(mixed_circuit, FAST, ScalingConfig())
    monkeypatch.setattr(compiler, "FILE_BLOCK_VALUES", 2 * 100 * plan.x.size)
    compiled.save(tmp_path / "dense")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        compiler.save(plan, tmp_path / "streamed", "fields")
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2
    for name in ("fields.json", "fields.bin"):
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "dense" / name).read_bytes())


class _InjectedError(Exception):
    pass


def test_failed_save_leaves_no_field_file(compiled, mixed_circuit, tmp_path,
                                          monkeypatch):
    # J1's second block is the second worker's; a field file saved earlier
    # in the same directory must not sit beside the payload being written,
    # nor survive beside a partial one
    nx = compiled.x.size
    monkeypatch.setattr(compiler, "FILE_BLOCK_VALUES", 2 * 500 * nx)
    compiled.save(tmp_path)
    raised_on = []

    def wrap(k, fill):
        def failing(lo, hi, out):
            assert not os.path.exists(tmp_path / "fields.json")
            if k == 0 and lo == 500:
                raised_on.append(threading.get_ident())
                raise _InjectedError("injected")
            return fill(lo, hi, out)
        return failing

    _wrap_fills(monkeypatch, wrap)
    threads = threading.active_count()
    with pytest.raises(_InjectedError):
        compiler.save(schedule(mixed_circuit, FAST, ScalingConfig()),
                      tmp_path, "fields")
    assert raised_on and raised_on[0] != threading.get_ident()
    assert threading.active_count() == threads
    assert not os.path.exists(tmp_path / "fields.json")
    assert not os.path.exists(tmp_path / "fields.bin")
    with pytest.raises(OSError):
        CompiledFields.load(tmp_path)


def _plain_j2(plan):
    """J2 from the plain formulas, every term over every row and column."""
    t, x, p = plan.t, plan.x, plan.params
    depth, width = p["well_depth"], p["well_width"]
    first, _, *gate_windows, _, last = plan.windows

    def gaussian(center, w):
        return np.exp(-(x - center) ** 2 / (2.0 * w ** 2))

    def well(center):
        return -depth * gaussian(center, width)

    def switch(s):
        fine = np.linspace(0.0, 1.0, 4097)
        vals = gevrey_bump(fine)
        cumulative = np.concatenate(
            [[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0 * np.diff(fine))])
        return np.interp(s, fine, cumulative / cumulative[-1])

    centers = np.arange(plan.n_qubits) * p["pitch"]
    left = centers - p["intra_spacing"] / 2.0
    right = centers + p["intra_spacing"] / 2.0
    layout = sum(well(c) for pair in zip(left, right) for c in pair)
    envelope = np.ones(t.size)
    up, down = t < first.t_end, t > last.t_start
    envelope[up] = switch(t[up] / first.t_end)
    envelope[down] = switch((t[-1] - t[down]) / first.t_end)
    j2 = envelope[:, None] * layout
    for w in gate_windows:
        rec = w.calibration
        r0, r1 = np.searchsorted(t, (w.t_start, w.t_end))
        bump = gevrey_bump((t[r0:r1] - w.t_start) / rec["duration"])
        if w.label == "gate:zrot":
            j2[r0:r1] += np.outer(abs(rec["beta"]) / 50.0 * bump,
                                  well(left[w.qubits[0]]))
        elif w.label == "gate:xrot":
            j2[r0:r1] += np.outer(
                (rec["beta"] / 100.0) * bump,
                depth * gaussian(centers[w.qubits[0]], width / 2.0))
        else:
            qa, qb = sorted(w.qubits)
            ca, cb = right[qa], left[qb]
            shift = ((0.3 * (cb - ca)) * bump / BUMP_PEAK)[:, None]
            j2[r0:r1] += ((well(ca + shift) - well(ca))
                          + (well(cb - shift) - well(cb)))
    return j2


@pytest.mark.parametrize("case", ["distant", "design", "shallow"])
def test_streamed_j2_matches_plain_formulas(tmp_path, case):
    # distant: a 4-qubit entangling(0, 3) is routed through swaps, and its
    # wells reach columns where exp underflows or goes denormal; design: a
    # design_export point at oversampling 1; shallow: qubits about 96 well
    # widths apart, so near a window's ends the moved pair's columns do not
    # meet
    params = {"distant": FAST,
              "design": CompileParams(eps=0.5, well_width=0.9,
                                      intra_spacing=4.3),
              "shallow": CompileParams(eps=0.5, well_depth=0.02)}[case]
    alpha, beta = native_entangling_phases(params)
    if case == "distant":
        circuit = LogicalCircuit(4, (
            GateSpec("xrot", (1,), angle=0.8),
            GateSpec("entangling", (0, 3), alpha=alpha, beta=beta)))
    else:
        circuit = LogicalCircuit(3, (
            GateSpec("xrot", (2,), angle=0.9),
            GateSpec("entangling", (0, 1), alpha=alpha, beta=beta),
            GateSpec("zrot", (1,), angle=-0.6),
            GateSpec("entangling", (2, 1), alpha=alpha, beta=beta)))
    scaling = ScalingConfig(oversampling=1.0 if case == "design" else 4.0)
    plan = schedule(circuit, params, scaling)
    labels = [w.label for w in plan.windows]
    assert ("gate:swap" in labels) == (case == "distant")
    if case == "distant":
        # the wells' exponents span normal, denormal and underflowing values
        tail = np.exp(-(plan.x - plan.x[0]) ** 2
                      / (2.0 * plan.params["well_width"] ** 2))
        assert 0.0 in tail and ((0.0 < tail) & (tail < 2.3e-308)).any()
    compiler.save(plan, tmp_path, "fields")
    payload = (tmp_path / "fields.bin").read_bytes()
    expected = _plain_j2(plan).astype("<f8").tobytes()
    assert payload[len(payload) // 2:] == expected


def test_routing_happens_inside_compile(compiled, mixed_circuit):
    assert compiled.resources.gate_count == 7
    assert compiled.n_qubits == 3
    assert compiled.resources.lam == pytest.approx(1.0 / 7.0)


def test_j1_antisymmetric_bit_exact(compiled):
    # J1(T - t) = -J1(t) by value everywhere and bit for bit on the rows
    # the prep pulses drive; between them the pulse difference is a - a,
    # so both mirror rows hold +0.0 rather than a zero and its negation
    j1, mirror = compiled.j1, compiled.j1[::-1]
    assert np.array_equal(mirror, -j1)
    driven = j1.any(axis=1)
    assert driven.any() and not driven.all()
    assert np.array_equal(driven, driven[::-1])
    assert mirror[driven].tobytes() == (-j1[driven]).tobytes()
    assert not np.signbit(j1[~driven]).any()


def test_fields_vanish_at_boundaries(compiled):
    peak = np.max(np.abs(compiled.j1))
    assert peak > 0
    assert np.max(np.abs(compiled.j1[0])) == 0.0
    assert np.max(np.abs(compiled.j1[:, [0, -1]])) < 1e-12 * peak
    assert np.max(np.abs(compiled.j2[0])) == 0.0
    assert np.max(np.abs(compiled.j2[-1])) == 0.0
    # switched-on region carries the full double-well layout
    mid = compiled.j2[compiled.t.size // 2]
    assert mid.min() < -0.3


def test_sample_cap_enforced(mixed_circuit):
    for step in (compile, schedule):
        with pytest.raises(BudgetExceeded):
            step(mixed_circuit, FAST, ScalingConfig(sample_cap=100_000))


def test_non_native_phases_rejected():
    circ = LogicalCircuit(2, (
        GateSpec("entangling", (0, 1), alpha=0.3, beta=0.4),))
    with pytest.raises(InfeasibleGate):
        compile(circ, FAST)


def test_replay_matches_ideal_unitary(compiled, mixed_circuit):
    report = simulate_schedule(compiled)
    ideal = ideal_unitary(insert_swaps(mixed_circuit))
    assert np.max(np.abs(ideal_unitary(report.circuit) - ideal)) < 1e-9
    assert report.metadata["model_level"] == "gate_models"
    assert "proxy" in report.metadata["vacuum_return_note"]
    with pytest.raises(ValidationError):
        simulate_schedule(compiled, model_level="fields")


def test_infidelity_accounting(compiled):
    report = simulate_schedule(compiled)
    lam = compiled.resources.lam
    # 2 prep windows x 3 qubits x bound, plus per-gate lam with swap tripled
    expect = 2 * 3 * 0.5 + (4 + 3 * 3) * lam
    assert report.total_infidelity == pytest.approx(expect, rel=1e-9)
    budget = infidelity_budget(report, compiled)
    assert budget == pytest.approx(3 * 2 * 0.5 + 7 * 3 * lam, rel=1e-9)
    assert report.total_infidelity <= budget * (1.0 + 1e-12)


def test_vacuum_return_formula(compiled):
    report = simulate_schedule(compiled)
    amp2 = abs(ideal_unitary(report.circuit)[0, 0]) ** 2
    assert report.vacuum_return_probability == pytest.approx(
        amp2 * (1.0 - 0.5) ** 6, rel=1e-12)


def test_empty_circuit_compile():
    fields = compile(LogicalCircuit(1, ()), FAST)
    labels = [w.label for w in fields.windows]
    assert labels == ["j2_rampup", "prep", "reverse_prep", "j2_rampdown"]
    report = simulate_schedule(fields)
    np.testing.assert_allclose(ideal_unitary(report.circuit), np.eye(2),
                               atol=0.0)
    assert report.total_infidelity == pytest.approx(2 * 1 * 0.5)
    assert report.vacuum_return_probability == pytest.approx(0.25)


def test_config_hash_tracks_inputs(mixed_circuit, compiled):
    again = compile(mixed_circuit, FAST)
    assert again.config_hash == compiled.config_hash
    other = compile(mixed_circuit, CompileParams(eps=0.45))
    assert other.config_hash != compiled.config_hash
    assert len(compiled.config_hash) == 64


def test_config_hash_ignores_number_spelling():
    circuit = LogicalCircuit(1, (GateSpec("xrot", (0,), angle=0.8),))
    hashes = [compile(circuit, params,
                      ScalingConfig(oversampling=over)).config_hash
              for params, over in ((CompileParams(), 1.0),
                                   (CompileParams(), 1),
                                   (CompileParams(m=1), 1.0))]
    assert hashes[1] == hashes[0] and hashes[2] == hashes[0]


def test_save_load_round_trip(compiled, tmp_path):
    compiled.save(tmp_path)
    compiled.save_csv(os.path.join(tmp_path, "fields.csv"))
    loaded = CompiledFields.load(tmp_path)
    assert np.array_equal(loaded.j1, compiled.j1)
    assert np.array_equal(loaded.j2, compiled.j2)
    assert np.array_equal(loaded.t, compiled.t)
    assert np.array_equal(loaded.x, compiled.x)
    assert loaded.config_hash == compiled.config_hash
    assert loaded.resources == compiled.resources
    assert loaded.windows == compiled.windows
    csv_path = os.path.join(tmp_path, "fields.csv")
    with open(csv_path) as fh:
        head = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert head == "t,x,j1,j2"
    assert float(first[0]) == compiled.t[0]
    assert float(first[2]) == compiled.j1[0, 0]


def _row_loop_csv(fields, path):
    """The one-write-per-sample CSV writer, kept as the byte oracle."""
    nt, nx = fields.j1.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,j1,j2\n")
        for i in range(nt):
            ti = fields.t[i]
            for k in range(nx):
                fh.write(f"{ti:.17g},{fields.x[k]:.17g},"
                         f"{fields.j1[i, k]:.17g},{fields.j2[i, k]:.17g}\n")


@pytest.mark.parametrize("block", [3, 20, compiler.CSV_BLOCK_VALUES])
def test_save_csv_matches_row_loop(tmp_path, monkeypatch, block):
    # 13 x 7 = 91 samples: a block below one row still writes one time row,
    # and 20 samples make two-row blocks with a one-row remainder
    monkeypatch.setattr(compiler, "CSV_BLOCK_VALUES", block)
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 3.0, 13)
    x = np.linspace(-3.0, 3.0, 7)
    x[3] = -0.0
    j1 = rng.normal(size=(13, 7)) * 10.0 ** rng.integers(-300, 300, (13, 7))
    j2 = rng.normal(size=(13, 7))
    j1[0, 0], j1[4, 6], j2[12, 6] = -0.0, 5e-324, -2.5e-310
    # rows 5-8 repeat in both fields, a run that crosses block edges
    j1[5:9] = j1[5]
    j2[5:9] = j2[5]
    # all-zero rows, then a row that differs only in the sign of its zeros
    j1[9:11] = 0.0
    j1[11] = -0.0
    # in j2, rows 9 and 10 differ only in one zero's sign
    j2[10] = j2[9]
    j2[9, 2], j2[10, 2] = 0.0, -0.0
    fields = CompiledFields(t=t, x=x, n_qubits=1, windows=[], params={},
                            scaling=ScalingConfig(), config_hash="",
                            j1=j1, j2=j2)
    fields.save_csv(tmp_path / "chunked.csv")
    _row_loop_csv(fields, tmp_path / "rows.csv")
    chunked = (tmp_path / "chunked.csv").read_bytes()
    assert chunked == (tmp_path / "rows.csv").read_bytes()
    assert b",-0," in chunked and b"e-324" in chunked
    assert b"\n2.5,-3,0," in chunked and b"\n2.75,-3,-0," in chunked


def _fields(values_j1, values_j2):
    nt, nx = values_j1.shape
    return CompiledFields(t=np.linspace(0.0, 1.0, nt),
                          x=np.linspace(-1.0, 1.0, nx), n_qubits=1,
                          windows=[], params={}, scaling=ScalingConfig(),
                          config_hash="", j1=values_j1, j2=values_j2)


def _mirrored_rows(rng, nt, nx):
    """Random rows where row i and row nt - 1 - i meet every mirror case."""
    values = (rng.normal(size=(nt, nx))
              * 10.0 ** rng.integers(-300, 300, (nt, nx)))

    def mirror(i):
        values[nt - 1 - i] = -values[i]

    values[0, :4] = 5e-324, -2.5e-310, 1e-300, -np.inf
    mirror(0)
    # +0.0 on both sides is not a negation
    values[1] = values[nt - 2] = 0.0
    # a negation except for one zero's sign
    values[2, 1] = 0.0
    mirror(2)
    values[nt - 3, 1] = 0.0
    # "%.17g" drops a NaN's sign, so this pair is formatted twice
    values[3, 2] = np.nan
    mirror(3)
    # a repeated row and its mirror run
    values[5] = values[4]
    mirror(4)
    mirror(5)
    # the innermost pair: around the centre row, or adjacent for even nt
    mirror(nt // 2 - 1)
    return values


@pytest.mark.parametrize("nt", [15, 16, 20])
@pytest.mark.parametrize("block", [3, 20, compiler.CSV_BLOCK_VALUES])
def test_save_csv_reuses_mirror_rows_like_row_loop(tmp_path, monkeypatch,
                                                   block, nt):
    # with nx = 5, blocks of 3 and 20 values hold one and four time rows,
    # so every mirror pair crosses a block edge.  save_csv's child writes
    # rows [nt // 4, nt - nt // 4); at nt = 20 that is [5, 15), so the
    # repeated and mirrored rows 4 and 5 lie on either side of its first
    # row, and their mirrors 15 and 14 on either side of its end
    monkeypatch.setattr(compiler, "CSV_BLOCK_VALUES", block)
    rng = np.random.default_rng(nt)
    nx = 5
    j1, j2 = _mirrored_rows(rng, nt, nx), _mirrored_rows(rng, nt, nx)
    fields = _fields(j1, j2)
    fields.save_csv(tmp_path / "chunked.csv")
    _row_loop_csv(fields, tmp_path / "rows.csv")
    chunked = (tmp_path / "chunked.csv").read_bytes()
    assert chunked == (tmp_path / "rows.csv").read_bytes()
    for text in (b",-inf,", b",inf,", b",nan,", b"e-324,", b"e-310,"):
        assert text in chunked
    assert b",-nan," not in chunked
    # row 5 repeats row 4; the mirrors of rows 0, 4, 5 and nt // 2 - 1
    # reuse the kept text, so those five rows are not formatted
    formatted = []
    fmt_row = ",".join(["%.17g"] * nx).__mod__
    rows = list(_csvrows.row_strings(
        compiler._raw(j1), nx, lambda row: formatted.append(row)
        or fmt_row(row)))
    assert rows == [list(map("%.17g".__mod__, line.tolist())) for line in j1]
    assert len(formatted) == nt - 5


def test_save_csv_matches_row_loop_on_compiled(tmp_path):
    # ramps, prep windows and a gate window: J1 rows repeat outside the
    # prep windows and J2 rows inside them
    fields = compile(LogicalCircuit(1, (GateSpec("xrot", (0,), angle=0.8),)),
                     config=ScalingConfig(oversampling=1))
    for values in (fields.j1, fields.j2):
        bits = values.view(np.int64)
        assert (bits[1:] == bits[:-1]).all(axis=1).any()
    # the reverse prep mirrors the prep: J1 rows that are the bitwise
    # negation of their mirror rows
    bits, negated = fields.j1.view(np.int64), (-fields.j1).view(np.int64)
    assert (bits == negated[::-1]).all(axis=1).any()
    fields.save_csv(tmp_path / "chunked.csv")
    _row_loop_csv(fields, tmp_path / "rows.csv")
    assert ((tmp_path / "chunked.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


@pytest.mark.parametrize("nt", [1, 2, 3, 5])
def test_save_csv_split_with_an_empty_part_matches_row_loop(tmp_path, nt):
    # below nt = 4 the calling process writes no row and the child all of
    # them; at nt = 5 the caller writes rows 0 and 4, the child 1 to 3
    rng = np.random.default_rng(nt)
    fields = _fields(rng.normal(size=(nt, 3)), rng.normal(size=(nt, 3)))
    fields.j1[-1] = -fields.j1[0]
    fields.save_csv(tmp_path / "split.csv")
    _row_loop_csv(fields, tmp_path / "rows.csv")
    assert ((tmp_path / "split.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["rows.csv", "split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_save_csv_without_copy_file_range_writes_rows_in_order(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    fields = _fields(_mirrored_rows(rng, 16, 5), _mirrored_rows(rng, 16, 5))
    monkeypatch.delattr(os, "copy_file_range")
    monkeypatch.setattr(sys, "executable", "")  # a spawn would fail
    fields.save_csv(tmp_path / "in_order.csv")
    _row_loop_csv(fields, tmp_path / "rows.csv")
    assert ((tmp_path / "in_order.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_save_csv_caller_failure_kills_the_child(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    fields = _fields(rng.normal(size=(16, 5)), rng.normal(size=(16, 5)))
    out = tmp_path / "out"
    out.mkdir()
    # a stand-in child that outlives the test unless it is killed
    started = tmp_path / "started"
    child = tmp_path / "bin" / "python"
    child.parent.mkdir()
    child.write_text(f"#!/bin/sh\ntouch {started}\nexec sleep 60\n")
    child.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(child))
    blocks = _csvrows.csv_blocks

    def failing(*args):
        yield from itertools.islice(blocks(*args), 1)
        deadline = time.monotonic() + 10.0
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise _InjectedError("caller failed")

    monkeypatch.setattr(_csvrows, "csv_blocks", failing)
    begin = time.monotonic()
    with pytest.raises(_InjectedError):
        fields.save_csv(out / "fields.csv")
    assert started.exists() and time.monotonic() - begin < 30.0
    assert os.listdir(out) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_load_rejects_corrupt_files(compiled, tmp_path):
    compiled.save(tmp_path)
    with open(tmp_path / "fields.bin", "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(ValidationError):
        CompiledFields.load(tmp_path)
    compiled.save(tmp_path)
    os.truncate(tmp_path / "fields.bin", 2 * compiled.j1.nbytes - 8)
    with pytest.raises(ValidationError):
        CompiledFields.load(tmp_path)
    compiled.save(tmp_path)
    header = json.loads((tmp_path / "fields.json").read_text())
    # a version 2 header lacks the gate durations, so it cannot re-render;
    # a version 3 header lacks the scaling, so it cannot state resources
    for version in (2, 3, 99):
        header["format_version"] = version
        (tmp_path / "fields.json").write_text(json.dumps(header))
        with pytest.raises(ValidationError):
            CompiledFields.load(tmp_path)
    header["format_version"] = compiler.FORMAT_VERSION
    # an integral float is a count, as in a circuit or config file
    for key in ("nt", "nx", "n_qubits"):
        (tmp_path / "fields.json").write_text(json.dumps(
            {**header, key: float(header[key])}))
        loaded = CompiledFields.load(tmp_path)
        assert loaded.j2.tobytes() == compiled.j2.tobytes()
        assert loaded.n_qubits == compiled.n_qubits
    # a copy of the payload outside the directory must not be read
    outside = tmp_path.parent / (tmp_path.name + ".bin")
    outside.write_bytes((tmp_path / "fields.bin").read_bytes())
    window = header["windows"][0]
    bad = [{key: value for key, value in header.items() if key != missing}
           for missing in ("nx", "scaling", "t1", "windows")]
    bad += [{**header, "windows": [{**window, "colour": "red"}]},
            {**header, "windows": [{"label": window["label"]}]},
            {**header, "windows": [list(window.values())]},
            {**header, "scaling": [1.0, 4.0, 1000]},
            {**header, "payload": "../" + outside.name},
            {**header, "payload": str(outside)},
            {**header, "payload": ".."},
            {**header, "payload": None},
            list(header)]
    for corrupt in bad:
        (tmp_path / "fields.json").write_text(json.dumps(corrupt))
        with pytest.raises(ValidationError):
            CompiledFields.load(tmp_path)


HEADER_KEYS = {"format_version", "t0", "t1", "dt", "nt", "x0", "x1", "dx",
               "nx", "units", "payload", "payload_order", "n_qubits",
               "windows", "params", "scaling", "config_hash"}


@pytest.fixture(scope="module")
def saved_plan(tmp_path_factory):
    """A planned schedule, off the default scaling, and its field file."""
    circuit = LogicalCircuit(2, (
        GateSpec("xrot", (0,), angle=0.8),
        GateSpec("entangling", (0, 1), alpha=ALPHA, beta=BETA),
    ))
    plan = schedule(circuit, FAST, ScalingConfig(lambda_prefactor=0.5,
                                                 oversampling=1))
    out = tmp_path_factory.mktemp("fields")
    compiler.save(plan, out, "fields")
    return plan, out


def test_header_round_trip_states_each_fact_once(saved_plan):
    plan, out = saved_plan
    header = json.loads((out / "fields.json").read_text())
    assert set(header) == HEADER_KEYS
    loaded = CompiledFields.load(out)
    assert loaded.n_qubits == plan.n_qubits == 2
    assert loaded.scaling == plan.scaling
    assert loaded.params == plan.params
    assert loaded.windows == plan.windows
    assert loaded.config_hash == plan.config_hash
    assert loaded.resources == plan.resources
    assert loaded.resources.lam == 0.25


@pytest.mark.parametrize("scaling", [{"sample_cap": 0},
                                     {"oversampling": 0.5}])
def test_load_checks_the_scaling(saved_plan, tmp_path, scaling):
    _, out = saved_plan
    header = json.loads((out / "fields.json").read_text())
    header["scaling"].update(scaling)
    (tmp_path / "fields.json").write_text(json.dumps(header))
    os.symlink(out / "fields.bin", tmp_path / "fields.bin")
    with pytest.raises(ValidationError):
        CompiledFields.load(tmp_path)


def test_field_build_and_file_io_peak_memory(tmp_path):
    # the fields are built as outer products of their factors and the
    # payload moves through the arrays' own buffers, so beyond the two
    # (nt, nx) fields themselves only gate-window rows are allocated
    circuit = LogicalCircuit(3, (
        GateSpec("xrot", (0,), angle=1.0),
        GateSpec("entangling", (0, 1), alpha=ALPHA, beta=BETA),
        GateSpec("zrot", (2,), angle=0.3),
    ))
    tracemalloc.start()
    try:
        fields = compile(circuit)
        _, compile_peak = tracemalloc.get_traced_memory()
        field_bytes = fields.j1.nbytes
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fields.save(tmp_path)
        _, save_peak = tracemalloc.get_traced_memory()
        del fields
        before_load, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        CompiledFields.load(tmp_path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field_bytes > 10e6  # a grid large enough to dominate the peaks
    assert compile_peak <= 2.5 * field_bytes
    assert save_peak - before < 0.01 * 2 * field_bytes
    assert load_peak - before_load <= 2.1 * field_bytes


def test_schedule_matches_compile(mixed_circuit, compiled):
    sched = schedule(mixed_circuit, FAST, ScalingConfig())
    assert not hasattr(sched, "j1") and not hasattr(sched, "j2")
    assert sched.windows == compiled.windows  # labels, edges, qubits, records
    assert sched.resources == compiled.resources
    assert sched.params == compiled.params
    assert sched.config_hash == compiled.config_hash
    assert sched.n_qubits == compiled.n_qubits
    assert sched.scaling == compiled.scaling
    assert sched.t.tobytes() == compiled.t.tobytes()
    assert sched.x.tobytes() == compiled.x.tobytes()
    replay, again = simulate_schedule(sched), simulate_schedule(compiled)
    assert replay.circuit == again.circuit
    assert replay.total_infidelity == again.total_infidelity
    assert (replay.vacuum_return_probability
            == again.vacuum_return_probability)
    assert replay.metadata == again.metadata
    assert infidelity_budget(replay, sched) == infidelity_budget(again, compiled)


def test_schedule_peak_memory():
    # the circuit of test_field_build_and_file_io_peak_memory: the schedule
    # holds the grids and records, never a (nt, nx) array
    circuit = LogicalCircuit(3, (
        GateSpec("xrot", (0,), angle=1.0),
        GateSpec("entangling", (0, 1), alpha=ALPHA, beta=BETA),
        GateSpec("zrot", (2,), angle=0.3),
    ))
    params, config = CompileParams(), ScalingConfig()
    schedule(circuit, params, config)  # the entangling calibration is cached
    tracemalloc.start()
    try:
        sched = schedule(circuit, params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field_bytes = sched.t.size * sched.x.size * 8
    assert field_bytes > 10e6
    assert peak < 0.05 * field_bytes


def test_extent_grows_near_linearly():
    extents = []
    for n in (2, 4, 8):
        fields = compile(LogicalCircuit(n, ()), FAST)
        extents.append(fields.resources.extent)
    assert extents[1] / extents[0] == pytest.approx(2.0, rel=0.1)
    assert extents[2] / extents[1] == pytest.approx(2.0, rel=0.05)
