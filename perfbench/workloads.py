"""Seeded workloads of the fieldforge benchmark.

A workload turns ``(seed, index)`` into the inputs of one item, runs the
item against the package and checks the outputs against oracles written
here.  The package sees only the generated inputs.  Each workload is one
closed-loop client: the next item starts when the previous one ends.

Package functions are called through their modules (``cli.main``,
``fieldtheory.mode_decomposition``), so a traced run sees the same calls
as an untraced one.

cli_circuits  circuits on 2-4 qubits through ``fieldforge compile``,
              ``verify`` and ``hadamard``; the dense J1/J2 fields and their
              binary file dominate, and the entangling calibration is a
              cache hit.
design_export one distinct CompileParams point per item through
              ``calibrate entangling``, ``compile --format csv`` with
              ``CompiledFields.load`` of the result, and ``verify``; every
              item misses the entangling cache and writes a CSV.
numerics      the eigensolver, ODE and Fresnel kernels through the
              numerical API, with no compiler and no files.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
import scipy.special

from fieldforge import adiabatic, chirp, cli, compiler, fieldtheory, passage
from fieldforge.potentials import Grid

# Fresh-interpreter set-up a shell user pays on every CLI invocation: the
# imports plus the native entangling calibration.
CLI_SETUP = ("import fieldforge.cli\n"
             "from fieldforge.compiler import native_entangling_phases\n"
             "native_entangling_phases()\n")


def _cli(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


class Workload:
    name = ""
    stages = ()
    setup_code = "import fieldforge\n"

    def __init__(self, seed):
        self.seed = int(seed)

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def setup(self):
        """In-process first-use set-up, run once before the timed loop."""

    def make_item(self, index):
        raise NotImplementedError

    def prepare(self, item, workdir):
        """Write the item's input files; not timed."""

    def run(self, item, workdir, clock):
        """Timed work, one ``clock(fn, *args)`` call per stage; returns the
        outputs for check."""
        raise NotImplementedError

    def check(self, item, outputs, workdir):
        """Problems found in the outputs, as strings; empty when correct."""
        raise NotImplementedError


# --- cli_circuits ----------------------------------------------------------

# Each entangling gate between distant qubits on 4 qubits adds about 3.7 M
# samples through inserted swaps; two keep the largest circuit near 20 M,
# under the default 24 M sample cap.
MAX_DISTANT_ENTANGLING = 2


def _single_qubit(kind, angle):
    e = complex(math.cos(angle), -math.sin(angle))
    if kind == "zrot":
        return np.array([[1.0, 0.0], [0.0, e]])
    # the z rotation conjugated by the dual-rail Hadamard, in closed form
    return np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])


def ideal_vacuum_amplitude(circuit, alpha, beta):
    """<0...0|U|0...0> from Kronecker products (qubit 0 most significant)."""
    n = circuit["n_qubits"]
    dim = 2 ** n
    idx = np.arange(dim)
    u = np.eye(dim, dtype=complex)
    for g in circuit["gates"]:
        if g["kind"] == "entangling":
            a, b = g["qubits"]
            ba = (idx >> (n - 1 - a)) & 1
            bb = (idx >> (n - 1 - b)) & 1
            phase = np.ones(dim, dtype=complex)
            phase[(ba == 0) & (bb == 1)] = np.exp(1j * alpha)
            phase[(ba == 1) & (bb == 0)] = np.exp(1j * beta)
            u = phase[:, None] * u
        else:
            q = g["qubits"][0]
            full = np.kron(np.kron(np.eye(2 ** q),
                                   _single_qubit(g["kind"], g["angle"])),
                           np.eye(2 ** (n - q - 1)))
            u = full @ u
    return complex(u[0, 0])


def _check_payload(path, nt, nx, rows_per_read=256):
    """Payload size and bit-exact J1 antisymmetry, read in row blocks.

    Row i of J1 must equal minus row nt - 1 - i.  Reading blocks from both
    ends keeps the check's memory far below the program's own peak.
    """
    size = os.path.getsize(path)
    if size != 2 * nt * nx * 8:
        return [f"payload holds {size} bytes, expected {2 * nt * nx * 8}"]
    row_bytes = nx * 8
    with open(path, "rb") as fh:
        for lo in range(0, (nt + 1) // 2, rows_per_read):
            n = min(rows_per_read, (nt + 1) // 2 - lo)
            fh.seek(lo * row_bytes)
            head = np.fromfile(fh, dtype="<f8", count=n * nx).reshape(n, nx)
            fh.seek((nt - lo - n) * row_bytes)
            back = np.fromfile(fh, dtype="<f8", count=n * nx).reshape(n, nx)
            if not np.array_equal(head, -back[::-1]):
                return ["J1 is not antisymmetric in time"]
    return []


class CliCircuits(Workload):
    name = "cli_circuits"
    stages = ("compile", "verify", "hadamard")
    setup_code = CLI_SETUP

    def setup(self):
        self.native = compiler.native_entangling_phases()

    def make_item(self, index):
        rng = self.rng(index)
        # qubit count and gate count cycle through all 24 pairs, so every
        # run sees nearly the same mix of grid sizes
        n = (2, 3, 4)[index % 3]
        gates = []
        distant = 0
        for _ in range(3 + (index // 3) % 8):
            kind = str(rng.choice(["zrot", "xrot", "entangling"],
                                  p=[0.3, 0.3, 0.4]))
            if kind == "entangling":
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                if abs(a - b) > 1:
                    if distant == MAX_DISTANT_ENTANGLING:
                        b = a + 1 if a + 1 < n else a - 1
                    else:
                        distant += 1
                gates.append({"kind": "entangling", "qubits": [a, b]})
            elif kind == "zrot":
                gates.append({"kind": "zrot", "qubits": [int(rng.integers(n))],
                              "angle": float(rng.uniform(-1.5, 1.5))})
            else:
                gates.append({"kind": "xrot", "qubits": [int(rng.integers(n))],
                              "angle": float(rng.uniform(0.2, 1.4))})
        # z rotations and entangling phases leave |0...0> unchanged, so a
        # circuit without an x rotation would pass the vacuum oracles even
        # with wrong gate phases
        if not any(g["kind"] == "xrot" for g in gates):
            k = int(rng.integers(len(gates)))
            gates[k] = {"kind": "xrot", "qubits": [int(rng.integers(n))],
                        "angle": float(rng.uniform(0.2, 1.4))}
        return {"circuit": {"n_qubits": n, "gates": gates},
                "shots": 20_000,
                "shot_seed": int(rng.integers(2 ** 32))}

    def prepare(self, item, workdir):
        _write_json(os.path.join(workdir, "circuit.json"), item["circuit"])

    def run(self, item, workdir, clock):
        circuit = os.path.join(workdir, "circuit.json")
        out = os.path.join(workdir, "fields")
        comp = clock(_cli, ["compile", "--circuit", circuit, "--out", out])
        ver = clock(_cli, ["verify", "--circuit", circuit])
        had = clock(_cli, ["hadamard", "--circuit", circuit,
                           "--shots", str(item["shots"]),
                           "--seed", str(item["shot_seed"])])
        return {"compile": comp, "verify": ver, "hadamard": had}

    def check(self, item, outputs, workdir):
        problems = []
        amp = ideal_vacuum_amplitude(item["circuit"], *self.native)

        code, text, err = outputs["compile"]
        if code != 0:
            problems.append(f"compile exit {code}: {err.strip()}")
        else:
            res = json.loads(text)
            nt, nx = res["nt"], res["nx"]
            out = os.path.join(workdir, "fields")
            with open(os.path.join(out, "fields.json"), encoding="utf-8") as fh:
                header = json.load(fh)
            if (header["nt"], header["nx"]) != (nt, nx):
                problems.append("field header grid differs from compile output")
            problems += _check_payload(os.path.join(out, "fields.bin"), nt, nx)

        code, text, err = outputs["verify"]
        if code != 0:
            problems.append(f"verify exit {code}: {err.strip()}")
        else:
            res = json.loads(text)
            if res["within_budget"] is not True:
                problems.append("verify: not within budget")
            gap = abs(res["ideal_vacuum_probability"] - abs(amp) ** 2)
            if gap > 1e-12:
                problems.append(f"verify: ideal vacuum probability off by {gap:.3g}")

        code, text, err = outputs["hadamard"]
        if code not in (0, 2):
            problems.append(f"hadamard exit {code}: {err.strip()}")
        else:
            res = json.loads(text)
            if code != (2 if res["decision"] == "promise_violated" else 0):
                problems.append(f"hadamard exit {code} with {res['decision']}")
            p0 = min(max((1.0 + amp.real) / 2.0, 0.0), 1.0)
            if abs(res["p0_exact"] - p0) > 1e-12:
                problems.append("hadamard: p0_exact differs from the oracle")
            if res["shots"] != item["shots"]:
                problems.append("hadamard: shot count differs")
            pull = abs(res["estimate"] - amp.real) / res["standard_error"]
            if pull > 5.0:
                problems.append(f"hadamard: estimate {pull:.2f} sigma off")
        return problems


# --- design_export ---------------------------------------------------------


class DesignExport(Workload):
    name = "design_export"
    # The read-back is part of the export stage: alone it takes about 2 ms,
    # and page faults made its run-to-run spread 0.3-0.45.
    stages = ("calibrate", "export", "verify")
    setup_code = CLI_SETUP
    csv_rows_checked = 64

    def setup(self):
        compiler.native_entangling_phases()

    def make_item(self, index):
        rng = self.rng(index)
        params = {"well_width": float(rng.uniform(0.85, 1.15)),
                  "intra_spacing": float(rng.uniform(3.5, 4.5)),
                  "lam_gate": float(rng.uniform(0.5, 1.5)),
                  "g_qes": float(rng.uniform(0.008, 0.012)),
                  "beta_x": float(rng.uniform(40.0, 60.0))}
        # one gate sequence, so the field grid stays near 3.8k x 72
        first, second = ([0, 1], [2, 1]) if rng.integers(2) else ([1, 2], [1, 0])
        gates = [{"kind": "xrot", "qubits": [int(rng.integers(3))],
                  "angle": float(rng.uniform(0.2, 1.4))},
                 {"kind": "entangling", "qubits": first},
                 {"kind": "zrot", "qubits": [int(rng.integers(3))],
                  "angle": float(rng.uniform(-1.5, 1.5))},
                 {"kind": "entangling", "qubits": second}]
        return {"config": {"params": params, "scaling": {"oversampling": 1}},
                "circuit": {"n_qubits": 3, "gates": gates},
                "check_seed": int(rng.integers(2 ** 32))}

    def prepare(self, item, workdir):
        _write_json(os.path.join(workdir, "config.json"), item["config"])
        _write_json(os.path.join(workdir, "circuit.json"), item["circuit"])

    def run(self, item, workdir, clock):
        config = os.path.join(workdir, "config.json")
        circuit = os.path.join(workdir, "circuit.json")
        out = os.path.join(workdir, "fields")

        def export():
            comp = _cli(["compile", "--circuit", circuit, "--config", config,
                         "--out", out, "--format", "csv"])
            return comp, compiler.CompiledFields.load(out)

        cal = clock(_cli, ["calibrate", "entangling", "--config", config])
        comp, loaded = clock(export)
        ver = clock(_cli, ["verify", "--circuit", circuit, "--config", config])
        return {"calibrate": cal, "compile": comp, "loaded": loaded,
                "verify": ver}

    def check(self, item, outputs, workdir):
        problems = []
        code, text, err = outputs["calibrate"]
        if code != 0:
            problems.append(f"calibrate exit {code}: {err.strip()}")
        else:
            cal = json.loads(text)
            problems += self._check_calibration(item, cal)
            problems += self._check_verify(item, cal, outputs["verify"])

        code, text, err = outputs["compile"]
        if code != 0:
            problems.append(f"compile exit {code}: {err.strip()}")
            return problems
        res = json.loads(text)
        nt, nx = res["nt"], res["nx"]
        f = outputs["loaded"]
        if (f.t.size, f.x.size) != (nt, nx):
            problems.append("loaded grid differs from compile output")
            return problems
        rng = np.random.default_rng(item["check_seed"])
        rows = {1, nt * nx} | {int(r) for r in rng.integers(
            1, nt * nx + 1, size=self.csv_rows_checked)}
        # streamed, so the check adds little to the run's peak memory
        count = 0
        with open(os.path.join(workdir, "fields", "fields.csv"), "rb") as fh:
            header = fh.readline()
            for count, line in enumerate(fh, start=1):
                if count not in rows:
                    continue
                i, k = divmod(count - 1, nx)
                got = np.array([float(v) for v in line.split(b",")])
                want = np.array([f.t[i], f.x[k], f.j1[i, k], f.j2[i, k]])
                if got.tobytes() != want.tobytes():  # bits, so -0.0 != 0.0
                    problems.append(f"CSV row {count} {got} differs from "
                                    f"binary {want}")
                    rows = ()
        if header != b"t,x,j1,j2\n":
            problems.append(f"CSV header is {header!r}")
        if count != nt * nx:
            problems.append(f"CSV has {count + 1} rows, expected {nt * nx + 1}")
        return problems

    def _check_verify(self, item, cal, verify):
        """verify at the design point against the Kronecker oracle, with
        the phases the calibration achieved."""
        code, text, err = verify
        if code != 0:
            return [f"verify exit {code}: {err.strip()}"]
        res = json.loads(text)
        problems = []
        if res["within_budget"] is not True:
            problems.append("verify: not within budget")
        amp = ideal_vacuum_amplitude(item["circuit"], *cal["achieved_phases"][:2])
        gap = abs(res["ideal_vacuum_probability"] - abs(amp) ** 2)
        if gap > 1e-12:
            problems.append(f"verify: ideal vacuum probability off by {gap:.3g}")
        return problems

    def _check_calibration(self, item, cal):
        """C09 bounds on the calibration record the CLI printed."""
        problems = []
        if not cal["residual"] < 1e-9:
            problems.append(f"calibration residual {cal['residual']:.3g}")
        if not cal["leakage"] < 1e-6:
            problems.append(f"calibration leakage {cal['leakage']:.3g}")
        # the schedule the CLI calibrated: a cache hit for these params
        params = compiler.CompileParams(**item["config"]["params"])
        sched, _ = compiler._entangling_window(params)
        scale = cal["z"] * sched.tau  # z: the calibrated stretch factor
        int_c = scale * np.trapezoid(sched.c, sched.s_samples)
        int_d = scale * np.trapezoid(sched.d, sched.s_samples)
        alpha, beta = cal["achieved_phases"][:2]
        for label, phase, integral in (("alpha", alpha, int_c),
                                       ("beta", beta, int_d)):
            dev = abs(math.remainder(phase + integral, 2.0 * math.pi))
            if dev > 1e-6:
                problems.append(f"{label} differs from -integral by {dev:.3g}")
        return problems


# --- numerics --------------------------------------------------------------


def _bump_driven(tau, amp, gamma=1.0):
    def h(s):
        u = s * (2.0 - s)
        drive = amp * adiabatic.gevrey_bump(u)
        return np.array([[gamma / 2.0, drive], [drive, -gamma / 2.0]],
                        dtype=complex)
    return adiabatic.TimeDependentHamiltonian(dimension=2, evaluator=h, tau=tau)


def _chirp_trapezoid(src, omega, oversample=8.0):
    """Spectrum of the windowed chirp by the trapezoid rule on [-T/2, T/2]."""
    w_max = src.omega0 + src.B / 2.0
    m = int(np.ceil(src.T * 2.0 * w_max * oversample / (2.0 * np.pi)))
    t = np.linspace(-src.T / 2.0, src.T / 2.0, m + 1)
    amp = 2.0 / np.sqrt(src.T) if src.amplitude is None else src.amplitude
    f = amp * np.cos(src.omega0 * t + 0.5 * src.kappa * t ** 2)
    return np.array([np.trapezoid(f * np.exp(-1j * w * t), t) for w in omega])


class Numerics(Workload):
    name = "numerics"
    stages = ("probe", "dynamics", "spectrum")
    # Fixed grid sizes keep every item's eigensolver work the same.  An item
    # holds one of each stage and lasts about 5 s, so a run has several
    # items whose stages interleave over the run's machine states.
    grids = (1200, 1350)
    half_width = 54.0
    n_dynamics = 1
    n_sources = 3
    n_spectrum = 4001

    def make_item(self, index):
        rng = self.rng(index)
        probe = {"depth": float(rng.uniform(0.38, 0.45)),
                 "width": float(rng.uniform(1.2, 1.8)),
                 "overlap_seed": int(rng.integers(2 ** 32))}
        dynamics = []
        for _ in range(self.n_dynamics):
            w0 = float(rng.uniform(80.0, 120.0))
            omega_r = w0 * 1e-2 * float(rng.uniform(0.3, 1.0))
            dynamics.append({
                # w0 * T stays near 2000, which sets the lab-frame ODE work
                "sweep": {"omega0": w0, "Omega": omega_r,
                          "B": omega_r * float(rng.uniform(0.5, 2.0)),
                          "T": 2000.0 / w0 * float(rng.uniform(0.98, 1.02))},
                "ladder_eps": float(rng.uniform(0.18, 0.22)),
                "adiabatic": {"tau": float(rng.uniform(40.0, 80.0)),
                              "amp": float(rng.uniform(0.04, 0.06))}})
        chirps = []
        for _ in range(self.n_sources):
            # B T = kappa T^2 near 2000 fixes the spread of the Fresnel
            # arguments, and with it the Fresnel work per source
            kappa = float(rng.uniform(0.2, 0.5))
            bt = 2000.0 * float(rng.uniform(0.98, 1.02))
            chirps.append({"omega0": float(rng.uniform(30.0, 60.0)),
                           "kappa": kappa, "T": math.sqrt(bt / kappa)})
        return {"probe": probe, "dynamics": dynamics, "chirps": chirps,
                "check_seed": int(rng.integers(2 ** 32))}

    def run(self, item, workdir, clock):
        probe = clock(self._probe, item["probe"])
        dyn = clock(lambda: [self._dynamics(d) for d in item["dynamics"]])
        spec = clock(lambda: [self._spectrum(c) for c in item["chirps"]])
        return {"probe": probe, "dynamics": dyn, "spectrum": spec}

    def _probe(self, p):
        out = []
        for n in self.grids:
            grid = Grid.symmetric(self.half_width, n)
            j2 = -p["depth"] * np.exp(-grid.x ** 2 / (2.0 * p["width"] ** 2))
            basis = fieldtheory.mode_decomposition(j2, 1.0, grid,
                                                   n_continuum=None)
            sharp = fieldtheory.local_energy_probe(
                (np.abs(grid.x) <= 2.0).astype(float), basis)
            smooth = fieldtheory.local_energy_probe(
                np.exp(-grid.x ** 2 / (2.0 * 12.0 ** 2)), basis)
            rng = np.random.default_rng(p["overlap_seed"])
            k = basis.omegas.size
            overlaps = (0.3 * np.exp(-np.arange(k) / 30.0)
                        * (rng.normal(size=k) + 1j * rng.normal(size=k)))
            created = fieldtheory.creation_probabilities(overlaps, basis)
            out.append((basis, sharp, smooth, overlaps, created))
        return out

    def _dynamics(self, d):
        s = d["sweep"]
        sweep = passage.TwoLevelSweep(omega0=s["omega0"], Omega=s["Omega"],
                                      B=s["B"], T=s["T"])
        lab = passage.propagate_sweep(sweep, frame="lab")
        rwa = passage.propagate_sweep(sweep, frame="rwa")
        sp = passage.scale_parameters(d["ladder_eps"])
        conditions = passage.check_conditions(sp.g, sp.g, sp.B, sp.T, 1.0,
                                              sp.lam, sp.epsilon_used, C=1.0)
        ladder = passage.propagate_sweep(
            passage.TwoLevelSweep(omega0=1.0, Omega=sp.g, B=sp.B, T=sp.T))
        a = d["adiabatic"]
        system = _bump_driven(a["tau"], a["amp"])
        full = adiabatic.propagate(system, 2, mode="full")
        reduced = adiabatic.propagate(system, 2, mode="reduced")
        return {"lab": lab, "rwa": rwa, "conditions": conditions,
                "ladder": ladder, "full": full, "reduced": reduced}

    def _spectrum(self, c):
        src = chirp.ChirpSource(omega0=c["omega0"], kappa=c["kappa"], T=c["T"])
        band = src.B
        omega = np.linspace(src.omega0 - 1.5 * band, src.omega0 + 1.5 * band,
                            self.n_spectrum)
        spectrum = chirp.chirp_spectrum(src, omega)
        offsets = np.linspace(-2.0 * band, 2.0 * band, self.n_spectrum)
        component = chirp.g_component(src, offsets, +1)
        bounds = [chirp.region_bound(src, w).bound for w in offsets]
        return {"src": src, "omega": omega, "spectrum": spectrum,
                "offsets": offsets, "component": component, "bounds": bounds}

    def check(self, item, outputs, workdir):
        problems = self._check_probe(outputs["probe"])
        for d, out in zip(item["dynamics"], outputs["dynamics"]):
            problems += self._check_dynamics(d, out)
        rng = np.random.default_rng(item["check_seed"])
        for sp in outputs["spectrum"]:
            problems += self._check_spectrum(rng, sp)
        return problems

    def _check_probe(self, probes):
        problems = []
        for basis, sharp, smooth, overlaps, created in probes:
            n = basis.grid.n
            gram = basis.psis @ basis.psis.T * basis.grid.dx
            err = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
            if err > fieldtheory.ORTHONORMALITY_TOL:
                problems.append(f"n={n}: modes off orthonormal by {err:.3g}")
            dev = abs(smooth.shift / basis.omegas[0] - 1.0)
            if dev > 0.01:
                problems.append(f"n={n}: smooth-window shift {dev:.2%} from omega0")
            p0 = math.exp(-float(np.sum(np.abs(overlaps) ** 2
                                        / (2.0 * basis.omegas))))
            if abs(created.p0 - p0) > 1e-12 * p0:
                problems.append(f"n={n}: vacuum persistence {created.p0} != {p0}")
        if not probes[-1][1].variance > probes[0][1].variance:
            problems.append("sharp-window variance does not rise with refinement")
        return problems

    def _check_dynamics(self, d, out):
        problems = []
        s = d["sweep"]
        diff = float(np.linalg.norm(out["lab"].amplitudes
                                    - out["rwa"].amplitudes))
        bound = passage.rwa_error_bound(s["Omega"], s["omega0"], s["B"] / 2.0,
                                        s["T"])
        if diff > bound:
            problems.append(f"|lab - rwa| = {diff:.3g} above bound {bound:.3g}")
        if not out["conditions"].passed:
            problems.append("ladder parameters fail their conditions")
        infidelity = 1.0 - out["ladder"].fidelity
        if infidelity > 5.0 * d["ladder_eps"]:
            problems.append(f"ladder infidelity {infidelity:.3g}")
        gap = float(np.max(np.abs(out["full"].unitary
                                  - out["reduced"].unitary)))
        if gap > 1e-4:
            problems.append(f"reduced propagator {gap:.3g} from full")
        return problems

    def _check_spectrum(self, rng, sp):
        problems = []
        src = sp["src"]
        band = src.B
        in_band = np.flatnonzero(np.abs(sp["omega"] - src.omega0) <= 0.35 * band)
        pick = rng.choice(in_band, size=min(64, in_band.size), replace=False)
        ref = _chirp_trapezoid(src, sp["omega"][pick])
        rel = float(np.max(np.abs(sp["spectrum"][pick] - ref) / np.abs(ref)))
        if rel > 1e-3:
            problems.append(f"chirp spectrum {rel:.3g} from the trapezoid oracle")
        density = band / (2.0 * np.pi) * np.abs(sp["component"]) ** 2
        if np.any(density > np.asarray(sp["bounds"]) * (1.0 + 1e-9)):
            problems.append("one-sided component exceeds its region bound")
        # the Fresnel arguments g_component evaluated
        root = math.sqrt(src.kappa / math.pi)
        z = np.concatenate([root * (src.T / 2.0 - sp["offsets"] / src.kappa),
                            root * (src.T / 2.0 + sp["offsets"] / src.kappa)])
        c, s = chirp.fresnel(z)
        s_ref, c_ref = scipy.special.fresnel(z)
        err = max(float(np.max(np.abs(c - c_ref))),
                  float(np.max(np.abs(s - s_ref))))
        if err > 1e-10:
            problems.append(f"fresnel {err:.3g} from scipy.special.fresnel")
        return problems


WORKLOADS = {w.name: w for w in (CliCircuits, DesignExport, Numerics)}
