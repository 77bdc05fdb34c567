"""Compile logical circuits into source-field schedules J1, J2.

Compiling takes two steps.  The schedule step (schedule) routes the
circuit, calibrates each gate and lays out the windows: a smooth turn-on
of the double-well layout, one chirped J1 preparation pulse per qubit, one
well-trajectory window per gate, the time-reversed preparation, and the
turn-off.  It fixes the sample grids, checks them against the sample cap
and returns a Schedule: the grids, the qubit count, the window records,
the resolved parameters, the scaling and their hash, each stated once and
with no field sampled.  The render step reads the Schedule and nothing
else, so a field file's header is enough to rebuild its fields bit for
bit.  It builds both fields from their separable factors in two passes:
_fillers computes the factors once, each of length nt or nx, and returns
one fill per field that writes any block of rows [lo, hi) into a caller's
buffer, or returns rows it already holds.  Row i of J1 is
(pulse[i] - pulse[nt-1-i]) x S(x), with S the sum of the qubits'
left-well Gaussians; on the linspace time grid T_total - t[i] equals
t[nt-1-i] only to rounding, so the mirror is by row index.  Float
subtraction is antisymmetric, so J1[nt-1-i] = -J1[i] holds by value, and
bit for bit on every row where the pulse difference is nonzero.  Where it
is zero (outside the prep windows) both mirror rows hold +0.0, not the
-0.0 of a negation, and a block of such rows is a slice of one read-only
block of zeros.  J2 is envelope(t) x layout(x), plus each gate window's
local deformation on the rows where the window and the block overlap.
Most of J2's rows are idle, with an envelope of exactly 1.0 and no gate
window, so they equal the layout: a block of them is a slice of one
read-only block built once.  An entangling-class window moves two wells,
and each is evaluated only within WELL_REACH widths of its centres;
beyond, exp underflows to 0 and the window would add +0.0 to a layout
that holds no -0.0.  Every value depends on its row and column only,
never on the block, so any blocking gives the same bits.

_render fills all rows at once; compile returns CompiledFields, the
Schedule with the two dense grids, which is what the field file stores.
save streams a Schedule instead, through the one payload writer
_write_field_file: J1's and J2's row blocks are dealt in turn to two
workers, the calling thread and one more, and each fills its block into
its own buffer of FILE_BLOCK_VALUES // 2 samples and writes it at the
block's offset in the file.  The writes do not overlap: ext4 serializes
buffered writes to one file, and 77 MB of 1 MB pwrites took a median
26 ms from one thread and 24 ms from two (2-core virtualised Xeon).  The
second worker helps only by filling its block, in numpy outside the GIL,
while the other writes.  The CLI's compile holds one block's worth of
buffers, not two (nt, nx) grids, while writing the bytes
CompiledFields.save writes.  CompiledFields.save_csv, the text dump,
formats on two cores too: a child interpreter running the standard-library
module _csvrows writes the middle half of the time rows (see save_csv).

Gate windows carry the calibration records produced by the gates module,
with the bump's calibrated duration and the logical gate beside them;
simulate_schedule replays those records at the gate-model level rather
than re-solving the field theory, and its SimulationReport says so.  It
reads only the Schedule, so a replay needs no rendered field.

The resources are read off the plan, not modelled or stored beside it:
Schedule.resources builds them from the windows, the grids and the scaling
each time it is read.  The prep window lasts the passage ladder's T / m =
max(eps^-8, G^2) / m, so eps fixes it for G <= eps^-4, whatever n.  Each
gate window lasts what its calibration asks for (tau_z for a Z rotation,
the X parameter over m, the entangling trajectory's stretched tau), not
1/lambda^2.  The extent is affine in n, one block pitch per qubit, and the
sample count is 2 nt nx, at 64 bits a sample.
"""

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _csvrows
from .adiabatic import gevrey_bump
from .chirp import ChirpSource
from .circuits import GateSpec, LogicalCircuit, insert_swaps, vacuum_amplitude
from .errors import BudgetExceeded, InfeasibleGate, ValidationError, _count
from .gates import (
    BUMP_PEAK,
    WellPairTrajectory,
    _gaussian,
    calibrate_entangling,
    calibrate_x_gate,
    calibrate_z_gate,
    coefficients_from_wells,
)
from .passage import scale_parameters

INTER_QUBIT_TUNNELING = 1e-10
FORMAT_VERSION = 4
CSV_BLOCK_VALUES = 1 << 12   # samples per save_csv write (about 300 kB of text)
FILE_BLOCK_VALUES = 1 << 17  # two save workers' blocks, in samples (1 MB)
# widths from its centre past which a Gaussian well's exp(-d^2 / 2 w^2)
# underflows to 0: exp(-750) is below half the least denormal
WELL_REACH = math.sqrt(2.0 * 750.0)


@dataclass(frozen=True)
class ScalingConfig:
    """The coupling budget lambda G, the oversampling and the sample cap."""

    lambda_prefactor: float = 1.0
    oversampling: float = 4.0
    sample_cap: int = 24_000_000

    def __post_init__(self):
        if not 0 < self.lambda_prefactor < math.inf:
            raise ValidationError(
                "lambda_prefactor must be finite and positive")
        if not 1.0 <= self.oversampling < math.inf:
            raise ValidationError("oversampling must be finite and >= 1")
        if _count(self.sample_cap, "sample_cap") < 1:
            raise ValidationError("sample_cap must be a positive integer")


@dataclass(frozen=True)
class ResourceEstimate:
    """The resources of a planned schedule, read off its windows and grids.

    t_prep is the prep window's length, gate_times each gate window's
    length in gate order, extent the spatial extent and samples the
    2 nt nx values of J1 and J2, at 64 bits each in bit_count.
    """

    n_qubits: int
    gate_count: int
    lam: float
    t_prep: float
    gate_times: tuple
    total_gate_time: float
    extent: float
    samples: int
    bit_count: int
    config: dict

    def __post_init__(self):
        # a field file's header holds gate_times as a JSON list
        object.__setattr__(self, "gate_times", tuple(self.gate_times))
        for name in ("lam", "t_prep", "extent", "samples", "bit_count"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        pref = self.config.get("lambda_prefactor", 1.0)
        if self.lam * max(self.gate_count, 1) > pref * (1.0 + 1e-12):
            raise ValidationError("lambda G exceeds its prefactor budget")


@dataclass(frozen=True)
class CompileParams:
    """Physical scales of the compiled schedule, in mass units m = 1."""

    m: float = 1.0
    eps: float = 0.35          # passage accuracy parameter for the prep chirps
    well_depth: float = None   # J2 well depth; must stay below m^2/2
    well_width: float = None
    intra_spacing: float = None  # dual-rail pair separation
    tau_z: float = None          # Z-gate window duration
    g_qes: float = 0.01          # barrier parameter for X gates
    beta_x: float = 50.0         # X-gate bump amplitude
    lam_gate: float = 1.0        # quartic coupling used in gate calibration
    entangling_tol: float = 1e-6

    def resolved(self):
        m = self.m
        if not 0 < m < math.inf:
            raise ValidationError("need finite m > 0")
        depth = self.well_depth if self.well_depth is not None else 0.4 * m * m
        if not 0 < depth < 0.5 * m * m:
            raise ValidationError("well depth must lie in (0, m^2/2)")
        width = self.well_width if self.well_width is not None else 1.0 / m
        intra = self.intra_spacing if self.intra_spacing is not None else 4.0 / m
        tau_z = self.tau_z if self.tau_z is not None else 40.0 / m
        for name, value in (("well_width", width), ("intra_spacing", intra),
                            ("tau_z", tau_z), ("g_qes", self.g_qes)):
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be finite and positive")
        if not 0 <= self.entangling_tol < math.inf:
            raise ValidationError("entangling_tol must be finite and >= 0")
        if not (math.isfinite(self.beta_x) and math.isfinite(self.lam_gate)):
            raise ValidationError("beta_x and lam_gate must be finite")
        return m, depth, width, intra, tau_z


def compute_sampling(t_total, extent, omega_max, m, oversampling):
    """Sample counts (nt, nx, dt_max, dx_max) for a spacetime window.

    Nyquist in time against omega_max and in space against the correlation
    length 1/m, both oversampled.  At fixed (t_total, extent), doubling m
    (with omega_max ~ m) quadruples nt * nx.
    """
    if not all(0 < v < math.inf for v in (t_total, extent, omega_max, m)):
        raise ValidationError("sampling needs finite positive scales")
    dt_max = 2.0 * math.pi / (2.0 * omega_max * oversampling)
    dx_max = (1.0 / m) / oversampling
    nt = int(math.ceil(t_total / dt_max)) + 1
    nx = int(math.ceil(extent / dx_max)) + 1
    return nt, nx, dt_max, dx_max


def _switch_table():
    """The switch's grid on [0, 1] and its normalized running bump integral."""
    fine = np.linspace(0.0, 1.0, 4097)
    vals = gevrey_bump(fine)
    cumulative = np.concatenate(
        [[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0 * np.diff(fine))])
    return fine, cumulative / cumulative[-1]


_SWITCH_GRID, _SWITCH_VALUES = _switch_table()


def _switch(s):
    """Smooth monotone 0 -> 1 switch: normalized running bump integral."""
    return np.interp(np.asarray(s, dtype=float), _SWITCH_GRID, _SWITCH_VALUES)


@dataclass
class ScheduleWindow:
    label: str
    t_start: float
    t_end: float
    qubits: tuple = ()
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        # a field file's header holds qubits as a JSON list
        self.qubits = tuple(self.qubits)


@dataclass
class Schedule:
    """A compiled schedule without its fields: what simulate_schedule reads.

    The sample grids, the qubit count, the window records with their
    calibrations, the resolved parameters, the scaling and the hash of the
    last two: everything the field file's header holds, each fact once.
    The total time is t[-1], and the resources are read off the rest.
    """

    t: np.ndarray             # (nt,); t[-1] - t[i] is t[nt-1-i] to rounding
    x: np.ndarray             # (nx,)
    n_qubits: int
    windows: list
    params: dict
    scaling: ScalingConfig
    config_hash: str

    @property
    def resources(self):
        """The ResourceEstimate read off the windows, grids and scaling."""
        _, prep, *gates, _, _ = self.windows
        gate_times = tuple(w.t_end - w.t_start for w in gates)
        samples = 2 * self.t.size * self.x.size
        return ResourceEstimate(
            n_qubits=self.n_qubits, gate_count=len(gates),
            lam=self.scaling.lambda_prefactor / max(len(gates), 1),
            t_prep=prep.t_end - prep.t_start, gate_times=gate_times,
            total_gate_time=sum(gate_times, 0.0),
            extent=float(self.x[-1] - self.x[0]), samples=samples,
            bit_count=64 * samples, config=asdict(self.scaling))


@dataclass
class CompiledFields(Schedule):
    """A Schedule with its sampled fields."""

    j1: np.ndarray            # (nt, nx): pulse difference x left-well profile
    j2: np.ndarray            # (nt, nx): envelope x layout, plus gate windows

    def save(self, out_dir, basename="fields"):
        """JSON header plus raw little-endian float64 payload (t outer, x inner)."""
        _write_field_file(self, out_dir, basename,
                          (lambda lo, hi, block: self.j1[lo:hi],
                           lambda lo, hi, block: self.j2[lo:hi]))

    def save_csv(self, path):
        """One "t,x,j1,j2" row per sample, time-major, at 17 digits.

        The text is formatted on two cores.  With q = nt // 4, the calling
        process writes rows [0, q) and [nt - q, nt), and a child interpreter
        (python -I -S running _csvrows) writes rows [q, nt - q).  Both
        ranges are symmetric about the centre row, so each process pairs
        row i with its mirror row nt - 1 - i.  The child reads the raw bytes
        of x and of its rows' t, J1 and J2 from one unnamed temporary file
        and writes its text to a second; the caller keeps its last rows'
        text in a third, then appends the two to path with
        os.copy_file_range.  The three files live in path's directory,
        unnamed, so they vanish when closed and the copies stay on one
        file system.  If either process fails, the child is killed and
        reaped, path is removed, and the error is raised: a child's
        non-zero exit as OSError.  Where os.copy_file_range or
        sys.executable is missing, the caller writes every row, in order.

        Each process formats its rows in blocks of CSV_BLOCK_VALUES
        samples (see _csvrows.csv_blocks), and formats a field row only
        when it is new: a row with the bits of the previous row reuses its
        strings, and a row whose bits are the negation of its mirror row's
        reuses the mirror's text with every sign toggled.  That covers the
        reverse prep of J1, where J1(T - t) = -J1(t).  Rows that print a
        NaN are formatted fresh, since "%.17g" drops a NaN's sign.
        """
        nt, nx = self.j1.shape
        rows = max(1, CSV_BLOCK_VALUES // nx)
        split = hasattr(os, "copy_file_range") and bool(sys.executable)
        q = nt // 4 if split else nt
        mine = np.r_[0:q, nt - q:nt] if split else slice(None)
        directory = os.path.dirname(os.path.abspath(path))
        try:
            with contextlib.ExitStack() as stack:
                if split:  # first, so the child starts while we format
                    middle = _spawn_rows(self, q, nt - q, rows, directory,
                                         stack)
                texts = _csvrows.csv_blocks(
                    _raw(self.x), *(_raw(a[mine])
                                    for a in (self.t, self.j1, self.j2)),
                    rows, q)
                fh = stack.enter_context(open(path, "w", encoding="utf-8"))
                fh.write("t,x,j1,j2\n")
                fh.writelines(itertools.islice(texts, -(-q // rows)))
                if split:
                    last = stack.enter_context(tempfile.TemporaryFile(
                        "w+", encoding="utf-8", dir=directory))
                    last.writelines(texts)
                    last.flush()
                    fh.flush()
                    _append(middle(), fh)
                    _append(last, fh)
        except BaseException:
            _unlink(path)
            raise

    @classmethod
    def load(cls, out_dir, basename="fields"):
        with open(os.path.join(out_dir, basename + ".json"),
                  encoding="utf-8") as fh:
            header = json.load(fh)
        if not isinstance(header, dict):
            raise ValidationError("field file header must be a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise ValidationError("unknown field file format version")
        try:
            nt, nx = _count(header["nt"], "nt"), _count(header["nx"], "nx")
            ends = [header[key] for key in ("t0", "t1", "x0", "x1")]
            payload = header["payload"]
            plan = dict(
                n_qubits=_count(header["n_qubits"], "n_qubits"),
                windows=[ScheduleWindow(**w) for w in header["windows"]],
                params=header["params"],
                scaling=ScalingConfig(**header["scaling"]),
                config_hash=header["config_hash"])
        except KeyError as exc:
            raise ValidationError(f"field file header lacks {exc}") from exc
        except TypeError as exc:
            raise ValidationError(f"bad field file header: {exc}") from exc
        # the payload sits beside its header, never elsewhere
        if not (isinstance(payload, str) and payload not in ("", ".", "..")
                and os.path.basename(payload) == payload):
            raise ValidationError(f"payload must be a bare file name, "
                                  f"got {payload!r}")
        with open(os.path.join(out_dir, payload), "rb") as fh:
            if os.fstat(fh.fileno()).st_size != 2 * nt * nx * 8:
                raise ValidationError("payload size does not match header")
            j1 = np.fromfile(fh, "<f8", nt * nx).reshape(nt, nx)
            j2 = np.fromfile(fh, "<f8", nt * nx).reshape(nt, nx)
        # linspace reconstruction is bit-exact against the writer's grids
        t = np.linspace(ends[0], ends[1], nt)
        x = np.linspace(ends[2], ends[3], nx)
        return cls(t=t, x=x, **plan, j1=j1, j2=j2)


def _write_field_file(plan, out_dir, basename, fills):
    """The payload of plan's fields, then its JSON header.

    fills are J1's and J2's fill(lo, hi, block), each returning the field's
    rows [lo, hi), t outer and x inner.  The rows are cut into blocks of
    FILE_BLOCK_VALUES // 2 samples, J1's and then J2's, and block i goes to
    worker i % 2: the calling thread and one more.  Each worker owns one
    buffer of that size, made when a fill first calls block(n) for a view
    of its first n rows, so fills that return rows they already hold cost
    no buffer.  A worker writes what fill returns at the block's own offset
    in the file, so the bytes do not depend on which worker finishes
    first.  A header or CSV of basename left by an earlier write is removed
    first, and the header is written once every block has landed.  If a
    worker fails, the other stops after its current block, the payload and
    any header are removed, and the first error is raised as it was.
    """
    os.makedirs(out_dir, exist_ok=True)
    header = {
        "format_version": FORMAT_VERSION,
        "t0": float(plan.t[0]), "t1": float(plan.t[-1]),
        "dt": float(plan.t[1] - plan.t[0]), "nt": int(plan.t.size),
        "x0": float(plan.x[0]), "x1": float(plan.x[-1]),
        "dx": float(plan.x[1] - plan.x[0]), "nx": int(plan.x.size),
        "units": "natural, mass m = 1 scale",
        "payload": basename + ".bin",
        "payload_order": ["j1", "j2"],
        "n_qubits": plan.n_qubits,
        "windows": [asdict(w) for w in plan.windows],
        "params": plan.params,
        "scaling": asdict(plan.scaling),
        "config_hash": plan.config_hash,
    }
    nt, nx = plan.t.size, plan.x.size
    rows = _block_rows(nx)
    blocks = [(k, lo, min(lo + rows, nt))
              for k in range(2) for lo in range(0, nt, rows)]
    header_path = os.path.join(out_dir, basename + ".json")
    payload_path = os.path.join(out_dir, basename + ".bin")
    errors = []

    def work(mine):
        buffer = None

        def block(n):
            nonlocal buffer
            if buffer is None:
                buffer = np.empty((min(rows, nt), nx))
            return buffer[:n]

        try:
            for k, lo, hi in mine:
                if errors:
                    return
                data = memoryview(np.ascontiguousarray(
                    fills[k](lo, hi, block), "<f8")).cast("B")
                offset = (k * nt + lo) * nx * 8
                while data:
                    written = os.pwrite(fd, data, offset)
                    data, offset = data[written:], offset + written
        except BaseException as exc:
            errors.append(exc)

    try:
        # a stale header or CSV must not sit beside this payload
        _unlink(header_path)
        _unlink(os.path.join(out_dir, basename + ".csv"))
        fd = os.open(payload_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o666)
        try:
            helper = threading.Thread(target=work, args=(blocks[1::2],))
            helper.start()
            work(blocks[0::2])
            helper.join()
        finally:
            os.close(fd)
        if errors:
            raise errors[0]
        with open(header_path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=2)
    except BaseException:
        _unlink(payload_path)
        _unlink(header_path)
        raise


def _block_rows(nx):
    """Rows in one of _write_field_file's blocks of a field nx samples wide."""
    return max(1, FILE_BLOCK_VALUES // 2 // nx)


def _unlink(path):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _raw(values):
    """The bytes of an array as little-endian float64, without a copy
    where they already are."""
    return memoryview(
        np.ascontiguousarray(values, "<f8").reshape(-1).view(np.uint8))


def _spawn_rows(fields, lo, hi, rows, directory, stack):
    """Start a child writing the CSV text of fields' rows [lo, hi).

    The child, _csvrows run by sys.executable -I -S, reads the rows'
    values from an unnamed temporary file in directory and writes their
    text, in blocks of rows rows, to a second one.  Both files and the
    child belong to stack: on its exit a child still running is killed,
    and every child is reaped.  Returns a function that waits for the
    child and returns its text file, or raises OSError if it failed.
    """
    import subprocess  # on first use: a compile without a CSV never spawns

    source = stack.enter_context(tempfile.TemporaryFile(dir=directory))
    for values in (fields.x, fields.t[lo:hi], fields.j1[lo:hi],
                   fields.j2[lo:hi]):
        source.write(_raw(values))
    source.seek(0)
    text = stack.enter_context(tempfile.TemporaryFile(dir=directory))
    child = stack.enter_context(subprocess.Popen(
        [sys.executable, "-I", "-S", _csvrows.__file__,
         str(hi - lo), str(fields.x.size), str(rows)],
        stdin=source, stdout=text, stderr=subprocess.PIPE))
    stack.callback(_stop, child)

    def finish():
        _, err = child.communicate()
        if child.returncode:
            lines = err.decode(errors="replace").strip().splitlines()
            raise OSError(f"CSV row writer exited with status "
                          f"{child.returncode}: "
                          f"{lines[-1] if lines else 'no message'}")
        return text

    return finish


def _stop(child):
    """Kill child if it still runs, and reap it."""
    if child.poll() is None:
        child.kill()
        child.wait()


def _append(source, target):
    """Append all of file source at target's position, in the kernel."""
    size, done = os.fstat(source.fileno()).st_size, 0
    while done < size:
        copied = os.copy_file_range(source.fileno(), target.fileno(),
                                    size - done, done)
        if not copied:
            raise OSError(f"copy stopped at byte {done} of {size}")
        done += copied


def _config_hash(params: dict, config: ScalingConfig):
    """sha256 of the compile inputs, numbers as floats: 1 and 1.0 agree."""
    def canonical(record):
        return {k: float(v) if isinstance(v, (int, float))
                and not isinstance(v, bool) else v for k, v in record.items()}
    blob = json.dumps({"params": canonical(params),
                       "config": canonical(asdict(config))}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _inter_qubit_gap(m, depth):
    """Spacing between qubit blocks keeping the tunneling estimate tiny.

    gap = 1.02 ln(1/INTER_QUBIT_TUNNELING)/kappa, so the estimate
    W = exp(-kappa gap) = INTER_QUBIT_TUNNELING^1.02 is below the target
    for every m and depth.
    """
    # generic mid-well binding scale: half the well depth below the barrier top
    barrier = depth
    energy = -0.5 * depth
    kappa = math.sqrt(2.0 * m * (barrier - energy))
    gap = 1.02 * math.log(1.0 / INTER_QUBIT_TUNNELING) / kappa
    return gap, np.exp(-gap * kappa)


@functools.lru_cache(maxsize=8)
def _entangling_window(params: CompileParams):
    """Canonical entangling trajectory and its calibration (cached).

    The trajectory uses the fixed gate-level coupling params.lam_gate, not
    the replay's lambda = lambda_prefactor / G, so the native phases do not
    depend on the circuit being compiled.
    """
    m, depth, width, intra, _ = params.resolved()
    pair_width = 0.7 * width
    traj = WellPairTrajectory(ell_max=2.0 * intra, ell_min=3.0 * pair_width,
                              depth=4.5 * m * m, width=pair_width,
                              tau=40.0 / m)
    sched = coefficients_from_wells(traj, params.lam_gate, m)
    cal = calibrate_entangling(sched)
    return sched, cal


def native_entangling_phases(params: CompileParams = None):
    """(alpha, beta) realized by the canonical entangling well trajectory."""
    _, cal = _entangling_window(params or CompileParams())
    return cal.achieved_phases[0], cal.achieved_phases[1]


def schedule(circuit: LogicalCircuit, params: CompileParams,
             config: ScalingConfig):
    """The schedule compile renders, without sampling either field.

    Routing, the gate calibrations, the window edges and records, the
    grids and the sample-cap check are all here; nothing of size nt * nx
    is allocated.  Each gate window's record is its calibration, the
    bump's calibrated duration and the logical gate it realizes, so the
    Schedule alone fixes the rendered fields.
    """
    n = circuit.n_qubits
    m, depth, width, intra, tau_z = params.resolved()
    gap, tunneling = _inter_qubit_gap(m, depth)
    pitch = intra + gap
    margin = 8.0 * width
    # scalar extent: nothing of size n is built before the sample-cap check
    x0 = -intra / 2.0 - margin
    x1 = (n - 1) * pitch + intra / 2.0 + margin
    extent = x1 - x0

    # a lower bound on the samples meets the cap before routing, since
    # insert_swaps builds each distant gate's swap chain, up to n long.
    # With more gates the prep T = max(eps^-8, G^2) grows and the band
    # eps^4 shrinks, so every window is at least its G = 1 length and
    # omega_max at least the carrier's 1.25 omega0: no routing needs fewer
    omega0 = m
    t_ramp = 50.0 / m
    t_prep = scale_parameters(params.eps, G=1).T / omega0
    nt, nx, _, _ = compute_sampling(sum([t_ramp, t_prep, t_prep, t_ramp]),
                                    extent, omega0 * 1.25, m,
                                    config.oversampling)
    if 2 * nt * nx > config.sample_cap:
        raise BudgetExceeded(f"schedule needs at least {2 * nt * nx} "
                             f"samples, cap is {config.sample_cap}")

    nn = insert_swaps(circuit)

    # prep chirp per qubit, parameters from the passage scaling ladder
    sp = scale_parameters(params.eps, G=max(len(nn.gates), 1))
    t_prep = sp.T / omega0
    band = sp.B * omega0

    # gate calibrations first, window durations follow from them
    gate_entries = []
    for gate in nn.gates:
        if gate.kind == "zrot":
            cal = calibrate_z_gate(gate.angle, tau=tau_z * m)
            gate_entries.append((gate, cal, tau_z))
        elif gate.kind == "xrot":
            cal = calibrate_x_gate(params.g_qes, params.beta_x,
                                   target=gate.angle)
            gate_entries.append((gate, cal, cal.parameter_value / m))
        elif gate.kind == "entangling":
            sched, cal = _entangling_window(params)
            want = (gate.alpha, gate.beta)
            got = cal.achieved_phases[:2]
            dev = max(abs(math.remainder(w - g, 2.0 * math.pi))
                      for w, g in zip(want, got))
            if dev > params.entangling_tol:
                raise InfeasibleGate(
                    f"requested entangling phases {want} differ from the "
                    f"calibrated trajectory's {tuple(got)} by {dev:.3g}")
            gate_entries.append((gate, cal,
                                 sched.tau * cal.parameter_value))
        else:  # swap: three entangling-class windows back to back
            sched, cal = _entangling_window(params)
            gate_entries.append((gate, cal,
                                 3.0 * sched.tau * cal.parameter_value))

    durations = ([t_ramp, t_prep] + [d for (_, _, d) in gate_entries]
                 + [t_prep, t_ramp])
    t_total = sum(durations)
    edges = np.concatenate([[0.0], np.cumsum(durations)])

    # Nyquist sampling: the fastest time scale is the chirp carrier plus
    # half its band (with slack); the spatial correlation length is 1/m
    omega_max = omega0 * 1.25 + band / 2.0
    nt, nx, _, _ = compute_sampling(t_total, extent, omega_max, m,
                                    config.oversampling)
    samples = 2 * nt * nx
    if samples > config.sample_cap:
        raise BudgetExceeded(
            f"schedule needs {samples} samples, cap is {config.sample_cap}")
    # uniform grids: t_total - t[i] is t[nt-1-i] only to rounding
    t = np.linspace(0.0, t_total, nt)
    x = np.linspace(x0, x1, nx)

    # J2 is switched on over the first window and off over the last; the
    # prep window drives J1, its time reversal takes the particles out
    prep_bound = sp.epsilon_used  # passage error bound with unit prefactor
    windows = [
        ScheduleWindow("j2_rampup", float(edges[0]), float(edges[1])),
        ScheduleWindow(
            "prep", float(edges[1]), float(edges[2]), tuple(range(n)),
            {"eps": sp.epsilon_used, "g": sp.g, "lam_source": sp.lam,
             "B": sp.B, "T": sp.T, "prep_infidelity_bound": prep_bound}),
    ]
    # the window's t_end - t_start carries the rounding of the cumulative
    # edges, so the record states the calibrated duration itself
    for k, (gate, cal, duration) in enumerate(gate_entries):
        record = cal.record() | {
            "duration": duration,
            "logical": {"angle": gate.angle, "alpha": gate.alpha,
                        "beta": gate.beta}}
        windows.append(ScheduleWindow(
            f"gate:{gate.kind}", float(edges[2 + k]), float(edges[3 + k]),
            gate.qubits, record))
    windows.append(ScheduleWindow(
        "reverse_prep", float(edges[-3]), float(edges[-2]), tuple(range(n)),
        {"prep_infidelity_bound": prep_bound}))
    windows.append(ScheduleWindow("j2_rampdown", float(edges[-2]),
                                  float(edges[-1])))

    params_record = {
        "m": m, "eps": params.eps, "well_depth": depth, "well_width": width,
        "intra_spacing": intra, "tau_z": tau_z, "g_qes": params.g_qes,
        "beta_x": params.beta_x, "lam_gate": params.lam_gate,
        "pitch": pitch, "inter_qubit_tunneling": tunneling,
    }
    return Schedule(
        t=t, x=x, n_qubits=n, windows=windows, params=params_record,
        scaling=config, config_hash=_config_hash(params_record, config))


def _fillers(plan: Schedule):
    """(fill_j1, fill_j2): fill(lo, hi, block) writes a field's rows [lo, hi).

    Every value comes from the Schedule, which is the field file's header:
    the layout from params, the ramps and the prep from their windows, and
    each gate term from its window's record.  The factors are built here,
    once, each of length nt or nx: the envelope, the pulse difference, the
    layout, the left-well profile, and each gate window's rows and bump.
    A fill writes J1 = (pulse(t) - pulse(T_total - t)) x S(x) or J2 =
    envelope(t) x layout(x) on its rows into out = block(hi - lo), of shape
    (hi - lo, nx), adds each gate window's deformation on the rows it
    shares with the block, and returns out.  A J2 block of idle rows,
    envelope exactly 1.0 and in no gate window, returns a slice of one
    read-only block of layout rows instead, built here and no taller than
    a save block; a J1 block whose pulse difference is +0.0 on every row
    returns a slice of one such block of zeros, and neither calls block.
    An entangling-class window evaluates each moved well and its parked
    well only on the columns within WELL_REACH widths of their centres,
    in place in one buffer per well, in the order the full-width sum
    would use.
    """
    t, x = plan.t, plan.x
    nt = t.size
    t_total = t[-1]  # linspace sets the endpoint exactly
    p = plan.params
    m, depth, width = p["m"], p["well_depth"], p["well_width"]
    first, prep, *gate_windows, _, last = plan.windows
    t_ramp = first.t_end

    # static layout: one double well per qubit, wells[q] = (left, right)
    centers = np.arange(plan.n_qubits) * p["pitch"]
    wells = np.stack([centers - p["intra_spacing"] / 2.0,
                      centers + p["intra_spacing"] / 2.0], axis=1)

    def well(center):
        return -depth * _gaussian(x, center, width)

    layout = sum(map(well, wells.ravel()))

    # J2 = envelope (x) layout, switched on over the first window and off
    # over the last; gate windows add their local terms in fill_j2
    ramp_up = t < t_ramp
    ramp_down = t > last.t_start
    envelope = np.ones(nt)
    envelope[ramp_up] = _switch(t[ramp_up] / t_ramp)
    envelope[ramp_down] = _switch((t_total - t[ramp_down]) / t_ramp)

    # prep: chirped J1 pulse centered in each qubit's left well, minus its
    # row-reversed copy, so J1[nt-1-i] = -J1[i] by value (module note)
    rec = prep.calibration
    t_prep = rec["T"] / m
    chirp = ChirpSource(omega0=m, kappa=rec["B"] * m / t_prep, T=t_prep,
                        amplitude=rec["g"])
    sel = (t >= prep.t_start) & (t <= prep.t_end)
    pulse = np.zeros(nt)
    pulse[sel] = chirp(t[sel] - prep.t_start - t_prep / 2.0)
    difference = pulse - pulse[::-1]
    profile = sum(_gaussian(x, c, width) for c in wells[:, 0])
    # outside the prep windows the difference is +0.0, and so is its row:
    # a block of such rows is a slice of one shared block of zeros
    live_before = np.concatenate(
        [[0], np.cumsum(difference.view(np.int64) != 0)])
    zeros = np.zeros((min(nt, _block_rows(x.size)), x.size))
    zeros.flags.writeable = False

    # gate windows: (first row, end row, time factor, x factor) on the
    # window's rows t_start <= t < t_end; an entangling-class window's x
    # factor is the pair of facing well centres its time factor moves, each
    # with its parked well
    terms = []
    for w in gate_windows:
        rec = w.calibration
        r0, r1 = np.searchsorted(t, (w.t_start, w.t_end))
        bump = gevrey_bump((t[r0:r1] - w.t_start) / rec["duration"])
        if w.label == "gate:zrot":
            # deepen the occupied (left) well of the target qubit
            amp = abs(rec["beta"]) / 50.0
            terms.append((r0, r1, amp * bump, well(wells[w.qubits[0], 0])))
        elif w.label == "gate:xrot":
            # add +(beta/100) depth bump(s) times a Gaussian of half the
            # well width at the target qubit's centre: this raises the
            # barrier between its wells
            barrier = depth * _gaussian(x, centers[w.qubits[0]], width / 2.0)
            terms.append((r0, r1, (rec["beta"] / 100.0) * bump, barrier))
        else:
            # move the facing center wells of the qubit pair toward each other
            qa, qb = sorted(w.qubits)
            ca, cb = wells[qa, 1], wells[qb, 0]
            terms.append((r0, r1, (0.3 * (cb - ca)) * bump / BUMP_PEAK,
                          (ca, well(ca), cb, well(cb))))

    # an idle row, envelope exactly 1.0 and in no gate window, is the
    # layout; a block of idle rows is a slice of one shared block of them
    busy = envelope != 1.0
    for r0, r1, _, _ in terms:
        busy[r0:r1] = True
    busy_before = np.concatenate([[0], np.cumsum(busy)])
    idle = np.tile(layout, (min(nt, _block_rows(x.size)), 1))
    idle.flags.writeable = False

    # shifted(centre, parked, to) is moved - parked, row by row, for a well
    # moved from centre to to[row], on the columns within WELL_REACH widths
    # of centre or of some to[row]; beyond, both underflow to -0.0 and
    # their difference is +0.0
    reach = WELL_REACH * width
    scale = -2.0 * width ** 2  # (-a) / b is a / (-b) bit for bit

    def shifted(centre, parked, to):
        cols = slice(*np.searchsorted(x, (min(centre, to.min()) - reach,
                                          max(centre, to.max()) + reach)))
        out = np.subtract(x[cols], to[:, None])
        np.square(out, out=out)
        np.divide(out, scale, out=out)
        np.exp(out, out=out)
        np.multiply(out, -depth, out=out)
        out -= parked[cols]
        return cols, out

    def fill_j1(lo, hi, block):
        if live_before[hi] == live_before[lo] and hi - lo <= len(zeros):
            return zeros[:hi - lo]
        return np.multiply(difference[lo:hi, None], profile,
                           out=block(hi - lo))

    def fill_j2(lo, hi, block):
        if busy_before[hi] == busy_before[lo] and hi - lo <= len(idle):
            return idle[:hi - lo]
        out = np.multiply(envelope[lo:hi, None], layout, out=block(hi - lo))
        for r0, r1, time_factor, x_factor in terms:
            a, b = max(r0, lo), min(r1, hi)
            if a >= b:
                continue
            rows, coef = out[a - lo:b - lo], time_factor[a - r0:b - r0]
            if isinstance(x_factor, tuple):
                # 0 <= coef <= 0.3 (cb - ca) keeps ca + coef below cb - coef,
                # so a's columns start and end no later than b's.  Rows gain
                # moved_a + moved_b where both are evaluated; elsewhere the
                # other is +0.0, and v + 0.0 is v: neither is -0.0, nor is
                # 1.0 x layout
                ca, parked_a, cb, parked_b = x_factor
                near_a, moved_a = shifted(ca, parked_a, ca + coef)
                near_b, moved_b = shifted(cb, parked_b, cb - coef)
                lap = max(near_a.stop - near_b.start, 0)
                moved_a[:, moved_a.shape[1] - lap:] += moved_b[:, :lap]
                rows[:, near_a] += moved_a
                rows[:, near_b.start + lap:near_b.stop] += moved_b[:, lap:]
            else:
                rows += np.outer(coef, x_factor)
        return out

    return fill_j1, fill_j2


def _render(plan: Schedule):
    """(J1, J2) of a schedule: each field's fill over all of its rows."""
    nt, nx = plan.t.size, plan.x.size
    return tuple(fill(0, nt, lambda n: np.empty((n, nx)))
                 for fill in _fillers(plan))


def compile(circuit: LogicalCircuit, params: CompileParams = None,
            config: ScalingConfig = None):
    """Compile a logical circuit into sampled source fields with annotations."""
    plan = schedule(circuit, params or CompileParams(),
                    config or ScalingConfig())
    j1, j2 = _render(plan)
    return CompiledFields(**vars(plan), j1=j1, j2=j2)


def save(plan: Schedule, out_dir, basename):
    """Write a schedule's field file without holding its fields.

    J1 and J2 are rendered and written in row blocks on two threads, each
    filling its own buffer of FILE_BLOCK_VALUES // 2 samples, so no (nt, nx)
    array is allocated (see _write_field_file).  The bytes are those
    CompiledFields.save writes for the compiled schedule.
    """
    _write_field_file(plan, out_dir, basename, _fillers(plan))


@dataclass(frozen=True)
class SimulationReport:
    circuit: LogicalCircuit   # the replayed gates
    total_infidelity: float
    vacuum_return_probability: float
    metadata: dict


def simulate_schedule(sched: Schedule, model_level="gate_models"):
    """Replay a schedule (or CompiledFields) at the gate-model level.

    Rebuilds each gate window's logical gate from its calibration record
    into the report's circuit, and combines its |<0...0|U|0...0>|^2 with
    the per-well prep and annihilation fidelity bounds.  The vacuum-return
    probability is a gate-model proxy, not a field-theoretic computation;
    the metadata says so explicitly.
    """
    if model_level != "gate_models":
        raise ValidationError("only the gate_models level is implemented")
    n = sched.n_qubits
    lam = sched.resources.lam
    replayed = []
    total_infidelity = 0.0
    eps_prep = 0.0
    eps_gate_max = 0.0
    for w in sched.windows:
        if w.label in ("prep", "reverse_prep"):
            bound = w.calibration["prep_infidelity_bound"]
            eps_prep = max(eps_prep, bound)
            total_infidelity += n * bound
            continue
        if not w.label.startswith("gate:"):
            continue
        kind = w.label.split(":", 1)[1]
        cal = w.calibration
        phases = cal["achieved_phases"]
        if kind == "zrot":
            # the z record holds the exponent phase, the gate its negative
            gate = GateSpec(kind, w.qubits, angle=-phases[0])
        elif kind == "xrot":
            gate = GateSpec(kind, w.qubits, angle=phases[0])
        elif kind == "entangling":
            gate = GateSpec(kind, w.qubits, alpha=phases[0], beta=phases[1])
        else:  # swap replayed as ideal with tripled gate cost
            gate = GateSpec(kind, w.qubits)
        replayed.append(gate)
        multiplier = 3.0 if kind == "swap" else 1.0
        contribution = multiplier * (cal["infidelity"] + lam)
        eps_gate_max = max(eps_gate_max, contribution)
        total_infidelity += contribution
    circuit = LogicalCircuit(n, replayed)
    amp = vacuum_amplitude(circuit)
    prep_fidelity = max(1.0 - eps_prep, 0.0)
    vacuum_return = float(abs(amp) ** 2 * prep_fidelity ** (2 * n))
    return SimulationReport(
        circuit=circuit,
        total_infidelity=float(total_infidelity),
        vacuum_return_probability=vacuum_return,
        metadata={
            "model_level": model_level,
            "vacuum_return_note": (
                "gate-model proxy: |<0|U|0>|^2 times per-well prep and "
                "annihilation fidelity bounds, not a field-theoretic result"),
            "eps_prep_bound": eps_prep,
            "eps_gate_bound": eps_gate_max,
            "lam": lam,
        })


def infidelity_budget(report: SimulationReport, sched: Schedule):
    """The n * eps_prep + G * eps_gate bound implied by the report."""
    n = sched.n_qubits
    g = sched.resources.gate_count
    return (n * 2.0 * report.metadata["eps_prep_bound"]
            + g * report.metadata["eps_gate_bound"])
