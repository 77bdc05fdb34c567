"""Command-line interface.

Subcommands: eigensolve, passage, spectrum, calibrate (x|z|entangling),
compile, verify, hadamard, estimate-resources.  verify and
estimate-resources plan a circuit's schedule without sampling J1 and J2;
estimate-resources prints the resources read off that schedule: the prep
and gate window lengths, the extent and the sample and bit counts.
Results go to stdout as JSON.  JSON floats print as their shortest repr
and CSV floats with 17 significant digits, so values round-trip exactly
either way.

Each command accepts only the options it reads, and any other flag is a
usage error.  --config (a JSON file with params and scaling blocks) is
taken by calibrate entangling, compile, verify, hadamard and
estimate-resources; --format csv by eigensolve and spectrum, which then
print a table, and by compile, which then writes fields.csv; --out (the
field directory, default "compiled") by compile; --seed by hadamard.

Exit codes: 0 success, 2 promise_violated (hadamard decision), 3
validation or verification failure.

Circuit files are JSON:

    {"n_qubits": 2,
     "gates": [{"kind": "zrot", "qubits": [0], "angle": 1.5707963267948966},
               {"kind": "entangling", "qubits": [0, 1]}]}

An entangling gate without explicit "alpha"/"beta" is resolved to the
native phases of the calibrated well trajectory.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .chirp import ChirpSource, g_component, region_bound
from .circuits import GateSpec, LogicalCircuit, vacuum_amplitude
from .compiler import (
    CompileParams,
    CompiledFields,
    ScalingConfig,
    infidelity_budget,
    native_entangling_phases,
    save as save_fields,
    schedule,
    simulate_schedule,
)
from .errors import FieldForgeError, ValidationError
from .gates import calibrate_x_gate, calibrate_z_gate
from .measure import _shot_args, decision, hadamard_test
from .passage import check_conditions, scale_parameters
from .potentials import Grid, PoschlTeller, QESDoubleWell, Tabulated
from .schrodinger import solve_bound_states


def _fmt(x):
    return f"{float(x):.17g}"


def _json_default(obj):
    # numpy arrays and scalars as their Python values, complex as re/im
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2, default=_json_default) + "\n")


def _emit_csv(columns):
    """columns: list of (name, values) with equal lengths."""
    names = [c[0] for c in columns]
    arrays = [np.atleast_1d(c[1]) for c in columns]
    sys.stdout.write(",".join(names) + "\n")
    for row in zip(*arrays):
        sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value):
    # 2.0 counts: numpy-backed JSON writers emit integral floats
    return _is_number(value) and float(value).is_integer()


def _config_block(data, name, cls):
    block = data.get(name, {})
    if not isinstance(block, dict):
        raise ValidationError(f"config {name} must be a JSON object")
    optional = {f.name for f in dataclasses.fields(cls) if f.default is None}
    for key, value in block.items():
        if not (_is_number(value) or (value is None and key in optional)):
            raise ValidationError(f"config {name}.{key} must be a number, "
                                  f"got {value!r}")
    try:
        return cls(**block)
    except TypeError as exc:
        raise ValidationError(f"bad config: {exc}") from exc


def _load_config(path):
    if path is None:
        return CompileParams(), ScalingConfig()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    return (_config_block(data, "params", CompileParams),
            _config_block(data, "scaling", ScalingConfig))


def _gate_number(g, key, index):
    value = g.get(key, 0.0)
    if not _is_number(value):
        raise ValidationError(f"gate {index}: {key} must be a number, "
                              f"got {value!r}")
    return float(value)


def load_circuit(path, params=None):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        n = data["n_qubits"]
        raw = data["gates"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: need n_qubits and gates") from exc
    if not _is_integral(n):
        raise ValidationError(f"{path}: n_qubits must be an integer")
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: gates must be a list")
    gates = []
    native = None
    for index, g in enumerate(raw):
        if not isinstance(g, dict):
            raise ValidationError(f"gate {index}: must be a JSON object")
        qubits = g.get("qubits", [])
        if not (isinstance(qubits, list) and all(map(_is_integral, qubits))):
            raise ValidationError(f"gate {index}: qubits must be a list of "
                                  f"integers, got {qubits!r}")
        if g.get("kind") == "entangling" and ("alpha" not in g or "beta" not in g):
            if native is None:
                native = native_entangling_phases(params)
            alpha, beta = native
        else:
            alpha = _gate_number(g, "alpha", index)
            beta = _gate_number(g, "beta", index)
        gates.append(GateSpec(g.get("kind"), tuple(int(q) for q in qubits),
                              angle=_gate_number(g, "angle", index),
                              alpha=alpha, beta=beta))
    return LogicalCircuit(int(n), tuple(gates))


def _cmd_eigensolve(args):
    if args.potential == "poschl-teller":
        pot = PoschlTeller(args.alpha, args.lam)
    elif args.potential == "qes":
        pot = QESDoubleWell(args.g, args.b)
    else:
        if not args.file:
            raise ValidationError("--potential csv needs --file")
        pot = Tabulated.from_csv(args.file)
    grid = None
    if args.half_width is not None:
        grid = Grid.symmetric(args.half_width, args.points)
    states = solve_bound_states(pot, grid=grid, max_states=args.max_states)
    out = {"potential": args.potential,
           "n_states": len(states.energies),
           "energies": list(states.energies)}
    try:
        out["exact_energies"] = list(pot.exact_energies())
    except FieldForgeError:
        pass
    if args.format == "csv":
        _emit_csv([("index", np.arange(len(states.energies))),
                   ("energy", states.energies)])
    else:
        _emit(out)
    return 0


def _cmd_passage(args):
    sp = scale_parameters(args.eps, G=args.gate_count)
    report = check_conditions(g=sp.g, Omega=sp.g, B=sp.B, T=sp.T,
                              omega0=1.0, lam=sp.lam,
                              epsilon=sp.epsilon_used, C=args.big_c)
    _emit({
        "epsilon_used": sp.epsilon_used,
        "g": sp.g, "lam": sp.lam, "B": sp.B, "T": sp.T,
        "conditions": [{"name": c.name, "ratio": c.ratio,
                        "threshold": c.threshold, "passed": c.passed}
                       for c in report.checks],
        "passed": report.passed,
    })
    return 0 if report.passed else 3


def _cmd_spectrum(args):
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    source = ChirpSource(omega0=args.omega0, kappa=args.kappa, T=args.big_t,
                         amplitude=args.amplitude)
    b = source.B
    omega = np.linspace(-args.span * b / 2.0, args.span * b / 2.0, args.points)
    g = g_component(source, omega, branch=+1)
    power = (b / (2.0 * np.pi)) * np.abs(g) ** 2
    region_bounds = [region_bound(source, w) for w in omega]
    bounds = np.array([r.bound for r in region_bounds])
    if args.format == "csv":
        _emit_csv([("omega", omega), ("re_gplus", g.real),
                   ("im_gplus", g.imag), ("power", power),
                   ("bound", bounds)])
    else:
        _emit({"omega0": source.omega0, "kappa": source.kappa,
               "T": source.T, "B": b, "BT": b * source.T,
               "omega": list(omega),
               "re_gplus": list(g.real), "im_gplus": list(g.imag),
               "power": list(power), "bound": list(bounds),
               "region": [r.region for r in region_bounds]})
    return 0


def _cmd_calibrate(args):
    if args.which == "x":
        cal = calibrate_x_gate(args.g, args.beta, target=args.target,
                               include_idle=not args.no_idle)
    elif args.which == "z":
        cal = calibrate_z_gate(args.theta, lambda_pt=args.lambda_pt,
                               tau=args.tau, alpha0=args.alpha0)
    else:
        from .compiler import _entangling_window
        params, _ = _load_config(args.config)
        _, cal = _entangling_window(params)
    _emit(cal.record())
    return 0


def _cmd_compile(args):
    params, scaling = _load_config(args.config)
    circuit = load_circuit(args.circuit, params)
    plan = schedule(circuit, params, scaling)
    out_dir = args.out or "compiled"
    save_fields(plan, out_dir, "fields")
    files = ["fields.json", "fields.bin"]
    if args.format == "csv":
        # from the file just written, so the CSV holds the payload's values
        CompiledFields.load(out_dir).save_csv(
            os.path.join(out_dir, "fields.csv"))
        files.append("fields.csv")
    _emit({
        "out": out_dir, "files": files,
        "nt": plan.t.size, "nx": plan.x.size,
        "t_total": float(plan.t[-1]), "extent": plan.resources.extent,
        "config_hash": plan.config_hash,
        "windows": [w.label for w in plan.windows],
        "resources": dataclasses.asdict(plan.resources),
    })
    return 0


def _cmd_verify(args):
    params, scaling = _load_config(args.config)
    circuit = load_circuit(args.circuit, params)
    sched = schedule(circuit, params, scaling)
    report = simulate_schedule(sched)
    ideal_p = float(abs(vacuum_amplitude(circuit)) ** 2)
    gap = abs(report.vacuum_return_probability - ideal_p)
    budget = infidelity_budget(report, sched)
    ok = (gap <= report.total_infidelity + 1e-12
          and report.total_infidelity <= budget + 1e-12)
    _emit({
        "ideal_vacuum_probability": ideal_p,
        "vacuum_return_probability": report.vacuum_return_probability,
        "gap": gap,
        "total_infidelity": report.total_infidelity,
        "infidelity_budget": budget,
        "within_budget": ok,
        "note": report.metadata["vacuum_return_note"],
    })
    return 0 if ok else 3


def _cmd_hadamard(args):
    # the cheap checks first: a bad seed costs no circuit or amplitude
    _shot_args(args.part, args.shots, args.seed)
    params, _ = _load_config(args.config)
    circuit = load_circuit(args.circuit, params)
    result = hadamard_test(vacuum_amplitude(circuit), part=args.part,
                           shots=args.shots, seed=args.seed)
    p_hat = (result.estimate + 1.0) / 2.0
    verdict = decision(min(max(p_hat, 0.0), 1.0))
    _emit({
        "part": result.part, "shots": result.shots, "seed": result.seed,
        "estimate": result.estimate,
        "standard_error": result.standard_error,
        "p0_exact": result.p0_exact,
        "decision": verdict.outcome, "margin": verdict.margin,
    })
    return 2 if verdict.outcome == "promise_violated" else 0


def _cmd_estimate_resources(args):
    params, scaling = _load_config(args.config)
    circuit = load_circuit(args.circuit, params)
    sched = schedule(circuit, params, scaling)
    _emit(dataclasses.asdict(sched.resources))
    return 0


def _angle(text):
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    # usage errors exit 3 through main, like any bad input: argparse's own
    # exit code 2 is promise_violated's; subparsers share this class
    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON file with params/scaling blocks")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")

    parser = _Parser(
        prog="fieldforge",
        description="Source-field compiler and calibration toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigensolve", parents=[fmt],
                       help="bound states of a 1d potential")
    p.add_argument("--potential", choices=("poschl-teller", "qes", "csv"),
                   required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--g", type=float, default=0.01)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--file", help="CSV with columns x, V(x)")
    p.add_argument("--half-width", type=float)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--max-states", type=int)
    p.set_defaults(func=_cmd_eigensolve)

    p = sub.add_parser("passage",
                       help="scaled sweep parameters and condition checks")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gate-count", type=int)
    p.add_argument("--big-c", type=float, default=1.0,
                   help="prefactor C in the condition thresholds")
    p.set_defaults(func=_cmd_passage)

    p = sub.add_parser("spectrum", parents=[fmt],
                       help="chirp spectral amplitude and region bounds")
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--big-t", type=float, required=True, metavar="T",
                   help="pulse duration")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--span", type=float, default=3.0,
                   help="frequency range in units of the band B")
    p.add_argument("--points", type=int, default=257)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("calibrate", help="gate calibration records")
    p.set_defaults(func=_cmd_calibrate)
    gate = p.add_subparsers(dest="which", required=True)
    p = gate.add_parser("x", help="X-gate duration")
    p.add_argument("--g", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=50.0)
    p.add_argument("--target", type=_angle, default=np.pi)
    p.add_argument("--no-idle", action="store_true",
                   help="exclude the idle splitting phase")
    p = gate.add_parser("z", help="Z-gate bump amplitude")
    p.add_argument("--theta", type=_angle, default=np.pi)
    p.add_argument("--lambda-pt", type=float, default=2.0)
    p.add_argument("--tau", type=float, default=100.0)
    p.add_argument("--alpha0", type=float, default=1.0)
    gate.add_parser("entangling", parents=[config],
                    help="the compiler's entangling trajectory")

    p = sub.add_parser("compile", parents=[config, fmt],
                       help="compile a circuit file to sampled J1, J2")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", parents=[config],
                       help="schedule, replay, and compare with the ideal unitary")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hadamard", parents=[config],
                       help="sampled Hadamard test on <0|U|0> of the circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--part", choices=("re", "im"), default="re")
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="u64 RNG seed")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("estimate-resources", parents=[config],
                       help="resources of the compiled schedule")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_estimate_resources)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (FieldForgeError, OSError, json.JSONDecodeError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
