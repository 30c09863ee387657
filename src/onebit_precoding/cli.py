"""Command-line entry point.

Subcommands:
  run            Monte-Carlo BER sweep, results to CSV.
  verify-sep     Run the SEP-bound verification suite, print a pass/fail table.
  solve-one      Solve a single random instance and print the solve report.
  oracle-compare Compare the solver against brute-force enumeration on tiny
                 instances.

A config file of ``key = value`` lines may supply any ``run`` flag; explicit
flags override it. Lines starting with ``#`` have the marker stripped first,
so the comment header of a results CSV is itself a valid config file and
``run --config results.csv --out replay.csv`` reproduces a run.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from .baselines import available_precoders, get_precoder
from .channel import RngSeed, SystemParams, draw_channel, draw_symbols
from .falm import SolverConfig, falm_solve
from .harness import ExperimentSpec, run_experiment, write_csv
from .precoding import build_instance, optimal_onebit_margin
from .sep_analysis import run_verification

WORKERS_ENV = "ONEBIT_PRECODING_WORKERS"

# Solver flag -> (SolverConfig field, help); SolverConfig holds the defaults.
SOLVER_FLAGS = {
    "mu": ("mu", "smoothing parameter"),
    "lambda0": ("lambda0", "initial penalty weight"),
    "delta": ("delta", "penalty growth factor"),
    "lambda-max": ("lambda_max", "stop once the penalty exceeds this"),
    "penalty-period": ("penalty_update_period", "outer iterations between penalty increases"),
}
_SOLVER_DEFAULTS = SolverConfig()

# desk-scale defaults; the full-protocol sizes are one flag away
RUN_DEFAULTS = {
    "antennas": 32,
    "users": 8,
    "block": 100,
    "power": 1.0,
    "mod": "psk8",
    "snr": "0:5:25",
    "trials": 100,
    "precoders": "falm,msm,zf-ob,zf",
    "seed": 1,
    "workers": None,  # resolved from env, else 1
    **{flag: getattr(_SOLVER_DEFAULTS, name) for flag, (name, _) in SOLVER_FLAGS.items()},
}


class CliError(Exception):
    """Validation failure; the message names the offending flag."""


def parse_modulation(text: str) -> int:
    text = text.strip().lower()
    if not text.startswith("psk"):
        raise CliError(f"--mod must look like 'psk8', got {text!r}")
    try:
        order = int(text[3:])
    except ValueError:
        raise CliError(f"--mod must look like 'psk8', got {text!r}") from None
    if order < 2 or order & (order - 1):
        raise CliError(f"--mod order must be a power of two >= 2, got {order}")
    return order


def parse_snr(text: str) -> tuple:
    """Accept 'start:step:stop' (inclusive), a comma list, or one value."""
    text = text.strip()
    is_range = ":" in text
    try:
        values = tuple(float(p) for p in text.split(":" if is_range else ","))
        if is_range:
            start, step, stop = values
    except ValueError:
        raise CliError(f"--snr could not parse {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"--snr values must be finite, got {text!r}")
    if not is_range:
        return values
    if step <= 0:
        raise CliError(f"--snr step must be positive, got {step}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise CliError(f"--snr range {text!r} is empty")
    return tuple(start + step * k for k in range(count))


def read_config_file(path: str) -> dict:
    """key = value lines; '#' markers stripped; anything else ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    line = line.lstrip("#").strip()
                if "=" not in line:
                    continue
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"--config file unreadable: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, file_values: dict) -> dict:
    """flags > config file > defaults, as strings/numbers keyed by flag name."""
    resolved = {}
    for key, default in RUN_DEFAULTS.items():
        attr = key.replace("-", "_")
        value = getattr(args, attr, None)
        if value is None:
            value = file_values.get(key)
        if value is None:
            value = default
        resolved[key] = value
    if resolved["workers"] is None:
        resolved["workers"] = int(os.environ.get(WORKERS_ENV, "1"))
    return resolved


def build_run_spec(resolved: dict) -> ExperimentSpec:
    order = parse_modulation(str(resolved["mod"]))
    snr = parse_snr(str(resolved["snr"]))
    precoders = tuple(p.strip() for p in str(resolved["precoders"]).split(",") if p.strip())
    try:
        antennas = int(resolved["antennas"])
        users = int(resolved["users"])
        block = int(resolved["block"])
        power = float(resolved["power"])
        trials = int(resolved["trials"])
        seed = int(resolved["seed"])
        workers = int(resolved["workers"])
        solver = solver_config(resolved)
    except ValueError as exc:
        raise CliError(f"invalid run parameter: {exc}") from None
    if users > 2 * antennas:
        raise CliError(f"--users {users} exceeds 2 * --antennas = {2 * antennas}")
    for pid in precoders:
        try:
            get_precoder(pid, solver)
        except KeyError as exc:
            raise CliError(f"--precoders: {exc.args[0]}") from None
    try:
        return ExperimentSpec(
            n_antennas=antennas,
            n_users=users,
            block_length=block,
            total_power=power,
            order=order,
            snr_db=snr,
            precoder_ids=precoders,
            n_realizations=trials,
            base_seed=seed,
            n_workers=workers,
            solver=solver,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def resolved_header(resolved: dict) -> dict:
    """Canonical config header written to the CSV; feeding it back through
    --config reproduces the run."""
    header = dict(resolved)
    header["snr"] = ",".join(f"{v:g}" for v in parse_snr(str(resolved["snr"])))
    return header


def solver_config(values: dict) -> SolverConfig:
    """SolverConfig from values (numbers or strings) keyed by solver flag; a
    flag that is absent or None keeps the field's default."""
    kw = {}
    for flag, (name, _) in SOLVER_FLAGS.items():
        if values.get(flag) is not None:
            kw[name] = type(getattr(_SOLVER_DEFAULTS, name))(values[flag])
    return SolverConfig(**kw)


def _add_solver_flags(parser):
    for flag, (name, text) in SOLVER_FLAGS.items():
        kind = type(getattr(_SOLVER_DEFAULTS, name))
        parser.add_argument(f"--{flag}", type=kind, default=None, help=text)


def _solver_from_args(args) -> SolverConfig:
    return solver_config({flag: getattr(args, flag.replace("-", "_")) for flag in SOLVER_FLAGS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-precoding",
        description="One-bit MPSK precoding: minimum-SEP solver, baselines, BER harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte-Carlo BER sweep to CSV")
    run.add_argument("--antennas", type=int, default=None, help="transmit antennas N")
    run.add_argument("--users", type=int, default=None, help="single-antenna users K")
    run.add_argument("--block", type=int, default=None, help="symbol times per channel realization")
    run.add_argument("--power", type=float, default=None, help="total transmit power P")
    run.add_argument("--mod", type=str, default=None, help="modulation, e.g. psk4, psk8, psk16")
    run.add_argument("--snr", type=str, default=None, help="P/sigma^2 in dB: 'start:step:stop' or comma list")
    run.add_argument("--trials", type=int, default=None, help="channel realizations")
    run.add_argument("--precoders", type=str, default=None, help=f"comma list from {available_precoders()}")
    run.add_argument("--seed", type=int, default=None, help="base RNG seed")
    run.add_argument("--workers", type=int, default=None, help=f"worker processes (default ${WORKERS_ENV} or 1)")
    run.add_argument("--config", type=str, default=None, help="key = value file; flags override")
    run.add_argument("--out", type=str, required=True, help="output CSV path")
    _add_solver_flags(run)

    verify = sub.add_parser("verify-sep", help="verify the SEP bound machinery")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--implication-draws", type=int, default=100_000)
    verify.add_argument("--bound-trials", type=int, default=1_000_000)

    solve = sub.add_parser("solve-one", help="solve one random instance")
    solve.add_argument("--antennas", type=int, default=32)
    solve.add_argument("--users", type=int, default=8)
    solve.add_argument("--mod", type=str, default="psk8")
    solve.add_argument("--power", type=float, default=1.0)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", type=str, default=None, help="per-iteration trace CSV")
    _add_solver_flags(solve)

    oracle = sub.add_parser("oracle-compare", help="solver vs brute force on tiny instances")
    oracle.add_argument("--antennas", type=int, default=2)
    oracle.add_argument("--users", type=int, default=2)
    oracle.add_argument("--mod", type=str, default="psk4")
    oracle.add_argument("--power", type=float, default=1.0)
    oracle.add_argument("--seeds", type=int, default=100)
    _add_solver_flags(oracle)

    return parser


def _cmd_run(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    resolved = _resolve(args, file_values)
    spec = build_run_spec(resolved)
    records = run_experiment(spec)
    write_csv(records, args.out, header=resolved_header(resolved))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_verify_sep(args) -> int:
    results = run_verification(
        seed=args.seed,
        implication_draws=args.implication_draws,
        bound_trials=args.bound_trials,
    )
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print("verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _cmd_solve_one(args) -> int:
    order = parse_modulation(args.mod)
    config = _solver_from_args(args)
    if args.users > 2 * args.antennas:
        raise CliError(f"--users {args.users} exceeds 2 * --antennas = {2 * args.antennas}")
    root = RngSeed(args.seed)
    params = SystemParams(
        n_antennas=args.antennas,
        n_users=args.users,
        block_length=1,
        total_power=args.power,
        noise_var=1.0,
    )
    H = draw_channel(params, root.child(0))
    symbols = draw_symbols(order, args.users, root.child(1))
    instance = build_instance(H, symbols, order, args.power)
    report = falm_solve(instance, config, trace_file=args.trace)
    print(f"instance: N={args.antennas} K={args.users} M={order} P={args.power:g} seed={args.seed}")
    print(f"margin:            {report.margin:.6f}")
    print(f"outer iterations:  {report.outer_iterations}")
    print(f"inner iterations:  {report.inner_iterations}")
    print(f"penalty trace:     {[f'{s.lam:g}' for s in report.steps]}")
    print(f"objective trace:   {[f'{s.objective:.4f}' for s in report.steps]}")
    print(f"penalty gap trace: {[f'{s.penalty_gap:.2e}' for s in report.steps]}")
    return 0


def _cmd_oracle_compare(args) -> int:
    order = parse_modulation(args.mod)
    if args.antennas > 6:
        raise CliError("--antennas must be <= 6 for exhaustive enumeration")
    config = _solver_from_args(args)
    hits = 0
    exact = 0
    negative = 0
    for seed in range(args.seeds):
        root = RngSeed(seed)
        rng = root.child(0).generator()
        shape = (args.users, args.antennas)
        H = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        symbols = rng.integers(0, order, size=args.users)
        instance = build_instance(H, symbols, order, args.power)
        margin = falm_solve(instance, config).margin
        optimum = optimal_onebit_margin(instance)
        if margin > optimum + 1e-9:
            raise RuntimeError(
                f"seed {seed}: solver margin {margin} exceeds enumerated optimum {optimum}"
            )
        # Gap form of "within 5%": where the optimum is negative,
        # margin >= 0.95 * optimum cannot hold even for an exact solver.
        hits += (optimum - margin) <= 0.05 * abs(optimum) + 1e-12
        exact += abs(margin - optimum) <= 1e-9
        negative += optimum < 0
    print(f"solver margin within 5% of brute-force optimum: {hits}/{args.seeds} seeds")
    print(f"solver margin == brute-force optimum:           {exact}/{args.seeds} seeds")
    print(f"negative brute-force optimum:                   {negative}/{args.seeds} seeds")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "run": _cmd_run,
        "verify-sep": _cmd_verify_sep,
        "solve-one": _cmd_solve_one,
        "oracle-compare": _cmd_oracle_compare,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
