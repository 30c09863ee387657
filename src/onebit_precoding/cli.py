"""Command-line entry point.

Subcommands:
  run            Monte-Carlo BER sweep, results to CSV.
  verify-sep     Run the SEP-bound verification suite, print a pass/fail table.
  solve-one      Solve a single random instance and print the solve report.
  oracle-compare Compare the solver against brute-force enumeration on tiny
                 instances.

A config file of ``key = value`` lines may supply any ``run`` flag, and an
unknown key is refused; its values are typed and checked like the flags',
and explicit flags override them. Lines starting with ``#`` have the marker
stripped first, so the comment header of a results CSV is itself a valid
config file and ``run --config results.csv --out replay.csv`` reproduces a run.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import logging
import math
import os
import sys
from contextlib import nullcontext
from typing import Optional

import numpy as np

from .baselines import available_precoders
from .channel import draw_channel, draw_symbols, substream
from .constellation import MpskConstellation
from .falm import SolverConfig, falm_solve
from .harness import ExperimentSpec, run_experiment
from .precoding import MAX_ENUMERATED_ANTENNAS, build_instance, optimal_onebit_margin
from .sep_analysis import run_verification

# The run flags a config file may set, in the replay header's order.
RUN_KEYS = (
    "antennas", "users", "block", "power", "mod", "snr", "trials", "precoders", "seed",
    "workers", "mu",
)

# Config keys of solver settings that are now fixed, with the value each is
# fixed at. A config that sets one to another value cannot replay, so it is
# refused rather than run at the fixed value.
RETIRED_KEYS = {"penalty-period": 1, "lambda0": 0.01, "delta": 10, "lambda-max": 100}


class CliError(Exception):
    """Validation failure; the message names the offending flag."""


def parse_modulation(text: str) -> int:
    """The order M of 'pskM', as MpskConstellation judges it."""
    text = text.strip().lower()
    try:
        order = int(text[3:]) if text.startswith("psk") else None
    except ValueError:
        order = None
    if order is None:
        raise CliError(f"--mod must look like 'psk8', got {text!r}")
    try:
        return MpskConstellation(order).order
    except ValueError as exc:
        raise CliError(f"--mod {exc}") from None


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


def format_snr(snr_db: float) -> str:
    """An SNR point as CSV text: ':g' where that reads back as the same
    float, repr otherwise, so a replay sweeps exactly the recorded points."""
    text = f"{snr_db:g}"
    return text if float(text) == snr_db else repr(float(snr_db))


def check_count(flag: str, value: int, least: int = 1) -> None:
    """The check of every count flag, and of ``--seed`` with ``least=0``:
    ``--flag`` must be at least ``least``."""
    if value < least:
        raise CliError(f"--{flag} must be >= {least}, got {value}")


def read_config_file(path: str) -> dict:
    """key = value lines of UTF-8 text; '#' markers stripped; lines without
    '=' ignored. A key given twice, a key outside ``RUN_KEYS`` and
    ``RETIRED_KEYS``, or a retired key whose value does not read as its
    fixed number, raises CliError."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    line = line.lstrip("#").strip()
                if "=" not in line:
                    continue
                key, _, value = (part.strip() for part in line.partition("="))
                if key in values:
                    raise CliError(f"--config sets {key} twice")
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"--config file unreadable: {exc}") from None
    for key, value in values.items():
        if key in RUN_KEYS:
            continue
        if key not in RETIRED_KEYS:
            near = difflib.get_close_matches(key, RUN_KEYS, n=1)
            hint = f"; did you mean {near[0]}?" if near else ""
            raise CliError(f"--config has unknown key {key!r}{hint}")
        try:
            kept = float(value) == RETIRED_KEYS[key]
        except ValueError:
            kept = False
        if not kept:
            raise CliError(
                f"--config sets {key} = {value}, but {key} is fixed at {RETIRED_KEYS[key]:g}; "
                "this config cannot be replayed"
            )
    return values


def build_run_spec(args: argparse.Namespace) -> ExperimentSpec:
    order, solver = _system_from_args(args)
    snr = parse_snr(args.snr)
    precoders = tuple(p.strip() for p in args.precoders.split(",") if p.strip())
    if not precoders:
        raise CliError(f"--precoders must name at least one precoder, got {args.precoders!r}")
    for flag in ("block", "trials", "workers"):
        check_count(flag, getattr(args, flag))
    check_count("seed", args.seed, least=0)
    try:
        return ExperimentSpec(
            n_antennas=args.antennas,
            n_users=args.users,
            block_length=args.block,
            total_power=args.power,
            order=order,
            snr_db=snr,
            precoder_ids=precoders,
            n_realizations=args.trials,
            base_seed=args.seed,
            n_workers=args.workers,
            solver=solver,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except KeyError as exc:
        raise CliError(f"--precoders: {exc.args[0]}") from None


def run_header(args: argparse.Namespace, spec: ExperimentSpec) -> dict:
    """Canonical config header written to the CSV, mod, snr and precoders as
    the spec parsed them; feeding it back through --config reproduces the run."""
    header = {key: getattr(args, key.replace("-", "_")) for key in RUN_KEYS}
    header["mod"] = f"psk{spec.order}"
    header["snr"] = ",".join(format_snr(v) for v in spec.snr_db)
    header["precoders"] = ",".join(spec.precoder_ids)
    return header


# The results CSV, one line per column in order: its name, the BerRecord
# field it holds and how that field is written. Fixed formats keep replays
# byte-identical apart from wall_time_s.
CSV_FORMAT = (
    ("precoder", "precoder", str),
    ("snr_db", "snr_db", format_snr),
    ("ber", "ber", "{:.10e}".format),
    ("ser", "ser", "{:.10e}".format),
    ("worst_user_ber", "worst_user_ber", "{:.10e}".format),
    ("bits", "bit_count", str),
    ("symbols", "symbol_count", str),
    ("realizations", "realization_count", str),
    ("failures", "failures", str),
    ("wall_time_s", "wall_time_s", "{:.3f}".format),
)
CSV_COLUMNS = tuple(name for name, _, _ in CSV_FORMAT)


def write_csv(records, path: str, header: dict):
    """Write records under the resolved-config comment header, each row as
    CSV_FORMAT writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in header.items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(fmt(getattr(r, field)) for _, field, fmt in CSV_FORMAT)


def _add_system_flags(parser, antennas: int, users: int, mod: str) -> None:
    """The system and solver flags of run, solve-one and oracle-compare."""
    parser.add_argument("--antennas", type=int, default=antennas, help="transmit antennas N")
    parser.add_argument("--users", type=int, default=users, help="single-antenna users K")
    parser.add_argument("--power", type=float, default=1.0, help="total transmit power P")
    parser.add_argument("--mod", type=str, default=mod, help="modulation, e.g. psk4, psk8, psk16")
    parser.add_argument("--mu", type=float, default=SolverConfig().mu, help="smoothing parameter")


def _system_from_args(args) -> tuple:
    """(order, SolverConfig) from the system flags, after the modulation,
    solver, size and power checks every subcommand shares."""
    order = parse_modulation(args.mod)
    try:
        config = SolverConfig(mu=args.mu)
    except ValueError as exc:
        raise CliError(f"invalid solver parameter: {exc}") from None
    check_count("antennas", args.antennas)
    check_count("users", args.users)
    if args.users > 2 * args.antennas:
        raise CliError(f"--users {args.users} exceeds 2 * --antennas = {2 * args.antennas}")
    if not 0 < args.power < math.inf:  # written so that NaN fails too
        raise CliError(f"--power must be positive and finite, got {args.power}")
    return order, config


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The parser; ``config`` holds a config file's key = value pairs, whose
    run keys become the run flags' defaults. A default given as a string is
    converted by its flag's type, so file values are checked like flags."""
    parser = argparse.ArgumentParser(
        prog="onebit-precoding",
        description="One-bit MPSK precoding: minimum-SEP solver, baselines, BER harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # desk-scale defaults; the full-protocol sizes are one flag away
    run = sub.add_parser(
        "run",
        help="Monte-Carlo BER sweep to CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_system_flags(run, antennas=32, users=8, mod="psk8")
    run.add_argument("--block", type=int, default=100, help="symbol times per channel realization")
    run.add_argument("--snr", type=str, default="0:5:25", help="P/sigma^2 in dB: 'start:step:stop' or comma list")
    run.add_argument("--trials", type=int, default=100, help="channel realizations")
    run.add_argument("--precoders", type=str, default="falm,msm,zf-ob,zf", help=f"comma list from {available_precoders()}")
    run.add_argument("--seed", type=int, default=1, help="base RNG seed")
    run.add_argument("--workers", type=int, default=1, help="worker processes")
    run.add_argument("--config", type=str, default=None, help="key = value file; flags override")
    run.add_argument("--out", type=str, required=True, help="output CSV path")
    if config:
        run.set_defaults(**{k.replace("-", "_"): v for k, v in config.items() if k in RUN_KEYS})

    verify = sub.add_parser("verify-sep", help="verify the SEP bound machinery")
    verify.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve-one", help="solve one random instance")
    _add_system_flags(solve, antennas=32, users=8, mod="psk8")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", type=str, default=None, help="trace CSV, one row per penalty level")

    oracle = sub.add_parser("oracle-compare", help="solver vs brute force on tiny instances")
    _add_system_flags(oracle, antennas=2, users=2, mod="psk4")
    oracle.add_argument("--seeds", type=int, default=100)

    return parser


def _cmd_run(args) -> int:
    spec = build_run_spec(args)
    # Open --out before the sweep, so that the OS refuses a bad path now;
    # append mode leaves an existing file as it is until write_csv.
    created = not os.path.exists(args.out)
    open(args.out, "a").close()
    try:
        records = run_experiment(spec)
    except BaseException:
        if created:  # a failed sweep leaves no file behind
            os.remove(args.out)
        raise
    write_csv(records, args.out, header=run_header(args, spec))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_verify_sep(args) -> int:
    check_count("seed", args.seed, least=0)
    results = run_verification(seed=args.seed)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print("verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def seed_instance(seed, n_antennas, n_users, order, power):
    """The instance a seed names in solve-one and oracle-compare: its
    channel, then its symbols, drawn from substream(seed, 0)."""
    rng = substream(seed, 0)
    H = draw_channel(n_users, n_antennas, rng)
    return build_instance(H, draw_symbols(order, n_users, rng), MpskConstellation(order), power)


def _cmd_solve_one(args) -> int:
    order, config = _system_from_args(args)
    check_count("seed", args.seed, least=0)
    instance = seed_instance(args.seed, args.antennas, args.users, order, args.power)
    with open(args.trace, "w", encoding="utf-8") if args.trace is not None else nullcontext() as trace:
        report = falm_solve(instance, config, trace_file=trace)
    print(f"instance: N={args.antennas} K={args.users} M={order} P={args.power:g} seed={args.seed}")
    t_star = report.relaxed_optimum
    print(f"margin:            {report.margin:.6f}")
    print(f"LP optimum t*:     {t_star:.6f}")
    print(f"margin / t*:       {report.margin / t_star if t_star > 0 else math.nan:.3f}")
    print(f"outer iterations:  {report.outer_iterations}")
    print(f"inner iterations:  {report.inner_iterations}")
    at_cap = sum(s.apg_iterations == config.apg_max_iters for s in report.steps)
    print(f"apg calls at cap:  {at_cap} of {report.outer_iterations} (cap {config.apg_max_iters})")
    print(f"penalty trace:     {[f'{s.lam:g}' for s in report.steps]}")
    print(f"objective trace:   {[f'{s.objective:.4f}' for s in report.steps]}")
    print(f"penalty gap trace: {[f'{s.penalty_gap:.2e}' for s in report.steps]}")
    return 0


def oracle_counts(seeds, n_antennas, n_users, order, power, config=None) -> tuple:
    """FALM against the enumerated optimum on the instance of each seed.
    Returns how many seeds come within the 5% gap of the optimum, how many
    reach it, how many have a negative optimum, and how many of those come
    within the gap. A margin above the optimum raises RuntimeError."""
    hits = exact = negative = negative_hits = 0
    for seed in seeds:
        instance = seed_instance(seed, n_antennas, n_users, order, power)
        margin = falm_solve(instance, config).margin
        optimum = optimal_onebit_margin(instance)
        if margin > optimum + 1e-9:
            raise RuntimeError(
                f"seed {seed}: solver margin {margin} exceeds enumerated optimum {optimum}"
            )
        # Gap form of "within 5%": where the optimum is negative,
        # margin >= 0.95 * optimum cannot hold even for an exact solver.
        within = optimum - margin <= 0.05 * abs(optimum) + 1e-12
        hits += within
        exact += abs(margin - optimum) <= 1e-9
        negative += optimum < 0
        negative_hits += within and optimum < 0
    return hits, exact, negative, negative_hits


def _cmd_oracle_compare(args) -> int:
    order, config = _system_from_args(args)
    if args.antennas > MAX_ENUMERATED_ANTENNAS:
        raise CliError(
            f"--antennas must be <= {MAX_ENUMERATED_ANTENNAS} for exhaustive enumeration"
        )
    check_count("seeds", args.seeds)
    hits, exact, negative, _ = oracle_counts(
        range(args.seeds), args.antennas, args.users, order, args.power, config
    )
    print(f"solver margin within 5% of brute-force optimum: {hits}/{args.seeds} seeds")
    print(f"solver margin == brute-force optimum:           {exact}/{args.seeds} seeds")
    print(f"negative brute-force optimum:                   {negative}/{args.seeds} seeds")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; with ``run --config``, parse it again with the file's
    values as defaults, so flags > config file > built-in defaults."""
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None):
        args = build_parser(read_config_file(args.config)).parse_args(argv)
    return args


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    handlers = {
        "run": _cmd_run,
        "verify-sep": _cmd_verify_sep,
        "solve-one": _cmd_solve_one,
        "oracle-compare": _cmd_oracle_compare,
    }
    try:
        args = parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
