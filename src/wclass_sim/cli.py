"""Command-line front end: parse a config, run experiments, emit reports.

Commands: ``epr``, ``w-state``, ``teleport``, ``scaling-sweep``.  Every flag
stores to the config-file key it sets: a command's values are the defaults,
overlaid by the ``--config`` file, then by the flags given.  Reports are
JSON (schema version 1) with a full config echo so every report reproduces
itself; ``scaling-sweep`` can also emit a CSV summary.  Wall-clock timing
goes to stderr only, so a re-run with the same config and seed writes a
byte-identical report regardless of ``--workers``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import secrets
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from .errors import InsufficientDataError, UsageError, WClassError
from .montecarlo import run_batch, run_epr_batch, run_teleport_batch
from .protocol import ProtocolConfig, TeleportConfig

SCHEMA_VERSION = 1

_FORMATS = ("json", "csv-summary")


@dataclass
class ExperimentSpec:
    command: str
    config: ProtocolConfig
    teleport: TeleportConfig | None
    trials: int
    output_path: str | None
    fmt: str  # "json" | "csv-summary"
    workers: int
    n_min: int | None = None
    n_max: int | None = None
    seed_was_auto: bool = False


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a value such as "-3.7e-05" for an option unless it
        # matches this pattern; the stock one has no exponent.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )

    def error(self, message: str):  # argparse would sys.exit(2) with noise
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--n", type=int, default=None, help="number of ensembles")
    p.add_argument("--eta", type=float, default=None, help="photon loss probability")
    p.add_argument("--pe", dest="p_e", type=float, default=None,
                   help="pair-emission probability")
    p.add_argument("--phases", default=None, help="comma-separated phi_1i (radians)")
    p.add_argument("--na", dest="n_a", type=float, default=None, help="atom number N_a")
    p.add_argument("--finite-size", action="store_true", default=None)
    p.add_argument("--t0", type=float, default=None, help="interaction time (s)")
    p.add_argument("--cap", dest="truncation_cap", type=int, default=None,
                   help="total-occupation cap")
    p.add_argument("--max-attempts", type=int, default=None)
    p.add_argument(
        "--no-double-pair",
        dest="second_order_pump",
        action="store_false",
        default=None,
        help="truncate the pump at first order",
    )
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", default=None, help="integer seed, or 'auto'")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    p.add_argument("--format", choices=_FORMATS, default=None)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused by every later
    parse: building it costs more than a parse."""
    p = _Parser(prog="wclass-sim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("epr", "w-state", "teleport", "scaling-sweep"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "teleport":
            sp.add_argument("--alpha-re", type=float, default=None)
            sp.add_argument("--alpha-im", type=float, default=None)
            sp.add_argument("--beta-re", type=float, default=None)
            sp.add_argument("--beta-im", type=float, default=None)
        if name == "scaling-sweep":
            sp.add_argument("--n-min", type=int, default=None)
            sp.add_argument("--n-max", type=int, default=None)
    return p


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(data.keys() - _CONVERT.keys())
    if unknown:
        raise UsageError(f"unknown config file key(s): {', '.join(unknown)}")
    return data


def _bool(value) -> bool:
    """A JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _int(value) -> int:
    """A number with an integral value, not a boolean."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise TypeError("expected an integer")
    return int(value)


def _float(value) -> float:
    """A number, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _phases(value) -> tuple | None:
    """Phases from a comma-separated string or a list of numbers."""
    if isinstance(value, str):
        return tuple(float(x) for x in value.split(","))
    return None if value is None else tuple(_float(x) for x in value)


def _pair(value) -> tuple[float, float]:
    """``(re, im)`` of a two-number list."""
    re_part, im_part = value
    return _float(re_part), _float(im_part)


def _n_a(value) -> float:
    """An atom number; ``null`` is the no-correction limit."""
    return math.inf if value is None else _float(value)


def _seed(value) -> int:
    """An integer, or a string of one."""
    return int(value) if isinstance(value, str) else _int(value)


def _format(value) -> str:
    """One of ``_FORMATS``."""
    if value not in _FORMATS:
        raise ValueError(f"expected one of {', '.join(_FORMATS)}")
    return value


_FIELDS = dataclasses.fields(ProtocolConfig)

# Every config-file key, which is also the dest of the flag that sets it:
# its default (ProtocolConfig's where it has one) and its converter.
_DEFAULTS = {
    **{f.name: f.default for f in _FIELDS},
    "n": 3,
    "p_e": 0.01,
    "seed": None,  # required
    "trials": 1000,
    "alpha": [1.0, 0.0],
    "beta": [0.0, 0.0],
    "n_min": 3,
    "n_max": 5,
    "format": "json",
}
_CONVERT = {
    "n": _int, "p_e": _float, "eta": _float, "phases": _phases, "n_a": _n_a,
    "finite_size": _bool, "t0": _float, "truncation_cap": _int, "max_attempts": _int,
    "seed": _seed, "second_order_pump": _bool, "trials": _int, "alpha": _pair,
    "beta": _pair, "n_min": _int, "n_max": _int, "format": _format,
}


def _resolve_workers(flag: int | None) -> int:
    if flag is None:
        return 1  # a process pool costs more than it saves below ~10**4 trials
    if flag < 1:
        raise UsageError("--workers must be at least 1")
    return flag


def _complex(pair: tuple[float, float], re_flag, im_flag) -> complex:
    """``pair`` as a complex number, each part replaced by its flag if given."""
    return complex(
        pair[0] if re_flag is None else re_flag, pair[1] if im_flag is None else im_flag
    )


def parse_args(argv: Sequence[str]) -> ExperimentSpec:
    """Parse the command line into a validated experiment spec.

    Each key's value is its default, overlaid by the ``--config`` file, then
    by the flags given; unknown flags and keys are rejected; ``--seed`` is
    required (the literal ``auto`` draws one, prints it, and embeds it in the
    report).
    """
    ns = _parser().parse_args(list(argv))
    raw = {
        **_DEFAULTS,
        **(_load_config_file(ns.config) if ns.config else {}),
        **{k: v for k, v in vars(ns).items() if v is not None and k in _CONVERT},
    }
    if raw["seed"] is None:
        raise UsageError("--seed is required (use '--seed auto' to draw one)")
    seed_was_auto = isinstance(raw["seed"], str) and raw["seed"].lower() == "auto"
    if seed_was_auto:
        raw["seed"] = secrets.randbits(63)
    values = {}
    for key, convert in _CONVERT.items():
        try:
            values[key] = convert(raw[key])
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise UsageError(f"bad value for {key}: {raw[key]!r} ({exc})") from exc

    if ns.command == "w-state" and values["n"] < 3:
        raise UsageError("w-state needs --n >= 3")
    teleport_cfg = None
    try:
        config = ProtocolConfig(**{f.name: values[f.name] for f in _FIELDS})
        if ns.command == "teleport":
            alpha = _complex(values["alpha"], ns.alpha_re, ns.alpha_im)
            beta = _complex(values["beta"], ns.beta_re, ns.beta_im)
            teleport_cfg = TeleportConfig(alpha, beta, config)
    except (ValueError, WClassError) as exc:
        raise UsageError(str(exc)) from exc

    if values["trials"] < 1:
        raise UsageError("--trials must be at least 1")
    if values["format"] == "csv-summary" and ns.command != "scaling-sweep":
        raise UsageError("csv-summary output is only defined for scaling-sweep")

    n_min = n_max = None
    if ns.command == "scaling-sweep":
        n_min, n_max = values["n_min"], values["n_max"]
        if n_min < 3 or n_max < n_min:
            raise UsageError("need 3 <= --n-min <= --n-max")

    return ExperimentSpec(
        command=ns.command,
        config=config,
        teleport=teleport_cfg,
        trials=values["trials"],
        output_path=ns.output,
        fmt=values["format"],
        workers=_resolve_workers(ns.workers),
        n_min=n_min,
        n_max=n_max,
        seed_was_auto=seed_was_auto,
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _config_echo(spec: ExperimentSpec) -> dict:
    echo = {f.name: getattr(spec.config, f.name) for f in _FIELDS}
    if math.isinf(echo["n_a"]):
        echo["n_a"] = None
    echo["trials"] = spec.trials
    if spec.teleport is not None:
        echo["alpha"] = [spec.teleport.alpha.real, spec.teleport.alpha.imag]
        echo["beta"] = [spec.teleport.beta.real, spec.teleport.beta.imag]
    if spec.command == "scaling-sweep":
        echo["n_min"] = spec.n_min
        echo["n_max"] = spec.n_max
    return echo


def _run_sweep(spec: ExperimentSpec) -> tuple[dict, int]:
    rows = []
    prev_time = None
    attempts_total = 0
    base_phases = spec.config.phases
    for n in range(spec.n_min, spec.n_max + 1):
        phases = tuple(
            base_phases[k] if k < len(base_phases) else 0.0 for k in range(n)
        )
        cfg = dataclasses.replace(spec.config, n=n, phases=phases)
        report = run_batch(cfg, spec.trials, workers=spec.workers)
        ratio = None if prev_time is None else report.mean_time_s / prev_time
        prev_time = report.mean_time_s
        attempts_total += report.rounds_total
        rows.append({"n": n, "ratio_to_prev": ratio, **report.to_dict()})
    return {"sweep": rows}, attempts_total


_SWEEP_COLUMNS = (
    "n", "p_c_hat", "mean_time_s", "predicted_time_s", "ratio_to_prev", "c_n_hat",
    "fidelity_mean",
)


def _csv_cell(value) -> str:
    """An integer as is, a number by its shortest repr, ``None`` as empty."""
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else repr(float(value))


def _sweep_csv(results: dict) -> str:
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in results["sweep"]:
        lines.append(",".join(_csv_cell(row[c]) for c in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def run(spec: ExperimentSpec) -> int:
    """Execute the experiment and write its report.  Returns the exit code."""
    started = time.monotonic()
    if spec.seed_was_auto:
        print(f"seed: {spec.config.seed}", file=sys.stderr)
    try:
        if spec.command == "scaling-sweep":
            results, attempts_total = _run_sweep(spec)
            starved = any(row["successes"] == 0 for row in results["sweep"])
        else:
            if spec.command == "teleport":
                report = run_teleport_batch(spec.teleport, spec.trials, workers=spec.workers)
            else:
                batch = run_epr_batch if spec.command == "epr" else run_batch
                report = batch(spec.config, spec.trials, workers=spec.workers)
            results = report.to_dict()
            attempts_total = report.rounds_total
            starved = report.successes == 0
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 1

    document = {
        "schema_version": SCHEMA_VERSION,
        "command": spec.command,
        "config": _config_echo(spec),
        "results": results,
        "timing": {
            "attempts_total": attempts_total,
            "simulated_time_s": attempts_total * spec.config.t0,
        },
    }
    if spec.fmt == "csv-summary":
        payload = _sweep_csv(results)
    else:
        payload = json.dumps(document, indent=2) + "\n"

    try:
        if spec.output_path:
            with open(spec.output_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 3
    print(f"wall-clock: {time.monotonic() - started:.3f} s", file=sys.stderr)
    if starved:
        print("insufficient data: no successful trials", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
