"""Output checks for ``wclass-sim`` reports.

Chain reports (``epr`` and ``w-state``) are compared with the exact pass
statistics of the protocol's own completion tree, never with the textbook
``1 / ((1 - eta)^2 p_c)`` law, so the known A4 gap neither trips the
benchmark nor gets masked.  A pass completes with probability ``p`` and
fails at stage ``k`` (costing ``k + 1`` rounds) with probability ``f_k``;
the number of rounds of a trial is then a geometric compound with

    E[R]   = sum_k (k+1) f_k / p + n_stages
    Var[R] = (q/p) Var[X] + (q/p^2) E[X]^2,   q = sum_k f_k,

where ``X`` is the cost of one failed pass.  Each report gives
``z = (mean rounds - E[R]) / (sqrt(Var[R] / trials))``.
"""

from __future__ import annotations

import dataclasses
import json
import math

# Slack for values that are probabilities up to float rounding
# (a fidelity of an exact match can read 1.0000000000000002).
PROB_SLACK = 1e-12
NORM_TOL = 1e-9
# Per report: for a 20-trial batch of exponential round counts (the most
# skewed case here) z > 20 has probability about 1e-26, so this fires on a
# wrong mean, never on sampling noise.  A limit of 5 reported standard errors
# per report would fire on about 0.4% of 20-trial reports (simulated), which
# is why the 5-sigma test is made on the pooled z of a whole pass instead.
CALL_Z_LIMIT = 20.0
# Per pass: limit on sum(z) / sqrt(#reports), which is close to normal.
POOLED_Z_LIMIT = 5.0


@dataclasses.dataclass(frozen=True)
class Exact:
    mean_rounds: float
    sd_rounds: float
    norm_error: float  # |p + sum f_k - 1|


class Checker:
    """Checks reports; caches the exact statistics per configuration."""

    def __init__(self, cli, protocol):
        self._cli = cli
        self._protocol = protocol
        self._exact: dict = {}

    def exact(self, command: str, cfg) -> Exact:
        key = (command, dataclasses.replace(cfg, seed=0))
        found = self._exact.get(key)
        if found is None:
            found = self._exact[key] = self._compute_exact(command, cfg)
        return found

    def _compute_exact(self, command: str, cfg) -> Exact:
        proto = self._protocol
        if command == "epr":
            layout = proto.make_chain_layout(cfg)
            dist = proto.connect_round(layout.vacuum(), layout, 1, 2, cfg, ("D1", "D2"))
            p_pass, fails, n_stages = dist.p_accept, (1.0 - dist.p_accept,), 1
        else:
            sim = proto.ChainSimulator(cfg)
            p_pass, fails = sim.completion(0, sim.initial_state())
            n_stages = len(sim.stages)
        q = sum(fails)
        e_x = sum((k + 1) * f for k, f in enumerate(fails)) / q
        e_x2 = sum((k + 1) ** 2 * f for k, f in enumerate(fails)) / q
        var = (q / p_pass) * (e_x2 - e_x**2) + (q / p_pass**2) * e_x**2
        return Exact(
            mean_rounds=q * e_x / p_pass + n_stages,
            sd_rounds=math.sqrt(max(var, 0.0)),
            norm_error=abs(p_pass + q - 1.0),
        )

    def check(self, argv: list[str], text: str) -> tuple[list[str], float | None]:
        """(problems found, exact-SE z of the mean rounds or None)."""
        spec = self._cli.parse_args(argv)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"], None
        problems: list[str] = []
        res = doc["results"]
        echo = doc["config"]
        cfg = spec.config
        expect = {
            "n": cfg.n, "eta": cfg.eta, "p_e": cfg.p_e, "seed": cfg.seed,
            "trials": spec.trials, "truncation_cap": cfg.truncation_cap,
        }
        for k, v in expect.items():
            if echo.get(k) != v:
                problems.append(f"config echo {k}={echo.get(k)!r}, asked {v!r}")
        if doc.get("command") != spec.command:
            problems.append(f"command {doc.get('command')!r} != {spec.command!r}")
        if res["successes"] != spec.trials or res["trials"] != spec.trials:
            problems.append(f"successes {res['successes']} of {res['trials']} trials")
        if not isinstance(doc["timing"]["attempts_total"], int):
            problems.append("attempts_total is not an integer")
        if spec.command == "teleport":
            _check_teleport(res, problems)
            return problems, None
        return problems, self._check_chain(spec, res, problems)

    def _check_chain(self, spec, res, problems: list[str]) -> float | None:
        trials = spec.trials
        for k, m in enumerate(res["mean_attempts_per_stage"]):
            total = m * trials
            if abs(total - round(total)) > NORM_TOL * max(1.0, total):
                problems.append(f"stage {k} attempt count {total!r} is not an integer")
        _in_unit(problems, "fidelity_mean", res["fidelity_mean"])
        for name in ("w_fraction", "vacuum_fraction", "p_c_hat"):
            _in_unit(problems, name, res[name])
        for x in res["confidence"]["p_c_hat_wilson95"]:
            _in_unit(problems, "p_c_hat_wilson95", x)
        exact = self.exact(spec.command, spec.config)
        if exact.norm_error > NORM_TOL:
            problems.append(f"p_pass + sum f_k - 1 = {exact.norm_error:.3g}")
        mean_rounds = res["mean_time_s"] / spec.config.t0
        z = (mean_rounds - exact.mean_rounds) / (exact.sd_rounds / math.sqrt(trials))
        if not abs(z) <= CALL_Z_LIMIT:
            problems.append(f"mean rounds {mean_rounds:.6g} vs exact {exact.mean_rounds:.6g}: z={z:.2f}")
        return z


def _in_unit(problems: list[str], name: str, value) -> None:
    if value is not None and not -PROB_SLACK <= value <= 1.0 + PROB_SLACK:
        problems.append(f"{name}={value!r} outside [0, 1]")


def _check_teleport(res: dict, problems: list[str]) -> None:
    for name in (
        "correct_click_fraction", "fidelity_mean",
        "holder_this_fraction", "localize_fidelity_mean",
    ):
        _in_unit(problems, name, res[name])
    for x in res["confidence"]["holder_this_wilson95"] or ():
        _in_unit(problems, "holder_this_wilson95", x)
    if not res["mean_time_s"] > 0.0:
        problems.append(f"mean_time_s={res['mean_time_s']!r}")


def pooled_z(zs: list[float]) -> float:
    """sum(z) / sqrt(n): standard normal under a correct program."""
    return sum(zs) / math.sqrt(len(zs)) if zs else 0.0
