"""Command-line front end: capacity runs, the prepackaged comparison
experiments, and the operator verification suite.

JSON config in, CSV/JSON out. Every command is referentially transparent
given (config, seed); CSV outputs carry a provenance comment (tool version,
seed, config hash) and JSON outputs additionally carry a timestamp field.

Exit codes: 0 pass, 1 usage/config error, 2 converged-with-flags,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .capacity_solver import capacity, capacity_growth_profile
from .energy_kernel import PARABOLIC, KernelKind, newtonian
from .region import (ConfigError, SliceOf, SpatialBall, Thorn, _count, _field, _integer,
                     _list_of, _positive, _real, region_from_dict, sample_uniform)
from .stochastic_sim import (
    BranchingConfig,
    estimate_graph_hits,
    estimate_range_hit,
    estimate_survival,
)

__all__ = ["main"]


def _write_csv(path, cfg, seed, header, rows):
    """CSV under a provenance header: tool version, seed and config hash."""
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    buf = io.StringIO()
    buf.write(f"# parcap {__version__}\n# seed {seed}\n# config {digest}\n")
    csv.writer(buf).writerows([header, *rows])
    _write_text(path, buf.getvalue())


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, payload):
    """The payload as sorted JSON, stamped with the current UTC time."""
    payload = dict(payload, timestamp=datetime.now(timezone.utc).isoformat())
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 default=_json_default) + "\n")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sim_fields(sim_cfg):
    """BranchingConfig keywords of a sim config, all but the dimension."""
    return {"n_particles": _field(sim_cfg, "n_particles", _count),
            "dt": _field(sim_cfg, "dt", _positive, 0.01),
            "horizon": _field(sim_cfg, "horizon", _positive, 1.0),
            "branch_rate": _field(sim_cfg, "branch_rate", _real, None),
            "max_particle_steps": _field(sim_cfg, "max_particle_steps", _count,
                                         10_000_000)}


def _capacity_fields(cfg):
    """capacity() keywords of the optional "capacity" section."""
    cap_cfg = _field(cfg, "capacity", dict, {})
    return {"tol": _field(cap_cfg, "tol", _positive, 1e-5),
            "diag_samples": _field(cap_cfg, "diag_samples", _count, 256)}


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return x


# --- commands ---------------------------------------------------------------------


def cmd_capacity(cfg, seed, out):
    region = region_from_dict(_field(cfg, "region"))
    kind = _field(cfg, "kind", lambda tag: KernelKind(tag, region.d))
    result = capacity(region, kind, _field(cfg, "resolution", _positive),
                      tol=_field(cfg, "tol", _positive, 1e-6),
                      seed=seed,
                      diag_samples=_field(cfg, "diag_samples", _count, 256),
                      max_iter=_field(cfg, "max_iter", _count, None))
    _write_json(out, result.to_json_dict())
    return 0 if result.converged else 2


def cmd_theorem1(cfg, seed, out):
    """Capacity and hit estimate per region. Slices that share a dimension
    and a slice time form one family, drawn in one reduced-tree pass, so
    nested rows stay monotone run by run; any other region is drawn alone."""
    entries = _field(cfg, "regions", _list_of(dict))
    if not entries:
        raise ConfigError("config field 'regions' is empty")
    resolution = _field(cfg, "resolution", _positive, 0.05)
    cap_args = _capacity_fields(cfg)
    sim_cfg = _field(cfg, "sim", dict)
    sim, runs = _sim_fields(sim_cfg), _field(sim_cfg, "runs", _count)
    rows = [None] * len(entries)
    ratios = []
    families = {}  # (d, slice time), or the entry's index: [(k, rid, region, cap)]

    def fail(k, rid, exc):
        rows[k] = [rid, "", "", "", "", "", "", "", "", f"FAILED: {exc}"]

    for k, entry in enumerate(entries):
        rid = entry.get("id", f"region_{k}")
        try:
            region = region_from_dict(_field(entry, "region"))
            res = capacity(region, PARABOLIC, _field(entry, "resolution", _positive, resolution),
                           seed=seed, **cap_args)
            slices = region.slices()
        except (ValueError, RuntimeError) as exc:
            fail(k, rid, exc)
            continue
        key = (region.d, slices[0][0]) if slices is not None and len(slices) == 1 else k
        families.setdefault(key, []).append((k, rid, region, res.capacity))
    for family in families.values():
        try:
            ests = estimate_graph_hits(BranchingConfig(d=family[0][2].d, **sim),
                                       [region for _, _, region, _ in family], runs, seed)
        except (ValueError, RuntimeError) as exc:
            for k, rid, _, _ in family:
                fail(k, rid, exc)
            continue
        for (k, rid, _, cap), est in zip(family, ests):
            mass = est.implied_excursion_mass
            hw = est.mass_half_width()
            ratios.append(mass / cap)
            ok = mass >= 0.25 * cap - 2.0 * hw
            rows[k] = [rid, _fmt(cap), _fmt(mass), _fmt(hw), _fmt(mass / cap),
                       _fmt(est.p_hat), _fmt(est.ci_low), _fmt(est.ci_high),
                       est.exploded, "OK" if ok else "BELOW_BOUND"]
    failed = any(row[-1] != "OK" for row in rows)
    if ratios:
        lo, hi = min(ratios), max(ratios)
        band = hi / lo if lo > 0 else math.inf  # a region that no run hits
        rows.append(["SUMMARY", "", "", "", "", "", "", "", "",
                     f"ratio_min={lo:.6g} ratio_max={hi:.6g} band={band:.6g} "
                     "gate: mass >= 0.25*cap - 2*half_width (2 propagated "
                     "Wilson half-widths)"])
    _write_csv(out, cfg, seed, ["region_id", "capacity", "implied_mass",
                                "mass_half_width", "ratio", "p_hat", "ci_low",
                                "ci_high", "exploded", "status"], rows)
    return 2 if failed else 0


def cmd_prop51(cfg, seed, out):
    """Capacities per set; the solved sets share d and the slice time, so one
    reduced-tree pass draws them all (nested sets stay monotone run by run)."""
    entries = _field(cfg, "sets", _list_of(dict))
    if not entries:
        raise ConfigError("config field 'sets' is empty")
    d = _field(cfg, "d", lambda v: newtonian(_integer(v)).d)
    t_slice = _field(cfg, "slice_time", _positive, 1.0)
    resolution = _field(cfg, "resolution", _positive)
    cap_args = _capacity_fields(cfg)
    sim_cfg = _field(cfg, "sim", dict)
    sim, runs = _sim_fields(sim_cfg), _field(sim_cfg, "runs", _count)
    rows, ratios, solved = [], [], []  # solved: (row, slice, Newtonian capacity)
    for k, entry in enumerate(entries):
        rid = entry.get("id", f"set_{k}")
        try:
            base = region_from_dict(_field(entry, "region"))
            if getattr(base, "spacetime", False) or base.d != d:
                raise ConfigError(f"set {rid!r} must be spatial of dimension {d}")
            if base.max_norm() > 1.0 + 1e-12:
                raise ConfigError(f"set {rid!r} must lie inside the unit ball")
            cap_n = capacity(base, newtonian(d), resolution, seed=seed, **cap_args)
            sliced = SliceOf(t_slice, base)
            cap_p = capacity(sliced, PARABOLIC, resolution, seed=seed, **cap_args)
        except (ValueError, RuntimeError) as exc:
            rows.append([rid, "", "", "", "", "", "", "", f"FAILED: {exc}"])
            continue
        cap_ratio = cap_p.capacity / cap_n.capacity
        ratios.append(cap_ratio)
        rows.append([rid, _fmt(cap_n.capacity), _fmt(cap_p.capacity), _fmt(cap_ratio)])
        solved.append((rows[-1], sliced, cap_n.capacity))
    ests = estimate_graph_hits(BranchingConfig(d=d, **sim),
                               [sliced for _, sliced, _ in solved], runs, seed)
    for (row, _, cap_n), est in zip(solved, ests):
        row += [_fmt(est.p_hat), _fmt(est.ci_low), _fmt(est.ci_high),
                _fmt(est.p_hat / cap_n), "OK"]
    failed = len(solved) < len(entries)
    if ratios:
        band = max(ratios) / min(ratios)
        rows.append(["SUMMARY", "", "", "", "", "", "", "",
                     f"cap_ratio_band={band:.6g} (gate <= 10)"])
    _write_csv(out, cfg, seed, ["set_id", "cap_newtonian", "cap_parabolic_slice",
                                "cap_ratio", "support_p_hat", "ci_low", "ci_high",
                                "p_hat_over_cap", "status"], rows)
    return 2 if failed else 0


def cmd_hermite_verify(cfg, seed, out):
    from .hermite_ops import OPERATOR_BOUNDS, verification_report

    def overrides(val):
        # an object keyed by operator names only: a misspelt name would
        # leave its bound in force and the negative control silent
        if not isinstance(val, dict) or not val.keys() <= OPERATOR_BOUNDS.keys():
            raise ValueError(val)
        return {k: _real(b) for k, b in val.items()}

    report = verification_report(
        seed=seed,
        trials=_field(cfg, "trials", _integer, 200),
        max_degree=_field(cfg, "max_degree", _integer, 6),
        d=_field(cfg, "d", _count, 2),
        grid_n=_field(cfg, "grid_n", _integer, 5),
        bound_overrides=_field(cfg, "bound_overrides", overrides, None),
    )
    report["seed"] = seed
    _write_json(out, report)
    if not report["ok"]:
        failing = [b["operator"] for b in report["bounds"] if not b["pass"]]
        failing += [i["name"] for i in report["identities"] if not i["pass"]]
        if not report["hardy"]["pass"]:
            failing.append("hardy")
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_profile(cfg, seed, out):
    region = region_from_dict(_field(cfg, "thorn"))
    if not isinstance(region, Thorn):
        raise ConfigError("config field 'thorn' must describe a thorn region")
    eps_list = _field(cfg, "eps_list", _list_of(_real))
    if not eps_list:
        raise ConfigError("config field 'eps_list' is empty")
    rows_in = capacity_growth_profile(
        region, eps_list,
        pitch_factor=_field(cfg, "pitch_factor", _positive, 0.5),
        tol=_field(cfg, "tol", _positive, 1e-5), seed=seed,
        diag_samples=_field(cfg, "diag_samples", _count, 128))
    rows = [[_fmt(r["eps"]), _fmt(r["resolution"]), _fmt(r["capacity"]),
             r["error"]] for r in rows_in]
    _write_csv(out, cfg, seed, ["eps", "resolution", "capacity", "error"], rows)
    return 2 if any(r["error"] for r in rows_in) else 0


def cmd_range_hit(cfg, seed, out):
    d = _field(cfg, "d", _integer)
    region = region_from_dict(_field(cfg, "region"))
    if "start" in cfg:
        start_law = _field(cfg, "start", _list_of(_real))  # fixed start point
        if len(start_law) != d:
            raise ConfigError(f"config field 'start' has shape ({len(start_law)},), not ({d},)")
    elif "start_ball" in cfg:
        # uniform start law on a ball, e.g. {"center": [0,0], "radius": 1}
        ball_cfg = _field(cfg, "start_ball", dict)
        ball = SpatialBall(_field(ball_cfg, "center", _list_of(_real)),
                           _field(ball_cfg, "radius", _real))
        if ball.d != d:
            raise ConfigError(f"config field 'start_ball' has a center of shape ({ball.d},), "
                              f"not ({d},)")

        def start_law(rng, runs):
            return sample_uniform(ball, runs, rng)
    else:
        raise ConfigError("config missing field 'start' (or 'start_ball')")
    est = estimate_range_hit(
        d, start_law, region,
        dt=_field(cfg, "dt", _real, 1e-3),
        runs=_field(cfg, "runs", _count),
        seed=seed,
        kill_radius=_field(cfg, "kill_radius", _real, 50.0))
    _write_json(out, dict(est.to_json_dict(), seed=seed))
    return 0


def cmd_sbm_extinction(cfg, seed, out):
    times = _field(cfg, "times", _list_of(_positive))
    if not times:
        raise ConfigError("config field 'times' is empty")
    sim_cfg = dict(cfg)
    sim_cfg.setdefault("horizon", max(times))
    config = BranchingConfig(d=_field(cfg, "d", _count, 1), **_sim_fields(sim_cfg))
    runs = _field(cfg, "runs", _count)
    estimates = estimate_survival(config, times, runs, seed)
    payload = {
        "n_particles": config.n_particles,
        "branch_rate": config.branch_rate,
        "runs": runs,
        "seed": seed,
        "times": {},
    }
    ok = True
    for t, est in estimates.items():
        theory = 1.0 - math.exp(-1.0 / (2.0 * t))
        half = 0.5 * (est.ci_high - est.ci_low)
        within = abs(est.p_hat - theory) <= 3.0 * half
        ok &= within
        payload["times"][str(t)] = dict(est.to_json_dict(),
                                        theory=theory,
                                        within_3_half_widths=within)
    payload["calibration_ok"] = ok
    _write_json(out, payload)
    return 0 if ok else 2


_COMMANDS = {
    "capacity": (cmd_capacity, False),
    "theorem1": (cmd_theorem1, True),
    "prop51": (cmd_prop51, True),
    "hermite-verify": (cmd_hermite_verify, False),
    "profile": (cmd_profile, False),
    "range-hit": (cmd_range_hit, True),
    "sbm-extinction": (cmd_sbm_extinction, True),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="parcap",
        description="capacity / hitting-probability experiment runner")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (mandatory for stochastic commands; "
                             "env PARCAP_SEED)")
    parser.add_argument("--out", default=None,
                        help="output path, '-' for stdout (env PARCAP_OUT)")
    try:  # argparse exits 2 on a usage error; exit 2 means converged-with-flags here
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    fn, needs_seed = _COMMANDS[args.command]
    seed = args.seed
    if seed is None and os.environ.get("PARCAP_SEED"):
        try:
            seed = int(os.environ["PARCAP_SEED"])
        except ValueError:
            print("invalid PARCAP_SEED", file=sys.stderr)
            return 1
    if seed is None:
        if needs_seed:
            print(f"{args.command}: --seed is mandatory for stochastic commands",
                  file=sys.stderr)
            return 1
        seed = 0
    out = args.out or os.environ.get("PARCAP_OUT")

    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = dict(json.load(fh))
        except FileNotFoundError:
            print(f"config file not found: {args.config}", file=sys.stderr)
            return 1
        except (TypeError, ValueError) as exc:  # a JSONDecodeError, or not an object
            print(f"malformed JSON config: {exc}", file=sys.stderr)
            return 1
    elif args.command != "hermite-verify":
        print(f"{args.command}: --config is required", file=sys.stderr)
        return 1

    try:  # ConfigError and RegionError are ValueErrors
        return fn(cfg, seed, out)
    except (ValueError, RuntimeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
