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

from . import __version__, runtime
from .capacity_solver import capacity, capacity_growth_profile
from .energy_kernel import CAP_PRIME, PARABOLIC, newtonian
from .region import RegionError, SliceOf, Thorn, region_from_dict
from .stochastic_sim import (
    BranchingConfig,
    estimate_graph_hit,
    estimate_range_hit,
    estimate_support_hit,
    estimate_survival,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _require(cfg, field, kind=None):
    if field not in cfg:
        raise ConfigError(f"config missing field {field!r}")
    val = cfg[field]
    if kind is not None:
        try:
            val = kind(val)
        except (TypeError, ValueError):
            raise ConfigError(f"config field {field!r} has invalid value {val!r}")
    return val


def _kernel_kind(tag, d=None):
    if tag == "parabolic":
        return PARABOLIC
    if tag == "cap_prime":
        return CAP_PRIME
    if tag == "newtonian":
        if d is None:
            raise ConfigError("config field 'kind': newtonian needs the region dimension")
        return newtonian(d)
    raise ConfigError(f"config field 'kind' has invalid value {tag!r}")


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance_lines(cfg, seed):
    return [
        f"# parcap {__version__}",
        f"# seed {seed}",
        f"# config {_config_hash(cfg)}",
    ]


def _write_csv(path, cfg, seed, header, rows):
    buf = io.StringIO()
    for line in _provenance_lines(cfg, seed):
        buf.write(line + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write_text(path, buf.getvalue())


def _json_default(obj):
    import numpy as np
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 default=_json_default) + "\n")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _branching_config(sim_cfg, d):
    return BranchingConfig(
        n_particles=_require(sim_cfg, "n_particles", int),
        dt=float(sim_cfg.get("dt", 0.01)),
        horizon=float(sim_cfg.get("horizon", 1.0)),
        d=d,
        branch_rate=sim_cfg.get("branch_rate"),
        max_particle_steps=int(sim_cfg.get("max_particle_steps", 10_000_000)),
    )


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return x


# --- commands ---------------------------------------------------------------------


def cmd_capacity(cfg, seed, out):
    region = region_from_dict(_require(cfg, "region"))
    kind = _kernel_kind(_require(cfg, "kind"), getattr(region, "d", None))
    resolution = _require(cfg, "resolution", float)
    result = capacity(region, kind, resolution,
                      tol=float(cfg.get("tol", 1e-6)),
                      seed=seed,
                      diag_samples=int(cfg.get("diag_samples", 256)),
                      max_iter=cfg.get("max_iter"))
    payload = result.to_json_dict()
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(out, payload)
    return 0 if result.converged else 2


def cmd_theorem1(cfg, seed, out):
    entries = _require(cfg, "regions")
    if not entries:
        raise ConfigError("config field 'regions' is empty")
    cap_cfg = cfg.get("capacity", {})
    sim_cfg = _require(cfg, "sim")
    rows = []
    ratios = []
    failed = False
    for k, entry in enumerate(entries):
        rid = entry.get("id", f"region_{k}")
        try:
            region = region_from_dict(_require(entry, "region"))
            resolution = float(entry.get("resolution",
                                         cfg.get("resolution", 0.05)))
            res = capacity(region, PARABOLIC, resolution,
                           tol=float(cap_cfg.get("tol", 1e-5)),
                           seed=seed,
                           diag_samples=int(cap_cfg.get("diag_samples", 256)))
            config = _branching_config(sim_cfg, region.d)
            est = estimate_graph_hit(config, region,
                                     int(_require(sim_cfg, "runs", int)), seed)
            mass = est.implied_excursion_mass
            hw = est.mass_half_width()
            ratio = mass / res.capacity
            ratios.append(ratio)
            ok = mass >= 0.25 * res.capacity - 2.0 * hw
            rows.append([rid, _fmt(res.capacity), _fmt(mass), _fmt(hw),
                         _fmt(ratio), _fmt(est.p_hat), _fmt(est.ci_low),
                         _fmt(est.ci_high), est.exploded,
                         "OK" if ok else "BELOW_BOUND"])
            failed |= not ok
        except (RegionError, ConfigError, ValueError, RuntimeError) as exc:
            rows.append([rid, "", "", "", "", "", "", "", "", f"FAILED: {exc}"])
            failed = True
    if ratios:
        rows.append(["SUMMARY", "", "", "", "", "", "", "", "",
                     f"ratio_min={min(ratios):.6g} ratio_max={max(ratios):.6g} "
                     f"band={max(ratios) / min(ratios):.6g} "
                     "gate: mass >= 0.25*cap - 2*half_width (2 propagated "
                     "Wilson half-widths)"])
    _write_csv(out, cfg, seed, ["region_id", "capacity", "implied_mass",
                                "mass_half_width", "ratio", "p_hat", "ci_low",
                                "ci_high", "exploded", "status"], rows)
    return 2 if failed else 0


def cmd_prop51(cfg, seed, out):
    entries = _require(cfg, "sets")
    if not entries:
        raise ConfigError("config field 'sets' is empty")
    d = _require(cfg, "d", int)
    t_slice = float(cfg.get("slice_time", 1.0))
    resolution = _require(cfg, "resolution", float)
    cap_cfg = cfg.get("capacity", {})
    sim_cfg = _require(cfg, "sim")
    runs = int(_require(sim_cfg, "runs", int))
    rows = []
    ratios = []
    failed = False
    for k, entry in enumerate(entries):
        rid = entry.get("id", f"set_{k}")
        try:
            base = region_from_dict(_require(entry, "region"))
            if getattr(base, "spacetime", False) or base.d != d:
                raise ConfigError(f"set {rid!r} must be spatial of dimension {d}")
            if base.max_norm() > 1.0 + 1e-12:
                raise ConfigError(f"set {rid!r} must lie inside the unit ball")
            cap_n = capacity(base, newtonian(d), resolution,
                             tol=float(cap_cfg.get("tol", 1e-5)), seed=seed,
                             diag_samples=int(cap_cfg.get("diag_samples", 256)))
            cap_p = capacity(SliceOf(t_slice, base), PARABOLIC, resolution,
                             tol=float(cap_cfg.get("tol", 1e-5)), seed=seed,
                             diag_samples=int(cap_cfg.get("diag_samples", 256)))
            config = _branching_config(sim_cfg, d)
            est = estimate_support_hit(config, t_slice, base, runs, seed)
            cap_ratio = cap_p.capacity / cap_n.capacity
            ratios.append(cap_ratio)
            rows.append([rid, _fmt(cap_n.capacity), _fmt(cap_p.capacity),
                         _fmt(cap_ratio), _fmt(est.p_hat), _fmt(est.ci_low),
                         _fmt(est.ci_high),
                         _fmt(est.p_hat / cap_n.capacity), "OK"])
        except (RegionError, ConfigError, ValueError, RuntimeError) as exc:
            rows.append([rid, "", "", "", "", "", "", "", f"FAILED: {exc}"])
            failed = True
    if ratios:
        band = max(ratios) / min(ratios)
        rows.append(["SUMMARY", "", "", "", "", "", "", "",
                     f"cap_ratio_band={band:.6g} (gate <= 10)"])
    _write_csv(out, cfg, seed, ["set_id", "cap_newtonian", "cap_parabolic_slice",
                                "cap_ratio", "support_p_hat", "ci_low", "ci_high",
                                "p_hat_over_cap", "status"], rows)
    return 2 if failed else 0


def cmd_hermite_verify(cfg, seed, out):
    from .hermite_ops import verification_report
    report = verification_report(
        seed=seed,
        trials=int(cfg.get("trials", 200)),
        max_degree=int(cfg.get("max_degree", 6)),
        d=int(cfg.get("d", 2)),
        grid_n=int(cfg.get("grid_n", 5)),
        bound_overrides=cfg.get("bound_overrides"),
    )
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
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
    thorn_spec = _require(cfg, "thorn")
    region = region_from_dict(thorn_spec)
    if not isinstance(region, Thorn):
        raise ConfigError("config field 'thorn' must describe a thorn region")
    eps_list = _require(cfg, "eps_list")
    rows_in = capacity_growth_profile(
        region, [float(e) for e in eps_list],
        pitch_factor=float(cfg.get("pitch_factor", 0.5)),
        tol=float(cfg.get("tol", 1e-5)), seed=seed,
        diag_samples=int(cfg.get("diag_samples", 128)))
    rows = [[_fmt(r["eps"]), _fmt(r["resolution"]), _fmt(r["capacity"]),
             r["error"]] for r in rows_in]
    _write_csv(out, cfg, seed, ["eps", "resolution", "capacity", "error"], rows)
    return 2 if any(r["error"] for r in rows_in) else 0


def cmd_range_hit(cfg, seed, out):
    d = _require(cfg, "d", int)
    region = region_from_dict(_require(cfg, "region"))
    if "start" in cfg:
        start_law = cfg["start"]  # fixed start point
    elif "start_ball" in cfg:
        # uniform start law on a ball, e.g. {"center": [0,0], "radius": 1}
        ball = cfg["start_ball"]
        centre = np.asarray(_require(ball, "center"), dtype=float)
        radius = float(_require(ball, "radius"))

        def start_law(rng, runs):
            pts = np.empty((runs, d))
            got = 0
            while got < runs:
                cand = rng.uniform(-radius, radius, size=(2 * (runs - got), d))
                cand = cand[np.sum(cand * cand, axis=1) < radius * radius]
                take = min(cand.shape[0], runs - got)
                pts[got:got + take] = centre + cand[:take]
                got += take
            return pts
    else:
        raise ConfigError("config missing field 'start' (or 'start_ball')")
    est = estimate_range_hit(
        d, start_law, region,
        dt=float(cfg.get("dt", 1e-3)),
        runs=int(_require(cfg, "runs", int)),
        seed=seed,
        kill_radius=float(cfg.get("kill_radius", 50.0)))
    payload = est.to_json_dict()
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    payload["seed"] = seed
    _write_json(out, payload)
    return 0


def cmd_sbm_extinction(cfg, seed, out):
    times = [float(t) for t in _require(cfg, "times")]
    sim_cfg = dict(cfg)
    sim_cfg.setdefault("horizon", max(times))
    config = _branching_config(sim_cfg, int(cfg.get("d", 1)))
    runs = int(_require(cfg, "runs", int))
    estimates = estimate_survival(config, times, runs, seed)
    payload = {
        "n_particles": config.n_particles,
        "branch_rate": config.branch_rate,
        "runs": runs,
        "seed": seed,
        "times": {},
        "timestamp": datetime.now(timezone.utc).isoformat(),
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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap (env PARCAP_THREADS); every loop runs serially")
    args = parser.parse_args(argv)

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
    if args.threads is not None:
        runtime.set_threads(args.threads)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            print(f"config file not found: {args.config}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"malformed JSON config: {exc}", file=sys.stderr)
            return 1
    elif args.command != "hermite-verify":
        print(f"{args.command}: --config is required", file=sys.stderr)
        return 1

    try:
        return fn(cfg, seed, out)
    except (ConfigError, RegionError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
