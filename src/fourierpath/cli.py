"""Command-line driver wiring the pipeline end to end.

Commands: ``transform``, ``reconstruct``, ``simulate``, ``certify``,
``sweep``.  Every run echoes its fully resolved configuration into the
output directory, all numeric output carries 17 significant digits, and a
rerun with the same configuration (seeds included) produces byte-identical
files.  A JSON config file given with --config overrides any conflicting
command-line flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import analysis, gvf, pathdata, sim, spectrum, trigpath

__all__ = ["main", "RunConfig"]


class CliError(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    input: str | None = None
    synth: str | None = None
    sigma1: float = 0.0
    sigma2: float = 0.0
    seed: int = 0
    window_m: int | None = None
    window_auto: bool = False
    window_max: int | None = None
    k1: float = 1.0
    k2: float = 1.0
    x0: float = 0.0
    y0: float = 0.0
    theta0: float = 0.0
    duration: float = 20.0
    dt: float = 1e-3
    method: str = "rk4"
    runs: int = 20
    out_dir: str = "out"
    m_list: str | None = None
    samples: int = 1024
    stride: int = 1
    conv_tol: float = 1e-4
    literal_theta_integral: bool = False


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _check_output_options(cfg)
        out = _prepare_out_dir(cfg)
        handler = {
            "transform": _cmd_transform,
            "reconstruct": _cmd_reconstruct,
            "simulate": _cmd_simulate,
            "certify": _cmd_certify,
            "sweep": _cmd_sweep,
        }[cfg.command]
        handler(cfg, out)
    except (CliError, pathdata.PathDataError, sim.IntegrationError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands

def _cmd_transform(cfg: RunConfig, out: Path) -> None:
    spec = _spectrum_for(cfg)
    target = out / "spectrum.csv"
    with open(target, "w", newline="\n") as fh:
        spectrum.write_spectrum_csv(spec, fh)
    print(f"N={spec.n_samples} total_energy={spec.energy():.17g}")
    print(f"wrote {target}")


def _cmd_reconstruct(cfg: RunConfig, out: Path) -> None:
    if not cfg.m_list:
        raise CliError("reconstruct needs --m-list, e.g. --m-list 10,20,full")
    spec = _spectrum_for(cfg)
    for token in cfg.m_list.split(","):
        token = token.strip()
        if token == "full":
            path, label = trigpath.make_trig_path(spec), "full"
        else:
            m = _parse_int(token, "m value")
            path, label = trigpath.make_trig_path(spectrum.apply_window(spec, m)), str(m)
        target = out / f"reconstruction_{label}.csv"
        with open(target, "w", newline="\n") as fh:
            trigpath.write_reconstruction_csv(path, fh, cfg.samples)
        print(f"wrote {target}")


def _cmd_simulate(cfg: RunConfig, out: Path) -> None:
    clean = _load_samples(cfg)
    data = _perturbed(clean, cfg)
    spec = spectrum.dft(data)
    followed = trigpath.make_trig_path(
        spectrum.apply_window(spec, _window_width(spec, cfg)))
    # with synthetic noise the clean data is in hand, so measure the error
    # against the clean full reconstruction; otherwise against the followed
    # curve itself
    truth = trigpath.make_trig_path(spectrum.dft(clean)) if data is not clean else None
    traj = sim.integrate(followed, _params(cfg), _sim_config(cfg), truth=truth)
    target = out / "trajectory.csv"
    with open(target, "w", newline="\n") as fh:
        traj.write_csv(fh, stride=cfg.stride)
    t_conv = sim.convergence_time(traj, cfg.conv_tol)
    print(f"rows={traj.n_rows} stride={cfg.stride}")
    print(f"convergence_time={'none' if t_conv is None else format(t_conv, '.17g')}"
          f" (tol={cfg.conv_tol:.17g})")
    print(f"final_V1={traj.v1[-1]:.17g} final_e={traj.e_inst[-1]:.17g}")
    print(f"wrote {target}")


def _cmd_certify(cfg: RunConfig, out: Path) -> None:
    clean = _load_samples(cfg)
    clean_spec = spectrum.dft(clean)
    m = _window_width(clean_spec, cfg)
    report = analysis.certify(
        clean,
        pathdata.NoiseSpec(cfg.sigma1, cfg.sigma2, cfg.seed),
        m,
        _params(cfg),
        _sim_config(cfg),
        cfg.runs,
        literal_theta_integral=cfg.literal_theta_integral,
    )
    _write_sweep_csv(out / "sweep.csv", clean_spec, cfg)
    with open(out / "report.json", "w", newline="\n") as fh:
        json.dump(_report_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "report.txt", "w", newline="\n") as fh:
        for key, value in _report_lines(report):
            fh.write(f"{key}: {value}\n")
    print(f"m={report.m} e_ms_final={report.e_ms_final:.17g} "
          f"delta={report.delta:.17g} passed={str(report.passed).lower()}")
    print(f"wrote {out / 'report.json'}, {out / 'report.txt'}, {out / 'sweep.csv'}")


def _cmd_sweep(cfg: RunConfig, out: Path) -> None:
    spec = _spectrum_for(cfg)
    _write_sweep_csv(out / "sweep.csv", spec, cfg)
    m_max = cfg.window_max or spec.n_samples
    m_star, bound = analysis.select_window(spec, cfg.sigma1, cfg.sigma2, m_max)
    print(f"m_star={m_star} p_bar={bound:.17g}")
    print(f"wrote {out / 'sweep.csv'}")


# ---------------------------------------------------------------------------
# plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierpath",
        description="Spectral reconstruction and guided path following "
                    "for discrete planar path data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "transform": "transform path data and export the amplitude spectrum",
        "reconstruct": "export reconstructed curves for a list of window widths",
        "simulate": "run one closed-loop simulation and export the trajectory",
        "certify": "Monte-Carlo certification of the ultimate following error",
        "sweep": "tabulate the error bound against the window width",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "reconstruct":
            p.add_argument("--m-list", help="comma list of widths, 'full' allowed")
            p.add_argument("--samples", type=int, default=1024,
                           help="curve samples per exported reconstruction")
        if name == "simulate":
            p.add_argument("--stride", type=int, default=1,
                           help="keep every stride-th trajectory row")
            p.add_argument("--conv-tol", type=float, default=1e-4,
                           help="offset tolerance for the convergence-time summary")
        if name == "certify":
            p.add_argument("--literal-theta-integral", action="store_true",
                           help="report 2*pi times the ensemble error reading")
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; overrides flags on conflict")
    p.add_argument("--input", help="CSV file of x,y records")
    p.add_argument("--synth", help="synthetic dataset 'kind,n[,params...]'")
    p.add_argument("--sigma1", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-m", type=int, default=None,
                   help="window width; omit for the full spectrum")
    p.add_argument("--window-auto", action="store_true",
                   help="pick the width minimizing the error bound")
    p.add_argument("--window-max", type=int, default=None,
                   help="largest width considered by --window-auto and sweep")
    p.add_argument("--k1", type=float, default=1.0)
    p.add_argument("--k2", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "euler"), default="rk4")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--out-dir", default="out")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if k not in ("config",)}
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {args.config}: {exc}")
        if not isinstance(overrides, dict):
            raise CliError("config file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in known or name == "command":
                raise CliError(f"config file {args.config}: unknown key {key!r}")
            values[name] = _config_value(args.config, key, name, value)
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    merged = {**defaults, **values}
    return RunConfig(**merged)


def _config_value(source: str, key: str, name: str, value):
    """A config-file value checked against its RunConfig field type.

    JSON integers are accepted for float fields and stored as floats.
    """
    allowed = typing.get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)
    if float in allowed and type(value) is int:
        return float(value)
    if type(value) in allowed:
        return value
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise CliError(f"config file {source}: {key!r} must be {names}, got {value!r}")


def _check_output_options(cfg: RunConfig) -> None:
    if cfg.stride < 1:
        raise CliError(f"stride must be >= 1, got {cfg.stride}")
    if cfg.samples < 2:
        raise CliError(f"samples must be >= 2, got {cfg.samples}")
    if not (math.isfinite(cfg.conv_tol) and cfg.conv_tol >= 0):
        raise CliError(f"conv-tol must be finite and >= 0, got {cfg.conv_tol}")


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "resolved_config.json", "w", newline="\n") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _load_samples(cfg: RunConfig) -> pathdata.PathSamples:
    if bool(cfg.input) == bool(cfg.synth):
        raise CliError("give exactly one of --input or --synth")
    if cfg.input:
        source = Path(cfg.input)
        if not source.exists():
            raise CliError(f"input file not found: {source}")
        return pathdata.load_path(source)
    parts = [p.strip() for p in cfg.synth.split(",")]
    if len(parts) < 2:
        raise CliError("--synth needs at least 'kind,n'")
    kind = parts[0]
    n = _parse_int(parts[1], "synth sample count")
    params = [float(p) for p in parts[2:]]
    return pathdata.synth_path(kind, n, params)


def _perturbed(clean: pathdata.PathSamples, cfg: RunConfig) -> pathdata.PathSamples:
    if cfg.sigma1 == 0.0 and cfg.sigma2 == 0.0:
        return clean
    return pathdata.add_noise(clean, pathdata.NoiseSpec(cfg.sigma1, cfg.sigma2, cfg.seed))


def _spectrum_for(cfg: RunConfig) -> spectrum.Spectrum:
    return spectrum.dft(_perturbed(_load_samples(cfg), cfg))


def _window_width(spec: spectrum.Spectrum, cfg: RunConfig) -> int:
    if cfg.window_auto:
        m, _ = analysis.select_window(
            spec, cfg.sigma1, cfg.sigma2, cfg.window_max or spec.n_samples
        )
        return m
    if cfg.window_m is not None:
        return cfg.window_m
    return spec.n_samples


def _params(cfg: RunConfig) -> gvf.GvfParams:
    return gvf.GvfParams(cfg.k1, cfg.k2)


def _sim_config(cfg: RunConfig) -> sim.SimConfig:
    return sim.SimConfig(
        eta0=gvf.FieldState(cfg.x0, cfg.y0, cfg.theta0),
        duration=cfg.duration,
        dt=cfg.dt,
        method=cfg.method,
    )


def _write_sweep_csv(target: Path, spec: spectrum.Spectrum, cfg: RunConfig) -> None:
    m_max = cfg.window_max or spec.n_samples
    rows = analysis.window_sweep(spec, cfg.sigma1, cfg.sigma2, m_max)
    with open(target, "w", newline="\n") as fh:
        fh.write("m,p_bar,f_backward,tail_energy\n")
        for m, bound, diff, tail in rows:
            diff_text = "" if diff is None else f"{diff:.17g}"
            fh.write(f"{m},{bound:.17g},{diff_text},{tail:.17g}\n")


def _report_dict(report: analysis.ErrorReport) -> dict:
    data = dataclasses.asdict(report)
    data["e_ms_per_run"] = list(report.e_ms_per_run)
    data["passed"] = report.passed
    return data


def _report_lines(report: analysis.ErrorReport):
    yield "m", str(report.m)
    yield "runs", str(report.runs)
    yield "p_integral", f"{report.p_integral:.17g}"
    yield "p_bar", f"{report.p_bar:.17g}"
    yield "f_backward", ("none" if report.f_backward is None
                         else f"{report.f_backward:.17g}")
    yield "e_ms_final", f"{report.e_ms_final:.17g}"
    yield "delta", f"{report.delta:.17g}"
    for i, value in enumerate(report.e_ms_per_run):
        yield f"e_ms_run_{i:03d}", f"{value:.17g}"
    yield "passed", str(report.passed).lower()


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"could not parse {what}: {text!r}") from None


if __name__ == "__main__":
    sys.exit(main())
