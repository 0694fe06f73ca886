"""Command-line driver wiring the pipeline end to end.

Commands: ``transform``, ``reconstruct``, ``simulate``, ``certify``,
``sweep``.  Each takes flags and --config file keys (the file wins
conflicts) only for the :class:`RunConfig` settings it reads, listed in
:data:`COMMANDS`, and echoes those settings into the output directory.
Bad input ends in one ``error:`` line and exit code 1; the settings and the
data are all checked before the output directory is made.  All numeric output
carries 17 significant digits, and a rerun with the same configuration
(seeds included) produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import typing
from pathlib import Path

import numpy as np

from . import analysis, gvf, pathdata, sim, spectrum, trigpath

__all__ = ["main", "RunConfig", "COMMANDS"]


class CliError(Exception):
    pass


def _setting(default, help_text: str, at_least=-math.inf, at_most=math.inf):
    """A setting's field; a declared range (finite, for a float) is checked and put in --help."""
    ends = [f"{op} {b:g}" for op, b in ((">=", at_least), ("<=", at_most)) if abs(b) < math.inf]
    bound = ("finite and " if ends and isinstance(default, float) else "") + " and ".join(ends)
    return dataclasses.field(default=default, metadata={
        "help": f"{help_text} ({bound})" if bound else help_text,
        "bound": bound, "at_least": at_least, "at_most": at_most})


# the integrator stops past this range, so a start there cannot take one step
_START = (-sim._DIVERGENCE_LIMIT, sim._DIVERGENCE_LIMIT)


@dataclasses.dataclass
class RunConfig:
    """Resolved settings; each field is the one declaration of a setting."""

    command: str
    input: str | None = _setting(None, "CSV file of x,y records")
    synth: str | None = _setting(None, "synthetic dataset 'kind,n[,params...]'")
    sigma1: float = _setting(0.0, "noise standard deviation on x")
    sigma2: float = _setting(0.0, "noise standard deviation on y")
    seed: int = _setting(0, "noise seed")
    window_m: int | None = _setting(None, "window width; omit for the full spectrum")
    window_auto: bool = _setting(False, "pick the width minimizing the error bound")
    window_max: int | None = _setting(None, "largest width tried; default N")
    k1: float = _setting(1.0, "field gain k1")
    k2: float = _setting(1.0, "field gain k2")
    x0: float = _setting(0.0, "initial x", *_START)
    y0: float = _setting(0.0, "initial y", *_START)
    theta0: float = _setting(0.0, "initial path parameter", *_START)
    duration: float = _setting(20.0, "simulated horizon")
    dt: float = _setting(1e-3, "integration step")
    # memory guard rails: past its first batch a certify peaks about 155 B higher
    # per run, and a reconstruction about 370 B per sample (a prime count just past
    # a power of two), so the largest run either cap admits stays within 3.6 GB
    runs: int = _setting(20, "Monte-Carlo runs", 1, 2 * 10**7)
    out_dir: str = _setting("out", "output directory")
    m_list: str | None = _setting(None, "comma list of widths, 'full' allowed")
    samples: int = _setting(1024, "curve samples per exported reconstruction", 2, 6 * 10**6)
    stride: int = _setting(1, "keep every stride-th trajectory row", at_least=1)
    conv_tol: float = _setting(1e-4, "offset tolerance for the convergence-time summary", 0.0)


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def main(argv=None) -> int:
    try:
        args, unknown = _build_parser().parse_known_args(argv)
        if unknown:
            raise CliError(f"fourierpath {args.command}: unrecognized arguments: "
                           + " ".join(unknown))
        cfg = _resolve_config(args)
        _check_options(cfg)
        widths = _widths(cfg)
        clean = _load_samples(cfg)
        _check_followable(cfg, clean)
        for flag, m in widths:
            _named(flag, spectrum.checked_widths, m, clean.n_samples)
        out = _prepare_out_dir(cfg)
        COMMANDS[cfg.command][2](cfg, clean, out)
    except (CliError, pathdata.PathDataError, sim.IntegrationError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands

def _cmd_transform(cfg: RunConfig, clean: pathdata.PathSamples, out: Path) -> None:
    spec = spectrum.dft(_perturbed(clean, cfg))
    target = out / "spectrum.csv"
    with open(target, "w", newline="\n") as fh:
        spectrum.write_spectrum_csv(spec, fh)
    print(f"N={spec.n_samples} total_energy={spec.energy():.17g}")
    print(f"wrote {target}")


def _cmd_reconstruct(cfg: RunConfig, clean: pathdata.PathSamples, out: Path) -> None:
    spec = spectrum.dft(_perturbed(clean, cfg))
    for m in _reconstruct_widths(cfg):
        path = spec if m is None else spectrum.apply_window(spec, m)
        target = out / f"reconstruction_{'full' if m is None else m}.csv"
        with open(target, "w", newline="\n") as fh:
            trigpath.write_reconstruction_csv(path, fh, cfg.samples)
        print(f"wrote {target}")


def _cmd_simulate(cfg: RunConfig, clean: pathdata.PathSamples, out: Path) -> None:
    data = _perturbed(clean, cfg)
    spec = spectrum.dft(data)
    followed = spectrum.apply_window(spec, _window_width(spec, cfg))
    # with synthetic noise the clean data is in hand, so measure the error
    # against the clean full reconstruction; otherwise against the followed
    # curve itself
    truth = spectrum.dft(clean) if data is not clean else None
    run = _sim_config(cfg)
    traj = sim.integrate(followed, _params(cfg), run, truth,
                         range(0, run.steps + 1, cfg.stride), cfg.conv_tol)
    target = out / "trajectory.csv"
    with open(target, "w", newline="\n") as fh:
        traj.write_csv(fh)
    t_conv = traj.convergence_time
    print(f"rows={run.steps + 1} stride={cfg.stride}")
    print(f"convergence_time={'none' if t_conv is None else format(t_conv, '.17g')}"
          f" (tol={cfg.conv_tol:.17g})")
    print(f"final_V1={traj.final.v1[0]:.17g} final_e={traj.final.e_inst[0]:.17g}")
    print(f"wrote {target}")


def _cmd_certify(cfg: RunConfig, clean: pathdata.PathSamples, out: Path) -> None:
    clean_spec = spectrum.dft(clean)
    m = _window_width(clean_spec, cfg)
    report = analysis.certify(clean, _noise(cfg), m, _params(cfg), _sim_config(cfg), cfg.runs)
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


def _cmd_sweep(cfg: RunConfig, clean: pathdata.PathSamples, out: Path) -> None:
    spec = spectrum.dft(_perturbed(clean, cfg))
    _write_sweep_csv(out / "sweep.csv", spec, cfg)
    m_star, bound = analysis.select_window(spec, cfg.sigma1, cfg.sigma2,
                                           _window_max(spec, cfg))
    print(f"m_star={m_star} p_bar={bound:.17g}")
    print(f"wrote {out / 'sweep.csv'}")


_COMMON = ("input", "synth", "sigma1", "sigma2", "seed", "out_dir")
_CLOSED_LOOP = ("window_m", "window_auto", "window_max", "k1", "k2", "x0", "y0",
                "theta0", "duration", "dt")

# command -> (help text, the settings its handler reads, handler)
COMMANDS = {
    "transform": ("transform path data and export the amplitude spectrum",
                  _COMMON, _cmd_transform),
    "reconstruct": ("export reconstructed curves for a list of window widths",
                    _COMMON + ("m_list", "samples"), _cmd_reconstruct),
    "simulate": ("run one closed-loop simulation and export the trajectory",
                 _COMMON + _CLOSED_LOOP + ("stride", "conv_tol"), _cmd_simulate),
    "certify": ("Monte-Carlo certification of the ultimate following error",
                _COMMON + _CLOSED_LOOP + ("runs",), _cmd_certify),
    "sweep": ("tabulate the error bound against the window width",
              _COMMON + ("window_max",), _cmd_sweep),
}


# ---------------------------------------------------------------------------
# plumbing

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`CliError`, not a usage dump, and
    reads ``-1e-3``, ``-1.`` or ``-inf`` as a value, where argparse takes it for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every negative float() reads: digits with an optional point and
        # fraction, or a point and a fraction; then an optional exponent
        self._negative_number_matcher = re.compile(
            r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


# parsing leaves the parser as it was, so it is built once per process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, each with the flags of the settings it reads."""
    parser = _Parser(
        prog="fourierpath",
        description="Spectral reconstruction and guided path following "
                    "for discrete planar path data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, settings, _) in COMMANDS.items():
        # a flag left out stays out of the namespace, so RunConfig supplies its default
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file; overrides flags on conflict")
        for f in dataclasses.fields(RunConfig):
            if f.name in settings:
                p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                               **_flag_kind(_FIELD_TYPES[f.name]))
    return parser


def _flag_kind(hint) -> dict:
    if hint is bool:
        return {"action": "store_true"}
    # the flag of an optional setting takes the type before `| None`
    return {"type": (typing.get_args(hint) or (hint,))[0]}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = vars(args)
    source = values.pop("config", None)
    if source:
        values.update(_config_file(source, values["command"]))
    return RunConfig(**values)


def _config_file(source: str, command: str) -> dict:
    """The settings of ``command`` a JSON config file sets, type-checked."""
    try:
        with open(source, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {source}")
    # bad JSON, a byte that is not UTF-8, or an integer too long to convert
    except ValueError as exc:
        raise CliError(f"config file {source}: {exc}")
    if not isinstance(overrides, dict):
        raise CliError("config file must hold a JSON object")
    return dict(_config_item(source, command, key, value)
                for key, value in overrides.items())


def _config_item(source: str, command: str, key: str, value) -> tuple:
    """A config-file key as a setting of ``command`` with its checked value.

    JSON integers are accepted for float fields and stored as floats.
    """
    name = key.replace("-", "_")
    if name not in COMMANDS[command][1]:
        raise CliError(f"config file {source}: unknown key {key!r} for {command}")
    allowed = typing.get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)
    if float in allowed and type(value) is int:
        try:
            return name, float(value)
        except OverflowError:
            raise CliError(f"config file {source}: {key!r} is too large "
                           "for a float") from None
    if type(value) in allowed:
        return name, value
    names = " or ".join("null" if t is type(None) else getattr(t, "__name__", repr(t))
                        for t in allowed)
    raise CliError(f"config file {source}: {key!r} must be {names}, got {value!r}")


def _check_options(cfg: RunConfig) -> None:
    """Every check that needs no data; unread settings keep defaults that pass."""
    if bool(cfg.input) == bool(cfg.synth):
        raise CliError("give exactly one of --input or --synth")
    if cfg.window_auto and cfg.window_m is not None:
        raise CliError("give at most one of --window-m or --window-auto")
    # exact comparisons: an int too large for a float is refused, not converted
    for f in dataclasses.fields(cfg):
        value, meta = getattr(cfg, f.name), f.metadata
        if meta.get("bound") and not (meta["at_least"] <= value <= meta["at_most"]
                                      and abs(value) < math.inf):
            raise CliError(f"--{f.name.replace('_', '-')} must be {meta['bound']}, got {value}")
    # the constructors validate their own fields
    _noise(cfg)
    _params(cfg)
    _sim_config(cfg)


def _widths(cfg: RunConfig) -> list[tuple[str, int]]:
    """(flag, width) for every window width given, for the check against 1 and N."""
    listed = _reconstruct_widths(cfg) if cfg.command == "reconstruct" else []
    given = [("--window-m", cfg.window_m), ("--window-max", cfg.window_max),
             *(("--m-list", m) for m in listed)]
    return [(flag, m) for flag, m in given if m is not None]


def _reconstruct_widths(cfg: RunConfig) -> list[int | None]:
    """The --m-list widths in order; None stands for the full spectrum."""
    if not cfg.m_list:
        raise CliError("reconstruct needs --m-list, e.g. --m-list 10,20,full")
    tokens = [token.strip() for token in cfg.m_list.split(",")]
    widths = [None if token == "full" else _parse(token, "--m-list width") for token in tokens]
    seen = set()
    for m in widths:
        if m in seen:
            raise CliError(f"--m-list: width {'full' if m is None else m} is repeated")
        seen.add(m)
    return widths


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {"command": cfg.command,
                **{name: getattr(cfg, name) for name in COMMANDS[cfg.command][1]}}
    with open(out / "resolved_config.json", "w", newline="\n") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _load_samples(cfg: RunConfig) -> pathdata.PathSamples:
    if cfg.input:
        source = Path(cfg.input)
        if not source.exists():
            raise CliError(f"input file not found: {source}")
        return pathdata.load_path(source)
    parts = [p.strip() for p in cfg.synth.split(",")]
    if len(parts) < 2:
        raise CliError("--synth needs at least 'kind,n'")
    n = _parse(parts[1], "--synth sample count")
    params = [_parse(p, "--synth parameter", float) for p in parts[2:]]
    return _named("--synth", pathdata.synth_path, parts[0], n, params)


def _check_followable(cfg: RunConfig, clean: pathdata.PathSamples) -> None:
    """Data the integrator stops on at its first step, whatever --dt is.

    A normal deviate is below 100 (see ``pathdata``), so noise of scale
    sigma keeps every coordinate below the clean peak plus 100*sigma.
    """
    if cfg.command not in ("simulate", "certify"):
        return
    limit = sim._DIVERGENCE_LIMIT
    peak = float(abs(clean.points).max())
    if peak > limit:
        raise CliError(f"{'--input' if cfg.input else '--synth'}: the closed loop cannot "
                       f"follow a path whose coordinates exceed {limit:g} "
                       f"in magnitude, got {peak:g}")
    for flag, sigma in (("--sigma1", cfg.sigma1), ("--sigma2", cfg.sigma2)):
        if peak + 100.0 * sigma > limit:
            raise CliError(f"{flag}: noise of scale {sigma:g} can push the path past "
                           f"{limit:g} in magnitude, where the closed loop cannot follow it")


def _perturbed(clean: pathdata.PathSamples, cfg: RunConfig) -> pathdata.PathSamples:
    if cfg.sigma1 == 0.0 and cfg.sigma2 == 0.0:
        return clean
    return pathdata.add_noise(clean, _noise(cfg))


def _noise(cfg: RunConfig) -> pathdata.NoiseSpec:
    return pathdata.NoiseSpec(cfg.sigma1, cfg.sigma2, cfg.seed)


def _window_width(spec: spectrum.Spectrum, cfg: RunConfig) -> int:
    if cfg.window_auto:
        m, _ = analysis.select_window(spec, cfg.sigma1, cfg.sigma2, _window_max(spec, cfg))
        return m
    if cfg.window_m is not None:
        return cfg.window_m
    return spec.n_samples


def _window_max(spec: spectrum.Spectrum, cfg: RunConfig) -> int:
    """--window-max, which defaults to the sample count N."""
    return spec.n_samples if cfg.window_max is None else cfg.window_max


def _params(cfg: RunConfig) -> gvf.GvfParams:
    return gvf.GvfParams(cfg.k1, cfg.k2)


def _sim_config(cfg: RunConfig) -> sim.SimConfig:
    return sim.SimConfig(
        eta0=gvf.FieldState(cfg.x0, cfg.y0, cfg.theta0),
        duration=cfg.duration,
        dt=cfg.dt,
    )


def _write_sweep_csv(target: Path, spec: spectrum.Spectrum, cfg: RunConfig) -> None:
    m, bound, tail = analysis.window_sweep(spec, cfg.sigma1, cfg.sigma2, _window_max(spec, cfg))
    with open(target, "w", newline="\n") as fh:
        # the first width has no backward difference: its field stays empty
        pathdata.write_table(fh, "m,p_bar,f_backward,tail_energy\n"
                             f"{m[0]},{bound[0]:.17g},,{tail[0]:.17g}",
                             (m[1:], bound[1:], np.diff(bound), tail[1:]))


def _report_dict(report: analysis.ErrorReport) -> dict:
    data = dataclasses.asdict(report)
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


def _parse(text: str, what: str, kind=int):
    try:
        return kind(text)
    except ValueError:
        raise CliError(f"could not parse {what}: {text!r}") from None


def _named(flag: str, check, *args):
    """``check(*args)``, with a ValueError it raises prefixed by ``flag``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None
