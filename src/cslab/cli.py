"""Command-line front end.

Subcommands
-----------
spectrum    eigenvalue/gap/collinearity table plus identity residuals
wave        traveling-wave parameter solve and sampled coefficients
finitegap   Newton solve of the residue conditions and sampled coefficients
evolve      time integration with conservation diagnostics
verify      the acceptance suite

Exit codes: 0 success, 2 usage or I/O failure, 3 constraint or convergence
failure, 4 verification failure.  Machine outputs carry no timestamps and
print floats through ``%.17g``, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .errors import CslabError
from .evolve import EvolveConfig, conservation_report, evolve, measure_speed
from .finitegap import potential_coeffs, predicted_l2, residue_residuals, \
    solve_residue_system
from .fixtures import make_fixture
from .hardy import HardyCoeffs, zero_pad
from .lax import build_lax, check_spectral_identities, gap_profile, \
    spectral_decompose
from .verify import DEFAULT_SEED, run_verify
from .waves import make_wave, sample_wave, validate_wave, wave_l2

__all__ = ["main"]


class _InputError(Exception):
    """A usage mistake or a malformed input file (exit 2, like I/O failures)."""


def _fmt(x) -> str:
    """One float, 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _parse_complex(text: str) -> complex:
    """Accept '0.5', '0.5,-0.25' (re,im) or Python literals like '0.5-0.25j'."""
    try:
        return complex(text)
    except ValueError:
        pass
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _parse_pole(text: str):
    """One --pole entry: 're,im' or 're,im:mult'."""
    mult = 1
    body = text
    if ":" in text:
        body, tail = text.rsplit(":", 1)
        try:
            mult = int(tail)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad multiplicity in {text!r}")
    return _parse_complex(body), mult


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)  # csv default \r\n line endings (RFC 4180)
        w.writerow(header)
        w.writerows(rows)


def _load_state(args) -> tuple:
    """(u, sign) from --fixture or --input; flag mistakes exit 2."""
    if bool(args.fixture) == bool(args.input):
        raise _InputError("exactly one of --fixture or --input is required")
    if args.fixture:
        fx = make_fixture(args.fixture, sign=args.sign)
        K = args.K if args.K is not None else 256
        return fx.coeffs(K), fx.sign
    if args.sign is None:
        raise _InputError("--input requires an explicit --sign")
    try:
        u = HardyCoeffs.from_json(Path(args.input).read_text())
    except ValueError as exc:
        raise _InputError(f"cannot read {args.input}: {exc}") from None
    if args.K is not None:
        padded = zero_pad(u, args.K)  # a K out of range exits 3 here
        if args.K < u.K:
            raise _InputError(
                f"--K {args.K} would drop data from a length-{u.K} input")
        u = padded
    return u, args.sign


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    u, sign = _load_state(args)
    dec = spectral_decompose(build_lax(u, sign))
    prof = gap_profile(dec, u)
    rep = check_spectral_identities(u, dec)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for n in range(dec.reliable):
        gap = _fmt(prof.gaps[n - 1]) if n >= 1 else ""
        col = _fmt(abs(prof.collinearity[n - 1])) if n >= 1 else ""
        rows.append([str(n), _fmt(dec.eigenvalues[n]), gap, col])
    _write_csv(outdir / "spectrum_eigenvalues.csv",
               ["n", "eigenvalue", "gap", "collinearity_abs"], rows)
    _write_json(outdir / "spectrum_identities.json", {
        "sign": sign,
        "K": u.K,
        "reliable": dec.reliable,
        "mean_identity": rep.mean_identity,
        "shift_identity": rep.shift_identity,
        "commutator_ls": rep.commutator_ls,
        "commutator_sb": rep.commutator_sb,
        "max_residual": rep.max_residual(),
        "collinearity_zero_set": list(prof.collinearity_set),
    })
    print(f"spectrum: {dec.reliable} reliable eigenvalues "
          f"(K={u.K}, sign={sign}), max identity residual "
          f"{_fmt(rep.max_residual())}")
    print(f"wrote {outdir / 'spectrum_eigenvalues.csv'} and "
          f"{outdir / 'spectrum_identities.json'}")
    return 0


def _cmd_wave(args) -> int:
    w = make_wave(args.sign, args.family, N=args.N, p=args.p,
                  beta=args.beta, C=args.C, theta=args.theta,
                  branch=args.branch)
    residuals = validate_wave(w)
    u = sample_wave(w, 0.0, args.K)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "wave_record.json", {
        "family": w.family,
        "sign": w.sign,
        "N": w.N,
        "p": _pair(w.p),
        "alpha": w.alpha,
        "beta": w.beta,
        "theta": w.theta,
        "c": w.c,
        "l2_squared": wave_l2(w),
        "constraint_residuals": residuals,
    })
    (outdir / "wave_coeffs.json").write_text(u.to_json() + "\n")
    print(f"wave: family={w.family} sign={w.sign} N={w.N} "
          f"c={_fmt(w.c)} l2_squared={_fmt(wave_l2(w))}")
    print(f"wrote {outdir / 'wave_record.json'} and "
          f"{outdir / 'wave_coeffs.json'}")
    return 0


def _cmd_finitegap(args) -> int:
    poles = tuple(p for p, _ in args.pole)
    mults = tuple(m for _, m in args.pole)
    fg = solve_residue_system(args.sign, args.m0, poles, mults,
                              pin_a=args.pin_a)
    res = float(np.max(np.abs(residue_residuals(
        fg.sign, fg.a, fg.residues, fg.poles, fg.mults))))
    u = potential_coeffs(fg, args.K)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "finitegap_record.json", {
        "sign": fg.sign,
        "m0": fg.m0,
        "poles": [[p.real, p.imag, m] for p, m in zip(fg.poles, fg.mults)],
        "a": _pair(fg.a),
        "residues": [_pair(c) for c in fg.residues],
        "predicted_eig": fg.predicted_eig,
        "predicted_l2": predicted_l2(fg),
        "max_residual": res,
    })
    (outdir / "finitegap_coeffs.json").write_text(u.to_json() + "\n")
    print(f"finitegap: degree N={fg.N} (m0={fg.m0}, r={fg.r}), "
          f"newton residual {_fmt(res)}, ladder eigenvalue "
          f"{_fmt(fg.predicted_eig)}")
    print(f"wrote {outdir / 'finitegap_record.json'} and "
          f"{outdir / 'finitegap_coeffs.json'}")
    return 0


def _cmd_evolve(args) -> int:
    u0, sign = _load_state(args)
    cfg = EvolveConfig(sign=sign, K=u0.K, T=args.T, dt=args.dt,
                       record_every=args.record_every)
    traj = evolve(u0, cfg)
    rep = conservation_report(traj)
    try:
        speed = measure_speed(traj, u0)
    except CslabError:
        speed = None

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [[_fmt(t), _fmt(l2 ** 2), _fmt(m.real), _fmt(m.imag), _fmt(tail)]
            for t, l2, m, tail in
            zip(traj.times, traj.l2, traj.mean, traj.tail)]
    _write_csv(outdir / "trajectory.csv",
               ["t", "l2_squared", "mean_re", "mean_im", "tail_energy"], rows)
    _write_json(outdir / "evolve_summary.json", {
        "sign": sign,
        "K": u0.K,
        "T": args.T,
        "dt": args.dt,
        "snapshots": len(traj.times),
        "l2_drift": rep.l2_drift,
        "mean_drift": rep.mean_drift,
        "eigenvalue_drift": rep.eig_drift,
        "measured_speed": speed,
    })
    line = (f"evolve: {len(traj.times)} snapshots to T={_fmt(args.T)}, "
            f"l2 drift {_fmt(rep.l2_drift)}, eigenvalue drift "
            f"{_fmt(rep.eig_drift)}")
    if speed is not None:
        line += f", measured speed {_fmt(speed)}"
    print(line)
    print(f"wrote {outdir / 'trajectory.csv'} and "
          f"{outdir / 'evolve_summary.json'}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(only=args.only, seed=args.seed)
    return 0 if all(r.passed for r in results) else 4


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cslab",
        description="Spectral laboratory for a shifted-Lax integrable PDE "
                    "on the circle")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name, func, **kw):
        p = subs.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", default=".",
                       help="directory for output files (default: .)")
        p.add_argument("--config", default=None,
                       help="JSON file with default values for the flags")
        registry[name] = p
        return p

    def add_state_args(p):
        p.add_argument("--fixture", default=None,
                       help="named fixture, e.g. appendix1, "
                            "wave:defocusing:1:0.5:1, plane:2:1, "
                            "modulated:3:0.5, stationary:1:0.5")
        p.add_argument("--input", default=None,
                       help="JSON file of [re, im] coefficient pairs")
        p.add_argument("--sign", default=None,
                       choices=["focusing", "defocusing"])
        p.add_argument("--K", type=int, default=None,
                       help="truncation size (default 256, or input length)")

    p = sub("spectrum", _cmd_spectrum,
            help="eigenvalues, gaps and identity residuals")
    add_state_args(p)

    p = sub("wave", _cmd_wave, help="solve a traveling-wave family")
    p.add_argument("--sign", required=True,
                   choices=["focusing", "defocusing"])
    p.add_argument("--family", default="pole",
                   choices=["pole", "plane", "modulated", "stationary"])
    p.add_argument("--N", type=int, default=1,
                   help="base frequency (modulation index m for modulated)")
    p.add_argument("--p", type=_parse_complex, default=0.0,
                   help="pole parameter, |p| < 1")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--C", type=_parse_complex, default=None,
                   help="plane-wave amplitude")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--branch", type=int, default=1, choices=[1, -1],
                   help="sign branch of beta for the modulated family")
    p.add_argument("--K", type=int, default=256)

    p = sub("finitegap", _cmd_finitegap,
            help="solve the residue conditions for a pole configuration")
    p.add_argument("--sign", required=True,
                   choices=["focusing", "defocusing"])
    p.add_argument("--m0", type=int, default=0)
    p.add_argument("--pole", type=_parse_pole, action="append", required=True,
                   help="'re,im' or 're,im:mult'; repeat for several poles")
    p.add_argument("--pin-a", type=_parse_complex, default=None,
                   help="fix the constant term a instead of solving for it")
    p.add_argument("--K", type=int, default=256)

    p = sub("evolve", _cmd_evolve, help="integrate the flow")
    add_state_args(p)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--record-every", type=int, default=1)

    p = sub("verify", _cmd_verify, help="run the acceptance criteria")
    p.add_argument("--only", default=None,
                   help="run only the criterion with this number or slug")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser, registry


#: JSON types of --config values, by flag type; --pole has none (argv only).
_CONFIG_TYPES = {None: (str,), int: (int,), float: (int, float),
                 _parse_complex: (str, int, float)}


def _config_error(overrides, sub) -> str | None:
    """Why a --config payload cannot stand for the flags of ``sub``, or None:
    each value needs its flag's type and choices, and null a null default."""
    if not isinstance(overrides, dict):
        return "config must be a JSON object"
    actions = {a.dest: a for a in sub._actions}
    bad = set(overrides) - set(actions)
    if bad:
        return f"unknown config keys {sorted(bad)}"
    for key, value in overrides.items():
        action = actions[key]
        if value is None and action.default is None:
            continue
        if (isinstance(value, bool)
                or not isinstance(value, _CONFIG_TYPES.get(action.type, ()))
                or action.choices is not None and value not in action.choices):
            return f"config key {key!r} cannot take {value!r}"
        if not isinstance(value, str) and action.type in (float, _parse_complex):
            overrides[key] = str(value)  # parsed as the flag is: 10**400 is inf
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        sub = registry[args.command]
        problem = _config_error(overrides, sub)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        sub.set_defaults(**overrides)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CslabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
