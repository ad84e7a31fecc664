"""Boundary fuzz: no input to the command line ends in a traceback.

Hypothesis (derandomized, so every run draws the same cases) builds argv
for all five subcommands from pools of hostile values: NaN, inf, huge and
negative numbers, empty and unparsable text, wrong JSON types and shapes
in ``--config`` files and coefficient files.  ``cli.main`` must return one
of the documented exit codes 0, 2, 3 or 4.  Usage errors that argparse
catches end in SystemExit(2) instead, as ``tests/test_cli.py`` asserts;
that is exit code 2 as well.  Nothing else may escape.

The draws stay cheap: K <= 64 except for the K above the limit, which is
refused before anything is allocated, and round(T/dt) stays at a few steps
(or T/dt overflows and is refused), since nothing bounds the step count of
a finite T/dt.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cslab.cli import main

# values that parse as the flag's type, most of them outside its domain
FLOATS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", "0", "-1", "1",
          "0.5", "-0.5", "1e-300", "1e154")
COMPLEX = FLOATS + ("0.5,0.2", "0.3-0.1j", "1,nan", "0,inf", "0.999999")
INTS = ("-3", "0", "1", "2", "3", "7", "8", "16", "64")
# K above K_MAX = 2**14 is refused before any allocation; 2**14 itself would
# allocate 4 GiB matrices, so it is not drawn
KS = INTS + ("16385", "100000000000", "99999999999999999999999")
# tokens argparse refuses (exit 2)
JUNK = ("--K=x", "--K=", "--K=1.5", "--no-such-flag", "--sign=sideways", "stray")
FIXTURES = ("appendix1", "appendix2", "appendix1:3", "nonsense", "",
            "wave:focusing:1:0.5:1", "wave:defocusing:1:0.5:1",
            "wave:focusing:x:0.5:1", "wave:focusing:1:nan:1",
            "wave:focusing:1:0.5:1e300", "wave:sideways:1:0.5:1",
            "plane:1:0.5", "plane:1:zz", "plane:0:1", "plane:70:1",
            "modulated:3:0.5", "modulated:3:1.5", "stationary:1:0.5",
            "stationary:100000:0.5")
POLES = ("0.5", "0.5,0.2", "-0.3:2", "-0.3,0.1", "0.5:-1", "0:1", "1.5,0:1",
         "nan,0:1", "0.5:0", "0.5:16385", "0.999999", "inf,0", "0.5:x")
CONFIG_VALUES = (None, True, False, -1, 0, 1, 8, 0.5, 1e308, float("nan"),
                 float("inf"), 10 ** 30, -10 ** 400, 100000000000, "x", "nan",
                 "0.5", "1e400", "focusing", "pole", [1, 2], {"a": 1})
# a coefficient, as JSON text: numbers past the double range, non-numbers
ENTRIES = ("0", "1", "-1", "0.5", "0.25", "1e-300", "1e150", "1e200", "1e308",
           "NaN", "Infinity", "1" + "0" * 400, "1e400", "\"1\"", "null", "true")
MALFORMED = ("", "{not json", "[]", "{}", "\"x\"", "5", "[1, 2]", "[[1]]",
             "[[1, 2, 3]]", "[[[1, 2]]]", "[null]")

SETTINGS = settings(deadline=None, max_examples=300, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _flags(**pools):
    """A strategy of flag lists: each flag appears with a value or not, and
    now and then one token that argparse refuses."""
    flags = st.fixed_dictionaries({
        flag: st.one_of(st.none(), st.sampled_from(pool))
        for flag, pool in pools.items()
    }).map(lambda d: [f"--{flag}={v}" for flag, v in d.items() if v is not None])
    junk = st.one_of(st.just([]), st.just([]), st.just([]),
                     st.sampled_from(JUNK).map(lambda tok: [tok]))
    return st.tuples(flags, junk).map(lambda fj: fj[0] + fj[1])


def _coefficient_text():
    pairs = st.lists(st.tuples(st.sampled_from(ENTRIES), st.sampled_from(ENTRIES)),
                     min_size=1, max_size=64)
    valid = pairs.map(lambda ps: "[" + ", ".join(f"[{a}, {b}]" for a, b in ps) + "]")
    return st.one_of(valid, st.sampled_from(MALFORMED),
                     st.just(json.dumps([[0, 0]] * 20000)))  # over K_MAX pairs


def _config_text(keys):
    obj = st.dictionaries(st.sampled_from(keys), st.sampled_from(CONFIG_VALUES),
                          max_size=3).map(json.dumps)
    return st.one_of(obj, st.sampled_from(("[1]", "\"x\"", "5", "null", "{bad")))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def _run(workdir, argv, config=None, coeffs=None):
    argv = list(argv) + ["--out-dir", str(workdir / "out")]
    if coeffs is not None:
        path = workdir / "u.json"
        path.write_text(coeffs)
        argv[1:1] = ["--input", str(path)]
    if config is not None:
        path = workdir / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    code = _exit_code(argv)
    assert code in (0, 2, 3, 4), (argv, config, coeffs, code)


STATE_KEYS = ["fixture", "input", "sign", "K", "out_dir", "config", "help"]


@SETTINGS
@given(cmd=st.sampled_from(["spectrum", "evolve"]),
       source=st.sampled_from(["fixture", "fixture", "input", "input", "both", "none"]),
       fixture=st.sampled_from(FIXTURES),
       coeffs=_coefficient_text(),
       flags=_flags(sign=("focusing", "defocusing"), K=KS),
       steps=_flags(**{"record-every": INTS}),
       times=st.sampled_from([("0", "1e-3"), ("0.002", "1e-3"), ("0.003", "0.0005"),
                              ("nan", "1e-3"), ("inf", "1e-3"), ("-1", "1e-3"),
                              ("x", "1e-3"), ("0.002", "0"), ("0.002", "-1"),
                              ("0.002", "nan"), ("0.002", "inf"), ("0.002", "1e-320"),
                              ("0.002", "1e308"), ("1e308", "1e-10"), ("1e308", "1e308")]),
       config=st.one_of(st.none(), st.none(), _config_text(STATE_KEYS + ["T", "dt", "record_every"])))
def test_state_subcommands_never_raise(workdir, cmd, source, fixture, coeffs, flags,
                                       steps, times, config):
    argv = [cmd] + (["--fixture", fixture] if source in ("fixture", "both") else []) + flags
    if cmd == "evolve":  # T and dt always on argv, so no config sets a long run
        argv += steps + ["--T", times[0], "--dt", times[1]]
    _run(workdir, argv, config, coeffs if source in ("input", "both") else None)


@SETTINGS
@given(sign=st.sampled_from(["focusing", "defocusing"]),
       flags=_flags(family=("pole", "plane", "modulated", "stationary"),
                    N=INTS + ("100000",), p=COMPLEX, beta=FLOATS, C=COMPLEX,
                    theta=FLOATS, branch=("1", "-1"), K=KS),
       config=st.one_of(st.none(), st.none(), _config_text(
           ["sign", "family", "N", "p", "beta", "C", "theta", "branch", "K"])))
def test_wave_never_raises(workdir, sign, flags, config):
    _run(workdir, ["wave", "--sign", sign] + flags, config)


@SETTINGS
@given(sign=st.sampled_from(["focusing", "defocusing"]),
       poles=st.lists(st.sampled_from(POLES), min_size=1, max_size=3),
       flags=_flags(m0=INTS + ("16385",), **{"pin-a": COMPLEX}, K=KS),
       config=st.one_of(st.none(), st.none(), _config_text(["sign", "m0", "pin_a", "K", "pole"])))
def test_finitegap_never_raises(workdir, sign, poles, flags, config):
    argv = ["finitegap", "--sign", sign] + [f"--pole={p}" for p in poles] + flags
    _run(workdir, argv, config)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(only=st.sampled_from(["nonexistent", "0", "11", "", "gap", "5"]),
       seed=st.one_of(st.none(), st.sampled_from(INTS + ("x", "1.5", "10" * 20))),
       config=st.one_of(st.none(), st.none(), _config_text(["only", "seed"])))
def test_verify_never_raises(workdir, only, seed, config):
    # --only is always given: without it the whole suite would run
    argv = ["verify", "--only", only] + ([f"--seed={seed}"] if seed is not None else [])
    _run(workdir, argv, config)
