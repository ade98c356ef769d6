"""Config fuzzer: any config runs or exits with a named error code.

Configs are derived from each ``cli.EXPERIMENTS`` entry's required and
optional keys. They start from tiny valid values (a few trials, sensors and
grid points), then up to three entries are replaced, dropped or added:
hostile values (NaN, +-inf, 1e308, 1e-300, counts beyond 2**53, zero,
negatives, wrong types, empty lists and objects) go in at the top level or
one level down, and unknown keys are added. Each config runs through ``cli.main``
in-process, with ``--out`` under ``tmp_path``. The exit code must be 0, 2
or 3, and no exception may escape. An exit-2 message must name its field:
it starts with ``config error at <path>:``, and when ``<path>`` is a JSON
object of the config, the message is about that object itself (an unknown
key, a missing key or a wrong type), never about one of its values. The
examples are derandomized and their number is fixed, so the test is
deterministic and takes a few seconds.
"""

import contextlib
import copy
import io
import json
import math
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from macfusion import cli

# Tiny valid values of every key an experiment kind may take.
VALID = {
    "master_seed": [7],
    "experiment_id": ["fuzz"],
    "output": ["named.csv"],
    "quadrature": [{"rel_tol": 1e-8}, {"tail_mass": 1e-10, "max_subdivisions": 500}],
    "trials": [1, 6],
    "L": [1, 3],
    "L_values": [[2, 3], [1]],
    "theta": [1.0, 0.0, -0.5],
    "noise": [
        {"kind": "gaussian", "scale": 1.0},
        {"kind": "laplacian", "scale": 0.7},
        {"kind": "cauchy", "scale": 1.0},
    ],
    "total_power": [10.0],
    "channel_noise_var": [1.0, 0.5],
    "transmit": [
        {"kind": "tanh", "omega": 1.0},
        {"kind": "gudermannian"},
        {"kind": "rational", "omega": 2.0},
        {"kind": "signed_power", "p_exponent": 1.0},
        {"kind": "uniform_quantizer", "x_max": 2.0, "M": 5},
        {"kind": "linear", "alpha": 1.0},
        {"kind": "linear", "alpha": "power"},
    ],
    "transmits": [[{"kind": "tanh", "omega": 1.0}, {"kind": "rational", "omega": 2.0}]],
    "omega_grid": [{"lo": 0.5, "hi": 1.5, "points": 2}],
    "grid": [{"lo": -1.0, "hi": 1.0, "points": 3}],
    "sigmas": [{"kind": "constant", "sigma": 1.0}, {"kind": "sqrt_growth", "sigma": 0.5}],
    "estimator": ["bounded", "af"],
    "priors": [[0.4, 0.6]],
    "stratified": [True, False],
    "omega_search": [{"lo": 0.5, "hi": 2.0, "points": 8}],
}

# Hostile values: numbers (a number's place gets one of these three times in
# four), then wrong types, empty containers and a path in a missing directory.
NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 2**70, 2**53 + 1, 0, -1, 2.5]
OTHERS = [True, None, "x", "", "missing/x.csv", [], {}, [1.0], {"lo": 1}]


def _hostile(draw, old=None):
    """A fresh hostile value to put where ``old`` was."""
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    pool = NUMBERS if number and draw(st.integers(0, 3)) else NUMBERS + OTHERS
    return copy.deepcopy(draw(st.sampled_from(pool)))


def _mutate(draw, cfg: dict) -> None:
    """Replace, drop or add one entry below the kind, at the top level or
    one level down."""
    action = draw(st.sampled_from(["replace", "replace", "nested", "nested", "drop", "add"]))
    key = draw(st.sampled_from(sorted(set(cfg) - {"kind"})))
    value = cfg[key]
    if action == "nested" and isinstance(value, (dict, list)) and value:
        inner = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value[inner] = _hostile(draw, value[inner])
    elif action == "drop":
        del cfg[key]
    elif action == "add":
        (value if isinstance(value, dict) else cfg)["extra"] = _hostile(draw)
    else:
        cfg[key] = _hostile(draw, value)


@st.composite
def configs(draw):
    kind_name = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    kind = cli.EXPERIMENTS[kind_name]
    required = set(kind.required)
    if kind.transmits and draw(st.booleans()):
        required = required - {"transmit"} | {"transmits"}
    optional = kind.optional | cli._COMMON_OPTIONAL
    keys = sorted(required | cli._COMMON_REQUIRED - {"kind"}) + [k for k in sorted(optional) if draw(st.booleans())]
    cfg = {"kind": kind_name}
    for key in keys:
        cfg[key] = copy.deepcopy(draw(st.sampled_from(VALID[key])))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, cfg)
    return cfg


def _value_at(cfg: dict, path: str):
    """The config value an error path names, or None; ``config.L`` and ``L``
    both name the top-level key L, ``transmits[1].kind`` a key of a list entry."""
    node = cfg
    for token in re.findall(r"[^.\[\]]+", path.removeprefix("config")):
        if isinstance(node, dict) and token in node:
            node = node[token]
        elif isinstance(node, list) and token.isdigit() and int(token) < len(node):
            node = node[int(token)]
        else:
            return None
    return node


def _assert_names_its_field(cfg: dict, message: str) -> None:
    match = re.match(r"config error at (\S+): (.*)", message)
    assert match, message
    path, reason = match.groups()
    if isinstance(_value_at(cfg, path), dict):
        assert reason in ("unknown key", "required key is missing") or reason.startswith("expected "), message


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=configs())
def test_every_config_runs_or_names_its_error(tmp_path, monkeypatch, cfg):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out.csv"), "--workers", "1"])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        _assert_names_its_field(cfg, err.getvalue())
