"""The CLI contract under one-field mutations of valid configs: every run ends
with exit 0, 1 or 2, at most one stderr line and no traceback, and quickly.
The mutations the config schema rules out end with exit 2."""

import contextlib
import copy
import io
import json
import math
import signal
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch import cli
from modsketch.sketch import LinearJuntaF2, serialize_sketch

SECONDS = 5.0


def _zoo(name, **params):
    return {"name": name, "params": params}


# one small valid config per experiment kind and zoo family; "SKETCH" is
# replaced by the path of a stored parity sketch on F2^4
BASES = [
    ("reduce", {"function": _zoo("parity", n=4), "protocol": _zoo("parity-chain", n=4),
                "variant": "exact_f2", "distribution": "uniform", "output": {"per_x_table": True},
                "reduction": {"players": 8, "trials": 2, "target_q": 1.0, "delta": "1/1000"}}),
    ("reduce", {"function": _zoo("mod-p-sum-zero", n=2, p=3), "protocol": _zoo("running-sum-mod-p", n=2, p=3),
                "reduction": {"players": 8, "trials": 2}}),
    ("reduce", {"function": _zoo("two-parity-blend", n=4, a=3, b=12, w1=0.3, w2=0.2),
                "protocol": _zoo("two-parity-blend-chain", n=4, a=3, b=12, w1=0.3, w2=0.2, levels=5),
                "variant": "approx_f2", "reduction": {"players": 8, "trials": 2, "target_eps": 0.5}}),
    ("reduce", {"function": _zoo("junta-parity", n=4, mask=3), "protocol": _zoo("constant", n=4, value=0, p=2),
                "reduction": {"players": 8, "trials": 2}}),
    ("reduce", {"function": _zoo("dictator", n=4, i=1),
                "protocol": _zoo("state-passing", fsm="running-sum", n=4, p=2),
                "reduction": {"players": 8, "trials": 2}}),
    ("boost", {"function": _zoo("majority", n=4), "protocol": _zoo("parity-chain", n=4, mask=15),
               "reduction": {"players": 8, "trials": 2}, "rounds": 2}),
    ("simulate", {"protocol": _zoo("parity-chain", n=4), "players": 3, "runs": 2,
                  "function": _zoo("parity", n=4)}),
    ("simulate", {"protocol": _zoo("running-sum-mod-p", n=2, p=3), "players": 3, "inputs": [0, 1, 2],
                  "function": _zoo("mod-p-sum-zero", n=2, p=3)}),
    ("sketch-eval", {"sketch-file": "SKETCH", "function": _zoo("parity", n=4), "target_q": 0.5}),
    ("prg-check", {"prg": {"block_bits": 2, "block_count": 4, "states": 2, "samples": 10,
                           "n": 4, "s": 2, "p": 2, "shuffles": 1}}),
]
VALUES = [None, -1, 1.5, "x", [], {}, True, 2**40, 2**70, math.nan]


def _paths(section, prefix=()):
    """The key path of every field, nested objects and zoo params included."""
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


MUTATIONS = [(i, path) for i, (_, base) in enumerate(BASES) for path in _paths(base)]


def _outside(key):
    """The values just below key's minimum and just above its maximum."""
    if key.kind == "int":
        return [key.lo - 1, key.hi + 1]
    # an open maximum is itself outside; json writes inf as Infinity
    return [math.nextafter(key.lo, -math.inf), key.hi if key.hi_open else math.nextafter(key.hi, math.inf)]


def _schema_mutations(raw, keys, path=()):
    """(path, value) of each mutation the schema rules out in the section raw
    at path: an unknown key, a numeric key just outside its range, and each
    nested section (a zoo spec included) replaced by a list, a string or null
    or mutated in turn."""
    yield path + ("bogus",), 1
    for key in keys:
        if key.kind in ("int", "float"):
            for value in _outside(key):
                yield path + (key.name,), value
        if key.kind in ("section", "distribution", "zoo") and key.name in raw:
            for value in ([], "x", None):
                yield path + (key.name,), value
            if isinstance(raw[key.name], dict):
                nested = cli.ZOO_SPEC.keys if key.kind == "zoo" else key.of.keys
                yield from _schema_mutations(raw[key.name], nested, path + (key.name,))


# each base replaced by a list, a string or null (the empty path), and the
# schema's mutations of its fields
SCHEMA_MUTATIONS = [(i, (), value) for i, (kind, base) in enumerate(BASES)
                    for value in ([{"experiment": kind, **base}], "x", None)] + [
    (i, path, value) for i, (kind, base) in enumerate(BASES) for path, value in _schema_mutations(base, cli.SCHEMAS[kind])]


class _TooSlow(Exception):
    pass


def _on_alarm(signum, frame):
    raise _TooSlow


def _run(kind, payload, workdir: Path):
    """(exit code, stderr, seconds) of the CLI on the config payload; a run
    past 2 * SECONDS is stopped and fails the test."""
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(payload))
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 2 * SECONDS)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([kind, "--config", str(cfg), "--out", str(workdir / "out")])
    except _TooSlow:
        raise AssertionError(f"{kind} ran past {2 * SECONDS} s on {payload}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), time.perf_counter() - started


def _mutated(base_index, path, value, workdir: Path):
    """BASES[base_index] as a config payload with the field at path set to
    value (the empty path replaces the whole payload)."""
    kind, base = BASES[base_index]
    sketch = workdir / "sketch.json"
    sketch.write_text(serialize_sketch(LinearJuntaF2(4, (15,), (0, 1))))
    raw = json.loads(json.dumps(base).replace('"SKETCH"', json.dumps(str(sketch))))
    if not path:
        return copy.deepcopy(value)
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = copy.deepcopy(value)
    return {"experiment": kind, **raw}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(VALUES))
def test_one_field_mutations_keep_the_cli_contract(mutation, value):
    base_index, path = mutation
    kind = BASES[base_index][0]
    with tempfile.TemporaryDirectory() as tmp:
        payload = _mutated(base_index, path, value, Path(tmp))
        code, err, seconds = _run(kind, payload, Path(tmp))
    assert code in (0, 1, 2), (payload, code, err)
    assert "Traceback" not in err and err.count("\n") <= 1, (payload, err)
    assert seconds < SECONDS, (payload, seconds)


def test_mutations_the_schema_rules_out_are_config_errors():
    # few and quick, so every one runs
    for base_index, path, value in SCHEMA_MUTATIONS:
        kind = BASES[base_index][0]
        with tempfile.TemporaryDirectory() as tmp:
            payload = _mutated(base_index, path, value, Path(tmp))
            code, err, seconds = _run(kind, payload, Path(tmp))
        assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1, (payload, code, err)
        assert seconds < SECONDS, (payload, seconds)
