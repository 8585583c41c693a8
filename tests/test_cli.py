"""CLI plumbing: stream files, configs, experiment runs, exit codes."""

import csv
import json
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from modsketch import cli, zoo
from modsketch.algebra import GroupSpec
from modsketch.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_stream_file,
    run_experiment,
    write_stream_file,
)
from modsketch.sketch import LinearJuntaF2, apply_stream, deserialize_sketch, serialize_sketch
from modsketch.zoo import UnknownZooEntry, zoo_fsm, zoo_function, zoo_protocol


def test_parse_stream_file_basic(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("n=4 p=2\n0 1\n0 1\n")
    n, pp, updates = parse_stream_file(p)
    assert (n, pp) == (4, 2)
    assert updates == [(0, 1), (0, 1)]


def test_parse_stream_file_negative_increment(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("n=3 p=3\n2 -1\n")
    _, _, updates = parse_stream_file(p)
    assert updates == [(2, -1)]
    sk_updates = [(2, -1)]
    from modsketch.sketch import ZpJunta

    sk = ZpJunta(3, 3, ((0, 0, 1),), (0, 1, 2))
    state = apply_stream(sk, sk_updates)
    assert state.values() == (2,)  # -1 = 2 mod 3 on application


def test_parse_stream_file_errors(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("dim=4\n0 1\n")
    with pytest.raises(ConfigError):
        parse_stream_file(bad_header)
    out_of_range = tmp_path / "b.txt"
    out_of_range.write_text("n=2 p=2\n5 1\n")
    with pytest.raises(ConfigError):
        parse_stream_file(out_of_range)
    non_int = tmp_path / "c.txt"
    non_int.write_text("n=2 p=2\n0 x\n")
    with pytest.raises(ConfigError):
        parse_stream_file(non_int)


def test_stream_file_round_trip(tmp_path):
    rng = random.Random(0)
    n, p = 16, 5
    updates = [(rng.randrange(n), rng.randrange(-9, 10)) for _ in range(1000)]
    path = tmp_path / "stream.txt"
    write_stream_file(path, n, p, updates)
    n2, p2, back = parse_stream_file(path)
    assert (n2, p2, back) == (n, p, updates)
    # and a second serialize is byte-identical
    path2 = tmp_path / "stream2.txt"
    write_stream_file(path2, n2, p2, back)
    assert path.read_text() == path2.read_text()


def test_zoo_dispatch_and_errors():
    f = zoo_function("parity", n=6)
    assert f.values[0b111] == 1.0
    g = zoo_function("mod-p-sum-zero", n=4, p=3)
    assert g.values[g.group.encode((1, 2, 0, 0))] == 1.0
    fam = zoo_protocol("parity-chain", n=6)
    assert fam.message_bits == 1
    fsm = zoo_fsm("running-sum", n=3, p=4)
    assert fsm.n_states == 4
    with pytest.raises(UnknownZooEntry):
        zoo_function("nope")
    with pytest.raises(UnknownZooEntry):
        zoo_protocol("nope")


@pytest.mark.parametrize("kind, name, params", [
    ("function", "junta-parity", {"mask": 0}),
    ("protocol", "parity-chain", {"mask": 0}),
    ("function", "two-parity-blend", {"a": 0, "b": 0}),
    ("protocol", "two-parity-blend-chain", {"a": 0, "b": 0}),
])
def test_zoo_masks_are_checked(kind, name, params):
    build = zoo_function if kind == "function" else zoo_protocol
    build(name, n=4, **{key: 15 for key in params})
    for good in (np.int64(5), np.uint8(5), 5.0):
        # numpy integers and integral floats name the same mask as the int
        same, plain = (build(name, n=4, **{key: mask for key in params}) for mask in (good, 5))
        if kind == "function":
            assert np.array_equal(same.values, plain.values)
        else:
            inputs = [[x, (x * 7) % 16, (x + 3) % 16] for x in range(16)]
            assert [same(3).run(xs) for xs in inputs] == [plain(3).run(xs) for xs in inputs]
    for key in params:
        for bad in (16, 99, -1, 1.5, True, np.True_, np.int64(16), "3"):
            with pytest.raises(ValueError, match=f"{key} must be an integer in \\[0, 2\\^4\\), got"):
                build(name, n=4, **{**params, key: bad})


# extra parameters each zoo entry needs beside n
_FUNCTION_PARAMS = {"parity": {}, "dictator": {}, "junta-parity": {"mask": 1}, "majority": {},
                    "mod-p-sum-zero": {"p": 3}, "two-parity-blend": {"a": 1, "b": 2}}
_PROTOCOL_PARAMS = {"parity-chain": {}, "running-sum-mod-p": {"p": 3}, "constant": {},
                    "two-parity-blend-chain": {"a": 1, "b": 2}, "state-passing": {"fsm": "running-sum", "p": 3}}


@pytest.mark.parametrize("n", [10**6, 2**40, 2**70])
def test_zoo_groups_are_sized_before_they_are_built(tmp_path, capsys, n):
    # parity-chain at n = 2^70 raised OverflowError, at 2^40 MemoryError, and a
    # simulate at n = 10^6 ran out of memory; mod-p-sum-zero at 2^70 hung in p ** n
    assert set(_FUNCTION_PARAMS) == set(zoo.FUNCTIONS) and set(_PROTOCOL_PARAMS) == set(zoo.PROTOCOLS)
    small = {"name": "parity-chain", "params": {"n": 4}}
    runs = [("reduce", {"function": {"name": name, "params": {"n": n, **extra}}, "protocol": small,
                        "reduction": {"players": 8}}, "bad function spec")
            for name, extra in _FUNCTION_PARAMS.items()]
    runs += [(kind, {"protocol": {"name": name, "params": {"n": n, **extra}},
                     **({"players": 3} if kind == "simulate" else
                        {"function": {"name": "parity", "params": {"n": 4}}, "reduction": {"players": 8}})},
              "bad protocol spec")
             for name, extra in _PROTOCOL_PARAMS.items() for kind in ("simulate", "reduce")]
    for kind, raw, message in runs:
        cfg = _write_config(tmp_path, {"experiment": kind, **raw})
        started = time.perf_counter()
        err = _one_line_failure(capsys, [kind, "--config", cfg, "--out", str(tmp_path / "o")], 2)
        assert time.perf_counter() - started < 1.0
        assert err.startswith(f"config error: {message}: |G| = ") and "exceeds the transform limit" in err


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_reduce_experiment_end_to_end(tmp_path):
    cfg_path = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "seed": "0x2a",
            "function": {"name": "parity", "params": {"n": 6}},
            "protocol": {"name": "parity-chain", "params": {"n": 6}},
            "variant": "exact_f2",
            "reduction": {"players": 60, "trials": 16, "target_q": 1.0},
            "output": {"per_x_table": True},
        },
    )
    config = ExperimentConfig.load(cfg_path, None, str(tmp_path / "out"), 0.05)
    record, ok = run_experiment(config)
    assert ok
    assert record["result"]["report"]["cost"] == 1
    sketch = deserialize_sketch((tmp_path / "out" / "sketch.json").read_text())
    assert sketch.rows == (63,)
    assert (tmp_path / "out" / "per_x.csv").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["format"] == "modsketch.report" and report["ok"] is True


def test_experiment_reports_reproducible(tmp_path):
    payload = {
        "experiment": "reduce",
        "seed": "7",
        "function": {"name": "parity", "params": {"n": 5}},
        "protocol": {"name": "parity-chain", "params": {"n": 5}},
        "reduction": {"players": 50, "trials": 8, "target_q": 1.0},
    }
    cfg_path = _write_config(tmp_path, payload)
    rec1, _ = run_experiment(ExperimentConfig.load(cfg_path, None, str(tmp_path / "o1"), 0.05))
    rec2, _ = run_experiment(ExperimentConfig.load(cfg_path, None, str(tmp_path / "o2"), 0.05))
    r1, r2 = rec1["result"]["report"], rec2["result"]["report"]
    for key in ("transcript", "transcript_probability", "generators", "quality"):
        assert r1[key] == r2[key]


def test_boost_experiment(tmp_path):
    cfg_path = _write_config(
        tmp_path,
        {
            "experiment": "boost",
            "function": {"name": "parity", "params": {"n": 4}},
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
            "reduction": {"players": 40, "trials": 8, "target_q": 1.0},
            "rounds": 4,
        },
    )
    config = ExperimentConfig.load(cfg_path, None, str(tmp_path / "boost"), 0.05)
    record, ok = run_experiment(config)
    assert ok and record["result"]["min_success"] == "1"
    assert record["result"]["checks"]["hedge-regret"]["ok"]
    mixture = deserialize_sketch((tmp_path / "boost" / "mixture.json").read_text())
    assert len(mixture.entries) == 4
    assert record["result"]["success_counts"] == [0, 0, 0, 0, 16]


def test_sketch_eval_experiment(tmp_path):
    reduce_cfg = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "function": {"name": "parity", "params": {"n": 5}},
            "protocol": {"name": "parity-chain", "params": {"n": 5}},
            "reduction": {"players": 50, "trials": 8, "target_q": 1.0},
        },
    )
    run_experiment(ExperimentConfig.load(reduce_cfg, None, str(tmp_path / "out"), 0.05))
    stream = tmp_path / "stream.txt"
    write_stream_file(stream, 5, 2, [(0, 1), (3, 1), (0, 1)])
    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(
        json.dumps(
            {
                "experiment": "sketch-eval",
                "sketch-file": str(tmp_path / "out" / "sketch.json"),
                "function": {"name": "parity", "params": {"n": 5}},
                "target_q": 0.99,
                "stream-file": str(stream),
            }
        )
    )
    config = ExperimentConfig.load(str(eval_cfg), None, str(tmp_path / "out2"), 0.05)
    record, ok = run_experiment(config)
    assert ok and record["result"]["min_success"] == 1.0
    assert (tmp_path / "out2" / "success_per_x.csv").exists()
    # stream accumulates to e_3, whose parity is 1
    assert record["result"]["stream"] == {"updates": 3, "state": 1, "output": 1}


@pytest.mark.parametrize("header, update, message", [
    ("n=5 p=2", "1 18446744073709551616", "increment 18446744073709551616 does not fit int64"),
    ("n=6 p=2", "5 1", "coordinate 5 out of range"),
])
def test_sketch_eval_stream_that_does_not_fit_is_a_config_error(tmp_path, capsys, header, update, message):
    sketch_file = tmp_path / "sketch.json"
    sketch_file.write_text(serialize_sketch(LinearJuntaF2(5, (31,), (0, 1))))
    stream = tmp_path / "stream.txt"
    stream.write_text(f"{header}\n0 1\n{update}\n")
    cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(sketch_file),
                                   "function": {"name": "parity", "params": {"n": 5}},
                                   "stream-file": str(stream)})
    err = _one_line_failure(capsys, ["sketch-eval", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: stream {stream} does not fit the sketch: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("target_q", 2.0, "target_q must lie in [0, 1], got 2.0"),
    ("target_eps", 1.5, "target_eps must lie in [0, 1], got 1.5"),
    ("target_q", -0.1, "target_q must be >= 0.0 (a number), got -0.1"),
    ("target_eps", "0.5", "target_eps must be >= 0.0 (a number), got '0.5'"),
])
def test_sketch_eval_target_outside_unit_interval_is_a_config_error(tmp_path, capsys, key, value, message):
    # checked before the sketch is evaluated, so no table is written
    sketch_file = tmp_path / "sketch.json"
    sketch_file.write_text(serialize_sketch(LinearJuntaF2(5, (31,), (0, 1))))
    cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(sketch_file),
                                   "function": {"name": "parity", "params": {"n": 5}}, key: value})
    err = _one_line_failure(capsys, ["sketch-eval", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_sketch_eval_real_valued_function(tmp_path):
    # a [0,1]-valued target switches sketch-eval to squared-error tables
    reduce_cfg = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "function": {"name": "two-parity-blend", "params": {"n": 6, "a": 7, "b": 56}},
            "protocol": {
                "name": "two-parity-blend-chain",
                "params": {"n": 6, "a": 7, "b": 56},
            },
            "variant": "approx_f2",
            "reduction": {"players": 60, "trials": 16, "target_eps": 0.01},
        },
    )
    run_experiment(ExperimentConfig.load(reduce_cfg, None, str(tmp_path / "r"), 0.05))
    eval_cfg = _write_config(
        tmp_path,
        {
            "experiment": "sketch-eval",
            "sketch-file": str(tmp_path / "r" / "sketch.json"),
            "function": {"name": "two-parity-blend", "params": {"n": 6, "a": 7, "b": 56}},
            "target_eps": 0.02,
        },
    )
    record, ok = run_experiment(ExperimentConfig.load(eval_cfg, None, str(tmp_path / "e"), 0.05))
    assert ok
    assert record["result"]["max_sq_error"] <= 0.02
    assert (tmp_path / "e" / "sq_error_per_x.csv").exists()


def test_simulate_experiment_checks_additive_function(tmp_path):
    cfg_path = _write_config(
        tmp_path,
        {
            "experiment": "simulate",
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
            "function": {"name": "parity", "params": {"n": 4}},
            "players": 5,
            "runs": 20,
        },
    )
    record, ok = run_experiment(ExperimentConfig.load(cfg_path, None, str(tmp_path / "sim"), 0.05))
    assert ok
    assert all(r["match"] for r in record["result"]["runs"])


def test_prg_check_experiment(tmp_path):
    cfg_path = _write_config(
        tmp_path,
        {
            "experiment": "prg-check",
            "prg": {"block_bits": 8, "block_count": 16, "states": 8,
                    "samples": 20000, "n": 32, "s": 8, "p": 2, "shuffles": 5},
        },
    )
    record, ok = run_experiment(ExperimentConfig.load(cfg_path, None, str(tmp_path / "prg"), 0.05))
    assert ok
    assert record["result"]["order_invariant"]
    assert record["result"]["matches_explicit_matrix"]
    assert record["result"]["fsm_l1_distance"] <= 0.05


def test_prg_check_reference_product_is_exact_at_large_p(tmp_path):
    # at p = 2^31 - 1 the int64 product matrix.T @ x overflows
    cfg = _write_config(tmp_path, {
        "experiment": "prg-check",
        "prg": {"block_bits": 4, "block_count": 2, "states": 2, "n": 16, "s": 2,
                "p": 2147483647, "shuffles": 1},
    })
    assert main(["prg-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    result = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
    assert result["matches_explicit_matrix"] is True


def test_main_exit_codes(tmp_path, capsys):
    # malformed config: nonzero exit (2)
    bad = _write_config(tmp_path, {"experiment": "reduce", "reduction": {"players": 0}})
    assert main(["reduce", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    unknown = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "function": {"name": "made-up", "params": {}},
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
            "reduction": {"players": 8},
        },
    )
    assert main(["reduce", "--config", unknown, "--out", str(tmp_path / "y")]) == 2
    good = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "function": {"name": "parity", "params": {"n": 4}},
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
            "reduction": {"players": 40, "trials": 8, "target_q": 1.0},
        },
    )
    assert main(["reduce", "--config", good, "--out", str(tmp_path / "z")]) == 0
    capsys.readouterr()


def test_main_zoo_list(capsys):
    assert main(["zoo-list"]) == 0
    out = capsys.readouterr().out
    listing = json.loads(out)
    assert "parity" in listing["functions"]
    assert "running-sum-mod-p" in listing["protocols"]


def test_config_kind_mismatch(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "experiment": "simulate",
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
        },
    )
    assert main(["reduce", "--config", cfg]) == 2


def _zp_boost_config(tmp_path, **extra):
    return _write_config(
        tmp_path,
        {
            "experiment": "boost",
            "function": {"name": "mod-p-sum-zero", "params": {"n": 4, "p": 3}},
            "protocol": {"name": "running-sum-mod-p", "params": {"n": 4, "p": 3}},
            "reduction": {"players": 20, "trials": 4, "target_q": 1.0},
            "rounds": 2,
            **extra,
        },
    )


def test_boost_on_zp_and_variant_errors(tmp_path, capsys):
    out = tmp_path / "zp"
    assert main(["boost", "--config", _zp_boost_config(tmp_path), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "boost"
    counts = report["result"]["success_counts"]
    assert len(counts) == 2 + 1 and sum(counts) == 3**4
    # entry k counts the inputs right in k of 2 rounds: sketch-eval's per-input success, binned
    eval_cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(out / "mixture.json"),
                                        "function": {"name": "mod-p-sum-zero", "params": {"n": 4, "p": 3}}})
    record, _ = run_experiment(ExperimentConfig.load(eval_cfg, None, str(tmp_path / "eval"), 0.05))
    with open(record["result"]["per_x_table"]) as fh:
        rounds_right = [round(2 * float(row["success"])) for row in csv.DictReader(fh)]
    assert [rounds_right.count(k) for k in range(3)] == counts
    capsys.readouterr()
    for variant in ("exact-zp", "exact_f2"):  # unknown; F2 on a Z_3 group
        cfg = _zp_boost_config(tmp_path, variant=variant)
        assert main(["boost", "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
    reduce_cfg = _write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "function": {"name": "parity", "params": {"n": 4}},
            "protocol": {"name": "parity-chain", "params": {"n": 4}},
            "reduction": {"players": 8},
            "variant": "exact",
        },
    )
    assert main(["reduce", "--config", reduce_cfg, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown variant 'exact'")


def _one_line_failure(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("seed", ["zz", "ff", "0x", "1.5"])
def test_bad_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = _write_config(tmp_path, {"experiment": "simulate",
                                   "protocol": {"name": "parity-chain", "params": {"n": 4}}})
    err = _one_line_failure(capsys, ["simulate", "--config", cfg, "--seed", seed], 2)
    assert err.startswith(f"config error: bad seed {seed!r}")


def test_seed_syntax():
    from modsketch.seeding import parse_seed

    assert parse_seed("10") == 10 and parse_seed("0x10") == 16 and parse_seed(" 0XfF ") == 255
    with pytest.raises(ValueError):
        parse_seed("ff")


def test_malformed_sketch_file_is_a_config_error(tmp_path, capsys):
    sketch = tmp_path / "sk.json"
    cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(sketch),
                                   "function": {"name": "mod-p-sum-zero", "params": {"n": 2, "p": 3}}})
    bodies = [
        {"kind": "zp-junta"},
        # {0, 1} is not a subgroup of Z_3^2 (1 + 1 = 2), though its closure has 3 cosets
        {"kind": "h-invariant", "moduli": [3, 3], "subgroup": [0, 1], "post": [0, 1, 1]},
        {"kind": "h-invariant", "moduli": [3, 3], "subgroup": [0, 9], "post": [0]},
    ]
    for body in bodies:
        sketch.write_text(json.dumps({"format": "modsketch.sketch", "version": 1, **body}))
        err = _one_line_failure(capsys, ["sketch-eval", "--config", cfg, "--out", str(tmp_path / "o")], 2)
        assert err.startswith("config error: bad sketch file")


def test_sketch_on_another_group_is_a_config_error(tmp_path, capsys):
    sketch = tmp_path / "sk.json"
    sketch.write_text(serialize_sketch(LinearJuntaF2(4, (1,), (0, 1))))
    cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(sketch),
                                   "function": {"name": "mod-p-sum-zero", "params": {"n": 2, "p": 3}}})
    err = _one_line_failure(capsys, ["sketch-eval", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert "does not match the sketch's group" in err


@pytest.mark.parametrize("error, code", [("TransformLimitError", 2), ("ChangBoundError", 1)])
def test_library_limit_and_bound_errors_exit_cleanly(tmp_path, capsys, monkeypatch, error, code):
    from modsketch import cli, fourier

    def failing_reduce(*args, **kwargs):
        raise getattr(fourier, error)("raised by the library")

    monkeypatch.setattr(cli, "compile_reduce", failing_reduce)
    cfg = _write_config(tmp_path, {
        "experiment": "reduce",
        "function": {"name": "parity", "params": {"n": 4}},
        "protocol": {"name": "parity-chain", "params": {"n": 4}},
        "reduction": {"players": 8},
    })
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], code)
    assert err.endswith("raised by the library\n")


def test_transcript_probability_violation_exits_1(tmp_path, capsys, monkeypatch):
    from modsketch.fourier import NormalizedIndicator

    monkeypatch.setattr(NormalizedIndicator, "count", property(lambda ind: ind._count + 1))
    cfg = _write_config(tmp_path, {
        "experiment": "reduce",
        "function": {"name": "parity", "params": {"n": 4}},
        "protocol": {"name": "parity-chain", "params": {"n": 4}},
        "reduction": {"players": 40, "trials": 4},
    })
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], 1)
    assert err.startswith("stage failure: [transcript-search] transcript-probability: ")


def _boost_config(tmp_path, **extra):
    return _write_config(tmp_path, {
        "experiment": "boost",
        "function": {"name": "parity", "params": {"n": 4}},
        "protocol": {"name": "parity-chain", "params": {"n": 4}},
        "reduction": {"players": 40, "trials": 4, "target_q": 1.0},
        "rounds": 4,
        **extra,
    })


@pytest.mark.parametrize("extra, message", [
    ({"variant": "approx_f2"}, "boost needs an exact variant, got 'approx_f2'"),
    ({"function": {"name": "two-parity-blend", "params": {"n": 4, "a": 3, "b": 12}}},
     "boost needs a binary target function"),
    ({"distribution": {"weights-file": "w.txt"}}, "boost chooses its own input distributions"),
    ({"protocol": {"name": "parity-chain", "params": {"n": 5}}}, "function and protocol live on different groups"),
    ({"rounds": 0}, "rounds must be >= 1"),
])
def test_boost_config_errors_exit_cleanly(tmp_path, capsys, extra, message):
    cfg = _boost_config(tmp_path, **extra)
    err = _one_line_failure(capsys, ["boost", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err.startswith(f"config error: {message}")
    assert not (tmp_path / "o").exists()


def test_boost_past_two_to_the_sixteen_reports_success_counts(tmp_path):
    # |G| = 2^17 was a config error while boost had its own size cap
    cfg = _boost_config(tmp_path, function={"name": "parity", "params": {"n": 17}},
                        protocol={"name": "parity-chain", "params": {"n": 17}})
    assert main(["boost", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    counts = json.loads((tmp_path / "o" / "report.json").read_text())["result"]["success_counts"]
    assert len(counts) == 4 + 1 and sum(counts) == 2**17


def test_reduce_report_carries_transcript_counters(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": "reduce",
        "function": {"name": "parity", "params": {"n": 4}},
        "protocol": {"name": "parity-chain", "params": {"n": 4}},
        "reduction": {"players": 40, "trials": 4, "target_q": 1.0},
    })
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())["result"]["report"]
    keys = list(report)
    at = keys.index("candidates_evaluated")
    assert keys[at + 1:at + 5] == ["message_calls", "player_sets_built", "player_set_hits", "message_batches"]
    # one candidate: the middle players' tables for no state, 0 and 1 and the
    # tail's for its one incoming state, each from one call of the parity
    # chain's array form; sampling reads its messages off these tables
    assert report["message_calls"] == 4 * 16
    assert report["message_batches"] == 4
    assert report["player_sets_built"] + report["player_set_hits"] == 40
    assert report["player_set_hits"] >= 35


_BASES = {
    "reduce": {"function": {"name": "parity", "params": {"n": 4}},
               "protocol": {"name": "parity-chain", "params": {"n": 4}},
               "reduction": {"players": 8}},
    "boost": {"function": {"name": "parity", "params": {"n": 4}},
              "protocol": {"name": "parity-chain", "params": {"n": 4}},
              "reduction": {"players": 8}},
    "simulate": {"protocol": {"name": "parity-chain", "params": {"n": 4}}},
    "sketch-eval": {"sketch-file": "sketch.json", "function": {"name": "parity", "params": {"n": 4}}},
    "prg-check": {"prg": {"block_bits": 2, "block_count": 4, "states": 2, "samples": 10,
                          "n": 4, "s": 2, "shuffles": 1}},
}


@pytest.mark.parametrize("kind, section, key, value, message", [
    ("reduce", "reduction", "players", "forty", "players must be >= 1 (an integer), got 'forty'"),
    ("reduce", "reduction", "players", True, "players must be >= 1 (an integer), got True"),
    ("reduce", "reduction", "trials", 2.5, "trials must be >= 1 (an integer), got 2.5"),
    # the dissociated set is bounded by log2|G|, so the old knob is an unknown key
    ("reduce", "reduction", "dissociated_limit", 16, "unknown reduction keys 'dissociated_limit'"),
    ("reduce", "reduction", "target_q", "0.9", "target_q must be >= 0.0 (a number), got '0.9'"),
    ("reduce", "reduction", "target_eps", -0.1, "target_eps must be >= 0.0 (a number), got -0.1"),
    ("boost", None, "rounds", "3", "rounds must be >= 1 (an integer), got '3'"),
    ("simulate", None, "players", "3", "players must be >= 1 (an integer), got '3'"),
    ("simulate", None, "runs", -1, "runs must be >= 0 (an integer), got -1"),
    ("simulate", None, "inputs", [0, 1, "2"], "inputs must be 3 integers in [0, 16)"),
    ("prg-check", "prg", "block_bits", 0, "block_bits must be >= 1 (an integer), got 0"),
    ("prg-check", "prg", "block_bits", 17, "bad prg settings: unsupported field size 2^17"),
    ("prg-check", "prg", "block_count", 3, "bad prg settings: block count must be a power of two"),
    ("prg-check", "prg", "samples", 1.5, "samples must be >= 1 (an integer), got 1.5"),
    ("prg-check", "prg", "p", "2", "p must be >= 2 (an integer), got '2'"),
    # a falsy inputs is not absent: only a missing or null one means random inputs
    ("simulate", None, "inputs", 0, "inputs must be 3 integers in [0, 16)"),
    ("simulate", None, "inputs", [], "inputs must be 3 integers in [0, 16)"),
    ("simulate", None, "inputs", "", "inputs must be 3 integers in [0, 16)"),
    ("simulate", None, "inputs", False, "inputs must be 3 integers in [0, 16)"),
])
def test_malformed_numeric_fields_are_config_errors(tmp_path, capsys, kind, section, key, value, message):
    raw = json.loads(json.dumps(_BASES[kind]))
    (raw[section] if section else raw)[key] = value
    cfg = _write_config(tmp_path, {"experiment": kind, **raw})
    err = _one_line_failure(capsys, [kind, "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err.startswith(f"config error: {message}")


def test_null_simulate_inputs_mean_random_inputs(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "simulate", **_BASES["simulate"], "inputs": None, "runs": 2})
    record, ok = run_experiment(ExperimentConfig.load(cfg, None, str(tmp_path / "o"), 0.05))
    assert ok and len(record["result"]["runs"]) == 2


@pytest.mark.parametrize("out", [3, None, ["o"], True])
def test_config_out_that_is_not_a_path_string_is_a_config_error(tmp_path, capsys, out):
    # with no --out the config's out is the report directory
    cfg = _write_config(tmp_path, {"experiment": "simulate", **_BASES["simulate"], "out": out})
    err = _one_line_failure(capsys, ["simulate", "--config", cfg], 2)
    assert err == f"config error: out must be a directory path string, got {out!r}\n"


def test_integral_floats_are_accepted(tmp_path):
    raw = json.loads(json.dumps(_BASES["simulate"]))
    cfg = _write_config(tmp_path, {"experiment": "simulate", **raw, "players": 3.0, "runs": 2.0})
    record, ok = run_experiment(ExperimentConfig.load(cfg, None, str(tmp_path / "o"), 0.05))
    assert record["result"]["players"] == 3 and len(record["result"]["runs"]) == 2


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("1 2 x " + "1 " * 13, "could not convert string to float"),
    ("0 " * 16, "weights sum to 0.0"),
    ("1 " * 15, "15 entries for a group of 16"),
    ("nan " + "1 " * 15, "weights sum to nan"),
])
def test_bad_weights_file_is_a_config_error(tmp_path, capsys, content, message):
    weights = tmp_path / "w.txt"
    if content is not None:
        weights.write_text(content)
    cfg = _write_config(tmp_path, {"experiment": "reduce", **_BASES["reduce"],
                                   "distribution": {"weights-file": str(weights)}})
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err.startswith(f"config error: bad weights file {weights}") and message in err


@pytest.mark.parametrize("states, block_bits, message", [
    (1100, 12, "instance too large for exact truth computation"),
    (1024, 16, "transition table of 1024 x 2^16 entries exceeds the cap"),
])
def test_prg_check_sizes_the_fsm_before_building_it(tmp_path, capsys, monkeypatch, states, block_bits, message):
    def no_table(*args):
        raise AssertionError("FSM table built before the size check")

    monkeypatch.setattr(cli, "block_parity_counter", no_table)
    raw = json.loads(json.dumps(_BASES["prg-check"]))
    raw["prg"].update(states=states, block_bits=block_bits)
    cfg = _write_config(tmp_path, {"experiment": "prg-check", **raw})
    err = _one_line_failure(capsys, ["prg-check", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: bad prg settings: {message}\n"


_REDUCE_F4 = {"experiment": "reduce", **_BASES["reduce"]}


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "config {path} must be a JSON object, got list"),
    ({**_REDUCE_F4, "function": {"name": "junta-parity", "params": {"n": 4, "mask": 99}}},
     "bad function spec: mask must be an integer in [0, 2^4), got 99"),
    ({**_REDUCE_F4, "function": {"name": "junta-parity", "params": {"n": 4, "mask": -1}}},
     "bad function spec: mask must be an integer in [0, 2^4), got -1"),
    ({**_REDUCE_F4, "protocol": {"name": "parity-chain", "params": {"n": 4, "mask": 1.5}}},
     "bad protocol spec: mask must be an integer in [0, 2^4), got 1.5"),
    ({**_REDUCE_F4, "reduction": {"players": 8, "target_q": 2.0}},
     "bad reduction settings: target_q must lie in [0, 1], got 2.0"),
    ({**_REDUCE_F4, "reduction": {"players": 8, "target_eps": 1.5}},
     "bad reduction settings: target_eps must lie in [0, 1], got 1.5"),
])
def test_malformed_configs_exit_with_one_line(tmp_path, capsys, payload, message):
    cfg = _write_config(tmp_path, payload)
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: {message.format(path=cfg)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, message", [
    ({"reduction": {"players": 1e30}}, "players must be <= 1048576, got 1e+30"),
    ({"distribution": {"weights-file": 3}}, "weights-file must be a path string, got 3"),
    ({"output": []}, "output must be an object {per_x_table: bool}, got []"),
])
def test_fields_of_the_wrong_kind_are_config_errors_not_tracebacks(tmp_path, capsys, change, message):
    cfg = _write_config(tmp_path, {**_REDUCE_F4, **change})
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("kind", ["reduce", "boost", "simulate"])
def test_players_beyond_desk_scale_are_config_errors(tmp_path, capsys, kind):
    # 2^40 players raised MemoryError while the protocol built its N + 1 message functions
    raw = json.loads(json.dumps(_BASES[kind]))
    (raw if kind == "simulate" else raw["reduction"])["players"] = 2**40
    cfg = _write_config(tmp_path, {"experiment": kind, **raw})
    err = _one_line_failure(capsys, [kind, "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: players must be <= {2**20}, got {2**40}\n"


@pytest.mark.parametrize("kind", ["reduce", "boost"])
@pytest.mark.parametrize("extra, named", [
    ({"bogus": 1}, "'bogus'"),
    ({"target_qq": 1.0, "Delta": 0.5}, "'target_qq', 'Delta'"),
])
def test_unknown_reduction_keys_are_config_errors(tmp_path, capsys, kind, extra, named):
    raw = json.loads(json.dumps(_BASES[kind]))
    raw["reduction"].update(extra)
    cfg = _write_config(tmp_path, {"experiment": kind, **raw})
    err = _one_line_failure(capsys, [kind, "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == (f"config error: unknown reduction keys {named}; want some of players, trials, "
                   "target_q, target_eps, delta\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("delta, want", [("1/1000", "1/1000"), (0.001, "1/1000"), (0.5, "1/2"),
                                         ("3/6", "1/2")])
def test_reduction_delta_is_read_exactly(tmp_path, delta, want):
    raw = {"experiment": "reduce", **json.loads(json.dumps(_BASES["reduce"]))}
    raw["reduction"]["delta"] = delta
    record, _ = run_experiment(ExperimentConfig.load(_write_config(tmp_path, raw), None, str(tmp_path / "o"), 0.05))
    report = record["result"]["report"]
    assert report["delta"] == want
    assert report["checks"]["transcript-probability"]["rhs"] == f"{want}*2^-8"


@pytest.mark.parametrize("delta, message", [
    ("0.5", "delta must be a number or a 'p/q' string, got '0.5'"),
    ("1/0", "delta must be a number or a 'p/q' string, got '1/0'"),
    (True, "delta must be a number or a 'p/q' string, got True"),
    ([1, 2], "delta must be a number or a 'p/q' string, got [1, 2]"),
    (1, "bad reduction settings: delta must lie in (0, 1)"),
    ("-1/2", "bad reduction settings: delta must lie in (0, 1)"),
])
def test_bad_reduction_delta_is_a_config_error(tmp_path, capsys, delta, message):
    raw = {"experiment": "reduce", **json.loads(json.dumps(_BASES["reduce"]))}
    raw["reduction"]["delta"] = delta
    err = _one_line_failure(capsys, ["reduce", "--config", _write_config(tmp_path, raw),
                                     "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("prg", [[], 3, None, "x", True, 1.5, -1])
def test_prg_that_is_not_an_object_is_a_config_error(tmp_path, capsys, prg):
    cfg = _write_config(tmp_path, {"experiment": "prg-check", "prg": prg})
    err = _one_line_failure(capsys, ["prg-check", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: prg must be an object of generator settings, got {prg!r}\n"


@pytest.mark.parametrize("kind, section, extra, message", [
    ("prg-check", "prg", {"block_bit": 8}, "unknown prg keys 'block_bit'; want some of block_bits, "
     "block_count, states, samples, n, s, p, shuffles"),
    ("reduce", "output", {"per_x_tabel": True}, "unknown output keys 'per_x_tabel'; want some of per_x_table"),
    ("boost", None, {"round": 3}, "unknown boost keys 'round'; want some of experiment, seed, out, function, "
     "protocol, variant, distribution, reduction, rounds"),
    ("reduce", None, {"rounds": 3, "prg": {}}, "unknown reduce keys 'rounds', 'prg'; want some of experiment, "
     "seed, out, function, protocol, variant, distribution, reduction, output"),
    ("simulate", None, {"run": 3}, "unknown simulate keys 'run'; want some of experiment, seed, out, protocol, "
     "players, function, inputs, runs"),
    ("prg-check", None, {"block_bits": 8}, "unknown prg-check keys 'block_bits'; want some of experiment, seed, "
     "out, prg"),
    ("sketch-eval", None, {"sketch_file": "sketch.json"}, "unknown sketch-eval keys 'sketch_file'; want some of "
     "experiment, seed, out, sketch-file, function, target_q, target_eps, stream-file"),
    ("reduce", "distribution", {"weights-file": "w.txt", "bogus": 1},
     "unknown distribution keys 'bogus'; want some of weights-file"),
])
def test_unknown_keys_are_config_errors_that_name_them(tmp_path, capsys, kind, section, extra, message):
    raw = json.loads(json.dumps(_BASES[kind]))
    (raw.setdefault(section, {}) if section else raw).update(extra)
    cfg = _write_config(tmp_path, {"experiment": kind, **raw})
    err = _one_line_failure(capsys, [kind, "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("missing", [False, True])
def test_bad_stream_file_is_a_config_error(tmp_path, capsys, missing):
    sketch_file = tmp_path / "sketch.json"
    sketch_file.write_text(serialize_sketch(LinearJuntaF2(5, (31,), (0, 1))))
    path = tmp_path / "missing.txt"
    cfg = _write_config(tmp_path, {"experiment": "sketch-eval", "sketch-file": str(sketch_file),
                                   "function": {"name": "parity", "params": {"n": 5}},
                                   "stream-file": str(path) if missing else 3})
    err = _one_line_failure(capsys, ["sketch-eval", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    if missing:
        assert err == f"config error: cannot read stream file {path}: [Errno 2] No such file or directory: '{path}'\n"
    else:
        assert err == "config error: stream-file must be a path string, got 3\n"


def test_readme_reduce_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split("### Reduce config\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = _write_config(tmp_path, json.loads(body))
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def _range(key):
    """The README's range cell for a schema key."""
    def number(v):
        if v == sys.maxsize:
            return "2^63 - 1"
        if isinstance(v, int) and v >= 1024 and v & (v - 1) == 0:
            return f"2^{v.bit_length() - 1}"
        return f"{v:g}"

    if key.kind in ("int", "float"):
        return f"[{number(key.lo)}, {number(key.hi)}{')' if key.hi_open else ']'}"
    return ", ".join(key.of) if key.kind == "enum" else "-"


def _schema_sections():
    """Every section the schema reads, top levels first, then nested ones in
    the order they are first referred to."""
    sections = dict(cli.SCHEMAS)
    queue = list(cli.SCHEMAS.values())
    while queue:
        for key in queue.pop(0):
            if key.kind in ("section", "distribution", "zoo"):
                name, keys = ("zoo spec", cli.ZOO_SPEC.keys) if key.kind == "zoo" else (key.name, key.of.keys)
                if name not in sections:
                    sections[name] = keys
                    queue.append(keys)
    return sections


def test_readme_lists_every_sections_keys():
    # one row per distinct key, with the sections that share it
    rows = []
    for section, keys in _schema_sections().items():
        for key in keys:
            row = next((row for row in rows if row[0] == key), None)
            if row is None:
                rows.append((key, [section]))
            else:
                row[1].append(section)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys\n", 1)[1]
    table = table.split("| key | sections | kind | range | default |\n|---|---|---|---|---|\n", 1)[1]
    cells = [line.strip("| ").split(" | ") for line in table.split("\n\n", 1)[0].splitlines()]
    assert [(name.strip("`"), sections.split(", "), kind, range_) for name, sections, kind, range_, _ in cells] == [
        (key.name, sections, key.kind, _range(key)) for key, sections in rows]
    for (key, _), (*_, default) in zip(rows, cells):
        if key.default is cli.REQUIRED:
            assert default == "required", key
        elif key.default is None:
            assert default != "required", key
        else:
            assert default == f"`{json.dumps(key.default)}`", key


_PRG_FUZZ = {"experiment": "prg-check", "prg": {"block_bits": 2, "block_count": 4, "states": 2, "samples": 10,
                                                 "n": 4, "s": 2, "p": 2, "shuffles": 1}}


def test_prg_check_gate_fails_at_the_default_tolerance(tmp_path):
    # the gate these configs test: fsm_l1_distance 0.25 against 0.05
    cfg = _write_config(tmp_path, _PRG_FUZZ)
    assert main(["prg-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert json.loads((tmp_path / "o" / "report.json").read_text())["result"]["fsm_l1_distance"] == 0.25


@pytest.mark.parametrize("tolerance, message", [
    ("inf", "tolerance must lie in [0, 1), got inf"),
    ("1e400", "tolerance must lie in [0, 1), got inf"),
    ("1", "tolerance must lie in [0, 1), got 1.0"),
    ("nan", "tolerance must be >= 0.0 (a number), got nan"),
    ("-0.05", "tolerance must be >= 0.0 (a number), got -0.05"),
])
def test_tolerance_outside_zero_one_is_a_config_error(tmp_path, capsys, tolerance, message):
    # at inf the prg-check gate above recorded ok: true
    cfg = _write_config(tmp_path, _PRG_FUZZ)
    err = _one_line_failure(capsys, ["prg-check", "--config", cfg, "--out", str(tmp_path / "o"),
                                     "--tolerance", tolerance], 2)
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["function", "protocol"])
def test_unknown_zoo_spec_keys_are_config_errors(tmp_path, capsys, key):
    # an extra key beside name and params was ignored
    raw = {"experiment": "reduce", **json.loads(json.dumps(_BASES["reduce"]))}
    raw[key]["extra"] = 1
    err = _one_line_failure(capsys, ["reduce", "--config", _write_config(tmp_path, raw),
                                     "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: unknown {key} keys 'extra'; want some of name, params\n"


@pytest.mark.parametrize("value", ["no", 1, None])
def test_per_x_table_must_be_a_json_bool(tmp_path, capsys, value):
    # "no" wrote per_x.csv
    cfg = _write_config(tmp_path, {**_REDUCE_F4, "output": {"per_x_table": value}})
    err = _one_line_failure(capsys, ["reduce", "--config", cfg, "--out", str(tmp_path / "o")], 2)
    assert err == f"config error: per_x_table must be true or false, got {value!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    # an int past the float range raised OverflowError, one past 4300 digits ValueError,
    # a file that is not UTF-8 UnicodeDecodeError
    (json.dumps(_REDUCE_F4).replace('"players": 8', '"players": 8, "target_q": 1' + "0" * 400),
     "target_q must lie in [0, inf), got 1" + "0" * 400),
    (json.dumps(_REDUCE_F4).replace('"players": 8', '"players": 1' + "0" * 5000), "Exceeds the limit (4300 digits)"),
    ("\udcff", "codec can't decode byte 0xff"),
], ids=["float-overflow", "int-digit-limit", "not-utf8"])
def test_configs_that_do_not_parse_as_numbers_or_text_exit_with_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
    err = _one_line_failure(capsys, ["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")], 2)
    assert err.startswith("config error: ") and message in err


def _per_x_csv_rows(path, group, columns):
    """The CSV writer as a loop over the rows, decoding each index."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "coords", *columns.keys()])
        for x in range(group.size):
            writer.writerow([x, "+".join(map(str, group.decode(x))), *(col[x] for col in columns.values())])


@pytest.mark.parametrize("moduli", [(2,) * 6, (3,) * 4])
@pytest.mark.parametrize("rows", [cli.CSV_ROWS, 7])
def test_per_x_csv_matches_the_row_loop(tmp_path, monkeypatch, moduli, rows):
    monkeypatch.setattr(cli, "CSV_ROWS", rows)
    group = GroupSpec(moduli)
    rng = np.random.default_rng(3)
    columns = {"int": rng.integers(-5, 5, group.size), "float": rng.random(group.size) * 10.0 ** rng.integers(-6, 6),
               "success": (rng.integers(0, 8, group.size) / 7).tolist()}
    _per_x_csv_rows(tmp_path / "loop.csv", group, columns)
    path = cli._write_per_x_csv(tmp_path, "table.csv", group, columns)
    assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()
