"""Experiment runner: config parsing, zoo wiring, reports and tables.

Subcommands: reduce, sketch-eval, simulate, prg-check, zoo-list.  Configs
are JSON files; reports are JSON with optional per-input CSV tables.  The
exit status reflects the run's acceptance assertions: 0 on success, 1 on
failed bounds or stage errors, 2 on configuration problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import GroupSpec
from .compiler import (
    VARIANTS,
    CompilerError,
    ReductionConfig,
    minimax_boost,
    reduce as compile_reduce,
)
from .fourier import TRANSFORM_SIZE_LIMIT, ChangBoundError, DenseFunction, TransformLimitError
from .prg import RowTemplate, block_parity_counter, check_fsm_size, derandomized_apply, fsm_distance
from .protocol import additive_lift
from .seeding import derived_rng, parse_seed
from .sketch import (
    Distribution,
    deserialize_sketch,
    serialize_sketch,
    success_probability,
    apply_stream,
)
from .zoo import UnknownZooEntry, zoo_function, zoo_list, zoo_protocol

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_stream_file",
    "write_stream_file",
    "run_experiment",
    "main",
]

# The top-level keys each experiment kind reads, beside experiment, seed and out
EXPERIMENT_KEYS = {
    "reduce": ("function", "protocol", "variant", "distribution", "reduction", "output"),
    "boost": ("function", "protocol", "variant", "distribution", "reduction", "rounds"),
    "sketch-eval": ("sketch-file", "function", "target_q", "target_eps", "stream-file"),
    "simulate": ("protocol", "players", "function", "inputs", "runs"),
    "prg-check": ("prg",),
}
EXPERIMENT_KINDS = tuple(EXPERIMENT_KEYS)
REDUCTION_KEYS = ("players", "trials", "target_q", "target_eps", "delta")
OUTPUT_KEYS = ("per_x_table",)
PRG_KEYS = ("block_bits", "block_count", "states", "samples", "n", "s", "p", "shuffles")
# Counts that size a table or a loop are bounded at desk scale: a protocol holds
# one message function per player, built before any other size check, so 2^40
# players or samples raised MemoryError, and 2^40 trials, rounds, runs or shuffles
# never ended.
COUNT_LIMIT = TRANSFORM_SIZE_LIMIT


class ConfigError(ValueError):
    pass


def _reject_unknown_keys(section: dict, allowed, where: str) -> None:
    """ConfigError naming the keys of section that are not in allowed."""
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown {where} keys {', '.join(map(repr, unknown))}; "
                          f"want some of {', '.join(allowed)}")


def parse_stream_file(path: str | Path) -> tuple[int, int, list[tuple[int, int]]]:
    """Read an update stream: header "n=<int> p=<int>", then one
    "<coordinate> <increment>" pair per line.  Increments may be any
    int64 integers; they are reduced mod p on application, not here."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read stream file {path}: {e}") from e
    body = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ConfigError(f"{path}: empty stream file")
    header = body[0].split()
    try:
        fields = dict(part.split("=") for part in header)
        n, p = int(fields["n"]), int(fields["p"])
    except (ValueError, KeyError) as e:
        raise ConfigError(f"{path}: bad header {body[0]!r} (want 'n=<int> p=<int>')") from e
    if n < 1 or p < 2:
        raise ConfigError(f"{path}: need n >= 1 and p >= 2")
    updates = []
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}: bad update line {ln!r}")
        try:
            coord, inc = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise ConfigError(f"{path}: non-integer tokens in {ln!r}") from e
        if not 0 <= coord < n:
            raise ConfigError(f"{path}: coordinate {coord} out of range [0, {n})")
        updates.append((coord, inc))
    return n, p, updates


def write_stream_file(path: str | Path, n: int, p: int, updates) -> None:
    with open(path, "w") as fh:
        fh.write(f"n={n} p={p}\n")
        for coord, inc in updates:
            fh.write(f"{coord} {inc}\n")


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict
    seed: int
    out_dir: Path
    tolerance: float

    @classmethod
    def load(cls, path: str, seed_override: str | None, out: str | None, tolerance: float):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
        kind = raw.get("experiment")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}"
            )
        _reject_unknown_keys(raw, ("experiment", "seed", "out") + EXPERIMENT_KEYS[kind], kind)
        seed_text = seed_override or str(raw.get("seed", "0"))
        try:
            seed = parse_seed(seed_text)
        except ValueError as e:
            raise ConfigError(f"bad seed {seed_text!r}: want decimal or 0x-prefixed hex") from e
        config_out = raw.get("out", ".")
        if not isinstance(config_out, str):
            raise ConfigError(f"out must be a directory path string, got {config_out!r}")
        return cls(kind, raw, seed, Path(out or config_out), tolerance)


def _load_function(cfg: dict) -> DenseFunction:
    spec = cfg.get("function")
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("config needs a function: {name, params}")
    try:
        return zoo_function(spec["name"], **spec.get("params", {}))
    except (UnknownZooEntry, TypeError, ValueError) as e:
        raise ConfigError(f"bad function spec: {e}") from e


def _load_protocol(cfg: dict):
    spec = cfg.get("protocol")
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("config needs a protocol: {name, params}")
    try:
        return zoo_protocol(spec["name"], **spec.get("params", {}))
    except (UnknownZooEntry, TypeError, ValueError) as e:
        raise ConfigError(f"bad protocol spec: {e}") from e


def _int_field(section: dict, key: str, default: int, minimum: int, maximum: int = sys.maxsize) -> int:
    """section[key] (default if absent) as an int in [minimum, maximum], at
    most an index by default; an integral float is accepted, a string, a
    bool or a fraction is not."""
    value = raw = section.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be >= {minimum} (an integer), got {value!r}")
    if value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {raw!r}")
    return value


def _float_field(section: dict, key: str, minimum: float, maximum: float = math.inf) -> float | None:
    """section[key] as a float in [minimum, maximum], or None if absent or
    null."""
    value = section.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= minimum:
        raise ConfigError(f"{key} must be >= {minimum} (a number), got {value!r}")
    if not value <= maximum:
        raise ConfigError(f"{key} must lie in [{minimum:g}, {maximum:g}], got {value!r}")
    return float(value)


def _fraction_field(section: dict, key: str) -> Fraction | None:
    """section[key] as an exact Fraction, from a number (a float read as the
    decimal it prints as) or a "p/q" string of two integers, or None if
    absent or null."""
    value = section.get(key)
    if value is None:
        return None
    try:
        if isinstance(value, str):
            num, _, den = value.partition("/")
            return Fraction(int(num), int(den))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return Fraction(repr(value))
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{key} must be a number or a 'p/q' string, got {value!r}")


def _load_distribution(cfg: dict, group: GroupSpec) -> Distribution:
    spec = cfg.get("distribution", "uniform")
    if spec == "uniform":
        return Distribution.uniform(group)
    if isinstance(spec, dict):
        _reject_unknown_keys(spec, ("weights-file",), "distribution")
    if isinstance(spec, dict) and "weights-file" in spec:
        path = spec["weights-file"]
        if not isinstance(path, str):
            raise ConfigError(f"weights-file must be a path string, got {path!r}")
        try:
            weights = [float(tok) for tok in Path(path).read_text().split()]
            if len(weights) != group.size:
                raise ValueError(f"{len(weights)} entries for a group of {group.size}")
            return Distribution.from_weights(group, weights)
        except (OSError, ValueError) as e:
            raise ConfigError(f"bad weights file {path}: {e}") from e
    raise ConfigError(f"unknown distribution spec {spec!r}")


def _reduction_config(cfg: dict, seed: int) -> ReductionConfig:
    red = cfg.get("reduction")
    if not isinstance(red, dict) or "players" not in red:
        raise ConfigError("config needs reduction: {players, ...}")
    _reject_unknown_keys(red, REDUCTION_KEYS, "reduction")
    fields = dict(
        players=_int_field(red, "players", 0, 1, COUNT_LIMIT),
        transcript_trials=_int_field(red, "trials", 64, 1, COUNT_LIMIT),
        delta=_fraction_field(red, "delta"),
        target_q=_float_field(red, "target_q", 0.0),
        target_eps=_float_field(red, "target_eps", 0.0),
        seed=seed,
    )
    try:
        return ReductionConfig(**fields)
    except ValueError as e:
        raise ConfigError(f"bad reduction settings: {e}") from e


def _variant(cfg: dict, group: GroupSpec) -> str:
    """The configured compiler variant; exact_f2 on all-2 groups and
    exact_group otherwise by default."""
    variant = cfg.get("variant", "exact_f2" if group.is_boolean else "exact_group")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; want one of {', '.join(VARIANTS)}")
    if variant.endswith("_f2") and not group.is_boolean:
        raise ConfigError(f"variant {variant!r} needs an all-2 group, got {group!r}")
    return variant


def _write_report(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _write_per_x_csv(out_dir: Path, name: str, group: GroupSpec, columns: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "coords", *columns.keys()])
        for x in range(group.size):
            writer.writerow(
                [x, "+".join(map(str, group.decode(x))), *(col[x] for col in columns.values())]
            )
    return path


def _record(kind: str, config: ExperimentConfig, result: dict, ok: bool, started: float) -> dict:
    return {
        "format": "modsketch.report",
        "version": 1,
        "experiment": kind,
        "config": config.raw,
        "seed": config.seed,
        "package_version": __version__,
        "ok": bool(ok),
        "elapsed_seconds": round(time.perf_counter() - started, 6),
        "result": result,
    }


def _run_reduce(config: ExperimentConfig) -> tuple[dict, bool]:
    output = config.raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError(f"output must be an object {{per_x_table: bool}}, got {output!r}")
    _reject_unknown_keys(output, OUTPUT_KEYS, "output")
    f = _load_function(config.raw)
    family = _load_protocol(config.raw)
    if family.group != f.group:
        raise ConfigError("function and protocol live on different groups")
    D = _load_distribution(config.raw, f.group)
    cfg = _reduction_config(config.raw, config.seed)
    res = compile_reduce(family, f, D, cfg, _variant(config.raw, f.group))
    sketch_path = config.out_dir / "sketch.json"
    config.out_dir.mkdir(parents=True, exist_ok=True)
    sketch_path.write_text(serialize_sketch(res.sketch) + "\n")
    result = {
        "report": res.report.to_dict(),
        "sketch_file": str(sketch_path),
    }
    if output.get("per_x_table"):
        out = np.asarray(res.sketch.eval_all())
        fv = f.real_values()
        table = _write_per_x_csv(
            config.out_dir,
            "per_x.csv",
            f.group,
            {"f": fv, "sketch": out},
        )
        result["per_x_table"] = str(table)
    ok = all(c.get("ok") for c in res.report.checks.values())
    return result, ok


def _run_boost(config: ExperimentConfig) -> tuple[dict, bool]:
    f = _load_function(config.raw)
    family = _load_protocol(config.raw)
    if family.group != f.group:
        raise ConfigError("function and protocol live on different groups")
    if config.raw.get("distribution", "uniform") != "uniform":
        raise ConfigError("boost chooses its own input distributions; distribution must be 'uniform'")
    variant = _variant(config.raw, f.group)
    if not variant.startswith("exact"):
        raise ConfigError(f"boost needs an exact variant, got {variant!r}")
    if not np.all(np.isin(f.real_values(), (0.0, 1.0))):
        raise ConfigError("boost needs a binary target function")
    cfg = _reduction_config(config.raw, config.seed)
    rounds = _int_field(config.raw, "rounds", 10, 1, COUNT_LIMIT)
    res = minimax_boost(f, family, cfg, rounds, variant)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    sketch_path = config.out_dir / "mixture.json"
    sketch_path.write_text(serialize_sketch(res.mixture) + "\n")
    right = Counter(p.numerator * rounds // p.denominator for p in res.per_x_success)
    result = {
        "rounds": rounds,
        "min_success": str(res.min_success),
        "sketch_file": str(sketch_path),
        # entry k counts the inputs right in k of the rounds
        "success_counts": [right[k] for k in range(rounds + 1)],
        "checks": res.checks,
    }
    ok = cfg.target_q is None or float(res.min_success) >= cfg.target_q - config.tolerance
    return result, ok


def _run_sketch_eval(config: ExperimentConfig) -> tuple[dict, bool]:
    target_q = _float_field(config.raw, "target_q", 0.0, 1.0)
    target_eps = _float_field(config.raw, "target_eps", 0.0, 1.0)
    path = config.raw.get("sketch-file")
    if not path:
        raise ConfigError("sketch-eval needs sketch-file")
    try:
        sketch = deserialize_sketch(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad sketch file {path}: {e!r}") from e
    f = _load_function(config.raw)
    group = (sketch.entries[0][1] if hasattr(sketch, "entries") else sketch).group
    if f.group != group:
        raise ConfigError(f"function group {f.group} does not match the sketch's group {group}")
    result: dict = {"sketch_file": path}
    ok = True
    stream = config.raw.get("stream-file")
    if stream is not None:
        if not isinstance(stream, str):
            raise ConfigError(f"stream-file must be a path string, got {stream!r}")
        if hasattr(sketch, "entries"):
            raise ConfigError("stream replay needs a deterministic sketch")
        _, _, updates = parse_stream_file(stream)
        try:  # a coordinate past the sketch's dimension, an increment past int64
            state = apply_stream(sketch, updates)
        except (IndexError, ValueError) as e:
            raise ConfigError(f"stream {stream} does not fit the sketch: {e}") from e
        values = state.values()
        result["stream"] = {
            "updates": len(updates),
            "state": list(values) if isinstance(values, tuple) else values,
            "output": state.output(),
        }
    fv = f.real_values()
    if np.all(np.isin(fv, (0.0, 1.0))):
        per_x = [float(p) for p in success_probability(sketch, f, mode="exact")]
        table = _write_per_x_csv(
            config.out_dir, "success_per_x.csv", f.group, {"success": per_x}
        )
        result["per_x_table"] = str(table)
        result["min_success"] = min(per_x)
        if target_q is not None:
            ok = result["min_success"] >= target_q - config.tolerance
    else:
        entries = sketch.entries if hasattr(sketch, "entries") else [(1, sketch)]
        per_x = np.zeros(f.group.size)
        for w, sk in entries:
            out = np.asarray(sk.eval_all(), dtype=np.float64)
            per_x += float(w) * (out - fv) ** 2
        table = _write_per_x_csv(
            config.out_dir, "sq_error_per_x.csv", f.group, {"sq_error": per_x}
        )
        result["per_x_table"] = str(table)
        result["max_sq_error"] = float(per_x.max())
        if target_eps is not None:
            ok = result["max_sq_error"] <= target_eps + config.tolerance
    return result, ok


def _run_simulate(config: ExperimentConfig) -> tuple[dict, bool]:
    family = _load_protocol(config.raw)
    n_players = _int_field(config.raw, "players", 3, 1, COUNT_LIMIT)
    protocol = family(n_players)
    rng = derived_rng(config.seed, "simulate")
    runs = []
    ok = True
    check_fn = None
    if "function" in config.raw:
        check_fn = additive_lift(_load_function(config.raw), n_players)
    explicit = config.raw.get("inputs")
    n_runs = _int_field(config.raw, "runs", 10, 0, COUNT_LIMIT)
    size = protocol.group.size
    if explicit is not None and not (
        isinstance(explicit, list) and len(explicit) == n_players
        and all(type(v) is int and 0 <= v < size for v in explicit)
    ):
        raise ConfigError(f"inputs must be {n_players} integers in [0, {size})")
    input_sets = (
        [explicit]
        if explicit is not None
        else [[rng.randrange(size) for _ in range(n_players)] for _ in range(n_runs)]
    )
    for inputs in input_sets:
        messages, output = protocol.run(inputs, 0)
        entry = {"inputs": inputs, "messages": list(messages[:-1]), "output": output}
        if check_fn is not None:
            expected = check_fn(inputs)
            entry["expected"] = float(expected)
            entry["match"] = bool(np.isclose(float(output), float(expected)))
            ok = ok and entry["match"]
        runs.append(entry)
    return {"protocol": protocol.name, "players": n_players, "runs": runs}, ok


def _run_prg_check(config: ExperimentConfig) -> tuple[dict, bool]:
    prg_cfg = config.raw.get("prg", {})
    if not isinstance(prg_cfg, dict):
        raise ConfigError(f"prg must be an object of generator settings, got {prg_cfg!r}")
    _reject_unknown_keys(prg_cfg, PRG_KEYS, "prg")
    b = _int_field(prg_cfg, "block_bits", 8, 1)
    k = _int_field(prg_cfg, "block_count", 16, 1)
    states = _int_field(prg_cfg, "states", 8, 1)
    samples = _int_field(prg_cfg, "samples", 100_000, 1, COUNT_LIMIT)
    n = _int_field(prg_cfg, "n", 64, 1)
    s = _int_field(prg_cfg, "s", 8, 1)
    p = _int_field(prg_cfg, "p", 2, 2)
    shuffles = _int_field(prg_cfg, "shuffles", 20, 0, COUNT_LIMIT)
    if n * s > COUNT_LIMIT:  # the explicit n x s matrix the check materializes
        raise ConfigError(f"bad prg settings: the explicit {n} x {s} matrix exceeds {COUNT_LIMIT} entries")
    try:  # an unsupported field size, a block count not a power of two, an oversized FSM
        check_fsm_size(states, b, k)
        dist = fsm_distance(block_parity_counter(states, b), b, k, samples=samples, seed=config.seed)
        seed_bits = RowTemplate.required_seed_bits(n, s, p, b)
        template = RowTemplate(
            n=n, s=s, p=p, block_bits=b,
            seed=derived_rng(config.seed, "template").getrandbits(seed_bits),
        )
    except ValueError as e:
        raise ConfigError(f"bad prg settings: {e}") from e
    rng = derived_rng(config.seed, "prg-stream")
    updates = [(rng.randrange(n), rng.randrange(1, p + 1)) for _ in range(10 * n)]
    base = derandomized_apply(template, updates)
    invariant = True
    for _ in range(shuffles):
        perm = updates[:]
        rng.shuffle(perm)
        if not np.array_equal(base, derandomized_apply(template, perm)):
            invariant = False
            break
    # the reference product in Python ints: int64 would overflow for large p
    matrix = template.materialize().astype(object)
    x = np.zeros(n, dtype=object)
    for coord, inc in updates:
        x[coord] = (x[coord] + inc) % p
    explicit = (matrix.T @ x) % p
    matches_matrix = bool(np.array_equal(explicit, base))

    ok = dist.l1 <= config.tolerance and invariant and matches_matrix
    result = {
        "generator": {
            "block_bits": b,
            "block_count": k,
            "seed_bits": template.seed_bits,
            "template": {"n": n, "s": s, "p": p,
                         "blocks_per_row": template.blocks_per_row},
        },
        "fsm_states": states,
        "fsm_l1_distance": dist.l1,
        "fsm_distance_exact": dist.exact,
        "fsm_samples": dist.samples,
        "fsm_stderr": dist.stderr,
        "order_invariant": invariant,
        "matches_explicit_matrix": matches_matrix,
        "acceptance_epsilon": config.tolerance,
    }
    return result, ok


def run_experiment(config: ExperimentConfig) -> tuple[dict, bool]:
    """Execute one experiment and write its report; returns (record, ok)."""
    started = time.perf_counter()
    runner = {
        "reduce": _run_reduce,
        "boost": _run_boost,
        "sketch-eval": _run_sketch_eval,
        "simulate": _run_simulate,
        "prg-check": _run_prg_check,
    }[config.kind]
    result, ok = runner(config)
    record = _record(config.kind, config, result, ok, started)
    path = _write_report(config.out_dir, "report.json", record)
    record["report_file"] = str(path)
    return record, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modsketch",
        description="linear sketching, protocol simulation, and protocol-to-sketch reduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT_KINDS:
        p = sub.add_parser(name, help=f"run a {name} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", default=None, help="seed override (decimal or 0x-prefixed hex)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--tolerance",
            type=float,
            default=0.05,
            help="acceptance tolerance for measured quantities",
        )
    sub.add_parser("zoo-list", help="list registered functions, protocols and FSMs")

    args = parser.parse_args(argv)
    if args.command == "zoo-list":
        print(json.dumps(zoo_list(), indent=2))
        return 0
    try:
        config = ExperimentConfig.load(args.config, args.seed, args.out, args.tolerance)
        if config.kind != args.command:
            raise ConfigError(
                f"config is for {config.kind!r} but the {args.command!r} subcommand was used"
            )
        record, ok = run_experiment(config)
    except (ConfigError, TransformLimitError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (CompilerError, ChangBoundError) as e:
        print(f"stage failure: {e}", file=sys.stderr)
        return 1
    print(json.dumps({k: record[k] for k in ("experiment", "ok", "report_file")}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
