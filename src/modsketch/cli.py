"""Experiment runner: config parsing, zoo wiring, reports and tables.

Subcommands: reduce, boost, sketch-eval, simulate, prg-check, zoo-list.
Configs are JSON files, each section checked against its table of keys
(SCHEMAS); reports are JSON with optional per-input CSV tables.  The exit
status reflects the run's acceptance assertions: 0 on success, 1 on failed
bounds or stage errors, 2 on configuration problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
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
from .fourier import TRANSFORM_SIZE_LIMIT, ChangBoundError, TransformLimitError
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

# Counts that size a table or a loop are bounded at desk scale: a protocol holds
# one message function per player, built before any other size check, so 2^40
# players or samples raised MemoryError, and 2^40 trials, rounds, runs or shuffles
# never ended.
COUNT_LIMIT = TRANSFORM_SIZE_LIMIT
CSV_ROWS = 1 << 16  # rows formatted at a time: a |G| x n coordinate matrix is 168 MB at F2^20
REQUIRED = object()  # the default of a key that a section must give


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Key:
    """One config key: its name, its kind, its default (REQUIRED if it has
    none) and, for numbers, its range [lo, hi], or [lo, hi) if hi_open; an
    int's hi defaults to the largest index.  `of` is an enum's choices, a
    section's Section, a zoo spec's builder or what a path names."""

    name: str
    kind: str
    default: object = REQUIRED
    lo: float | None = None
    hi: float = sys.maxsize
    of: object = None
    hi_open: bool = False


# A nested object: what its value must be (for the error on anything else) and its keys
Section = namedtuple("Section", "shape keys")
ZOO_SPEC = Section("an object {name, params}", (
    Key("name", "zoo name"),
    Key("params", "object", {}),
))
FUNCTION = Key("function", "zoo", of=zoo_function)
PROTOCOL = Key("protocol", "zoo", of=zoo_protocol)
REDUCTION = Section("an object {players, ...}", (
    Key("players", "int", REQUIRED, 1, COUNT_LIMIT),
    Key("trials", "int", 64, 1, COUNT_LIMIT),
    # ReductionConfig bounds both targets by 1 and delta to (0, 1)
    Key("target_q", "float", None, 0.0, math.inf, hi_open=True),
    Key("target_eps", "float", None, 0.0, math.inf, hi_open=True),
    Key("delta", "fraction", None),
))
DISTRIBUTION = Section("'uniform' or an object {weights-file}", (Key("weights-file", "path"),))
OUTPUT = Section("an object {per_x_table: bool}", (Key("per_x_table", "bool", False),))
PRG = Section("an object of generator settings", (
    Key("block_bits", "int", 8, 1),
    Key("block_count", "int", 16, 1),
    Key("states", "int", 8, 1),
    Key("samples", "int", 100_000, 1, COUNT_LIMIT),
    Key("n", "int", 64, 1),
    Key("s", "int", 8, 1),
    Key("p", "int", 2, 2),
    Key("shuffles", "int", 20, 0, COUNT_LIMIT),
))
EXPERIMENT = Key("experiment", "enum", of=("reduce", "boost", "sketch-eval", "simulate", "prg-check"))
_COMMON = (
    EXPERIMENT,
    Key("seed", "seed", "0"),
    Key("out", "path", ".", of="a directory path string"),
)
_COMPILE = (
    FUNCTION,
    PROTOCOL,
    Key("variant", "enum", None, of=VARIANTS),  # None: exact_f2 on all-2 groups, else exact_group
    Key("distribution", "distribution", "uniform", of=DISTRIBUTION),
    Key("reduction", "section", of=REDUCTION),
)
# The top-level keys of each experiment kind
SCHEMAS = {
    "reduce": _COMMON + _COMPILE + (Key("output", "section", {}, of=OUTPUT),),
    "boost": _COMMON + _COMPILE + (Key("rounds", "int", 10, 1, COUNT_LIMIT),),
    "sketch-eval": _COMMON + (
        Key("sketch-file", "path"),
        FUNCTION,
        Key("target_q", "float", None, 0.0, 1.0),
        Key("target_eps", "float", None, 0.0, 1.0),
        Key("stream-file", "path", None),
    ),
    "simulate": _COMMON + (
        PROTOCOL,
        Key("players", "int", 3, 1, COUNT_LIMIT),
        replace(FUNCTION, default=None),
        Key("inputs", "int list", None),
        Key("runs", "int", 10, 0, COUNT_LIMIT),
    ),
    "prg-check": _COMMON + (Key("prg", "section", {}, of=PRG),),
}
# The --tolerance flag: at 1 or more no gate could fail
TOLERANCE = Key("tolerance", "float", 0.05, 0.0, 1.0, hi_open=True)


def _value(key: Key, value):
    """value as the runners read it, checked against key's kind and range."""
    name, kind, lo, hi = key.name, key.kind, key.lo, key.hi
    if value is None and key.default is None and kind in ("float", "fraction", "path"):
        return None  # null stands for absent there, but not for a variant or a zoo spec
    if kind == "int":
        number = int(value) if isinstance(value, float) and value.is_integer() else value
        if isinstance(number, bool) or not isinstance(number, int) or number < lo:
            raise ConfigError(f"{name} must be >= {lo} (an integer), got {value!r}")
        if number > hi:
            raise ConfigError(f"{name} must be <= {hi}, got {value!r}")
        return number
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= lo:
            raise ConfigError(f"{name} must be >= {lo} (a number), got {value!r}")
        # an int past the float range is out of range too, not an OverflowError
        if not (value < hi if key.hi_open else value <= hi) or value > sys.float_info.max:
            interval = f"[{lo:g}, {hi:g}{')' if key.hi_open else ']'}"
            raise ConfigError(f"{name} must lie in {interval}, got {value!r}")
        return float(value)
    if kind == "fraction":  # a "p/q" string, or a number read as the decimal it prints as
        try:
            if isinstance(value, str):
                num, _, den = value.partition("/")
                return Fraction(int(num), int(den))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return Fraction(repr(value))
        except (ValueError, ZeroDivisionError):
            pass
        raise ConfigError(f"{name} must be a number or a 'p/q' string, got {value!r}")
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if kind == "path" and not isinstance(value, str):
        raise ConfigError(f"{name} must be {key.of or 'a path string'}, got {value!r}")
    if kind == "enum" and value not in key.of:
        raise ConfigError(f"unknown {name} {value!r}; want one of {', '.join(key.of)}")
    if kind == "seed":
        try:
            return parse_seed(str(value))
        except ValueError as e:
            raise ConfigError(f"bad seed {str(value)!r}: want decimal or 0x-prefixed hex") from e
    if kind in ("section", "zoo") or kind == "distribution" and value != "uniform":
        section = ZOO_SPEC if kind == "zoo" else key.of
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be {section.shape}, got {value!r}")
        value = _read(value, section.keys, name)
    if kind == "zoo":
        try:
            return key.of(value["name"], **value["params"])
        except (UnknownZooEntry, TypeError, ValueError) as e:
            raise ConfigError(f"bad {name} spec: {e}") from e
    return value  # as given; "zoo name", "object" and "int list" are checked by the zoo and simulate


def _read(given: dict, keys: tuple[Key, ...], where: str) -> dict:
    """The value of each key in the section given, checked in turn for
    unknown keys, missing required keys and each value's kind and range; an
    absent key takes its default."""
    names = [key.name for key in keys]
    unknown = [name for name in given if name not in names]
    if unknown:
        raise ConfigError(f"unknown {where} keys {', '.join(map(repr, unknown))}; "
                          f"want some of {', '.join(names)}")
    missing = [key.name for key in keys if key.default is REQUIRED and key.name not in given]
    if missing:
        raise ConfigError(f"{where} needs {', '.join(missing)}")
    return {
        key.name: None if key.name not in given and key.default is None
        else _value(key, given.get(key.name, key.default))
        for key in keys
    }


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
    values: dict  # the top-level keys' checked values, per SCHEMAS[kind]

    @classmethod
    def load(cls, path: str, seed_override: str | None, out: str | None, tolerance: float):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:  # ValueError: bad JSON, or an int past 4300 digits
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
        kind = _value(EXPERIMENT, raw.get("experiment"))
        values = _read({**raw, "seed": seed_override} if seed_override else raw, SCHEMAS[kind], kind)
        return cls(kind, raw, values["seed"], Path(out or values["out"]), _value(TOLERANCE, tolerance), values)


def _function_and_protocol(values: dict):
    """The configured function and protocol family, which must share a group."""
    f, family = values["function"], values["protocol"]
    if family.group != f.group:
        raise ConfigError("function and protocol live on different groups")
    return f, family


def _load_distribution(spec, group: GroupSpec) -> Distribution:
    if spec == "uniform":
        return Distribution.uniform(group)
    path = spec["weights-file"]
    try:
        weights = [float(tok) for tok in Path(path).read_text().split()]
        if len(weights) != group.size:
            raise ValueError(f"{len(weights)} entries for a group of {group.size}")
        return Distribution.from_weights(group, weights)
    except (OSError, ValueError) as e:
        raise ConfigError(f"bad weights file {path}: {e}") from e


def _reduction_config(red: dict, seed: int) -> ReductionConfig:
    try:
        return ReductionConfig(players=red["players"], transcript_trials=red["trials"], delta=red["delta"],
                               target_q=red["target_q"], target_eps=red["target_eps"], seed=seed)
    except ValueError as e:
        raise ConfigError(f"bad reduction settings: {e}") from e


def _variant(variant: str | None, group: GroupSpec) -> str:
    variant = variant or ("exact_f2" if group.is_boolean else "exact_group")
    if variant.endswith("_f2") and not group.is_boolean:
        raise ConfigError(f"variant {variant!r} needs an all-2 group, got {group!r}")
    return variant


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + "\n")
    return path


def _write_per_x_csv(out_dir: Path, name: str, group: GroupSpec, columns: dict) -> Path:
    """One row per element: its index, its coordinates joined by "+" and
    its entry in each column.  Each column is formatted from its array,
    as csv formats Python scalars (repr for floats, str otherwise)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    digits = [np.array([str(d) for d in range(m)], dtype=object) for m in group.moduli]
    columns = {key: np.asarray(col) for key, col in columns.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "coords", *columns])
        for start in range(0, group.size, CSV_ROWS):
            x = np.arange(start, min(start + CSV_ROWS, group.size))
            coords = map("+".join, zip(*(d[x // s % m] for d, m, s in zip(digits, group.moduli, group.strides))))
            writer.writerows(zip(x.tolist(), coords, *(col[x].tolist() for col in columns.values())))
    return path


def _run_reduce(config: ExperimentConfig) -> tuple[dict, bool]:
    f, family = _function_and_protocol(config.values)
    D = _load_distribution(config.values["distribution"], f.group)
    cfg = _reduction_config(config.values["reduction"], config.seed)
    res = compile_reduce(family, f, D, cfg, _variant(config.values["variant"], f.group))
    sketch_path = _write_text(config.out_dir, "sketch.json", serialize_sketch(res.sketch))
    result = {
        "report": res.report.to_dict(),
        "sketch_file": str(sketch_path),
    }
    if config.values["output"]["per_x_table"]:
        columns = {"f": f.real_values(), "sketch": res.sketch.eval_all()}
        result["per_x_table"] = str(_write_per_x_csv(config.out_dir, "per_x.csv", f.group, columns))
    ok = all(c.get("ok") for c in res.report.checks.values())
    return result, ok


def _run_boost(config: ExperimentConfig) -> tuple[dict, bool]:
    f, family = _function_and_protocol(config.values)
    if config.values["distribution"] != "uniform":
        raise ConfigError("boost chooses its own input distributions; distribution must be 'uniform'")
    variant = _variant(config.values["variant"], f.group)
    if not variant.startswith("exact"):
        raise ConfigError(f"boost needs an exact variant, got {variant!r}")
    if not np.all(np.isin(f.real_values(), (0.0, 1.0))):
        raise ConfigError("boost needs a binary target function")
    cfg = _reduction_config(config.values["reduction"], config.seed)
    rounds = config.values["rounds"]
    res = minimax_boost(f, family, cfg, rounds, variant)
    sketch_path = _write_text(config.out_dir, "mixture.json", serialize_sketch(res.mixture))
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
    path = config.values["sketch-file"]
    try:
        sketch = deserialize_sketch(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad sketch file {path}: {e!r}") from e
    f = config.values["function"]
    group = (sketch.entries[0][1] if hasattr(sketch, "entries") else sketch).group
    if f.group != group:
        raise ConfigError(f"function group {f.group} does not match the sketch's group {group}")
    result: dict = {"sketch_file": path}
    ok = True
    stream = config.values["stream-file"]
    if stream is not None:
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
        table = _write_per_x_csv(config.out_dir, "success_per_x.csv", f.group, {"success": per_x})
        result["per_x_table"] = str(table)
        result["min_success"] = min(per_x)
        if config.values["target_q"] is not None:
            ok = result["min_success"] >= config.values["target_q"] - config.tolerance
    else:
        entries = sketch.entries if hasattr(sketch, "entries") else [(1, sketch)]
        per_x = np.zeros(f.group.size)
        for w, sk in entries:
            out = np.asarray(sk.eval_all(), dtype=np.float64)
            per_x += float(w) * (out - fv) ** 2
        table = _write_per_x_csv(config.out_dir, "sq_error_per_x.csv", f.group, {"sq_error": per_x})
        result["per_x_table"] = str(table)
        result["max_sq_error"] = float(per_x.max())
        if config.values["target_eps"] is not None:
            ok = result["max_sq_error"] <= config.values["target_eps"] + config.tolerance
    return result, ok


def _run_simulate(config: ExperimentConfig) -> tuple[dict, bool]:
    n_players = config.values["players"]
    protocol = config.values["protocol"](n_players)
    rng = derived_rng(config.seed, "simulate")
    runs = []
    f = config.values["function"]
    check_fn = None if f is None else additive_lift(f, n_players)
    explicit = config.values["inputs"]
    size = protocol.group.size
    if explicit is not None and not (
        isinstance(explicit, list) and len(explicit) == n_players
        and all(type(v) is int and 0 <= v < size for v in explicit)
    ):
        raise ConfigError(f"inputs must be {n_players} integers in [0, {size})")
    input_sets = (
        [explicit]
        if explicit is not None
        else [[rng.randrange(size) for _ in range(n_players)] for _ in range(config.values["runs"])]
    )
    for inputs in input_sets:
        messages, output = protocol.run(inputs, 0)
        entry = {"inputs": inputs, "messages": list(messages[:-1]), "output": output}
        if check_fn is not None:
            expected = check_fn(inputs)
            entry["expected"] = float(expected)
            entry["match"] = bool(np.isclose(float(output), float(expected)))
        runs.append(entry)
    ok = all(entry.get("match", True) for entry in runs)
    return {"protocol": protocol.name, "players": n_players, "runs": runs}, ok


def _run_prg_check(config: ExperimentConfig) -> tuple[dict, bool]:
    prg = config.values["prg"]
    b, k, states, n, s, p = (prg[key] for key in ("block_bits", "block_count", "states", "n", "s", "p"))
    if n * s > COUNT_LIMIT:  # the explicit n x s matrix the check materializes
        raise ConfigError(f"bad prg settings: the explicit {n} x {s} matrix exceeds {COUNT_LIMIT} entries")
    try:  # an unsupported field size, a block count not a power of two, an oversized FSM
        check_fsm_size(states, b, k)
        dist = fsm_distance(block_parity_counter(states, b), b, k, samples=prg["samples"], seed=config.seed)
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
    for _ in range(prg["shuffles"]):
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
    record = {
        "format": "modsketch.report",
        "version": 1,
        "experiment": config.kind,
        "config": config.raw,
        "seed": config.seed,
        "package_version": __version__,
        "ok": bool(ok),
        "elapsed_seconds": round(time.perf_counter() - started, 6),
        "result": result,
    }
    path = _write_text(config.out_dir, "report.json", json.dumps(record, indent=2, default=str))
    record["report_file"] = str(path)
    return record, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modsketch",
        description="linear sketching, protocol simulation, and protocol-to-sketch reduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT.of:
        p = sub.add_parser(name, help=f"run a {name} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", default=None, help="seed override (decimal or 0x-prefixed hex)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tolerance", type=float, default=TOLERANCE.default,
                       help="acceptance tolerance for measured quantities, in [0, 1)")
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
