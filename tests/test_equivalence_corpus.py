"""Reduce and boost outputs against a committed corpus.

`equivalence_corpus.json` holds, for 21 reduces (seven cases at seeds 0, 7
and 123) and two boosts, every output a refactor of the compiler must keep:
serialized sketches, transcripts, tapes, densities, heavy sets, generators
and the `ok` of every check exactly, and every numeric check side, mixing
gap and quality to 1e-12 relative (spectral products may round
differently).  Regenerate it only for a change meant to alter outputs:

    PYTHONPATH=src python tests/test_equivalence_corpus.py --write
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from modsketch.algebra import GroupSpec
from modsketch.compiler import ReductionConfig, minimax_boost, reduce
from modsketch.fourier import DenseFunction
from modsketch.protocol import BroadcastProtocol
from modsketch.sketch import serialize_sketch
from modsketch.zoo import zoo_function, zoo_protocol

CORPUS = Path(__file__).with_name("equivalence_corpus.json")
SEEDS = (0, 7, 123)
REL_TOL = 1e-12
EXACT_FIELDS = ("transcript", "r_star", "transcript_probability", "densities", "heavy_count",
                "heavy_set_size", "heavy_set_members", "generators", "invariant_structure",
                "cost", "complexity")
NUMERIC_FIELDS = ("transcript_quality", "mixing_gap", "quality", "tolerance")


def _table_protocol(group, n_players, c, rng, streaming=True):
    """Random message tables, one per player, read at prev[-1] (streaming)
    or prev[0] (not streaming); a binary random tail."""
    read = (lambda prev: prev[-1]) if streaming else (lambda prev: prev[0])
    fns = []
    for i in range(n_players):
        table = [[rng.getrandbits(1 if i == n_players - 1 else c) for _ in range(1 << c)]
                 for _ in range(group.size)]
        fns.append(lambda x, prev, r, t=table: t[x][read(prev) if prev else 0])
    return BroadcastProtocol(group=group, n_players=n_players, message_bits=c,
                             msg_fns=tuple(fns), streaming=streaming, name="random-table")


def _masked_chain(group, n_players, masks, rng):
    """1-bit chain forwarding prev xor parity(x & mask); random tail."""
    fns = [lambda x, prev, r, m=masks[i % len(masks)]: (prev[-1] if prev else 0) ^ ((x & m).bit_count() & 1)
           for i in range(n_players - 1)]
    tail = [[rng.getrandbits(1) for _ in range(2)] for _ in range(group.size)]
    fns.append(lambda x, prev, r: tail[x][prev[-1]])
    return BroadcastProtocol(group=group, n_players=n_players, message_bits=1,
                             msg_fns=tuple(fns), streaming=True, name="masked-chain")


def _random_binary(group, rng):
    return DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float))


def reduce_cases(seed: int):
    """name -> (protocol source, f, config, variant) for one seed."""
    rng = random.Random(seed)
    f2_6 = GroupSpec.boolean(6)
    N_z3 = math.ceil(10 * 4 * math.log2(3))
    cases = {
        "parity": (zoo_protocol("parity-chain", n=8), zoo_function("parity", n=8),
                   ReductionConfig(players=80, transcript_trials=8, target_q=1.0, seed=seed), "exact_f2"),
        "majority": (zoo_protocol("parity-chain", n=7), zoo_function("majority", n=7),
                     ReductionConfig(players=70, transcript_trials=4, seed=seed), "exact_f2"),
        "blend": (zoo_protocol("two-parity-blend-chain", n=7, a=0b0011101, b=0b1101010),
                  zoo_function("two-parity-blend", n=7, a=0b0011101, b=0b1101010),
                  ReductionConfig(players=70, transcript_trials=4, seed=seed), "approx_f2"),
        "z3-running-sum": (zoo_protocol("running-sum-mod-p", n=4, p=3), zoo_function("mod-p-sum-zero", n=4, p=3),
                           ReductionConfig(players=N_z3, transcript_trials=4, target_q=1.0, seed=seed),
                           "exact_group"),
    }
    cases["random-table"] = (_table_protocol(f2_6, 21, 2, rng), _random_binary(f2_6, rng),
                             ReductionConfig(players=20, transcript_trials=16, seed=seed), "exact_f2")
    cases["masked-chain"] = (_masked_chain(f2_6, 41, [0b101100, 0b010111], rng), _random_binary(f2_6, rng),
                             ReductionConfig(players=40, transcript_trials=16, seed=seed), "exact_f2")
    cases["random-table-nonstreaming"] = (
        _table_protocol(f2_6, 13, 1, rng, streaming=False), _random_binary(f2_6, rng),
        ReductionConfig(players=12, transcript_trials=16, seed=seed), "exact_f2")
    return cases


def boost_cases():
    """name -> (f, protocol source, config, rounds, variant)."""
    return {
        "boost-f2-parity": (zoo_function("parity", n=4), zoo_protocol("parity-chain", n=4),
                            ReductionConfig(players=40, transcript_trials=4, target_q=1.0, seed=5), 3, "exact_f2"),
        "boost-z3": (zoo_function("mod-p-sum-zero", n=4, p=3), zoo_protocol("running-sum-mod-p", n=4, p=3),
                     ReductionConfig(players=64, transcript_trials=4, target_q=1.0, seed=9), 3, "exact_group"),
    }


def _checks(checks: dict) -> dict:
    """The ok of every check, and each side that is a number."""
    out = {}
    for name, c in checks.items():
        rec = {"ok": c["ok"]}
        for side in ("lhs", "rhs"):
            if isinstance(c[side], (int, float)) and not isinstance(c[side], bool):
                rec[side] = c[side]
        out[name] = rec
    return out


def record_report(report) -> dict:
    rep = report.to_dict()
    out = {k: rep[k] for k in EXACT_FIELDS + NUMERIC_FIELDS}
    out["checks"] = _checks(rep["checks"])
    return out


def record_reduce(res) -> dict:
    return {"sketch": serialize_sketch(res.sketch), **record_report(res.report)}


def record_boost(res) -> dict:
    return {
        "sketch": serialize_sketch(res.mixture),
        "per_x_success": [str(p) for p in res.per_x_success],
        "checks": _checks(res.checks),
        "rounds": [record_report(r) for r in res.round_reports],
    }


def generate() -> dict:
    corpus = {}
    for seed in SEEDS:
        for name, (source, f, cfg, variant) in reduce_cases(seed).items():
            corpus[f"{name}/{seed}"] = record_reduce(reduce(source, f, None, cfg, variant))
    for name, (f, source, cfg, rounds, variant) in boost_cases().items():
        corpus[name] = record_boost(minimax_boost(f, source, cfg, rounds, variant))
    return corpus


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _compare(got: dict, want: dict, path: str, errs: list):
    """Exact equality, except numeric fields and check sides to REL_TOL."""
    if set(got) != set(want):
        errs.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        return
    for k, w in want.items():
        if k == "checks":
            if set(got[k]) != set(w):
                errs.append(f"{path}/checks: {sorted(got[k])} != {sorted(w)}")
                continue
            for name, c in w.items():
                g = got[k][name]
                if g["ok"] != c["ok"] or not all(_close(g.get(s), c[s]) for s in c if s != "ok"):
                    errs.append(f"{path}/checks/{name}: {g} vs {c}")
        elif k == "rounds":
            for i, (g, r) in enumerate(zip(got[k], w, strict=True)):
                _compare(g, r, f"{path}/rounds/{i}", errs)
        elif k in NUMERIC_FIELDS:
            if not _close(got[k], w):
                errs.append(f"{path}/{k}: {got[k]!r} vs {w!r}")
        elif got[k] != w:
            errs.append(f"{path}/{k}: {str(got[k])[:80]} != {str(w)[:80]}")


def test_outputs_match_equivalence_corpus():
    want = json.loads(CORPUS.read_text())
    got = json.loads(json.dumps(generate()))
    assert sorted(got) == sorted(want)
    errs: list = []
    for name in want:
        _compare(got[name], want[name], name, errs)
    assert not errs, "\n".join(errs[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_equivalence_corpus.py --write")
    CORPUS.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
