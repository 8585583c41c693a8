"""Each output check passes on a real result and fails on a corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Runs the benchmark's operations at small sizes, then feeds every check
property a result corrupted in just that property.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from tracing import NullTracer

NULL = NullTracer()


@pytest.fixture(scope="module")
def reduced():
    cases = workloads.reduce_cases(3, NULL, n_parity=6, n_other=5)
    return {c.name: (c, workloads._reduce_op(c)(NULL)) for c in cases}


@pytest.fixture(scope="module")
def boosted():
    case = workloads.boost_case(3, NULL, n=3, rounds=2)
    return case, workloads._boost_op(case)(NULL)


@pytest.fixture(scope="module")
def streamed():
    sizes = {"f2": 400, "zp": 300, "h": 200, "derand": 100}
    cases, derand, fsm = workloads.stream_cases(3, NULL, sizes)
    replays = {c.kind: (c, workloads._replay_op(c)(NULL)) for c in cases}
    return replays, (derand, workloads._derand_op(derand)(NULL)), (fsm, workloads._fsm_op(fsm)(NULL))


def _with_report(res, **changes):
    return dataclasses.replace(res, report=dataclasses.replace(res.report, **changes))


def _with_post(res, post):
    return dataclasses.replace(res, sketch=dataclasses.replace(res.sketch, post=tuple(post)))


def test_reduce_checks(reduced):
    for case, res in reduced.values():
        assert checks.check_reduce(case, res) == []
    case, res = reduced["parity"]
    corrupt = {
        "densities": _with_report(res, densities=[Fraction(1, 3)] + res.report.densities[1:]),
        "transcript probability": _with_report(res, transcript_probability=Fraction(1, 4)),
        "recomputed quality": _with_report(res, quality=res.report.quality - 0.01),
        "popcount parity": _with_post(res, [1 - v for v in res.sketch.post]),
        "eval_all differs": dataclasses.replace(res, sketch=SimpleNamespace(
            rows=res.sketch.rows, post=res.sketch.post,
            eval_all=lambda: 1 - np.asarray(res.sketch.eval_all()))),
    }
    for fragment, bad in corrupt.items():
        assert any(fragment in e for e in checks.check_reduce(case, bad)), fragment
    case, res = reduced["majority"]
    flipped = _with_post(res, [1 - v for v in res.sketch.post])
    assert any("best constant" in e for e in checks.check_reduce(case, flipped))
    case, res = reduced["blend"]
    assert any("recomputed quality" in e
               for e in checks.check_reduce(case, _with_report(res, quality=0.5)))


def test_boost_checks(boosted):
    case, res = boosted
    assert checks.check_boost(case, res) == []
    (w, first), *rest = res.mixture.entries
    flipped = dataclasses.replace(first, post=tuple(1 - v for v in first.post))
    corrupt = {
        "coordinate-sum test": dataclasses.replace(
            res, mixture=SimpleNamespace(entries=[(w, flipped), *rest])),
        "weight": dataclasses.replace(
            res, mixture=SimpleNamespace(entries=[(Fraction(1), first), *rest])),
        "per-x success": dataclasses.replace(
            res, per_x_success=[Fraction(0)] + list(res.per_x_success[1:])),
        "min success": dataclasses.replace(res, min_success=Fraction(0)),
        "transcript probability": dataclasses.replace(
            res, round_reports=[dataclasses.replace(res.round_reports[0], transcript_probability=Fraction(1, 2)),
                                *res.round_reports[1:]]),
        "round count": dataclasses.replace(res, round_reports=res.round_reports[:1]),
    }
    for fragment, bad in corrupt.items():
        assert any(fragment in e for e in checks.check_boost(case, bad)), fragment


def _off_by_one(read):
    values, output = read
    if isinstance(values, tuple):
        return (values[0] + 1,) + values[1:], output
    return values + 1, output


def test_stream_checks(streamed):
    replays, (derand, dres), (fsm, fres) = streamed
    for case, (final, reads) in replays.values():
        assert checks.check_replay(case, (final, reads)) == []
        assert checks.check_replay(case, (_off_by_one(final), reads))
        assert checks.check_replay(case, ((final[0], "wrong"), reads))
        bad_reads = [reads[0], _off_by_one(reads[1]), *reads[2:]]
        assert any("segment 1" in e for e in checks.check_replay(case, (final, bad_reads)))
        assert checks.check_replay(case, (final, reads[:-1]))

    assert checks.check_derand(derand, dres) == []
    wrong = (dres[0] + 1) % derand[0].p
    assert any("materialize" in e for e in checks.check_derand(derand, (wrong, dres[1])))
    assert any("shuffled" in e for e in checks.check_derand(derand, (dres[0], wrong)))

    assert checks.check_fsm(fsm, fres) == []
    one_hot = np.eye(len(fres.prg_dist))[0]
    far_l1 = float(np.abs(fres.true_dist - one_hot).sum())
    corrupt = {
        "Binomial": dataclasses.replace(fres, true_dist=np.roll(fres.true_dist, 1)),
        "histogram": dataclasses.replace(fres, prg_dist=fres.prg_dist + 0.3 / fsm[3]),
        "recomputed": dataclasses.replace(fres, l1=fres.l1 + 0.001),
        "tolerance": dataclasses.replace(fres, prg_dist=one_hot, l1=far_l1),
    }
    for fragment, bad in corrupt.items():
        assert any(fragment in e for e in checks.check_fsm(fsm, bad)), fragment
