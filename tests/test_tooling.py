"""The benchmark's trace hooks still find every name they wrap."""

import tracing

from modsketch import algebra, compiler, fourier, prg, sketch


def test_trace_hooks_install_and_restore():
    # install() looks each wrapped name up in its owner's __dict__, so a
    # renamed or removed name (compiler.annihilator, SubgroupEnum.coset_ids,
    # ...) fails here and not only in a traced benchmark run
    owners = (compiler, fourier, algebra.SubgroupEnum, fourier.NormalizedIndicator, sketch.SketchState,
              sketch.HInvariantSketch, sketch.LinearJuntaF2, prg.NisanGenerator)
    before = [dict(vars(owner)) for owner in owners]
    restore = tracing.install(tracing.Tracer())
    try:
        assert compiler.annihilator is not before[0]["annihilator"]
        assert algebra.SubgroupEnum.coset_ids is not before[2]["coset_ids"]
    finally:
        restore()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in saved.items())
