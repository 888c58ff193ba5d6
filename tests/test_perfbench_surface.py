from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_finds_every_entry_point_it_wraps(monkeypatch):
    # the tracer looks each wrapped name up in its owner's __dict__, so a
    # deleted or moved entry point fails here rather than in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer().installed():
        pass
