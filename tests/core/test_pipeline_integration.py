"""Integration: multi-stage decoupled pipelines through a
``StreamGraph`` (the Fig. 1 picture — computation, analytics, I/O
groups linked by streams)."""

from repro.api import StreamGraph
from repro.simmpi import beskow, quiet_testbed, run
from repro.simmpi.iolib import open_file, read_back


def _three_stage_graph(compute_body, analytics_body, io_body):
    return (StreamGraph()
            .stage("compute", fraction=0.6, body=compute_body)
            .stage("analytics", fraction=0.25, body=analytics_body)
            .stage("io", fraction=0.15, body=io_body)
            .flow("raw", src="compute", dst="analytics")
            .flow("summaries", src="analytics", dst="io"))


def test_three_group_pipeline_end_to_end():
    """compute -> analytics -> io: every sample flows through both
    stages and lands in the file exactly once."""
    p = 10
    samples_per_rank = 6

    def compute_body(ctx):
        s = ctx.producer("raw")
        for i in range(samples_per_rank):
            yield from ctx.world.compute(0.01, label="simulate")
            yield from s.send((ctx.world.rank, i))
        yield from s.terminate()
        return ("compute", samples_per_rank)

    def analytics_body(ctx):
        out = ctx.producer("summaries")
        forwarded = 0

        def forward(element):
            nonlocal forwarded
            rank, i = element.data
            yield from out.send(("summary", rank, i))
            forwarded += 1

        yield from ctx.consume("raw", forward)
        yield from out.terminate()
        return ("analytics", forwarded)

    def io_body(ctx):
        f = yield from open_file(ctx.comm, "pipeline.out", "w")
        written = {"n": 0}

        def sink(element):
            yield from f.write_shared(repr(element.data).encode())
            written["n"] += 1

        yield from ctx.consume("summaries", sink)
        yield from f.close()
        return ("io", written["n"])

    compiled = _three_stage_graph(
        compute_body, analytics_body, io_body).compile(p)
    r = run(compiled.execute, p, machine=beskow())
    results = [rec.result for rec in r.values]
    n_compute = compiled.plan.groups["compute"].size
    total = n_compute * samples_per_rank
    forwarded = sum(v[1] for v in results if v[0] == "analytics")
    written = sum(v[1] for v in results if v[0] == "io")
    assert forwarded == total
    assert written == total
    segs = read_back(r.extras["world"], "pipeline.out")
    assert len(segs) == total
    # every (rank, i) sample appears exactly once in the file
    payloads = sorted(s[1] for s in segs)
    expected = sorted(
        repr(("summary", rank, i)).encode()
        for rank in range(n_compute) for i in range(samples_per_rank)
    )
    assert payloads == expected


def test_pipeline_stages_overlap_in_time():
    """With tracing on, all three stages must be concurrently active
    somewhere in the middle of the run (the dataflow picture)."""
    p = 10

    def compute_body(ctx):
        s = ctx.producer("raw")
        for i in range(8):
            yield from ctx.world.compute(0.05, label="simulate")
            yield from s.send(i)

    def analytics_body(ctx):
        out = ctx.producer("summaries")

        def analyze(el):
            yield from ctx.world.compute(0.02, label="analyze")
            yield from out.send(el.data)

        yield from ctx.consume("raw", analyze)

    def io_body(ctx):
        def sink(el):
            yield from ctx.world.compute(0.01, label="dump")

        yield from ctx.consume("summaries", sink)

    compiled = _three_stage_graph(
        compute_body, analytics_body, io_body).compile(p)
    r = run(compiled.execute, p, machine=quiet_testbed(), trace=True)
    from repro.trace import overlap_fraction
    assert overlap_fraction(r.tracer, "analyze", "simulate") > 0.5
    assert overlap_fraction(r.tracer, "dump", "simulate") > 0.3
