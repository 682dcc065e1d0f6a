/**
 * @file
 * Self-test of the benchmark's own logic (benchlib): percentiles and
 * their sample counts, determinism of the arrival schedule, trace
 * parsing with self-time accounting, and the epoch overhead /
 * imbalance aggregation on a synthetic trace. Exits 1 on the first
 * failed check; perfbench/run.py runs it before every benchmark run.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib.hpp"
#include "obs/trace.hpp"

using namespace perfbench;

namespace {

int checks = 0;

void
check(bool ok, const char *what, int line)
{
    checks++;
    if (!ok) {
        std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
        std::exit(1);
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; i--)  // unsorted on purpose
        v.push_back(i);
    Percentile p50 = percentile(v, 0.5);
    CHECK(p50.value == 50 && p50.n == 100 && p50.beyond == 50);
    Percentile p99 = percentile(v, 0.99);
    CHECK(p99.value == 99 && p99.n == 100 && p99.beyond == 1);
    CHECK(percentile(v, 1.0).value == 100);
    CHECK(percentile(v, 0.0).value == 1);
    CHECK(percentile({}, 0.5).n == 0 && percentile({}, 0.5).value == 0);
    CHECK(median({7}) == 7);
    Percentile p90 = percentile(v, 0.9);
    CHECK(p90.value == 90 && p90.beyond == 10);
    // 2000 samples: p99 has 20 beyond.
    std::vector<double> big;
    for (int i = 1; i <= 2000; i++)
        big.push_back(i);
    Percentile t = percentile(big, 0.99);
    CHECK(t.value == 1980 && t.n == 2000 && t.beyond == 20);
    // Odd count: the median is the middle sample.
    t = percentile({5, 1, 4, 2, 3}, 0.5);
    CHECK(t.value == 3 && t.n == 5 && t.beyond == 2);
}

void
testSchedule()
{
    const auto a = makeSchedule(42, 1500, 10, 4, 64);
    const auto b = makeSchedule(42, 1500, 10, 4, 64);
    const auto c = makeSchedule(43, 1500, 10, 4, 64);
    CHECK(a.size() == b.size());
    bool same = true;
    for (std::size_t i = 0; i < a.size() && i < b.size(); i++)
        same = same && a[i].dueS == b[i].dueS &&
               a[i].frames == b[i].frames && a[i].seed == b[i].seed;
    CHECK(same);
    CHECK(c.size() != a.size() || c[0].dueS != a[0].dueS);
    // Poisson count over 10 s at 1500/s: mean 15000, sd ~122.
    CHECK(a.size() > 14500 && a.size() < 15500);
    bool ordered = true, inRange = true;
    int minF = 1000, maxF = 0;
    for (std::size_t i = 0; i < a.size(); i++) {
        ordered = ordered && (i == 0 || a[i].dueS > a[i - 1].dueS);
        inRange = inRange && a[i].dueS >= 0 && a[i].dueS < 10;
        minF = std::min(minF, a[i].frames);
        maxF = std::max(maxF, a[i].frames);
    }
    CHECK(ordered && inRange);
    CHECK(minF == 4 && maxF == 64);
}

void
testTraceParse()
{
    TraceEv ev;
    CHECK(parseTraceLine(
        "  {\"ph\": \"B\", \"name\": \"session.advance\", \"cat\": "
        "\"serve\", \"pid\": 1, \"tid\": 7, \"ts\": 12.345, \"args\": "
        "{\"session\": 42}},",
        ev));
    CHECK(ev.ph == 'B' && ev.name == "session.advance" &&
          ev.cat == "serve" && ev.tid == 7 && ev.tsNs == 12345 &&
          ev.hasArg && ev.arg == 42);
    CHECK(!parseTraceLine("{\"traceEvents\": [", ev));
    CHECK(!parseTraceLine("  {\"ph\": \"M\", \"name\": \"thread_name\", "
                          "\"pid\": 1, \"tid\": 2, \"args\": {\"name\": "
                          "\"w\"}},",
                          ev));

    // Round trip through the real recorder: nesting and self time.
    bcl::obs::trace().clear();
    bcl::obs::trace().enable(true);
    bcl::obs::trace().begin("outer", "bench");
    bcl::obs::trace().begin("inner", "cosim.slice");
    bcl::obs::trace().end("inner", "cosim.slice");
    bcl::obs::trace().instant("session.queued", "serve", "session", 3);
    bcl::obs::trace().end("outer", "bench");
    bcl::obs::trace().enable(false);
    const std::vector<Span> spans = drainTraceSpans();
    CHECK(spans.size() == 3);
    CHECK(bcl::obs::trace().eventCount() == 0);
    const Span *outer = nullptr, *inner = nullptr, *inst = nullptr;
    for (const Span &s : spans) {
        if (s.name == "outer")
            outer = &s;
        else if (s.name == "inner")
            inner = &s;
        else if (s.name == "session.queued")
            inst = &s;
    }
    CHECK(outer && inner && inst);
    CHECK(outer->depth == 0 && inner->depth == 1 && inst->depth == 1);
    CHECK(inst->instant && inst->hasArg && inst->arg == 3);
    CHECK(inner->beginNs >= outer->beginNs && inner->endNs <= outer->endNs);
    CHECK(outer->childNs == inner->durNs());
    CHECK(outer->selfNs() == outer->durNs() - inner->durNs());
    CHECK(inner->selfNs() == inner->durNs());
}

Span
span(const char *name, const char *cat, int tid, std::uint64_t b_ms,
     std::uint64_t e_ms)
{
    Span s;
    s.name = name;
    s.cat = cat;
    s.tid = tid;
    s.beginNs = b_ms * 1000000;
    s.endNs = e_ms * 1000000;
    return s;
}

void
testEpochStats()
{
    // Coordinator (tid 1) runs two epochs: [0, 100] and [150, 250] ms,
    // so the first epoch's period (to the next begin) is 150 ms.
    // Workers 2 and 3 slice inside them.
    std::vector<Span> spans = {
        span("epoch", "cosim", 1, 0, 100),
        span("epoch", "cosim", 1, 150, 250),
        span("SW", "cosim.slice", 2, 10, 60),     // epoch 0: 50
        span("HWA", "cosim.slice", 3, 10, 90),    // epoch 0: 80
        span("SW", "cosim.slice", 2, 160, 200),   // epoch 1: 40 ...
        span("HWC", "cosim.slice", 2, 200, 240),  // ... + 40 = 80
        span("HWA", "cosim.slice", 3, 160, 180),  // epoch 1: 20
        span("SW", "cosim.slice", 1, 110, 120),   // coordinator: ignored
    };
    const EpochStats es = epochStats(spans);
    CHECK(es.epochs == 2 && es.workers == 2);
    CHECK(es.epochUs.size() == 2 && near(es.epochUs[0], 100000) &&
          near(es.epochUs[1], 100000));
    // (150 - 80) + (100 - 80)
    CHECK(near(es.overheadMs, 90));
    // (80 - 50) + (80 - 20)
    CHECK(near(es.imbalanceMs, 90));
    CHECK(epochStats({}).epochs == 0);

    // Self time by key: a slice nested in a span is subtracted.
    Span outer = span("bench.run", "bench", 1, 0, 100);
    outer.childNs = 30 * 1000000ull;
    const SpanTotals t =
        spanTotals({outer, span("SW", "cosim.slice", 1, 10, 40)});
    CHECK(near(t.dur("bench:bench.run"), 100) &&
          near(t.self("bench:bench.run"), 70));
    CHECK(near(t.self("cosim.slice:SW"), 30) && t.dur("missing") == 0);
}

} // namespace

int
main()
{
    testPercentiles();
    testSchedule();
    testTraceParse();
    testEpochStats();
    std::printf("perfbench selftest: %d checks passed\n", checks);
    return 0;
}
