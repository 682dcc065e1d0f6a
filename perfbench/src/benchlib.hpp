/**
 * @file
 * The benchmark's own logic, kept apart from the workloads so the
 * self-test can check it on synthetic input: percentiles with their
 * sample count, the seeded open-loop arrival schedule, and the
 * reduction of a Chrome trace (as obs::TraceRecorder writes it) to
 * closed spans with self time, plus the epoch-overhead and
 * load-imbalance accounting of the parallel co-simulation.
 */
#ifndef BCL_PERFBENCH_BENCHLIB_HPP
#define BCL_PERFBENCH_BENCHLIB_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/** One percentile estimate together with what it was taken from. */
struct Percentile
{
    double q = 0;       ///< requested quantile in [0, 1]
    double value = 0;   ///< nearest-rank sample (0 when n == 0)
    std::size_t n = 0;  ///< samples it was taken from
    /** Samples strictly above the chosen rank. */
    std::size_t beyond = 0;
};

/** Nearest-rank percentile of @p samples (copied and sorted). */
Percentile percentile(std::vector<double> samples, double q);

/** Median (p50 by nearest rank); 0 for an empty vector. */
double median(const std::vector<double> &samples);

// ---------------------------------------------------------------------------
// Open-loop arrival schedule
// ---------------------------------------------------------------------------

/** One stream arrival of the serving workload. */
struct Arrival
{
    double dueS = 0;          ///< offset from the window start
    int frames = 0;           ///< stream length
    std::uint64_t seed = 0;   ///< the stream's own input seed
};

/**
 * Poisson arrivals at @p rate_per_s over [0, @p duration_s), each with
 * a uniform length in [@p min_frames, @p max_frames] and its own input
 * seed. A pure function of its arguments.
 */
std::vector<Arrival> makeSchedule(std::uint64_t seed, double rate_per_s,
                                  double duration_s, int min_frames,
                                  int max_frames);

// ---------------------------------------------------------------------------
// Trace reduction
// ---------------------------------------------------------------------------

/** One event line of the recorder's Chrome-trace output. */
struct TraceEv
{
    char ph = 0;  ///< 'B', 'E', 'i', 's', 'f'
    std::string name;
    std::string cat;
    int tid = 0;
    std::uint64_t tsNs = 0;
    bool hasArg = false;
    std::int64_t arg = 0;
};

/** Parse one event line; false for lines that hold no event. */
bool parseTraceLine(const std::string &line, TraceEv &ev);

/**
 * A closed span ('B'/'E' pair) or an instant ('i', begin == end).
 * childNs is the part of [beginNs, endNs] covered by direct children
 * on the same thread, so selfNs() is the span's self time.
 */
struct Span
{
    std::string name;
    std::string cat;
    int tid = 0;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t childNs = 0;
    int depth = 0;  ///< spans open on the thread when it began
    bool instant = false;
    bool hasArg = false;
    std::int64_t arg = 0;

    std::uint64_t durNs() const { return endNs - beginNs; }
    std::uint64_t selfNs() const { return durNs() - childNs; }
};

/**
 * Pairs 'B'/'E' events per thread into Spans (flow events are
 * dropped). Feed events in the per-thread order the recorder writes
 * them; spans still open at the end are discarded.
 */
class SpanBuilder
{
  public:
    void add(const TraceEv &ev);

    /** Closed spans and instants, in closing order. */
    std::vector<Span> &spans() { return spans_; }

  private:
    std::map<int, std::vector<Span>> open_;
    std::vector<Span> spans_;
};

/**
 * streambuf that splits what is written into lines and hands each to
 * a callback, so TraceRecorder::writeJson can be reduced without
 * materializing the whole JSON document.
 */
class LineSink : public std::streambuf
{
  public:
    explicit LineSink(std::function<void(const std::string &)> on_line)
        : onLine_(std::move(on_line))
    {
    }

    /** Deliver a trailing line that has no newline. */
    void finish();

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    std::function<void(const std::string &)> onLine_;
    std::string line_;
};

/**
 * Drain the process-global recorder: write out every recorded event,
 * reduce it to spans, and clear the recorder. Recording threads must
 * be quiescent (the same condition TraceRecorder::clear has).
 */
std::vector<Span> drainTraceSpans();

/** Span durations and self times summed per "cat:name" key
 *  (instants are not counted). */
struct SpanTotals
{
    std::map<std::string, double> durMs;
    std::map<std::string, double> selfMs;
    std::map<std::string, std::uint64_t> count;

    double dur(const std::string &key) const;
    double self(const std::string &key) const;
};

SpanTotals spanTotals(const std::vector<Span> &spans);

/** Epoch accounting of one parallel co-simulation run. */
struct EpochStats
{
    std::size_t epochs = 0;
    std::vector<double> epochUs;  ///< per-epoch span duration
    /** Sum over epochs of (epoch period - busiest worker's slice
     *  time). The period runs from an epoch's begin to the next
     *  epoch's begin (the last: to its own end), so it covers the
     *  barriers and the coordinator's serial channel sweep. */
    double overheadMs = 0;
    /** Sum over epochs and workers of (busiest worker's slice time -
     *  this worker's slice time). */
    double imbalanceMs = 0;
    std::size_t workers = 0;  ///< distinct threads that ran slices
};

/**
 * Compute EpochStats from @p spans: epochs are the "epoch" spans of
 * category "cosim" (one coordinating thread); worker slices are the
 * "cosim.slice" spans on other threads, assigned to the epoch whose
 * begin precedes theirs.
 */
EpochStats epochStats(const std::vector<Span> &spans);

} // namespace perfbench

#endif // BCL_PERFBENCH_BENCHLIB_HPP
