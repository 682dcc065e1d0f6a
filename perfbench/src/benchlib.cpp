#include "benchlib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace perfbench {

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.q = q;
    p.n = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

double
median(const std::vector<double> &samples)
{
    return percentile(samples, 0.5).value;
}

std::vector<Arrival>
makeSchedule(std::uint64_t seed, double rate_per_s, double duration_s,
             int min_frames, int max_frames)
{
    // Salted so the schedule's stream differs from any workload
    // generator seeded with the same number.
    bcl::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed5c4edull);
    std::vector<Arrival> out;
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - rng.real()) / rate_per_s;
        if (t >= duration_s)
            break;
        Arrival a;
        a.dueS = t;
        a.frames = min_frames +
                   static_cast<int>(rng.below(static_cast<std::uint64_t>(
                       max_frames - min_frames + 1)));
        a.seed = rng.next();
        out.push_back(a);
    }
    return out;
}

namespace {

/** Position just past `"key": ` in @p line, or npos. */
std::size_t
valueAt(const std::string &line, const char *key)
{
    const std::string pat = std::string("\"") + key + "\": ";
    std::size_t at = line.find(pat);
    return at == std::string::npos ? at : at + pat.size();
}

bool
quotedAt(const std::string &line, const char *key, std::string &out)
{
    std::size_t at = valueAt(line, key);
    if (at == std::string::npos || at >= line.size() || line[at] != '"')
        return false;
    std::size_t end = line.find('"', at + 1);
    if (end == std::string::npos)
        return false;
    out = line.substr(at + 1, end - at - 1);
    return true;
}

} // namespace

bool
parseTraceLine(const std::string &line, TraceEv &ev)
{
    std::string ph;
    if (!quotedAt(line, "ph", ph) || ph.size() != 1 || ph[0] == 'M')
        return false;
    ev = TraceEv{};
    ev.ph = ph[0];
    if (!quotedAt(line, "name", ev.name) || !quotedAt(line, "cat", ev.cat))
        return false;
    std::size_t tid = valueAt(line, "tid");
    std::size_t ts = valueAt(line, "ts");
    if (tid == std::string::npos || ts == std::string::npos)
        return false;
    ev.tid = std::atoi(line.c_str() + tid);
    // "ts" is microseconds with exactly three decimals (ns resolution).
    char *rest = nullptr;
    const unsigned long long us = std::strtoull(line.c_str() + ts, &rest, 10);
    unsigned long long ns = 0;
    if (rest && *rest == '.')
        ns = std::strtoull(rest + 1, nullptr, 10);
    ev.tsNs = us * 1000ull + ns;
    std::size_t args = line.find("\"args\": {\"");
    if (args != std::string::npos) {
        std::size_t colon = line.find("\": ", args + 10);
        if (colon != std::string::npos) {
            ev.hasArg = true;
            ev.arg = std::strtoll(line.c_str() + colon + 3, nullptr, 10);
        }
    }
    return true;
}

void
SpanBuilder::add(const TraceEv &ev)
{
    if (ev.ph == 'B') {
        Span s;
        s.name = ev.name;
        s.cat = ev.cat;
        s.tid = ev.tid;
        s.beginNs = ev.tsNs;
        s.hasArg = ev.hasArg;
        s.arg = ev.arg;
        std::vector<Span> &stack = open_[ev.tid];
        s.depth = static_cast<int>(stack.size());
        stack.push_back(std::move(s));
    } else if (ev.ph == 'E') {
        std::vector<Span> &stack = open_[ev.tid];
        if (stack.empty())
            return;
        Span s = std::move(stack.back());
        stack.pop_back();
        s.endNs = std::max(ev.tsNs, s.beginNs);
        if (!stack.empty())
            stack.back().childNs += s.durNs();
        spans_.push_back(std::move(s));
    } else if (ev.ph == 'i') {
        Span s;
        s.name = ev.name;
        s.cat = ev.cat;
        s.tid = ev.tid;
        s.beginNs = s.endNs = ev.tsNs;
        s.depth = static_cast<int>(open_[ev.tid].size());
        s.instant = true;
        s.hasArg = ev.hasArg;
        s.arg = ev.arg;
        spans_.push_back(std::move(s));
    }
}

LineSink::int_type
LineSink::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
}

std::streamsize
LineSink::xsputn(const char *s, std::streamsize n)
{
    for (std::streamsize i = 0; i < n; i++) {
        if (s[i] == '\n') {
            onLine_(line_);
            line_.clear();
        } else {
            line_.push_back(s[i]);
        }
    }
    return n;
}

void
LineSink::finish()
{
    if (!line_.empty()) {
        onLine_(line_);
        line_.clear();
    }
}

std::vector<Span>
drainTraceSpans()
{
    SpanBuilder builder;
    LineSink sink([&](const std::string &line) {
        TraceEv ev;
        if (parseTraceLine(line, ev))
            builder.add(ev);
    });
    std::ostream out(&sink);
    bcl::obs::trace().writeJson(out);
    out.flush();
    sink.finish();
    bcl::obs::trace().clear();
    return std::move(builder.spans());
}

double
SpanTotals::dur(const std::string &key) const
{
    auto it = durMs.find(key);
    return it == durMs.end() ? 0 : it->second;
}

double
SpanTotals::self(const std::string &key) const
{
    auto it = selfMs.find(key);
    return it == selfMs.end() ? 0 : it->second;
}

SpanTotals
spanTotals(const std::vector<Span> &spans)
{
    SpanTotals t;
    for (const Span &s : spans) {
        if (s.instant)
            continue;
        const std::string key = s.cat + ":" + s.name;
        t.durMs[key] += static_cast<double>(s.durNs()) / 1e6;
        t.selfMs[key] += static_cast<double>(s.selfNs()) / 1e6;
        t.count[key]++;
    }
    return t;
}

EpochStats
epochStats(const std::vector<Span> &spans)
{
    EpochStats st;
    std::vector<const Span *> epochs;
    for (const Span &s : spans) {
        if (!s.instant && s.name == "epoch" && s.cat == "cosim")
            epochs.push_back(&s);
    }
    if (epochs.empty())
        return st;
    std::sort(epochs.begin(), epochs.end(),
              [](const Span *a, const Span *b) {
                  return a->beginNs < b->beginNs;
              });
    const int coord = epochs.front()->tid;
    std::vector<std::uint64_t> begins;
    begins.reserve(epochs.size());
    for (const Span *e : epochs)
        begins.push_back(e->beginNs);

    // busy[epoch][worker index]
    std::map<int, std::size_t> workerIndex;
    std::vector<std::vector<std::uint64_t>> busy(epochs.size());
    for (const Span &s : spans) {
        if (s.instant || s.cat != "cosim.slice" || s.tid == coord)
            continue;
        auto it = std::upper_bound(begins.begin(), begins.end(),
                                   s.beginNs);
        if (it == begins.begin())
            continue;
        const auto k = static_cast<std::size_t>(it - begins.begin() - 1);
        auto [wi, fresh] = workerIndex.emplace(s.tid, workerIndex.size());
        (void)fresh;
        if (busy[k].size() <= wi->second)
            busy[k].resize(wi->second + 1, 0);
        busy[k][wi->second] += s.durNs();
    }
    st.workers = workerIndex.size();
    st.epochs = epochs.size();
    for (std::size_t k = 0; k < epochs.size(); k++) {
        const Span &e = *epochs[k];
        st.epochUs.push_back(static_cast<double>(e.durNs()) / 1e3);
        const std::uint64_t periodEnd =
            k + 1 < epochs.size() ? epochs[k + 1]->beginNs : e.endNs;
        busy[k].resize(st.workers, 0);
        std::uint64_t most = 0;
        for (std::uint64_t b : busy[k])
            most = std::max(most, b);
        const std::uint64_t period = periodEnd - e.beginNs;
        st.overheadMs +=
            static_cast<double>(period > most ? period - most : 0) / 1e6;
        for (std::uint64_t b : busy[k])
            st.imbalanceMs += static_cast<double>(most - b) / 1e6;
    }
    return st;
}

} // namespace perfbench
