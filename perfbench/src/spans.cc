#include "spans.hh"

#include <cstdio>
#include <stdexcept>

#include "stats.hh"

namespace perfbench
{

namespace
{

/** Open span ids of the calling thread, innermost last. */
thread_local std::vector<long> openSpans;

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // anonymous namespace

long
Tracer::begin(const std::string &name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = openSpans.empty() ? -1 : openSpans.back();
    span.request = request;
    span.start = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    const long id = static_cast<long>(spans_.size()) - 1;
    openSpans.push_back(id);
    return id;
}

void
Tracer::end(long id)
{
    const double t = nowSeconds();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = t;
}

void
Tracer::recordLatency(const std::string &name, double start, double end,
                      std::uint64_t request)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{ name, start, end, -1, request, true });
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!spans_[i].latency)
            by_layer[layerOf(spans_[i].name)] += self[i];
    }
    return by_layer;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

double
Tracer::spanCostSeconds()
{
    constexpr std::size_t batch = 20'000;
    // A name past the small-string buffer, as most span names are.
    const std::string name = "serve.Evaluator.evaluate";
    std::vector<double> per_span;
    for (int b = 0; b < 5; ++b) {
        Tracer scratch(true);
        const double t0 = nowSeconds();
        for (std::size_t i = 0; i < batch; ++i)
            ScopedSpan s(scratch, name);
        per_span.push_back((nowSeconds() - t0) / static_cast<double>(batch));
    }
    return median(per_span);
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write spans to " + path);
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span &s : spans_)
        origin = s.start < origin ? s.start : origin;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"parent\":%ld,\"request\":%llu,"
                     "\"latency\":%s}\n",
                     i, s.name.c_str(), (s.start - origin) * 1e6,
                     (s.end - origin) * 1e6, s.parent,
                     static_cast<unsigned long long>(s.request),
                     s.latency ? "true" : "false");
    }
    std::fclose(out);
}

} // namespace perfbench
