/**
 * @file
 * In-memory span recorder for the traced run. Spans are taken around
 * the benchmark's own calls into each layer (the program itself carries
 * no spans yet); a span's layer is its name up to the first '.'.
 * Nothing is written until the run ends.
 */
#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0.0; //!< nowSeconds()
    double end = 0.0;
    long parent = -1;   //!< index of the enclosing span on this thread
    std::uint64_t request = 0; //!< serve request id, 0 elsewhere
    /** A request's due-to-reply latency: overlaps others in flight. */
    bool latency = false;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the calling thread's innermost open span. */
    long begin(const std::string &name, std::uint64_t request = 0);
    void end(long id);

    /**
     * Record a finished request's latency as a span with no parent.
     * Requests are in flight at once, so these spans overlap and count
     * in no layer's self time.
     */
    void recordLatency(const std::string &name, double start, double end,
                       std::uint64_t request);

    /**
     * Self seconds per layer: each span's duration minus the part its
     * direct children cover. Latency spans are left out.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    std::size_t size() const;

    /**
     * Host seconds one ScopedSpan costs on an enabled tracer, open and
     * close, as the median of a few timed batches on a scratch tracer.
     */
    static double spanCostSeconds();

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.begin(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    long id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
