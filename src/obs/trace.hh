#ifndef MBIAS_TRACE_HH
#define MBIAS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh" // threadId(), Histogram

namespace mbias::obs
{

/**
 * Span tracing in Chrome trace format.
 *
 * A span is one timed region of work: a layer boundary (sim.run,
 * toolchain.link, ...) or an engine phase (task, queue-wait).  Spans
 * are recorded as "complete" events ("ph":"X") with microsecond
 * timestamps relative to the session start, and the exported JSON
 * loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing;
 * nested spans on one thread render as nested slices.
 *
 * Tracing is process-wide and off by default: a ScopedSpan with no
 * histogram costs one relaxed load when no session is active.
 */

/** One trace event; tid is the worker's threadId(). */
struct TraceEvent
{
    const char *name = "";
    const char *cat = "";
    std::uint64_t tsUs = 0;
    std::uint64_t durUs = 0;
    unsigned tid = 0;
    char ph = 'X'; ///< 'X' = complete span, 'C' = counter sample
    std::string args; ///< pre-rendered JSON object ("{...}") or empty
};

/** The process-wide trace session; see the header comment. */
class Tracer
{
  public:
    static Tracer &global();

    /** Starts a session: clears prior events, rebases timestamps. */
    void start();

    /** Stops capturing (events stay buffered for export). */
    void stop();

    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Buffers one event (thread-safe; dropped when not active). */
    void record(TraceEvent event);

    std::size_t eventCount() const;

    /** The whole session as one Chrome-trace JSON document. */
    std::string chromeJson() const;

    /** Writes chromeJson() to @p path; false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    friend class ScopedSpan; // reads t0_ to place its event

    std::atomic<bool> active_{false};
    std::chrono::steady_clock::time_point t0_{};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * RAII span: times [construction, stop() or destruction) on the
 * calling thread under @p name, reading the clock once at each end.
 * The duration, in microseconds, goes to @p hist as one sample (when
 * given) and to the trace session as one event (when a session was
 * active at construction).  @p name and @p cat must be string
 * literals (they are kept by pointer).  @p timed reads the clock even
 * with neither, for a caller that shares stop()'s duration out itself.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, const char *cat = "task",
                        Histogram *hist = nullptr, bool timed = false);
    ~ScopedSpan() { stop(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attaches `"key":value` to the event; a no-op unless the span
     *  lands in a trace session, so an untraced span renders nothing.
     *  @p key must need no JSON escaping. */
    void arg(const char *key, std::uint64_t value);
    void arg(const char *key, std::string_view value);

    /** Ends the span now and returns its duration in microseconds (0
     *  for a span that read no clock); later calls return 0. */
    std::uint64_t stop();

    /** Ends the span without recording it anywhere. */
    void cancel() { clocked_ = live_ = false; }

  private:
    void addArg(const char *key, const std::string &json);

    const char *name_;
    const char *cat_;
    Histogram *hist_;
    std::string args_;
    std::chrono::steady_clock::time_point start_{};
    bool live_ = false;
    bool clocked_ = false;
};

} // namespace mbias::obs

#endif // MBIAS_TRACE_HH
