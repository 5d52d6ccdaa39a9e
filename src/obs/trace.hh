#ifndef MBIAS_TRACE_HH
#define MBIAS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh" // threadId()

namespace mbias::obs
{

/**
 * Span tracing in Chrome trace format.
 *
 * A span is one timed phase of work (queue-wait, setup-materialize,
 * run, aggregate, store-append).  Spans are recorded as "complete"
 * events ("ph":"X") with microsecond timestamps relative to the
 * session start, and the exported JSON loads directly in Perfetto
 * (ui.perfetto.dev) or chrome://tracing; nested spans on one thread
 * render as nested slices.
 *
 * Tracing is process-wide and off by default: ScopedSpan costs one
 * relaxed load when no session is active.
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

/**
 * What a lexical scan of a written trace file found.  Mirrors the
 * result store's torn-line handling: a process killed mid-write
 * leaves a torn tail, which readers count and warn about (with the
 * byte offset) instead of failing.
 */
struct TraceFileSummary
{
    bool ok = false;            ///< file opened and had an event array
    std::size_t events = 0;     ///< complete event objects
    std::size_t bytes = 0;      ///< file size
    bool truncated = false;     ///< missing the closing "]}"
    std::size_t tornOffset = 0; ///< byte offset where the torn tail starts
    std::size_t tornBytes = 0;  ///< bytes in the torn tail
};

/** Scans @p path (Chrome-trace JSON); warns on a torn tail. */
TraceFileSummary summarizeTraceFile(const std::string &path);

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

    /** Microseconds since the session started. */
    std::uint64_t nowUs() const;

    /** Buffers one event (thread-safe; dropped when not active). */
    void record(TraceEvent event);

    std::size_t eventCount() const;

    /** The whole session as one Chrome-trace JSON document. */
    std::string chromeJson() const;

    /** Writes chromeJson() to @p path; false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    std::atomic<bool> active_{false};
    std::chrono::steady_clock::time_point t0_{};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * RAII span: records [construction, destruction) on the calling
 * thread under @p name.  @p name and @p cat must be string literals
 * (they are kept by pointer); @p args, if given, is a pre-rendered
 * JSON object attached to the event.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, const char *cat = "task",
                        std::string args = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    const char *cat_;
    std::string args_;
    std::uint64_t startUs_ = 0;
    bool live_ = false;
};

} // namespace mbias::obs

#endif // MBIAS_TRACE_HH
