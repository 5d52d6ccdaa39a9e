#include "obs/trace.hh"

#include <fstream>
#include <sstream>

namespace mbias::obs
{

Tracer &
Tracer::global()
{
    static Tracer instance;
    return instance;
}

void
Tracer::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    t0_ = std::chrono::steady_clock::now();
    active_.store(true, std::memory_order_release);
}

void
Tracer::stop()
{
    active_.store(false, std::memory_order_release);
}

std::uint64_t
Tracer::nowUs() const
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
}

void
Tracer::record(TraceEvent event)
{
    if (!active())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &e : events_) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
           << "\",\"ph\":\"" << e.ph
           << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.tsUs
           << ",\"dur\":" << e.durUs;
        if (!e.args.empty())
            os << ",\"args\":" << e.args;
        os << "}";
    }
    os << "\n]}\n";
    return os.str();
}

bool
Tracer::writeTo(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << chromeJson();
    return bool(out);
}

ScopedSpan::ScopedSpan(const char *name, const char *cat,
                       std::string args)
    : name_(name), cat_(cat), args_(std::move(args))
{
    Tracer &tracer = Tracer::global();
    if (!tracer.active())
        return;
    live_ = true;
    startUs_ = tracer.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!live_)
        return;
    Tracer &tracer = Tracer::global();
    TraceEvent e;
    e.name = name_;
    e.cat = cat_;
    e.tsUs = startUs_;
    const std::uint64_t end = tracer.nowUs();
    e.durUs = end > startUs_ ? end - startUs_ : 0;
    e.tid = threadId();
    e.args = std::move(args_);
    tracer.record(std::move(e));
}

} // namespace mbias::obs
