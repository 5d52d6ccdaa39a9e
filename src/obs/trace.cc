#include "obs/trace.hh"

#include <fstream>
#include <sstream>

#include "base/json.hh" // jsonEscape

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

ScopedSpan::ScopedSpan(const char *name, const char *cat, Histogram *hist,
                       bool timed)
    : name_(name), cat_(cat), hist_(hist)
{
    live_ = Tracer::global().active();
    clocked_ = live_ || hist_ || timed;
    if (clocked_)
        start_ = std::chrono::steady_clock::now();
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (live_)
        addArg(key, std::to_string(value));
}

void
ScopedSpan::arg(const char *key, std::string_view value)
{
    if (live_)
        addArg(key, '"' + jsonEscape(value) + '"');
}

void
ScopedSpan::addArg(const char *key, const std::string &json)
{
    args_ += (args_.empty() ? "{\"" : ",\"") + std::string(key) + "\":" + json;
}

std::uint64_t
ScopedSpan::stop()
{
    if (!clocked_)
        return 0;
    clocked_ = false;
    const auto us = [](auto d) {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    const std::uint64_t durUs = us(std::chrono::steady_clock::now() - start_);
    if (hist_)
        hist_->record(durUs);
    if (!live_)
        return durUs;
    live_ = false;
    Tracer &tracer = Tracer::global();
    const std::uint64_t tsUs =
        start_ > tracer.t0_ ? us(start_ - tracer.t0_) : 0;
    TraceEvent e{name_, cat_, tsUs, durUs, threadId(), 'X', std::move(args_)};
    if (!e.args.empty())
        e.args += '}';
    tracer.record(std::move(e));
    return durUs;
}

} // namespace mbias::obs
