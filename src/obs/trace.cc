#include "obs/trace.hh"

#include <cctype>
#include <fstream>
#include <iterator>
#include <sstream>

#include "base/logging.hh"

namespace mbias::obs
{

TraceFileSummary
summarizeTraceFile(const std::string &path)
{
    TraceFileSummary s;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return s;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    s.bytes = text.size();

    const std::size_t key = text.find("\"traceEvents\"");
    std::size_t pos =
        key == std::string::npos ? std::string::npos : text.find('[', key);
    if (pos == std::string::npos) {
        s.truncated = true;
        s.tornBytes = text.size();
        mbias_warn("trace file ", path,
                   ": no event array (torn header, ", text.size(),
                   " bytes)");
        return s;
    }
    s.ok = true;
    ++pos;

    // Walk complete {...} objects (string- and escape-aware), noting
    // where the last complete one ended; anything after that which is
    // not the closing "]" is a torn tail.
    std::size_t last_complete = pos;
    bool closed = false;
    while (pos < text.size()) {
        while (pos < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[pos])) ||
                text[pos] == ','))
            ++pos;
        if (pos >= text.size())
            break;
        if (text[pos] == ']') {
            closed = true;
            break;
        }
        if (text[pos] != '{')
            break;
        unsigned depth = 0;
        bool in_string = false, escaped = false;
        std::size_t q = pos;
        for (; q < text.size(); ++q) {
            const char c = text[q];
            if (in_string) {
                if (escaped)
                    escaped = false;
                else if (c == '\\')
                    escaped = true;
                else if (c == '"')
                    in_string = false;
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}' && --depth == 0) {
                ++q;
                break;
            }
        }
        if (depth != 0)
            break; // torn object
        ++s.events;
        pos = q;
        last_complete = pos;
    }
    s.truncated = !closed;
    if (s.truncated) {
        s.tornOffset = last_complete;
        s.tornBytes = text.size() - last_complete;
        mbias_warn("trace file ", path, ": torn tail after ", s.events,
                   " complete events (", s.tornBytes,
                   " bytes at byte offset ", s.tornOffset, ")");
    }
    return s;
}

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
