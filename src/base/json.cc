#include "base/json.hh"

#include <bit>
#include <charconv>
#include <cstring>

#include "base/parse.hh"

namespace mbias
{

namespace
{

bool
isHexDigit(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
}

/** Letters, digits, signs and points: every byte a number, `true`,
 *  `false` or `null` is made of. */
bool
isScalarByte(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || c == '+' || c == '-' || c == '.';
}

/** One of 64 buckets for a field name, so that the duplicate check
 *  compares names only when two share a bucket. */
std::uint64_t
bucketBit(std::string_view name)
{
    const auto byte = [&](std::size_t i) {
        return std::uint64_t(static_cast<unsigned char>(name[i]));
    };
    const std::uint64_t x =
        name.empty() ? 0
                     : name.size() | byte(0) << 8 |
                           byte(name.size() - 1) << 16 |
                           byte(name.size() / 2) << 24;
    return std::uint64_t(1) << (x * 0x9e3779b97f4a7c15u >> 58);
}

/** Eight bytes from @p p, the first of them in the lowest byte. */
std::uint64_t
load8(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Where the first byte a string's walk must look at (its closing
 *  quote, an escape, or a raw control byte it refuses) lies among the
 *  eight of @p v: 0 to 7, or 8 when none does.  Each test flags the
 *  lowest matching byte exactly, since a borrow only runs toward
 *  higher bytes. */
unsigned
firstStringStop(std::uint64_t v)
{
    constexpr std::uint64_t ones = 0x0101010101010101u, high = ones << 7;
    const auto zeroByte = [](std::uint64_t x) {
        return (x - ones) & ~x & high;
    };
    const std::uint64_t stops = zeroByte(v ^ (ones * '"')) |
                                zeroByte(v ^ (ones * '\\')) |
                                ((v - ones * 0x20) & ~v & high);
    return unsigned(std::countr_zero(stops)) / 8;
}

/** Steps over the string whose opening quote is at @p p: just past
 *  its closing quote, or nullptr when it never closes or holds a raw
 *  control byte or a bad escape.  Inlined: names and strings are most
 *  of what a walk steps over. */
__attribute__((always_inline)) inline const char *
skipString(const char *p, const char *end)
{
    for (++p; p < end; ++p) {
        // Eight bytes at a time up to the next byte worth a look.
        for (unsigned skip = 8; skip == 8 && end - p >= 8; p += skip)
            skip = firstStringStop(load8(p));
        if (p >= end)
            break;
        if (*p == '"')
            return p + 1;
        if (static_cast<unsigned char>(*p) < 0x20)
            return nullptr;
        if (*p != '\\')
            continue;
        if (++p >= end)
            return nullptr;
        switch (*p) {
          case '"': case '\\': case '/': case 'b': case 'f': case 'n':
          case 'r': case 't':
            break;
          case 'u':
            if (end - p <= 4)
                return nullptr;
            for (int i = 1; i <= 4; ++i)
                if (!isHexDigit(p[i]))
                    return nullptr;
            p += 4;
            break;
          default:
            return nullptr;
        }
    }
    return nullptr;
}

/** Steps over the object or array that opens at @p p, checking that
 *  every closer matches its opener. */
const char *
skipNested(const char *p, const char *end)
{
    std::uint64_t objects = 0; // one bit per open level: 1 is '{'
    unsigned depth = 0;
    while (p < end) {
        const char c = *p;
        if (c == '"') {
            p = skipString(p, end);
            if (!p)
                return nullptr;
            continue;
        }
        if (c == '{' || c == '[') {
            if (depth == 64)
                return nullptr;
            objects = objects << 1 | (c == '{');
            ++depth;
        } else if (c == '}' || c == ']') {
            if ((objects & 1) != (c == '}'))
                return nullptr;
            objects >>= 1;
            if (--depth == 0)
                return p + 1;
        }
        ++p;
    }
    return nullptr;
}

const char *
skipValue(const char *p, const char *end)
{
    if (p >= end)
        return nullptr;
    if (*p == '"')
        return skipString(p, end);
    if (*p == '{' || *p == '[')
        return skipNested(p, end);
    const char *from = p;
    while (p < end && isScalarByte(*p))
        ++p;
    return p == from ? nullptr : p;
}

std::uint32_t
hex4(std::string_view digits)
{
    std::uint32_t v = 0;
    std::from_chars(digits.data(), digits.data() + 4, v, 16);
    return v;
}

void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += char(cp);
        return;
    }
    const int tail = cp < 0x800 ? 1 : 2; // cp < 0x10000
    static const unsigned char kLead[] = {0, 0xc0, 0xe0};
    out += char(kLead[tail] | cp >> (6 * tail));
    for (int i = tail - 1; i >= 0; --i)
        out += char(0x80 | (cp >> (6 * i) & 0x3f));
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
            continue;
        }
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::optional<std::string>
JsonValue::string() const
{
    if (!isString())
        return std::nullopt;
    const std::string_view body = raw_.substr(1, raw_.size() - 2);
    if (body.find('\\') == std::string_view::npos)
        return std::string(body);
    // parse() checked every escape, so each has its bytes.
    std::string out;
    out.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\') {
            out += body[i];
            continue;
        }
        const char esc = body[++i];
        switch (esc) {
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            const std::uint32_t cp = hex4(body.substr(i + 1));
            i += 4;
            if (cp >= 0xd800 && cp < 0xe000)
                return std::nullopt; // a surrogate: mbias writes none
            appendUtf8(out, cp);
            break;
          }
          default: out += esc; // '"', '\\' and '/'
        }
    }
    return out;
}

std::optional<std::uint64_t>
JsonValue::decimal(std::uint64_t max) const
{
    return parseDecimal(raw_, max);
}

std::optional<std::uint64_t>
JsonValue::hex() const
{
    if (!isString() || raw_.size() < 3 || raw_.size() > 18)
        return std::nullopt;
    const char *first = raw_.data() + 1;
    const char *last = raw_.data() + raw_.size() - 1;
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(first, last, v, 16);
    if (ec != std::errc() || ptr != last)
        return std::nullopt;
    return v;
}

std::optional<JsonObject>
JsonValue::object() const
{
    return JsonObject::parse(raw_);
}

std::optional<JsonObject>
JsonObject::parse(std::string_view text)
{
    JsonObject obj;
    if (!obj.read(text))
        return std::nullopt;
    return obj;
}

bool
JsonObject::read(std::string_view text)
{
    fields_.clear();
    fields_.reserve(16);
    if (walk(text))
        return true;
    fields_.clear();
    return false;
}

bool
JsonObject::walk(std::string_view text)
{
    if (text.size() < 2 || text.front() != '{')
        return false;
    if (text[1] == '}')
        return text.size() == 2;
    std::uint64_t buckets = 0; // of the names seen so far
    const char *p = text.data() + 1;
    const char *end = text.data() + text.size();
    for (;;) {
        if (p >= end || *p != '"')
            return false;
        const char *colon = skipString(p, end);
        if (!colon || colon >= end || *colon != ':')
            return false;
        const std::string_view name(p + 1, std::size_t(colon - p - 2));
        const std::uint64_t bit = bucketBit(name);
        if ((buckets & bit) && find(name))
            return false;
        buckets |= bit;
        const char *stop = skipValue(colon + 1, end);
        if (!stop || stop >= end)
            return false;
        fields_.push_back(
            {name, JsonValue({colon + 1, std::size_t(stop - colon - 1)})});
        p = stop + 1;
        if (*stop == '}')
            break;
        if (*stop != ',')
            return false;
    }
    return p == end;
}

const JsonValue *
JsonObject::find(std::string_view name) const
{
    for (const JsonField &f : fields_)
        if (f.name == name)
            return &f.value;
    return nullptr;
}

} // namespace mbias
