#ifndef MBIAS_BASE_JSON_HH
#define MBIAS_BASE_JSON_HH

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mbias
{

/**
 * The one string escape of every JSON writer: a quote or a backslash
 * gets a backslash, a control byte becomes `\u00XX` (lowercase hex),
 * and every other byte is copied as is.
 */
std::string jsonEscape(std::string_view s);

class JsonObject;

/**
 * One value of a parsed object, kept as a view into the parsed text
 * and read through typed accessors that refuse what does not fit
 * rather than wrap or guess.
 */
class JsonValue
{
  public:
    /** The value as written: a string with its quotes, a nested object
     *  or array byte for byte, or a bare scalar. */
    std::string_view raw() const { return raw_; }

    bool isString() const { return raw_.front() == '"'; }

    /** A string's text with its escapes decoded (a `\u` escape as
     *  UTF-8); nothing for any other value, or for a `\u` surrogate,
     *  which no mbias writer emits. */
    std::optional<std::string> string() const;

    /** A bare scalar through mbias::parseDecimal, so a sign, a blank,
     *  a fraction or a value above @p max is refused. */
    std::optional<std::uint64_t> decimal(
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

    /** A string of 1 to 16 hex digits, either case: the 64-bit
     *  patterns (IEEE-754 bits, hashes) that hex16() writes. */
    std::optional<std::uint64_t> hex() const;

    /** A nested object, parsed; nothing for any other value. */
    std::optional<JsonObject> object() const;

  private:
    friend class JsonObject;
    explicit JsonValue(std::string_view raw) : raw_(raw) {}

    std::string_view raw_;
};

/** One `"name":value` pair; the name as written, between its quotes. */
struct JsonField
{
    std::string_view name;
    JsonValue value;
};

/**
 * The one JSON reader of every file mbias reads back: store records,
 * store meta lines and the provenance block.  parse() walks one
 * complete `{...}` once and keeps each field as a view into the text
 * (which must outlive the object):
 *
 *  - field order is free and unknown names are the caller's to skip;
 *  - nested objects and arrays come back raw and balanced (up to 64
 *    levels deep); the walk steps over strings and their escapes, so a
 *    brace or quote inside a string never ends a value;
 *  - strings stay escaped until JsonValue::string() asks;
 *  - the grammar is the compact one every mbias writer emits: a blank
 *    between tokens, as in `{"n": 1}`, is refused.
 *
 * A torn object, trailing text, a bad escape, a raw control byte in a
 * string, an empty value and a duplicate name (no reader can tell
 * which copy was meant) each refuse the whole text.
 */
class JsonObject
{
  public:
    /** Parses @p text, which must be exactly one object; nothing when
     *  any rule above is broken. */
    static std::optional<JsonObject> parse(std::string_view text);

    /** A temporary string would leave every field dangling. */
    template <typename T>
        requires std::same_as<T, std::string>
    static std::optional<JsonObject> parse(T &&) = delete;

    /** parse() into this object, reusing its storage, for a scanner
     *  that reads line after line; false, and no fields, on a refusal. */
    bool read(std::string_view text);

    /** The value of field @p name; nullptr when absent. */
    const JsonValue *find(std::string_view name) const;

    std::vector<JsonField>::const_iterator begin() const
    {
        return fields_.begin();
    }
    std::vector<JsonField>::const_iterator end() const
    {
        return fields_.end();
    }
    std::size_t size() const { return fields_.size(); }

  private:
    bool walk(std::string_view text);

    std::vector<JsonField> fields_; ///< in text order
};

} // namespace mbias

#endif // MBIAS_BASE_JSON_HH
