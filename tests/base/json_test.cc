/**
 * @file
 * The one JSON reader: every line mbias writes parses, every prefix of
 * one is refused, strings round-trip through jsonEscape, nested values
 * come back byte for byte, and hostile text gets a clean refusal.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/json.hh"
#include "campaign/store.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"

namespace
{

using mbias::JsonObject;
using mbias::jsonEscape;

/** The three line shapes of a result store, as the writers emit them. */
std::vector<std::string>
storeLines()
{
    mbias::campaign::CampaignTask task;
    task.index = 12;
    task.setup.envBytes = 304;
    task.setup.linkOrder = mbias::toolchain::LinkOrder::shuffled(9);
    mbias::core::RunOutcome o;
    o.speedup = 1.0625;
    const auto record = mbias::campaign::TaskRecord::make(
        "0123456789abcdef", task, o, 4.25, 4.0);

    auto prov = mbias::obs::Provenance::capture(2);
    prov.cpuModel = "Odd \"CPU\" {x}\t[y]\\";
    const std::string header =
        "{\"mbias_store\":1,\"provenance\":" + prov.toJson() + "}";

    mbias::obs::Registry reg;
    reg.counter("engine.lanes").add(12);
    reg.gauge("artifacts.bytes").set(-3);
    reg.histogram("task.wall_us").record(250);
    const std::string trailer = "{\"mbias_metrics\":1,\"snapshot\":" +
                                reg.snapshot().toJson() + "}";
    return {record.toJson(), header, trailer};
}

TEST(JsonReader, ParsesEveryStoreLineAndRefusesEveryPrefix)
{
    for (const std::string &line : storeLines()) {
        SCOPED_TRACE(line);
        ASSERT_TRUE(JsonObject::parse(line));
        for (std::size_t cut = 0; cut < line.size(); ++cut)
            EXPECT_FALSE(JsonObject::parse(std::string_view(line).substr(
                0, cut)))
                << "accepted the prefix of length " << cut;
    }
}

TEST(JsonReader, FieldsAreViewsInTextOrder)
{
    const std::string text = R"({"b":2,"a":"x","c":true,"d":-1.5e+3})";
    const auto obj = JsonObject::parse(text);
    ASSERT_TRUE(obj);
    ASSERT_EQ(obj->size(), 4u);
    std::string names;
    for (const mbias::JsonField &f : *obj)
        names += std::string(f.name) + ";";
    EXPECT_EQ(names, "b;a;c;d;");
    EXPECT_EQ(obj->find("a")->raw(), "\"x\"");
    EXPECT_EQ(obj->find("c")->raw(), "true");
    EXPECT_EQ(obj->find("d")->raw(), "-1.5e+3");
    EXPECT_EQ(obj->find("zz"), nullptr);
    EXPECT_TRUE(JsonObject::parse("{}"));
    EXPECT_EQ(JsonObject::parse("{}")->size(), 0u);
}

TEST(JsonReader, NestedValuesComeBackByteExact)
{
    const std::string inner =
        R"({"s":"}]\"{[","list":[1,{"q":"\\"},[]],"e":{}})";
    const std::string list = R"([[{"a":"]"}],"[{",3])";
    const std::string text =
        "{\"x\":" + inner + ",\"y\":" + list + ",\"z\":1}";
    const auto obj = JsonObject::parse(text);
    ASSERT_TRUE(obj);
    EXPECT_EQ(obj->find("x")->raw(), inner);
    EXPECT_EQ(obj->find("y")->raw(), list);
    EXPECT_EQ(obj->find("z")->decimal(), 1u);

    const auto nested = obj->find("x")->object();
    ASSERT_TRUE(nested);
    EXPECT_EQ(nested->find("s")->string(), "}]\"{[");
    EXPECT_EQ(nested->find("list")->raw(), R"([1,{"q":"\\"},[]])");
    EXPECT_FALSE(obj->find("y")->object());
    EXPECT_FALSE(obj->find("z")->object());
}

TEST(JsonReader, StringsRoundTripThroughJsonEscape)
{
    std::string hostile = "{\"}[\\]\" \xc3\xa9";
    for (int c = 0; c < 0x20; ++c)
        hostile += char(c);
    hostile += "tail";
    const std::string text = "{\"s\":\"" + jsonEscape(hostile) + "\"}";
    const auto obj = JsonObject::parse(text);
    ASSERT_TRUE(obj) << text;
    EXPECT_EQ(obj->find("s")->string(), hostile);

    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape(std::string("\x1b\n\0", 3)),
              "\\u001b\\u000a\\u0000");
}

// The walk steps over strings eight bytes at a time: a quote, an
// escape or a raw control byte must stop it wherever it falls in a
// block, and bytes above 0x7f must not.
TEST(JsonReader, FindsEveryStopByteAtEveryOffset)
{
    for (std::size_t at = 0; at < 20; ++at) {
        for (const char stop : {'"', '\\', '\x01', '\x1f'}) {
            std::string s(24, 'a');
            s[at] = stop;
            s[(at + 3) % s.size()] = '\xff';
            s[(at + 5) % s.size()] = '\x80';
            const std::string text =
                "{\"s\":\"" + jsonEscape(s) + "\",\"n\":7}";
            const auto obj = JsonObject::parse(text);
            ASSERT_TRUE(obj) << text;
            EXPECT_EQ(obj->find("s")->string(), s);
            EXPECT_EQ(obj->find("n")->decimal(), 7u);
            if (stop != '"' && stop != '\\') {
                const std::string raw = "{\"s\":\"" + s + "\"}";
                EXPECT_FALSE(JsonObject::parse(raw)) << "at " << at;
            }
        }
    }
}

TEST(JsonReader, ReadReusesOneObjectLineAfterLine)
{
    mbias::JsonObject fields;
    const std::string first = R"({"a":1,"b":2})", bad = R"({"a":1,"a":2})",
                      second = R"({"c":"x"})";
    ASSERT_TRUE(fields.read(first));
    EXPECT_EQ(fields.size(), 2u);
    EXPECT_FALSE(fields.read(bad));
    EXPECT_EQ(fields.size(), 0u);
    ASSERT_TRUE(fields.read(second));
    EXPECT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields.find("a"), nullptr);
    EXPECT_EQ(fields.find("c")->string(), "x");
}

TEST(JsonReader, DecodesEveryEscape)
{
    const auto obj = JsonObject::parse(
        R"({"s":"\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac"})");
    ASSERT_TRUE(obj);
    EXPECT_EQ(obj->find("s")->string(),
              "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac");
    // A surrogate escape is well formed, but its string is refused.
    for (const char *text :
         {R"({"s":"\ud83d\ude00"})", R"({"s":"\ud800"})", R"({"s":"\udc00x"})"}) {
        const auto surrogate = JsonObject::parse(text);
        ASSERT_TRUE(surrogate) << text;
        EXPECT_FALSE(surrogate->find("s")->string()) << text;
    }
}

TEST(JsonReader, TypedFieldsRefuseWhatDoesNotFit)
{
    const auto obj = JsonObject::parse(
        R"({"n":4294967297,"neg":-1,"frac":1.5,"s":"12","h":"3ff0000000000000",)"
        R"("H":"ABCdef","long":"10000000000000000","empty":"","bare":12})");
    ASSERT_TRUE(obj);
    EXPECT_EQ(obj->find("n")->decimal(), 4294967297u);
    EXPECT_FALSE(obj->find("n")->decimal(4294967295u));
    EXPECT_FALSE(obj->find("neg")->decimal());
    EXPECT_FALSE(obj->find("frac")->decimal());
    EXPECT_FALSE(obj->find("s")->decimal());
    EXPECT_FALSE(obj->find("n")->string());

    EXPECT_EQ(obj->find("h")->hex(), 0x3ff0000000000000u);
    EXPECT_EQ(obj->find("H")->hex(), 0xabcdefu);
    EXPECT_FALSE(obj->find("long")->hex());
    EXPECT_FALSE(obj->find("empty")->hex());
    EXPECT_FALSE(obj->find("bare")->hex());
}

TEST(JsonReader, RefusesHostileText)
{
    for (const std::string bad : {
             "",
             "{",
             "}",
             "[]",
             "not json at all",
             R"({"a":1,"a":2})",          // duplicate name
             R"({"a":1,"b":{},"a":"x"})", // duplicate, apart
             R"({"a":1}x)",               // trailing text
             R"({"a":1}{"b":2})",
             R"({"a":1} )",
             R"({"a":"\x"})",             // bad escape
             R"({"a":"\u12g4"})",
             R"({"a":"\u12"})",
             "{\"a\":\"tab\there\"}",     // raw control byte
             R"({"a": 1})",               // blanks between tokens
             R"({ "a":1})",
             R"({"a":1 })",
             R"({"a":})",                 // empty value
             R"({"a":1,})",
             R"({"a"})",
             R"({a:1})",
             R"({"a":[1,2})",             // torn or mismatched nesting
             R"({"a":[}]})",
             R"({"a":{"b":"}"})",
             R"({"a":"1})",
             R"({"a":1"b":2})",
         })
        EXPECT_FALSE(JsonObject::parse(bad)) << bad;
}

TEST(JsonReader, HugeInputsAreRefusedOrReadWithoutCrashing)
{
    const std::string big(1 << 20, 'x');
    const std::string text = "{\"s\":\"" + big + "\"}";
    const auto obj = JsonObject::parse(text);
    ASSERT_TRUE(obj);
    EXPECT_EQ(obj->find("s")->string(), big);
    for (const std::string &torn :
         {"{\"s\":\"" + big, "{\"s\":\"" + big + "\\",
          "{\"s\":" + std::string(1 << 20, '[')})
        EXPECT_FALSE(JsonObject::parse(torn));

    // Nesting is capped at 64 levels.
    const auto nest = [](int depth) {
        return "{\"a\":" + std::string(depth, '[') + std::string(depth, ']') +
               "}";
    };
    const std::string deep = nest(64), deeper = nest(65);
    EXPECT_TRUE(JsonObject::parse(deep));
    EXPECT_FALSE(JsonObject::parse(deeper));
}

} // namespace
