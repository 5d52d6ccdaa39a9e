/**
 * @file
 * The figure registry: lookup by id and registration order.
 */
#include <gtest/gtest.h>

#include "pipeline/figure.hh"

namespace
{

using namespace mbias;

pipeline::FigureSpec
spec(const std::string &id)
{
    pipeline::FigureSpec s;
    s.id = id;
    s.title = "test spec " + id;
    s.render = [](pipeline::FigureContext &) {};
    return s;
}

// One process-wide registry; this test owns it (nothing else in this
// binary registers figures).
TEST(FigureRegistry, LookupById)
{
    auto &reg = pipeline::FigureRegistry::instance();
    reg.add(spec("figA"));
    reg.add(spec("tableB"));
    reg.add(spec("fig3"));

    ASSERT_NE(reg.find("figA"), nullptr);
    EXPECT_EQ(reg.find("figA")->id, "figA");
    ASSERT_NE(reg.find("tableB"), nullptr);
    EXPECT_EQ(reg.find("tableB")->id, "tableB");
    EXPECT_EQ(reg.find("nope"), nullptr);
    // A figure has one name: its former binary name does not resolve.
    ASSERT_NE(reg.find("fig3"), nullptr);
    EXPECT_EQ(reg.find("fig3_env_size_core2"), nullptr);
}

TEST(FigureRegistry, AllPreservesRegistrationOrder)
{
    auto &reg = pipeline::FigureRegistry::instance();
    reg.add(spec("figC"));

    const auto &all = reg.all();
    ASSERT_GE(all.size(), 4u);
    EXPECT_EQ(all[0].id, "figA");
    EXPECT_EQ(all[1].id, "tableB");
    EXPECT_EQ(all[2].id, "fig3");
    EXPECT_EQ(all[3].id, "figC");
}

} // namespace
